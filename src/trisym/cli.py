"""Command-line interface.

Subcommands: list (catalog), dims (coefficient data for one case), solve
(Einstein metrics for a case or a raw coefficient triple), verify (the
check suites). Exit codes: 0 success, 1 usage error, 2 verification
failure, 3 internal integrity error. Every refusal is a TrisymError, from
the library or from the CLI's own rules, and main alone reports it:
"usage error: <reason>" with exit 1, or for an IntegrityError
"integrity error: <reason>" with exit 3.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .cases import LIST_MAX_RANK, SELECTOR_MAX_RANK, enumerate_cases, find_cases
from .coeffs import coefficients_for_case
from .checks import CHECK_SEED, SCOPES, run_checks
from .einstein import CERTIFICATION_TOL, refine_solution, solve_case, solve_einstein, verify_solution
from .errors import IntegrityError, NotApplicable, TrisymError
from .polysolve import exact_rational
from .serialize import (
    encode_case,
    encode_fraction,
    encode_solution,
    envelope,
    render_csv,
    render_table,
    to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_INTEGRITY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage problems, not argparse's 2
        raise TrisymError(message)


def _decimal_str(value: Fraction, digits: int) -> str:
    scale = 10**digits
    scaled = value * scale
    n = scaled.numerator // scaled.denominator
    if 2 * (scaled.numerator - n * scaled.denominator) >= scaled.denominator:
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, scale)
    return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


def _resolve_case(args):
    params = {k: getattr(args, k, None) for k in ("l", "i", "j", "k")}
    max_rank = SELECTOR_MAX_RANK if args.max_rank is None else args.max_rank
    matches = find_cases(args.case, max_rank=max_rank, **params)
    if not matches:
        raise TrisymError(f"no catalog entry matches {args.case!r} with {params}")
    if len(matches) > 1:
        opts = ", ".join(m.describe() for m in matches[:8])
        raise TrisymError(
            f"ambiguous selector {args.case!r}: matches {len(matches)} entries ({opts}, ...); "
            "pass --l/--i/--j (or --k for A-II)"
        )
    return matches[0]


def _add_case_args(p):
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="A-II alias: l = 2k - 1")
    p.add_argument(
        "--max-rank", type=int, default=None, help=f"search bound for parameter-free selectors (default {SELECTOR_MAX_RANK})"
    )


def _cmd_list(args) -> int:
    cases = enumerate_cases(args.max_rank)
    if args.format == "json":
        payload = {"max_rank": args.max_rank, "cases": [encode_case(c) for c in cases]}
        warnings = [
            f"{c.describe()}: isotropy summands isomorphic; diagonal solver not applicable"
            for c in cases
            if c.isomorphic_summands
        ]
        sys.stdout.write(to_json(envelope("list", payload, warnings)))
        return EXIT_OK
    header = ["type", "tag", "ambient", "params", "isotropy", "dim_h", "d1", "d2", "d3", "flags"]
    rows = [
        [
            c.type_label,
            c.inp_tag,
            f"{c.family}{c.rank}",
            ",".join(f"{k}={v}" for k, v in c.params),
            c.isotropy_type,
            *(str(d) for d in c.dims),
            "isomorphic-summands" if c.isomorphic_summands else "",
        ]
        for c in cases
    ]
    render = render_table if args.format == "table" else render_csv
    sys.stdout.write(render(rows, header))
    return EXIT_OK


def _cmd_dims(args) -> int:
    case = _resolve_case(args)
    data = coefficients_for_case(case)
    if args.format == "json":
        sys.stdout.write(to_json(envelope("dims", encode_case(case, data))))
        return EXIT_OK
    dim_h, d1, d2, d3 = case.dims
    lines = [
        f"case       {case.describe()}  [{case.inp_tag}]",
        f"ambient    {case.family}{case.rank} (dim {dim_h + d1 + d2 + d3})",
        f"isotropy   {case.isotropy_type} (dim {dim_h})",
        f"dims       ({d1}, {d2}, {d3})",
        f"gamma      ({', '.join(str(g) for g in data.gammas)})",
        f"casimir    ({', '.join(str(c) for c in data.casimirs)})",
        f"A          {data.A}",
        f"a          ({', '.join(str(v) for v in data.a)})",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _solution_rows(solutions, digits: int):
    rows = []
    for s in solutions:
        rows.append(
            [
                s.branch,
                "(" + ", ".join(_decimal_str(v, digits) for v in s.approx(digits + 15)) + ")",
                s.einstein_constant_sign,
                "exact" if s.is_exact else "certified interval",
            ]
        )
    return rows


def _cmd_solve(args) -> int:
    digits = args.digits
    if digits < 1 or digits > 50:
        raise TrisymError("--digits must be in 1..50")
    tol = exact_rational(args.tol, "--tol")
    if tol <= 0:
        raise TrisymError("--tol must be positive")
    width = Fraction(1, 10 ** (digits + 3))
    if args.a:
        case_inputs = [repr(args.case)] if args.case else []
        case_inputs += [f"--{k}" for k in ("l", "i", "j", "k") if getattr(args, k) is not None]
        if args.max_rank is not None:
            case_inputs.append("--max-rank")
        if case_inputs:
            raise TrisymError(f"--a solves a raw triple; it cannot be combined with {', '.join(case_inputs)}")
        a = tuple(exact_rational(t, "--a") for t in args.a)
        sols, label = solve_einstein(a), None
    else:
        if not args.case:
            raise TrisymError("pass a case selector or --a p/q p/q p/q")
        case = _resolve_case(args)
        try:
            result = solve_case(case)
        except NotApplicable as exc:
            payload = {"case": encode_case(case), "applicable": False, "reason": str(exc)}
            if args.format == "json":
                sys.stdout.write(to_json(envelope("solve", payload, [str(exc)])))
            else:
                sys.stdout.write(f"not applicable: {exc}\n")
            return EXIT_OK
        a, sols, label = result.a, list(result.solutions), case
    sols = [refine_solution(s, width) for s in sols]
    for s in sols:
        if not verify_solution(a, s, tol):
            raise IntegrityError(f"solution failed certification at tol {tol}: {s}")
    payload = {
        "a": [encode_fraction(v) for v in a],
        "solutions": [encode_solution(s) for s in sols],
        "applicable": True,
    }
    if label is not None:
        payload["case"] = encode_case(label)
    if args.format == "json":
        sys.stdout.write(to_json(envelope("solve", payload)))
        return EXIT_OK
    head = f"a = ({', '.join(str(v) for v in a)})"
    if label is not None:
        head = f"{label.describe()}  [{label.inp_tag}]  " + head
    sys.stdout.write(head + "\n")
    sys.stdout.write(
        render_table(_solution_rows(sols, digits), ["branch", f"(x1, x2, x3) to {digits} digits", "einstein const", "kind"])
    )
    sys.stdout.write(f"{len(sols)} invariant Einstein metric(s) up to proportionality\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_checks(args.scope, seed=args.seed)
    payload = {
        "scope": args.scope,
        "seed": args.seed,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "passed": all(r.passed for r in results),
    }
    if args.format == "json":
        sys.stdout.write(to_json(envelope("verify", payload)))
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
        n_bad = sum(1 for r in results if not r.passed)
        sys.stdout.write(f"{len(results) - n_bad}/{len(results)} checks passed\n")
    return EXIT_OK if payload["passed"] else EXIT_VERIFY_FAILED


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> _Parser:
    p = _Parser(prog="trisym", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("list", parents=[], help="enumerate the catalog")
    lp.add_argument("--max-rank", type=int, default=LIST_MAX_RANK)
    lp.add_argument("--format", choices=("json", "table", "csv"), default="table")
    lp.set_defaults(fn=_cmd_list)

    dp = sub.add_parser("dims", help="dimension and coefficient data for one case")
    dp.add_argument("case", help="type label (e.g. E7-II) or InP tag (e.g. InP17)")
    _add_case_args(dp)
    dp.add_argument("--format", choices=("json", "text"), default="text")
    dp.set_defaults(fn=_cmd_dims)

    sp = sub.add_parser("solve", help="invariant Einstein metrics for a case or coefficients")
    sp.add_argument("case", nargs="?", default=None, help="type label or InP tag")
    _add_case_args(sp)
    sp.add_argument("--a", nargs=3, metavar="p/q", default=None, help="solve a raw coefficient triple")
    sp.add_argument("--digits", type=int, default=6, help="display precision")
    sp.add_argument("--tol", default=CERTIFICATION_TOL, help="certification tolerance (rational)")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(fn=_cmd_solve)

    vp = sub.add_parser("verify", help="run the verification suites")
    vp.add_argument("scope", choices=tuple(SCOPES))
    vp.add_argument("--seed", type=int, default=CHECK_SEED)
    vp.add_argument("--format", choices=("json", "text"), default="text")
    vp.set_defaults(fn=_cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except TrisymError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> int:
    """``main`` as the ``trisym`` command runs it: a reader that closes stdout early ends it with exit 1, quietly.

    Python flushes stdout once more at exit, so the rest of stdout goes to ``os.devnull``, where that cannot fail.
    """
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(run())
