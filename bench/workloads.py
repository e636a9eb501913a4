"""The benchmark workloads: seeded inputs, one op each, output checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. Ops come in blocks; a run stops only at the end of
a block, so each run covers whole blocks. Calls go through module attributes
(``einstein.solve_einstein``, not a local alias) so the traced run sees them.

The output checks import ``oracle`` (and with it mpmath) when first called, so
the fresh processes timed for ``setup_s`` load trisym and nothing of the checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from trisym import cases, cli, einstein, surd
from trisym.checks import EXPECTED_COUNTS

F = Fraction


@dataclass(frozen=True)
class Op:
    label: str  # names the input, so a failure names it
    args: tuple


class OpFailed(Exception):
    """An op that returned without a usable output (e.g. a nonzero exit)."""


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _encode(sol) -> tuple:
    """A solution object as oracle coordinates."""
    coords = []
    for c in sol.x:
        if isinstance(c, einstein.RootCoordinate):
            iv = c.interval
            coords.append(("interval", iv.lo, iv.hi, list(iv.poly.coeffs)))
        elif isinstance(c, surd.QuadraticSurd):
            coords.append(("surd", c.p, c.q, c.d))
        else:
            coords.append(("rational", F(c)))
    return tuple(coords)


# -- catalog workload --------------------------------------------------------


class CatalogSolve:
    """`trisym solve <label> [--l/--i/--j as listed] --format json` per catalog entry."""

    name = "catalog-solve"
    budget_s = 20.0
    min_ops = 617  # a run covers the whole catalog to rank 12
    block_size = 20
    tol = F(1, 10**20)  # the CLI default

    def warmup(self) -> None:
        cases.enumerate_cases(12)

    def blocks(self, seed: int):
        rng = random.Random(seed)
        entries = [(c.type_label, c.params) for c in cases.enumerate_cases(12)]
        while True:
            order = entries[:]
            rng.shuffle(order)
            for start in range(0, len(order), self.block_size):
                yield [self._op(label, params) for label, params in order[start : start + self.block_size]]

    @staticmethod
    def _op(label, params) -> Op:
        argv = ["solve", label]
        for k, v in params:
            argv += [f"--{k}", str(v)]
        argv += ["--format", "json"]
        return Op(" ".join(argv[:-2]), (argv, label))

    def run(self, op: Op):
        return _run_cli(op.args[0])

    def check(self, op: Op, out: str) -> str | None:
        import oracle

        payload = json.loads(out)["payload"]
        label = op.args[1]
        if not payload["applicable"]:
            return None if payload["case"]["isomorphic_summands"] else "not applicable, but summands are not flagged"
        sols = [tuple(oracle.decode_coordinate(c) for c in s["x"]) for s in payload["solutions"]]
        expected = 2 if label == "A-II" else EXPECTED_COUNTS.get(label)
        if expected is not None and len(sols) != expected:
            return f"{len(sols)} solutions, golden count {expected}"
        a = [F(v) for v in payload["a"]]
        return oracle.solutions_error(a, sols, self.tol)

    def text(self, out: str) -> str:
        return out


# -- coefficient-domain sweeps ----------------------------------------------


def _log_uniform_fraction(rng: random.Random, lo_exp: float, hi_exp: float) -> Fraction:
    """p/q in (0, 1/2] with q log-uniform over 10**lo_exp .. 10**hi_exp."""
    q = max(2, round(10 ** rng.uniform(lo_exp, hi_exp)))
    return F(rng.randint(1, q // 2), q)


def _triple_label(a, digits: int) -> str:
    return f"a=({', '.join(map(str, a))}) d={digits}"


class _Sweep:
    """solve_einstein(a) -> refine_solution to 10^-d -> verify_solution at 10^-d."""

    def warmup(self) -> None:
        self.run(Op("warm-up", ((F(1, 4), F(1, 3), F(1, 5)), 10)))

    def run(self, op: Op):
        a, digits = op.args
        width = F(1, 10**digits)
        sols = einstein.solve_einstein(a)
        sols = [einstein.refine_solution(s, width) for s in sols]
        for s in sols:
            if not einstein.verify_solution(a, s, width):
                raise OpFailed(f"verify_solution rejected {s}")
        return sols

    def check(self, op: Op, sols) -> str | None:
        import oracle

        a, digits = op.args
        coords = [_encode(s) for s in sols]
        return oracle.grid_count_error(a, len(sols)) or oracle.solutions_error(a, coords, F(1, 10**digits))

    def text(self, sols) -> str:
        return "\n".join(repr(_encode(s)) for s in sols)


EDGE_VALUES = (F(1, 2), F(1, 4), F(1, 1000), F(499, 1000), F(1, 10**6), F(499999, 10**6))


class SweepGeneric(_Sweep):
    """Distinct triples, denominators log-uniform over 10..10^6, plus the domain-edge triples."""

    name = "sweep-generic"
    budget_s = 20.0
    min_ops = 240  # two blocks
    digits = (10, 50, 300)
    # random triples per precision and decade, by solution count. The count
    # sets an op's cost (four solutions take twice as long as two), so a fixed
    # mix keeps p90 from moving with the share of four-solution triples drawn.
    # With this mix p90 falls inside the four-solution mode at 10^-300, not at
    # its lower edge.
    mix = {2: 2, 4: 2}

    def blocks(self, seed: int):
        # per block and per precision: every edge triple, and per decade 10..10^6
        # of the largest denominator the random triples of ``mix``
        rng = random.Random(seed)
        edges = list(combinations(EDGE_VALUES, 3))
        while True:
            block = []
            for d in self.digits:
                for a in edges + [t for decade in range(1, 6) for t in self._random_triples(rng, decade)]:
                    a = list(a)
                    rng.shuffle(a)
                    block.append(Op(_triple_label(a, d), (tuple(a), d)))
            rng.shuffle(block)
            yield block

    def _random_triples(self, rng: random.Random, decade: int) -> list[tuple]:
        """Distinct triples drawn until ``mix`` is filled; the count comes from
        ``solve_einstein`` alone, outside the timed ops."""
        want, out = dict(self.mix), []
        while any(want.values()):
            a = [_log_uniform_fraction(rng, decade, decade + 1)]
            a += [_log_uniform_fraction(rng, 1, decade + 1) for _ in range(2)]
            if len(set(a)) < 3:
                continue
            n = len(einstein.solve_einstein(a))
            if want.get(n):
                want[n] -= 1
                out.append(tuple(a))
        return out


# triples whose equal-pair radicand is too large to factor by trial division
KNOWN_HANGS = (
    (F(499, 1000), F(499, 1000), F(39, 101)),
    (F(123457, 1000003), F(123457, 1000003), F(200001, 1000003)),
)

# the small band: p/q in (0, 1/2] for q in 8..10. Every equal-pair op on it
# takes under 0.03 s CPU; from q = 12 on some take 0.07 s, by q = 24 0.9 s.
SMALL_BAND = sorted({F(p, q) for q in range(8, 11) for p in range(1, q // 2 + 1)})


class SweepPair(_Sweep):
    """Equal-pair triples at d = 10: the whole small band, plus adversarial ones under a short budget."""

    name = "sweep-pair"
    budget_s = 0.15
    min_ops = 192  # one block
    adversarial = 46  # with the known hangs, a quarter of each block

    def blocks(self, seed: int):
        # per block: every small-band pair and every all-equal triple once, the
        # known hangs, and fresh adversarial pairs with denominators 10^4..10^6
        rng = random.Random(seed)
        while True:
            triples = [[p, p, o] for p in SMALL_BAND for o in SMALL_BAND if p != o]
            for _ in range(self.adversarial):
                while True:
                    pair, odd = (_log_uniform_fraction(rng, 4, 6) for _ in range(2))
                    if pair != odd:
                        break
                triples.append([pair, pair, odd])
            for t in triples:
                rng.shuffle(t)
            triples += [[v, v, v] for v in SMALL_BAND] + [list(t) for t in KNOWN_HANGS]
            rng.shuffle(triples)
            yield [Op(_triple_label(a, 10), (tuple(a), 10)) for a in triples]


WORKLOADS = {w.name: w for w in (CatalogSolve(), SweepGeneric(), SweepPair())}
