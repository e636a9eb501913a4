"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 run their entries of ``trisym.checks.CHECKS``, the table that
`trisym verify <scope>` runs too. Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines, or `trisym verify all` for the same checks
through the CLI.
"""

import time
from dataclasses import replace

import pytest

from trisym import checks
from trisym.cases import case_dims, make_case
from trisym.checks import CHECKS, SCOPES, CheckResult
from trisym.cli import main


def _report(criterion: str, results: list[CheckResult], elapsed: float | None = None):
    ok = all(r.passed for r in results)
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{timing}")
    for r in results:
        print(f"    {r.line()}")
    assert ok, [r.detail for r in results if not r.passed]


def _run(criterion: int) -> list[CheckResult]:
    return [entry.run(seed=42) for entry in CHECKS if entry.criterion == criterion]


def test_criterion_1_dimension_table_reproduction():
    t0 = time.monotonic()
    results = _run(1)
    elapsed = time.monotonic() - t0
    _report("1 (dimension table, exact)", results, elapsed)
    assert elapsed < 1.0, f"dimension table checks took {elapsed:.2f}s (budget 1s)"


def test_criterion_2_coefficient_reproduction():
    _report("2 (coefficient values, exact)", _run(2))


def test_criterion_3_solution_counts():
    t0 = time.monotonic()
    results = _run(3)
    elapsed = time.monotonic() - t0
    _report("3 (solution counts, Sturm-certified)", results, elapsed)
    assert elapsed < 10.0, f"count sweep took {elapsed:.2f}s (budget 10s)"


def test_criterion_4_solution_values():
    _report("4 (closed forms exact, decimals to 5e-4)", _run(4))


def test_criterion_5_quartic_reproduction():
    _report("5 (eliminant quartics, exact identity)", _run(5))


def test_criterion_6_property_suite():
    _report("6 (property suite with independent oracles)", _run(6))


def test_criterion_7_classical_cross_check():
    # a = 1/6 and the four metrics of the rank-2 full flag are facts of its criterion-4 check; the dims are this one's
    (flag,) = [e for e in CHECKS if e.name == "A-III l=2 (full flag of rank 2): a = 1/6 and four metrics"]
    dims = case_dims(make_case("A-III", l=2, i=1, j=2))
    results = [flag.run(seed=42), CheckResult("dims (2, 2, 2, 2)", dims == (2, 2, 2, 2), str(dims))]
    _report("7 (classical cross-check)", results)


# the checks of each `trisym verify` scope, in the order they print
_TABLE_NAMES = [
    (1, "dimension table rows (exceptional + A-II closed forms)"),
    (1, "dim h + d1 + d2 + d3 = dim g on the catalog to rank 12"),
    (2, "exceptional-case gamma and a values"),
    (2, "A-II coefficient family in k"),
    (2, "anchor gammas equal dual-Coxeter ratios"),
    (2, "d_i (1 - gamma_i) constant across blocks, catalog to rank 12"),
]
_SOLUTION_NAMES = [
    (3, "A-II family: two metrics, quartic has two positive roots"),
    (3, "exceptional-case solution counts"),
    (3, "a = (1/4,1/4,1/4) and (1/2,1/2,1/2) give only the standard metric"),
    (4, "E6-II closed-form solutions (1, 3/5, 4/5) and (1, 5/3, 4/3)"),
    (4, "equal-coefficient cases match the four-metric pattern"),
    (4, "E8-I solutions are (1, q, q) with 7q^2 - 15q + 7 = 0"),
    (4, "F4-II solutions satisfy the 196/499 quadratic on x2/x3"),
    (4, "interval solutions match reference decimals to 5e-4"),
    (4, "A-III l=2 (full flag of rank 2): a = 1/6 and four metrics"),
    (5, "E6-III and E7-II eliminants match the reference quartics"),
    (5, "A-II eliminant matches the symbolic quartic"),
]
_PROPERTY_NAMES = [
    (6, "(1,1,1) is a solution iff a1 = a2 = a3"),
    (6, "solution count invariant under coefficient permutations"),
    (6, "every reported solution verifies at tol 1e-20"),
    (6, "Sturm root counts agree with a numeric eigenvalue oracle"),
    (6, "brute-force grid oracle agrees on solution counts"),
]


def test_scopes_select_the_table_in_order(capsys):
    """Read without running a check: each scope's (criterion, name) list, and the verify parser's choices."""
    want = {
        "tables": _TABLE_NAMES,
        "solutions": _SOLUTION_NAMES,
        "properties": _PROPERTY_NAMES,
        "all": _TABLE_NAMES + _SOLUTION_NAMES + _PROPERTY_NAMES,
    }
    got = {scope: [(e.criterion, e.name) for e in CHECKS if e.criterion in crit] for scope, crit in SCOPES.items()}
    assert got == want and list(SCOPES) == list(want)
    # argparse's error text lists the verify parser's choices in order, quoted or not by Python version
    assert main(["verify", "no-such-scope"]) == 1
    err = capsys.readouterr().err
    assert ", ".join(map(repr, SCOPES)) in err or f"(choose from {', '.join(SCOPES)})" in err


@pytest.mark.parametrize("dropped", [0, 1])
def test_decimals_check_fails_on_a_dropped_solution(monkeypatch, dropped):
    solve = checks.solve_case

    def drop_one(case):
        found = solve(case)
        kept = tuple(s for t, s in enumerate(found.solutions) if t != dropped)
        return replace(found, solutions=kept) if case.type_label == "E6-III" else found

    monkeypatch.setattr(checks, "solve_case", drop_one)
    (entry,) = [e for e in CHECKS if e.name == "interval solutions match reference decimals to 5e-4"]
    result = entry.run(42)
    assert not result.passed and result.line().startswith("FAIL  interval solutions match reference decimals")
