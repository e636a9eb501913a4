"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `trisym verify all` for the same checks through the CLI.
"""

import time
from fractions import Fraction as F

from trisym.cases import case_dims, make_case
from trisym.checks import (
    CheckResult,
    check_coefficients,
    check_dimension_table,
    check_properties,
    check_quartic_eliminants,
    check_solution_counts,
    check_solution_values,
)
from trisym.coeffs import coefficients_for_case
from trisym.einstein import solve_case


def _report(criterion: str, results: list[CheckResult], elapsed: float | None = None):
    ok = all(r.passed for r in results)
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{timing}")
    for r in results:
        print(f"    {r.line()}")
    assert ok, [r.detail for r in results if not r.passed]


def test_criterion_1_dimension_table_reproduction():
    t0 = time.monotonic()
    results = check_dimension_table()
    elapsed = time.monotonic() - t0
    _report("1 (dimension table, exact)", results, elapsed)
    assert elapsed < 1.0, f"dimension table checks took {elapsed:.2f}s (budget 1s)"


def test_criterion_2_coefficient_reproduction():
    _report("2 (coefficient values, exact)", check_coefficients())


def test_criterion_3_solution_counts():
    t0 = time.monotonic()
    results = check_solution_counts()
    elapsed = time.monotonic() - t0
    _report("3 (solution counts, Sturm-certified)", results, elapsed)
    assert elapsed < 10.0, f"count sweep took {elapsed:.2f}s (budget 10s)"


def test_criterion_4_solution_values():
    _report("4 (closed forms exact, decimals to 5e-4)", check_solution_values())


def test_criterion_5_quartic_reproduction():
    _report("5 (eliminant quartics, exact identity)", check_quartic_eliminants())


def test_criterion_6_property_suite():
    _report("6 (property suite with independent oracles)", check_properties(seed=42))


def test_criterion_7_classical_cross_check():
    case = make_case("A-III", l=2, i=1, j=2)
    results = []
    data = coefficients_for_case(case)
    results.append(
        CheckResult(
            "rank-2 full flag manifold has a = (1/6, 1/6, 1/6)",
            data.a == (F(1, 6),) * 3,
            str(data.a),
        )
    )
    sols = solve_case(case).solutions
    results.append(
        CheckResult("rank-2 full flag manifold has exactly four metrics", len(sols) == 4, str(len(sols)))
    )
    dims = case_dims(case)
    results.append(CheckResult("dims (2, 2, 2)", dims == (2, 2, 2, 2), str(dims)))
    _report("7 (classical cross-check)", results)
