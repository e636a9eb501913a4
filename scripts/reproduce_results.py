#!/usr/bin/env python3
"""Reproduce the headline classification results in one run.

Prints the dimension table of the solver-relevant rows, the exact
coefficient data, and the Einstein-metric classification (counts, closed
forms, certified decimals) for every exceptional case plus a slice of the
classical families.
"""

import argparse
import sys
from fractions import Fraction as F

from trisym.cases import make_case
from trisym.coeffs import coefficients_for_case
from trisym.einstein import refine_solution, solve_case
from trisym.errors import NotApplicable

HEADLINE = [
    ("A-II", {"l": 3}), ("A-II", {"l": 5}), ("A-II", {"l": 7}),
    ("E6-I", {}), ("E6-II", {}), ("E6-III", {}),
    ("E7-I", {}), ("E7-II", {}), ("E7-III", {}),
    ("E8-I", {}), ("E8-II", {}),
    ("F4-I", {}), ("F4-II", {}),
    ("A-III", {"l": 2, "i": 1, "j": 2}),
    ("C-I", {"l": 3, "i": 1, "j": 2}),
    ("D-V", {"l": 4}),
    ("D-IV", {"l": 4}),
]


def fmt_coord(c, digits):
    from trisym.einstein import RootCoordinate
    from trisym.surd import QuadraticSurd

    if isinstance(c, RootCoordinate):
        return f"{float(c.interval.midpoint):.{digits}f}"
    if isinstance(c, QuadraticSurd):
        return f"{float(c):.{digits}f}"
    return f"{float(c):.{digits}f}" if c.denominator > 1000 else str(c)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=4)
    args = ap.parse_args()
    width = F(1, 10 ** (args.digits + 4))

    for label, params in HEADLINE:
        case = make_case(label, **params)
        dim_h, d1, d2, d3 = case.dims
        data = coefficients_for_case(case)
        print(f"{case.describe()}  [{case.inp_tag}]  G = {case.family}{case.rank}, H = {case.isotropy_type}")
        print(f"  dims ({d1}, {d2}, {d3}), dim h = {dim_h}")
        print(f"  gamma = ({', '.join(map(str, data.gammas))}),  a = ({', '.join(map(str, data.a))})")
        try:
            result = solve_case(case)
        except NotApplicable as exc:
            print(f"  solver: not applicable ({exc})")
            print()
            continue
        print(f"  {len(result.solutions)} invariant Einstein metric(s) up to proportionality:")
        for s in result.solutions:
            s = refine_solution(s, width)
            coords = ", ".join(fmt_coord(c, args.digits) for c in s.x)
            print(f"    ({coords})   [{s.branch}]")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
