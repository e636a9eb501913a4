"""Exact range of a polynomial of degree at most 2 over a box, in integers.

The box is [A/M, B/M], integer numerators over one positive denominator, the
form a ``polysolve.RootBisection`` halves; the polynomial is given by integer
coefficients. The range is taken from the endpoint values, plus the vertex
value when the vertex -c1 / (2 c2) lies in the box, so it is exact. The
solver encloses x2 = num(x3) / den(x3) over an x3 box with it.
"""

from __future__ import annotations

from typing import Sequence


def eval_poly_range(c: Sequence[int], A: int, B: int, M: int) -> tuple[int, int, int]:
    """(lo, hi, s): the range of c0 + c1 x + c2 x^2 over [A/M, B/M] is [lo/s, hi/s], s > 0.

    Needs A <= B and M > 0. The scale is M for degree <= 1 and 4 |c2| M^2 for degree 2.
    """
    if len(c) > 3:
        raise ValueError(f"eval_poly_range takes degree <= 2, got {len(c) - 1}")
    c0, c1, c2 = (tuple(c) + (0, 0, 0))[:3]
    if c2 == 0:
        vals = (c0 * M + c1 * A, c0 * M + c1 * B)
        return min(vals), max(vals), M
    # 4 |c2| M^2 p(X / M) at X = A, B; and at the vertex, where 4 c2 p = 4 c0 c2 - c1^2
    s = 4 * abs(c2)
    vals = [s * (c0 * M * M + (c1 * M + c2 * X) * X) for X in (A, B)]
    if (c1 * M + 2 * c2 * A) * (c1 * M + 2 * c2 * B) <= 0:  # p' changes sign on the box
        vals.append((4 * c0 * c2 - c1 * c1) * M * M * (1 if c2 > 0 else -1))
    return min(vals), max(vals), s * M * M
