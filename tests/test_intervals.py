"""The integer range of ``eval_poly_range`` against a plain-``Fraction`` reference."""

from fractions import Fraction as F
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisym.intervals import eval_poly_range


def fraction_range(coeffs, lo, hi):
    """Exact range of coeffs[0] + coeffs[1] x + coeffs[2] x^2 over [lo, hi], in Fractions:
    the values at the ends, and at the vertex when it lies in the box."""
    c = [F(v) for v in coeffs] + [F(0)] * (3 - len(coeffs))
    points = [F(lo), F(hi)]
    if c[2] != 0 and lo <= -c[1] / (2 * c[2]) <= hi:
        points.append(-c[1] / (2 * c[2]))
    values = [c[0] + c[1] * x + c[2] * x * x for x in points]
    return min(values), max(values)


scale = st.integers(1, 10**30)
coefficient = st.integers(-(10**40), 10**40)
nonzero = coefficient.filter(bool)
spread = st.integers(0, 10**35)


@st.composite
def quadratic_and_box(draw, where):
    """(c, A, B, M) with the vertex of c0 + c1 x + c2 x^2 at ``where`` relative to [A/M, B/M]."""
    M, c0 = draw(scale), draw(coefficient)
    if where == "linear":
        A = draw(coefficient)
        return (c0, draw(coefficient), 0), A, A + draw(spread), M
    if where in ("lo", "hi"):  # c2 = t M and c1 = -2 t X put the vertex at X / M
        t, X = draw(nonzero), draw(coefficient)
        A, B = (X, X + draw(spread)) if where == "lo" else (X - draw(spread), X)
        return (c0, -2 * t * X, t * M), A, B, M
    c1, c2 = draw(coefficient), draw(nonzero)
    vertex = F(-c1 * M, 2 * c2)  # its numerator over M
    if where == "inside":
        A, B = math.floor(vertex) - draw(spread), math.ceil(vertex) + draw(spread)
    elif draw(st.booleans()):  # outside, to the left of the box
        A = math.floor(vertex) + 1 + draw(spread)
        B = A + draw(spread)
    else:  # outside, to the right
        B = math.ceil(vertex) - 1 - draw(spread)
        A = B - draw(spread)
    return (c0, c1, c2), A, B, M


@pytest.mark.parametrize("where", ["linear", "inside", "outside", "lo", "hi"])
@given(data=st.data())
def test_range_matches_fraction_reference(where, data):
    c, A, B, M = data.draw(quadratic_and_box(where))
    if c[2]:  # the strategy put the vertex where it says
        vertex = F(-c[1], 2 * c[2])
        position = {"lo": vertex == F(A, M), "hi": vertex == F(B, M), "inside": F(A, M) <= vertex <= F(B, M)}
        assert position.get(where, not F(A, M) <= vertex <= F(B, M))
    lo, hi, s = eval_poly_range(c, A, B, M)
    assert s > 0
    assert (F(lo, s), F(hi, s)) == fraction_range(c, F(A, M), F(B, M))


@pytest.mark.parametrize("c", [(), (7,), (2, -1), (5, 3, 0)])
def test_short_coefficient_lists(c):
    lo, hi, s = eval_poly_range(c, -3, 4, 6)
    assert (F(lo, s), F(hi, s)) == fraction_range(c, F(-3, 6), F(4, 6))


def test_quadratic_range_is_exact():
    # (x - 1)^2 over [0, 3]: the minimum sits inside the box
    lo, hi, s = eval_poly_range((1, -2, 1), 0, 3, 1)
    assert (F(lo, s), F(hi, s)) == (0, 4)


def test_degree_above_two_rejected():
    with pytest.raises(ValueError, match="degree <= 2"):
        eval_poly_range((0, 0, 0, 1), 0, 1, 1)
