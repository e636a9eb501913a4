from fractions import Fraction as F

import pytest

from trisym.intervals import Interval, eval_poly_range
from trisym.polysolve import Polynomial


def test_point_interval():
    assert Interval.of(F(1, 3)) == Interval(F(1, 3), F(1, 3))
    box = Interval(F(1), F(2))
    assert Interval.of(box) is box
    assert 1 - box == Interval(F(-1), F(0))


def test_quadratic_range_is_exact():
    # (x - 1)^2 over [0, 3]: the minimum sits inside the box
    p = Polynomial((1, -2, 1))
    assert eval_poly_range(p, Interval(F(0), F(3))) == Interval(F(0), F(4))
    assert eval_poly_range(Polynomial((2, -1)), Interval(F(0), F(3))) == Interval(F(-1), F(2))


def test_degree_above_two_rejected():
    with pytest.raises(ValueError, match="degree <= 2"):
        eval_poly_range(Polynomial((0, 0, 0, 1)), Interval(F(0), F(1)))
