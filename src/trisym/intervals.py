"""Closed rational interval arithmetic for the back-substitution ranges.

The solver encloses x2 = num(x3) / den(x3) over an x3 box with it; residual
enclosures are integer computations in ``einstein``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .polysolve import Polynomial


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def of(cls, v) -> "Interval":
        """``v`` itself if it is an interval, else the point interval [v, v]."""
        if isinstance(v, Interval):
            return v
        v = Fraction(v)
        return cls(v, v)

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0

    def strictly_negative(self) -> bool:
        return self.hi < 0

    def __add__(self, other) -> "Interval":
        o = Interval.of(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-Interval.of(other))

    def __rsub__(self, other) -> "Interval":
        return Interval.of(other) + (-self)

    def __mul__(self, other) -> "Interval":
        o = Interval.of(other)
        prods = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(prods), max(prods))

    __rmul__ = __mul__

    def recip(self) -> "Interval":
        if self.contains_zero():
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * Interval.of(other).recip()

    def __rtruediv__(self, other) -> "Interval":
        return Interval.of(other) * self.recip()


def eval_poly_range(p: Polynomial, box: Interval) -> Interval:
    """Exact range of ``p`` over ``box``, for degree at most 2."""
    if p.degree <= 1:
        vals = sorted((p(box.lo), p(box.hi)))
        return Interval(vals[0], vals[1])
    if p.degree > 2:
        raise ValueError(f"eval_poly_range takes degree <= 2, got {p.degree}")
    candidates = [p(box.lo), p(box.hi)]
    crit = -p[1] / (2 * p[2])
    if box.lo <= crit <= box.hi:
        candidates.append(p(crit))
    return Interval(min(candidates), max(candidates))
