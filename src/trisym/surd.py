"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Values are kept in the canonical form p + q*sqrt(d) with d squarefree and
q != 0; anything with a rational value collapses to `Fraction`. Signs and
comparisons are decided exactly, so these numbers can flow through the same
code paths as rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

Exact = Union[Fraction, "QuadraticSurd"]


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s*s*d with d squarefree; returns (s, d)."""
    if n <= 0:
        raise ValueError("need a positive integer")
    s, d, k = 1, n, 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            s *= k
        k += 1
    return s, d


def make_quadratic(p: Fraction, q: Fraction, d: int) -> Exact:
    """p + q*sqrt(d) in canonical form (a Fraction when the value is rational)."""
    p, q = Fraction(p), Fraction(q)
    if q == 0 or d == 0:
        return p
    if d < 0:
        raise ValueError("negative radicand")
    s, d0 = squarefree_decompose(d)
    if d0 == 1:
        return p + q * s
    return QuadraticSurd(p, q * s, d0)


def sqrt_bounds(d: int, prec: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on sqrt(d) within 10**-prec."""
    scale = 10 ** prec
    lo = isqrt(d * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


@dataclass(frozen=True)
class QuadraticSurd:
    """Canonical irrational element p + q*sqrt(d) of a real quadratic field."""

    p: Fraction
    q: Fraction
    d: int

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("rational value; use Fraction")
        _, d0 = squarefree_decompose(self.d)
        if d0 != self.d or self.d < 2:
            raise ValueError("radicand must be squarefree and >= 2")

    # -- basic structure ----------------------------------------------------

    def conjugate(self) -> "QuadraticSurd":
        return QuadraticSurd(self.p, -self.q, self.d)

    def norm(self) -> Fraction:
        return self.p * self.p - self.q * self.q * self.d

    def sign(self) -> int:
        # sign(p + q*sqrt(d)) from the signs of p, q and the field norm
        sp = (self.p > 0) - (self.p < 0)
        sq = (self.q > 0) - (self.q < 0)
        if sp >= 0 and sq > 0:
            return 1
        if sp <= 0 and sq < 0:
            return -1
        # p and q have strictly opposite signs here
        n = self.norm()
        if n == 0:
            return 0
        return sp if n > 0 else -sp

    def bounds(self, prec: int = 30) -> tuple[Fraction, Fraction]:
        lo, hi = sqrt_bounds(self.d, prec)
        if self.q >= 0:
            return self.p + self.q * lo, self.p + self.q * hi
        return self.p + self.q * hi, self.p + self.q * lo

    def approx(self, prec: int = 30) -> Fraction:
        lo, hi = self.bounds(prec)
        return (lo + hi) / 2

    def __float__(self) -> float:
        return float(self.approx(25))

    def __repr__(self) -> str:
        return f"({self.p} + {self.q}*sqrt({self.d}))"

    # -- field arithmetic ---------------------------------------------------

    def _coerce(self, other) -> tuple[Fraction, Fraction] | None:
        if isinstance(other, QuadraticSurd):
            if other.d != self.d:
                return None
            return other.p, other.q
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return make_quadratic(self.p + co[0], self.q + co[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.q, self.d)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return make_quadratic(self.p - co[0], self.q - co[1], self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p2, q2 = co
        return make_quadratic(self.p * p2 + self.q * q2 * self.d, self.p * q2 + self.q * p2, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "Exact":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("surd with zero norm")
        return make_quadratic(self.p / n, -self.q / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return make_quadratic(self.p / other, self.q / other, self.d)
        if isinstance(other, QuadraticSurd) and other.d == self.d:
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other if isinstance(other, (int, Fraction, QuadraticSurd)) else NotImplemented

    # -- comparisons (exact) -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadraticSurd):
            return (self.p, self.q, self.d) == (other.p, other.q, other.d)
        if isinstance(other, (int, Fraction)):
            return False  # canonical surds are irrational
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d))

    def _cmp_sign(self, other) -> int:
        diff = self - other
        if isinstance(diff, Fraction):
            return (diff > 0) - (diff < 0)
        return diff.sign()

    def __lt__(self, other):
        s = self._cmp_sign(other)
        return s < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0


def exact_sign(v: Exact) -> int:
    if isinstance(v, QuadraticSurd):
        return v.sign()
    return (v > 0) - (v < 0)


def exact_approx(v: Exact, prec: int = 30) -> Fraction:
    if isinstance(v, QuadraticSurd):
        return v.approx(prec)
    return Fraction(v)


def roots_of_quadratic(a: Fraction, b: Fraction, c: Fraction) -> list[Exact]:
    """Real roots of a*x^2 + b*x + c in ascending order, exactly.

    Degenerates gracefully: a == 0 falls back to the linear equation.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        if b == 0:
            raise ValueError("constant equation")
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [-b / (2 * a)]
    # sqrt(disc) = sqrt(num*den)/den for disc = num/den in lowest terms
    num, den = disc.numerator, disc.denominator
    radicand = num * den
    base = -b / (2 * a)
    spread = Fraction(1, den) / (2 * a)
    r1 = make_quadratic(base, -spread, radicand)
    r2 = make_quadratic(base, spread, radicand)
    # r2 - r1 = 2 * spread * sqrt(radicand) has the sign of a
    return [r1, r2] if a > 0 else [r2, r1]
