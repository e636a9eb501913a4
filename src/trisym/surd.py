"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A `QuadraticSurd` p + q*sqrt(d) is irrational by construction: q != 0 and
d >= 2 is not a perfect square, which one `isqrt` checks. Anything with a
rational value is a `Fraction`. Equality and hashing are by value: the same
p, the same sign of q and the same q^2*d, so no correctness depends on d
being square-free.

A radicand is reduced to its square-free part once, where it enters, by
`make_quadratic`; `roots_of_quadratic` reduces one radicand for both roots.
Arithmetic combines a surd with rationals and with surds over the same d,
and keeps that d, so a quadratic's values share its reduced radicand and no
operation factors it again. Signs and comparisons are decided exactly, by
one rule on (p, q, d), `integer_sign`, which `einstein`'s exact check also
applies to integer coordinates; so these numbers can flow through the same
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
    """p + q*sqrt(d) with d reduced to its square-free part (a Fraction when the value is rational)."""
    p, q = Fraction(p), Fraction(q)
    if q == 0 or d == 0:
        return p
    if d < 0:
        raise ValueError("negative radicand")
    s, d0 = squarefree_decompose(d)
    if d0 == 1:
        return p + q * s
    return QuadraticSurd(p, q * s, d0)


def integer_sign(p, q, d: int) -> int:
    """The sign of p + q*sqrt(d), for rationals p, q (integers on the hot path) and an integer d >= 0.

    When p and q do not have opposite signs it is the sign of whichever is
    nonzero; otherwise |p| and |q| sqrt(d) are compared through p^2 and q^2 d.
    """
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0) if d else 0
    if sp * sq >= 0:
        return sp or sq
    n = p * p - q * q * d
    return sp if n > 0 else sq if n < 0 else 0


@dataclass(frozen=True)
class QuadraticSurd:
    """Irrational element p + q*sqrt(d) of a real quadratic field."""

    p: Fraction
    q: Fraction
    d: int

    def __post_init__(self):
        if self.q == 0:
            raise ValueError("rational value; use Fraction")
        if self.d < 2 or isqrt(self.d) ** 2 == self.d:
            raise ValueError("radicand must be >= 2 and not a perfect square")

    # -- basic structure ----------------------------------------------------

    def norm(self) -> Fraction:
        return self.p * self.p - self.q * self.q * self.d

    def sign(self) -> int:
        return integer_sign(self.p, self.q, self.d)

    def approx(self, prec: int = 30) -> Fraction:
        """p + q*s, s the midpoint of the two multiples of 10**-prec around sqrt(d)."""
        return self.p + self.q * Fraction(2 * isqrt(self.d * 10 ** (2 * prec)) + 1, 2 * 10**prec)

    def __float__(self) -> float:
        return float(self.approx(25))

    def __repr__(self) -> str:
        return f"({self.p} + {self.q}*sqrt({self.d}))"

    # -- field arithmetic (results stay over self.d) --------------------------

    def _in_field(self, p: Fraction, q: Fraction) -> Exact:
        return QuadraticSurd(p, q, self.d) if q else p

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
        return self._in_field(self.p + co[0], self.q + co[1])

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.q, self.d)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return self._in_field(self.p - co[0], self.q - co[1])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        p2, q2 = co
        return self._in_field(self.p * p2 + self.q * q2 * self.d, self.p * q2 + self.q * p2)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticSurd":
        n = self.norm()  # nonzero since the value is irrational
        return QuadraticSurd(self.p / n, -self.q / n, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd(self.p / other, self.q / other, self.d)
        if isinstance(other, QuadraticSurd) and other.d == self.d:
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other if isinstance(other, (int, Fraction, QuadraticSurd)) else NotImplemented

    # -- comparisons (exact) -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadraticSurd):
            return self._value_key() == other._value_key()
        if isinstance(other, (int, Fraction)):
            return False  # every QuadraticSurd is irrational
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value_key())

    def _value_key(self) -> tuple[Fraction, bool, Fraction]:
        # p + q*sqrt(d) is determined by p, the sign of q and q*q*d
        return self.p, self.q > 0, self.q * self.q * self.d

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
    r2 = make_quadratic(base, spread, radicand)
    r1 = 2 * base - r2  # the conjugate, over the radicand reduced once
    # r2 - r1 = 2 * spread * sqrt(radicand) has the sign of a
    return [r1, r2] if a > 0 else [r2, r1]
