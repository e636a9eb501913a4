"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

A `QuadraticSurd` p + q*sqrt(d) is irrational by construction: q != 0 and
d >= 2 is not a perfect square, which one `isqrt` checks. Anything with a
rational value is a `Fraction`. Equality and hashing are by value: the same
p, the same sign of q and the same q^2*d, so no correctness depends on d
being square-free.

One integer kernel, `integer_roots_of_quadratic`, solves every quadratic: it
returns the roots as integers (P, Q, R), the values (P + Q*sqrt(d)) / R, and
reduces the one radicand d of both roots to its square-free part once, as
`make_quadratic` reduces a radicand where it enters; `roots_of_quadratic` is
the kernel on `Fraction` coefficients. Field arithmetic keeps the d of its
operands, so no operation factors a radicand again. Signs are decided exactly
by one rule on (p, q, d), `integer_sign`, which `einstein`'s exact check also
applies to integer coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt
from typing import Union

from .polysolve import integer_numerators

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


def sqrt_midpoint(d: int, prec: int) -> tuple[int, int]:
    """(s, m): s / m is the midpoint of the two multiples of 10**-prec around sqrt(d), for an integer d >= 0."""
    return 2 * isqrt(d * 10 ** (2 * prec)) + 1, 2 * 10**prec


@total_ordering
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
        """p + q*s, s the midpoint of the two multiples of 10**-prec around sqrt(d) (``sqrt_midpoint``)."""
        return self.p + self.q * Fraction(*sqrt_midpoint(self.d, prec))

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

    def __lt__(self, other) -> bool:
        # the one order rule, the sign of the exact difference; ``total_ordering`` derives <=, > and >=
        return exact_sign(self - other) < 0


def exact_sign(v: Exact) -> int:
    if isinstance(v, QuadraticSurd):
        return v.sign()
    return (v > 0) - (v < 0)


def integer_roots_of_quadratic(a: int, b: int, c: int, scale: int) -> tuple[int, list[tuple[int, int, int]]]:
    """(d, roots): the real roots of a*r^2 + b*r + c in ascending order, each as integers
    (P, Q, R) with R > 0 for (P + Q*sqrt(d)) / R; Q = 0 and d = 0 when they are rational.
    a == 0 falls back to the linear equation.

    The integers are ``scale`` times a rational quadratic, whose discriminant D / scale^2,
    D = b^2 - 4ac, is num/den in lowest terms with g = gcd(D, scale^2). The radicand reduced
    is num*den = s^2 d, as for that rational quadratic, and sqrt(D) = g s sqrt(d) / scale.
    """
    if a < 0:
        a, b, c = -a, -b, -c
    if a == 0:
        if b == 0:
            raise ValueError("constant equation")
        return 0, [(-c, 0, b) if b > 0 else (c, 0, -b)]
    disc = b * b - 4 * a * c
    if disc <= 0:
        return 0, [(-b, 0, 2 * a)] if disc == 0 else []
    g = gcd(disc, scale * scale)
    s, d = squarefree_decompose((disc // g) * (scale * scale // g))
    p, q, r = -b * scale, g * s, 2 * a * scale
    return (0, [(p - q, 0, r), (p + q, 0, r)]) if d == 1 else (d, [(p, -q, r), (p, q, r)])


def roots_of_quadratic(a: Fraction, b: Fraction, c: Fraction) -> list[Exact]:
    """Real roots of a*x^2 + b*x + c in ascending order, exactly (``integer_roots_of_quadratic``).

    Degenerates gracefully: a == 0 falls back to the linear equation.
    """
    (a, b, c), scale = integer_numerators(Fraction(v) for v in (a, b, c))
    d, roots = integer_roots_of_quadratic(a, b, c, scale)
    return [QuadraticSurd(Fraction(p, r), Fraction(q, r), d) if q else Fraction(p, r) for p, q, r in roots]
