"""Exact univariate polynomial algebra over rationals.

Everything in the certification path (Sturm sequences, root counting,
isolation, refinement, elimination) is exact; floating point never enters.
Polynomials hold `fractions.Fraction` coefficients, but the solve path works
on integer forms: each polynomial keeps a positive integer multiple of
itself, and the sign of p at n/d (d > 0) is the sign of the homogenised
integer sum c_k n^k + c_{k-1} n^(k-1) d + ... + c_0 d^k, evaluated by Horner's
rule.

Square-free parts, gcds and Sturm chains come from one integer remainder
sequence, `_remainder_sequence`, of primitive pseudo-remainders. With
b = lead(B), prem(A, B) = b^s rem(A, B) for the number s of reduction steps
actually taken (fewer than deg A - deg B + 1 when a leading coefficient
cancels on its own), so -sign(b)^s prem(A, B) is a positive multiple of
-rem(A, B), and every element is the integer form of the `Fraction` one,
sign kept. `squarefree_part` runs the sequence of (p, p') once: when it ends
in a constant it is also the Sturm chain of the part, which keeps it, so
each eliminant's sequence is computed once. `sturm_sequence` stays the
`Fraction` definition, off the solve path.

Intervals returned by the isolation routines are certified by a Sturm count
of one, the test `isolates` makes. It evaluates the chain once per endpoint
and counts only when the chain's head, the square-free part, has opposite
signs at the two ends: the head vanishes exactly at the roots, and a
square-free polynomial changes sign across its one simple root in an
isolating interval. `isolates_at` is the same test at integer pairs
(numerator, positive denominator). `isolate_real_roots` carries the
variation count of each bisection endpoint on its stack, so the chain is
evaluated once per midpoint.

Refinement is bisection of a box held as integer numerators a < b over one
denominator m: `root_box` writes an isolating interval that way and checks
the signs at its ends, and `bisect_root` halves it in place. `refine_root`
is built on the two, and so is the solver's back-substitution loop, so
there is one bisection loop. Elimination is by substitution: where one
equation is linear in y, den * y = num, `resultant` puts y = num/den into the
other and clears the denominator, in integers over one common denominator.
Boxes become integer numerators over one denominator by `integer_numerators`,
the one place that step is written.

Conventions:
  * coefficients are stored densely in ascending order, no trailing zeros;
  * the zero polynomial has degree -1;
  * open-interval semantics everywhere: a root sitting exactly on a finite
    endpoint is divided out before counting, so it is never included.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import IntegrityError

RatLike = Union[int, Fraction]


def integer_numerators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """(numerators, m): m the lcm of the denominators of ``values``, and value = numerator / m for each."""
    values = list(values)
    m = _int_lcm(*(v.denominator for v in values))
    return [v.numerator * (m // v.denominator) for v in values], m


def _horner_sign(ints: Sequence[int], n: int, d: int) -> int:
    """Sign at n/d (d > 0) of the polynomial with ascending integer coefficients ``ints``."""
    if not ints:
        return 0
    acc, dpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        dpow *= d
        acc = acc * n + c * dpow
    return (acc > 0) - (acc < 0)


def _variations(values: Iterable[int]) -> int:
    """Sign changes along ``values``, zeros skipped."""
    prev, n = 0, 0
    for v in values:
        if v:
            if prev and (v > 0) != (prev > 0):
                n += 1
            prev = v
    return n


class Polynomial:
    """Dense univariate polynomial with Fraction coefficients.

    Derived data is filled in on first use and kept: ``_ints``, a positive
    integer multiple of the coefficients; ``_sf``, the square-free part; and
    ``_chain``, the integer forms of the Sturm chain of the square-free part
    (set on that part only).
    """

    __slots__ = ("_c", "_ints", "_sf", "_chain")

    def __init__(self, coeffs: Iterable[RatLike]):
        c = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)
        self._ints = self._sf = self._chain = None

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, v: RatLike) -> "Polynomial":
        return cls((v,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self._c[i] if 0 <= i < len(self._c) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._c)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self._c), len(other._c))
        return Polynomial(self[i] + other[i] for i in range(n))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self._c), len(other._c))
        return Polynomial(self[i] - other[i] for i in range(n))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a == 0:
                continue
            for j, b in enumerate(other._c):
                out[i + j] += a * b
        return Polynomial(out)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def scale(self, v: RatLike) -> "Polynomial":
        v = Fraction(v)
        return Polynomial(c * v for c in self._c)

    def __call__(self, x):
        """Horner evaluation; works for any value with field arithmetic."""
        acc = None
        for c in reversed(self._c):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self._c) if i > 0)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self._c)
        d, lead = other.degree, other.leading
        while len(r) - 1 >= d and any(v != 0 for v in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            f = r[-1] / lead
            q[k] = f
            for i in range(d + 1):
                r[k + i] -= f * other._c[i]
        return Polynomial(q), Polynomial(r)

    def rem(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise IntegrityError("exact_div called on non-divisible polynomials")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(1 / self.leading)

    def primitive(self) -> "Polynomial":
        """Integer-coefficient scalar multiple with content 1 and positive lead."""
        if self.is_zero:
            return self
        ints = self._int_coeffs()
        return Polynomial(ints if ints[-1] > 0 else [-v for v in ints])

    def _int_coeffs(self) -> tuple[int, ...]:
        """Coefficients of m * self for the positive rational m that makes them coprime integers.

        Unlike ``primitive`` this never flips the sign, so signs at points agree with self's.
        """
        if self._ints is None:
            ints, _ = integer_numerators(self._c)
            g = _int_gcd(*ints)
            self._ints = tuple(v // g for v in ints)
        return self._ints

    def sign_at(self, x: RatLike) -> int:
        """Sign of self(x) at a rational x, by integer Horner evaluation."""
        x = Fraction(x)
        return _horner_sign(self._int_coeffs(), x.numerator, x.denominator)

    def squarefree(self) -> "Polynomial":
        """``squarefree_part(self)``, computed once per polynomial."""
        if self._sf is None:
            self._sf = squarefree_part(self)
        return self._sf

    def _sturm_chain(self) -> tuple[tuple[int, ...], ...]:
        """Integer forms of ``sturm_sequence(self)``, built once per square-free part."""
        sf = self.squarefree()
        if sf._chain is None:
            ints = sf._int_coeffs()
            sf._chain = _remainder_sequence(ints, _derivative_ints(ints)) if len(ints) > 1 else (ints,)
        return sf._chain


def _primitive(c: Sequence[int]) -> tuple[int, ...]:
    """``c`` divided by its positive content; ``c`` itself when that content is 1 and it is a tuple."""
    g = _int_gcd(*c)
    if g == 1 and isinstance(c, tuple):
        return c
    return tuple(v // g for v in c)


def _neg_prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A positive multiple of -rem(a, b) for deg b >= 1, in integers (empty when b divides a).

    Each step cancels the leading term r of the remainder by (b'/g) R - (r/g) x^k b,
    with b' = lead(b) and g = gcd(r, b') > 0, so after s steps the remainder is
    c * rem(a, b) with sign(c) = sign(b')^s; s is the number of steps taken, which
    is below deg a - deg b + 1 when a leading coefficient cancels on its own.
    """
    r = list(a)
    m, lead = len(b) - 1, b[-1]
    steps = 0
    while len(r) - 1 >= m:
        top = r.pop()
        k = len(r) - m
        g = _int_gcd(top, lead)
        u, v = lead // g, top // g
        r[:k] = [u * c for c in r[:k]]
        r[k:] = [u * c - v * d for c, d in zip(r[k:], b)]
        while r and not r[-1]:
            r.pop()
        steps += 1
    return r if lead < 0 and steps % 2 else [-c for c in r]


def _remainder_sequence(a: Sequence[int], b: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Primitive integer forms of a, b, -rem(a, b), ..., each a positive multiple of the rational one.

    ``a`` and ``b`` are nonzero ascending integer coefficients. The sequence
    stops at a constant or at a zero remainder, like the Sturm chain; so on
    (p, p') it is the integer form of ``sturm_sequence`` when p is
    square-free, and otherwise it ends at a multiple of gcd(p, p').
    """
    seq = [_primitive(a), _primitive(b)]
    while len(seq[-1]) > 1:
        r = _neg_prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive(r))
    return tuple(seq)


def _derivative_ints(c: Sequence[int]) -> list[int]:
    """Integer coefficients of the derivative."""
    return [i * v for i, v in enumerate(c) if i > 0]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (constant 1 for coprime inputs)."""
    if a.is_zero or b.is_zero:
        return b.monic() if a.is_zero else a.monic()
    return Polynomial(_remainder_sequence(a._int_coeffs(), b._int_coeffs())[-1]).monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p with all multiplicities reduced to one, monic.

    The remainder sequence of (p, p') is run once: when it ends in a
    constant, p is square-free and the sequence, negated when lead(p) < 0,
    is the Sturm chain of the part; otherwise its last element is the gcd.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        sf = Polynomial.constant(1)
    else:
        ints = p._int_coeffs()
        seq = _remainder_sequence(ints, _derivative_ints(ints))
        if len(seq[-1]) == 1:
            sf = p.monic()
            sf._chain = seq if ints[-1] > 0 else tuple(tuple(-v for v in q) for q in seq)
            sf._ints = sf._chain[0]
        else:
            sf = p.exact_div(Polynomial(seq[-1])).monic()
    sf._sf = sf  # a monic square-free polynomial is its own square-free part
    return sf


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Sturm chain of the squarefree part of ``p``.

    S0 = p, S1 = p', S_{k+1} = -rem(S_{k-1}, S_k), ending at a nonzero
    constant. Squarefree reduction is applied first so that the chain has
    the sign-variation property even for inputs with repeated roots.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    sf = p.squarefree()
    chain = [sf]
    if sf.degree >= 1:
        chain.append(sf.derivative())
        while chain[-1].degree >= 1:
            nxt = -(chain[-2].rem(chain[-1]))
            if nxt.is_zero:
                break
            chain.append(nxt)
    return chain


def _variations_at(chain: Sequence[Sequence[int]], x: Optional[Fraction], *, neg_inf: bool = False) -> int:
    """Sign variations of an integer chain at x; None is -inf with ``neg_inf``, else +inf."""
    if x is None:
        if neg_inf:
            return _variations(-q[-1] if len(q) % 2 == 0 else q[-1] for q in chain)
        return _variations(q[-1] for q in chain)
    n, d = x.numerator, x.denominator
    return _variations(_horner_sign(q, n, d) for q in chain)


def deflate_endpoint_roots(p: Polynomial, lo: Optional[Fraction], hi: Optional[Fraction]) -> Polynomial:
    """``p`` with its roots at the finite points among ``lo`` and ``hi`` divided out exactly.

    Nudging an endpoint off a root instead, without a separation bound, could
    move interior roots across it.
    """
    for pt in (lo, hi):
        if pt is None:
            continue
        while not p.is_zero and p.degree >= 1 and p.sign_at(pt) == 0:
            p = p.exact_div(Polynomial((-pt, 1)))
    return p


def count_real_roots(p: Polynomial, lo: Optional[RatLike] = None, hi: Optional[RatLike] = None) -> int:
    """Number of distinct real roots of ``p`` in the open interval (lo, hi).

    ``None`` stands for the corresponding infinity.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    lo_f = Fraction(lo) if lo is not None else None
    hi_f = Fraction(hi) if hi is not None else None
    if lo_f is not None and hi_f is not None and not lo_f < hi_f:
        raise ValueError("degenerate interval: need lo < hi")
    sf = deflate_endpoint_roots(p.squarefree(), lo_f, hi_f)
    if sf.degree <= 0:
        return 0
    chain = sf._sturm_chain()
    va = _variations_at(chain, lo_f, neg_inf=True)
    vb = _variations_at(chain, hi_f)
    return va - vb


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """All real roots of ``p`` lie in (-M, M) for the returned M."""
    if p.is_zero or p.degree < 1:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(abs(c) / lead for c in p.coeffs[:-1])


def isolates(p: Polynomial, lo: RatLike, hi: RatLike) -> bool:
    """True when (lo, hi) is an isolating interval of ``p``: neither end a root, one root inside."""
    lo, hi = Fraction(lo), Fraction(hi)
    return isolates_at(p, lo.numerator, lo.denominator, hi.numerator, hi.denominator)


def isolates_at(p: Polynomial, lo_n: int, lo_d: int, hi_n: int, hi_d: int) -> bool:
    """``isolates`` at lo = lo_n / lo_d and hi = hi_n / hi_d, with lo_d, hi_d > 0 and lo < hi.

    The Sturm chain of the square-free part is evaluated once per endpoint.
    Its head vanishes exactly at the roots of ``p``, and the count is
    decided only when the head has opposite signs at the two ends: a
    square-free polynomial changes sign across each simple root, so with
    exactly one root inside, and neither end a root, the end signs differ.
    """
    if not lo_n * hi_d < hi_n * lo_d:
        raise ValueError("degenerate interval: need lo < hi")
    head, *rest = p._sturm_chain()
    s_lo, s_hi = _horner_sign(head, lo_n, lo_d), _horner_sign(head, hi_n, hi_d)
    if s_lo * s_hi >= 0:
        return False
    v_lo = _variations([s_lo, *(_horner_sign(q, lo_n, lo_d) for q in rest)])
    v_hi = _variations([s_hi, *(_horner_sign(q, hi_n, hi_d) for q in rest)])
    return v_lo - v_hi == 1


@dataclass(frozen=True)
class IsolatingInterval:
    """Open rational interval certified to contain exactly one root of ``poly``."""

    lo: Fraction
    hi: Fraction
    poly: Polynomial

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _shrunk_interval_around(
    p: Polynomial, mid: Fraction, radius: Fraction, width: Optional[Fraction] = None
) -> IsolatingInterval:
    # mid is an exact root hit during bisection; carve a certified interval
    # around it, at most ``width`` wide when given, by denominator doubling
    # until the endpoints are off-root.
    d = radius
    while True:
        d = d / 2
        lo, hi = mid - d, mid + d
        if (width is None or hi - lo <= width) and isolates(p, lo, hi):
            return IsolatingInterval(lo, hi, p)


def isolate_real_roots(p: Polynomial, lo: Optional[RatLike] = None, hi: Optional[RatLike] = None) -> list[IsolatingInterval]:
    """Pairwise-disjoint certified intervals, one per distinct root in (lo, hi)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    lo_f = Fraction(lo) if lo is not None else None
    hi_f = Fraction(hi) if hi is not None else None
    if lo_f is not None and hi_f is not None and not lo_f < hi_f:
        raise ValueError("degenerate interval: need lo < hi")
    sf = deflate_endpoint_roots(p.squarefree(), lo_f, hi_f)
    if sf.degree <= 0:
        return []
    bound = cauchy_root_bound(sf)
    a = lo_f if lo_f is not None else -bound
    b = hi_f if hi_f is not None else bound
    if not a < b:
        return []
    # the Cauchy bound itself is never a root, and user endpoints were deflated; so
    # is every pushed endpoint, and each carries its variation count
    chain = sf._sturm_chain()
    out: list[IsolatingInterval] = []
    stack = [(a, b, _variations_at(chain, a), _variations_at(chain, b))]
    while stack:
        s, t, v_s, v_t = stack.pop()
        n = v_s - v_t
        if n == 0:
            continue
        if n == 1:
            out.append(IsolatingInterval(s, t, sf))
            continue
        mid = (s + t) / 2
        signs = [_horner_sign(q, mid.numerator, mid.denominator) for q in chain]
        if signs[0] == 0:
            iv = _shrunk_interval_around(sf, mid, min(mid - s, t - mid))
            out.append(iv)
            stack.append((s, iv.lo, v_s, _variations_at(chain, iv.lo)))
            stack.append((iv.hi, t, _variations_at(chain, iv.hi), v_t))
        else:
            v_mid = _variations(signs)
            stack.append((s, mid, v_s, v_mid))
            stack.append((mid, t, v_mid, v_t))
    out.sort(key=lambda iv: iv.lo)
    return out


def root_box(iv: IsolatingInterval) -> tuple[int, int, int, int]:
    """(a, b, m, s): the ends of ``iv`` as integer numerators a < b over one m > 0, and the sign at a/m.

    Raises ``IntegrityError`` unless ``iv.poly`` has nonzero, opposite signs
    at the two ends.
    """
    ints = iv.poly._int_coeffs()
    (a, b), m = integer_numerators((iv.lo, iv.hi))
    s_lo, s_hi = _horner_sign(ints, a, m), _horner_sign(ints, b, m)
    if s_lo == 0 or s_hi == 0:
        raise IntegrityError("isolating interval endpoints must not be roots")
    if s_lo == s_hi:
        raise IntegrityError("isolating interval endpoints must straddle the root")
    return a, b, m, s_lo


def bisect_root(p: Polynomial, s_lo: int, a: int, b: int, m: int, wn: int, wd: int) -> tuple[int, int, int, bool]:
    """Halve the box [a/m, b/m] around the root of ``p`` in it until (b - a) / m <= wn / wd.

    ``s_lo`` is the sign of p at a/m, and p has the other sign at b/m. Halving
    maps (a, b, m) to (2a, a + b, 2m) or (a + b, 2b, 2m), so the ends are the
    dyadic points a ``Fraction`` bisection would visit. Returns (a, b, m, hit):
    hit when the midpoint (a + b) / (2m) of the returned box is itself a root,
    found exactly, and the box was not halved further.
    """
    ints = p._int_coeffs()
    while (b - a) * wd > wn * m:
        mid = a + b
        s_mid = _horner_sign(ints, mid, 2 * m)
        if s_mid == 0:
            return a, b, m, True
        if s_mid == s_lo:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
        m *= 2
    return a, b, m, False


def refine_root(iv: IsolatingInterval, width: RatLike) -> IsolatingInterval:
    """Deterministic bisection down to the requested width; output nests in input.

    The box goes through ``root_box`` and ``bisect_root`` in integers. On an
    exact hit the root gets a certified interval of its own around it.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    p = iv.poly
    a, b, m, s_lo = root_box(iv)
    a, b, m, hit = bisect_root(p, s_lo, a, b, m, width.numerator, width.denominator)
    if hit:
        return _shrunk_interval_around(p, Fraction(a + b, 2 * m), Fraction(b - a, 2 * m), width)
    return IsolatingInterval(Fraction(a, m), Fraction(b, m), p)


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two polynomials given by ascending integer coefficients."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def resultant(p: Sequence[Polynomial], num: Polynomial, den: Polynomial) -> Polynomial:
    """Eliminate y from p(y) = p[0] + p[1] y + ... + p[m] y^m and den * y = num.

    Returns den^m * p(num / den), by Horner's rule on the homogenised sum; this
    is the resultant in y of p and den * y - num, up to the sign (-1)^m. It
    vanishes exactly at projections of common zeros, plus possibly at points
    where den and p[m] both vanish; callers must re-check candidates.

    The sum runs in integers: with every coefficient an integer over one
    denominator M, it is the integer sum over M^(m + 1).
    """
    polys = (*p, num, den)
    ints, scale = integer_numerators(c for q in polys for c in q.coeffs)
    it = iter(ints)
    *ps, n, d = [[next(it) for _ in q.coeffs] for q in polys]
    acc, dpow = ps[-1], [1]
    for c in reversed(ps[:-1]):
        dpow = _int_mul(dpow, d)
        acc = [u + v for u, v in zip_longest(_int_mul(acc, n), _int_mul(c, dpow), fillvalue=0)]
    denom = scale ** len(ps)
    return Polynomial(Fraction(v, denom) for v in acc)
