"""Exact univariate polynomial algebra over rationals.

Everything in the certification path (Sturm sequences, root counting,
isolation, refinement, elimination) is exact; floating point never enters,
and every public entry point refuses a float (``exact_rational``).

A polynomial is stored as content * ints: ``ints`` its primitive integer
coefficients (gcd 1, sign kept) and ``content`` one positive ``Fraction``,
from which the ``Fraction`` coefficients are derived. No ``Fraction``
arithmetic on polynomials is left; every routine reads ``ints``. The sign of
p at n/d (d > 0) is that of the homogenised integer sum
c_k n^k + c_{k-1} n^(k-1) d + ... + c_0 d^k, by Horner's rule, and at the
dyadic points of a bisection with the powers of two as shifts (below). Exact
division is integer long division: by Gauss's lemma an exact quotient of
primitive integer polynomials is a primitive integer polynomial (Knuth,
TAOCP vol. 2, 4.6.1).

Square-free parts, gcds and Sturm chains come from one integer remainder
sequence, `_remainder_sequence`, of primitive pseudo-remainders. With
b = lead(B), prem(A, B) = b^s rem(A, B) for the number s of reduction steps
actually taken (fewer than deg A - deg B + 1 when a leading coefficient
cancels on its own), so -sign(b)^s prem(A, B) is a positive multiple of
-rem(A, B), and every element is a positive multiple of the rational one.
`squarefree_part`, the one square-free entry, runs the sequence of (p, p')
once and keeps the part on p: when the sequence ends in a constant it is
also the Sturm chain of the part, which keeps it, so each eliminant's
sequence is computed once. A chain is kept until `drop_sturm_chain`, which a
caller that keeps a polynomial past its counts and isolations calls, and
`_sturm_chain` builds a dropped one again on demand (for a carve, or a box
with no certificate). `sturm_sequence` returns that chain, each element
a positive multiple of the textbook one; a Sturm count reads only signs, so
its counts are the textbook ones. Counting and isolation start from one box,
`_end_box`, which puts -/+ the Cauchy bound, never a root, for an infinite end.

Intervals returned by the isolation routines are certified by a Sturm count
of one, the test `isolates` makes. It evaluates the chain once per endpoint
and counts only when the chain's head, the square-free part, has opposite
signs at the two ends: the head vanishes exactly at the roots, and a
square-free polynomial changes sign across its one simple root in an
isolating interval. `isolates_at` is the same test at integer pairs
(numerator, positive denominator). An interval carries that proof in its
``certified`` flag, which only this module sets, where it proved it:
`isolate_real_roots`, a `RootBisection` of a certified interval, and
`certify_box`. A copy, a changed polynomial or a hand-built box is
uncertified. Inside a certified box the test needs no chain: `certify_box`
decides a sub-box [lo, hi] by the square-free part's signs at its two ends,
since the box holds exactly one root and the part changes sign across it and
nowhere else.

Isolation and refinement bisect one kind of box, integer numerators a < b
over one denominator m, halved to (2a, a + b, 2m) or (a + b, 2b, 2m): the
dyadic points a ``Fraction`` bisection would visit. An `IsolatingInterval`
is such a box, reduced, so no ``Fraction`` is made between isolation and
output. A midpoint that is an exact root gets a box of its own from `_carve`.
`isolate_real_roots` stacks boxes with the variation counts at their ends, so
the chain is evaluated once per midpoint. A `RootBisection` opens from an
interval, checks the end signs of its box, halves the box in place, carving
on a hit, and hands back its `interval`. Halving keeps b - a fixed over
m 2^j for the entry denominator m, so it carries only the lower end; it
scales the coefficients by powers of m once per entry box and applies the
powers of two as shifts: the same points, signs and boxes as the homogenised
sum, with one big multiplication per Horner step. It is resumable: halved to
a width (`to_width`, the halving count computed once) or by a given count
(`halve`), it goes on from where it stopped. `refine_root` is one
`RootBisection` taken to a width, and the solver's back-substitution loop is
one that it halves twice per failed iteration. Elimination is by substitution:
where one equation is linear in y, den * y = num, `resultant` puts y = num/den
into the other and clears the denominator, in integers over one common
denominator of the contents, with `int_mul` the integer polynomial product.
Rationals become integer numerators over one denominator by
`integer_numerators`, the one place that step is written.

Conventions:
  * coefficients are in ascending order, no trailing zeros;
  * the zero polynomial has degree -1, no ``ints`` and content 1;
  * open-interval semantics everywhere: a root sitting exactly on a finite
    endpoint is divided out before counting, so it is never included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import IntegrityError, TrisymError

RatLike = Union[int, Fraction, str]

_ONE = Fraction(1)


def exact_rational(v, what: str) -> Fraction:
    """``v`` as a Fraction; a float (a binary fraction, not the decimal it shows) or a non-rational is refused."""
    if type(v) is Fraction:
        return v
    if isinstance(v, float):
        raise TrisymError(f"{what} {v!r} is a float; give an int, a Fraction or a 'p/q' string")
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise TrisymError(f"{what} {v!r} is not a rational number; give an int, a Fraction or a 'p/q' string") from None


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
    """Dense univariate polynomial over the rationals, stored as ``content * ints``.

    ``ints`` holds the primitive integer coefficients in ascending order (gcd
    1, the polynomial's sign kept, empty for zero), and ``content`` is a
    positive ``Fraction``; ``coeffs`` derives the ``Fraction`` coefficients.
    Derived data is filled in on first use and kept: ``_sf``, the
    square-free part, and ``_chain``, the Sturm chain of the square-free part
    as primitive integer tuples (set on that part only).
    """

    __slots__ = ("ints", "content", "_sf", "_chain")

    def __init__(self, coeffs: Iterable[RatLike]):
        c, m = list(coeffs), 1
        if not all(type(v) is int for v in c):
            c, m = integer_numerators(exact_rational(v, "coefficient") for v in c)
        while c and not c[-1]:
            c.pop()
        g = _int_gcd(*c)
        self.ints = tuple(v // g for v in c) if g > 1 else tuple(c)
        self.content = Fraction(g, m) if c and g != m else _ONE
        self._sf = self._chain = None

    @classmethod
    def _of(cls, ints: tuple[int, ...], content: Fraction = _ONE) -> "Polynomial":
        """content * ints, for ``ints`` already primitive and without trailing zeros."""
        p = cls.__new__(cls)
        p.ints, p.content, p._sf, p._chain = ints, content, None, None
        return p

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        n, d = self.content.numerator, self.content.denominator
        return tuple(Fraction(v * n, d) for v in self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def __getitem__(self, i: int) -> Fraction:
        return self.ints[i] * self.content if 0 <= i < len(self.ints) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.ints == other.ints and self.content == other.content

    def __hash__(self) -> int:
        return hash((self.ints, self.content))

    def __repr__(self) -> str:
        terms = [str(c) if i == 0 else f"{c}*x" if i == 1 else f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + (" + ".join(terms) or "0") + ")"

    def scale(self, v: RatLike) -> "Polynomial":
        v = exact_rational(v, "scale factor")
        if not v or not self.ints:
            return Polynomial(())
        return Polynomial._of(self.ints if v > 0 else tuple(-c for c in self.ints), self.content * abs(v))

    def __call__(self, x):
        """content times the Horner value of ``ints``; works for any value with field arithmetic."""
        acc = 0
        for c in reversed(self.ints):
            acc = acc * x + c
        return self.content * acc

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """self / other, by integer long division of the primitive parts; ``other`` must divide self.

        By Gauss's lemma an exact quotient is a primitive integer polynomial,
        so every step divides exactly; a step that does not, or a nonzero
        remainder, raises ``IntegrityError``.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r, q = list(self.ints), []
        m, lead = other.degree, other.ints[-1]
        while len(r) > m and not r[-1] % lead:
            t = r.pop() // lead
            k = len(r) - m
            r[k:] = [u - t * v for u, v in zip(r[k:], other.ints)]
            q.append(t)
        if any(r):  # a nonzero remainder, or a top coefficient lead does not divide
            raise IntegrityError("exact_div called on non-divisible polynomials")
        return Polynomial._of(tuple(reversed(q)), self.content / other.content) if q else Polynomial(())

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.ints[-1]
        return Polynomial._of(self.ints if lead > 0 else tuple(-v for v in self.ints), Fraction(1, abs(lead)))

    def sign_at(self, x: RatLike) -> int:
        """Sign of self(x) at a rational x, by integer Horner evaluation."""
        x = exact_rational(x, "point")
        return _horner_sign(self.ints, x.numerator, x.denominator)

    def _sturm_chain(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer forms of ``sturm_sequence(self)``, built once per square-free part."""
        sf = squarefree_part(self)
        if sf._chain is None:
            ints = sf.ints
            sf._chain = _remainder_sequence(ints, _derivative_ints(ints)) if len(ints) > 1 else (ints,)
        return sf._chain

    def drop_sturm_chain(self) -> None:
        """Forget the Sturm chain kept on the square-free part, if any; ``_sturm_chain`` builds it again on demand."""
        if self._sf is not None:
            self._sf._chain = None


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
    (p, p') it is the Sturm chain of p when p is square-free, and otherwise
    it ends at a multiple of gcd(p, p').
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
    return Polynomial._of(_remainder_sequence(a.ints, b.ints)[-1]).monic()


def squarefree_part(p: Polynomial) -> Polynomial:
    """p with all multiplicities reduced to one, monic; computed once per polynomial and kept in ``p._sf``.

    The remainder sequence of (p, p') is run once: when it ends in a
    constant, p is square-free and the sequence, negated when lead(p) < 0,
    is the Sturm chain of the part; otherwise its last element is the gcd.
    """
    if p._sf is not None:
        return p._sf
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        sf = Polynomial._of((1,))
    else:
        ints = p.ints
        seq = _remainder_sequence(ints, _derivative_ints(ints))
        if len(seq[-1]) == 1:
            sf = p.monic()
            sf._chain = seq if ints[-1] > 0 else tuple(tuple(-v for v in q) for q in seq)
        else:
            sf = p.exact_div(Polynomial._of(seq[-1])).monic()
    sf._sf = p._sf = sf  # a monic square-free polynomial is its own square-free part
    return sf


def sturm_sequence(p: Polynomial) -> list[Polynomial]:
    """Sturm chain of the squarefree part of ``p``, each element a positive multiple of the textbook one.

    The textbook chain is S0 = sf, S1 = sf', S_{k+1} = -rem(S_{k-1}, S_k),
    ending at a nonzero constant, for sf the monic square-free part of p, so
    that the chain has the sign-variation property even for inputs with
    repeated roots. Here each element is the primitive integer form of S_k,
    which has the same signs everywhere and so the same variation counts.
    """
    return [Polynomial(q) for q in p._sturm_chain()]


def _variations_at(chain: Sequence[Sequence[int]], n: int, d: int) -> int:
    """Sign variations of an integer chain at n/d, d > 0."""
    return _variations(_horner_sign(q, n, d) for q in chain)


def _end_box(p: Polynomial, lo: Optional[RatLike], hi: Optional[RatLike]) -> tuple[Polynomial, int, int, int, int, int]:
    """(sf, a, b, m, v_a, v_b): the start of a root count or isolation of ``p`` in (lo, hi).

    sf is the square-free part of p with its roots at finite ends divided
    out, and (a/m, b/m) is (lo, hi) with an infinite end replaced by -/+
    ``cauchy_root_bound(sf)``, which lies beyond every root and is no root;
    so neither end is a root, and sf has v_a - v_b roots in (lo, hi) for the
    variation counts v_a, v_b of its chain at the ends (0 when a >= b).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    lo = None if lo is None else exact_rational(lo, "bound")
    hi = None if hi is None else exact_rational(hi, "bound")
    if lo is not None and hi is not None and not lo < hi:
        raise ValueError("degenerate interval: need lo < hi")
    sf = squarefree_part(p)
    for pt in (lo, hi):  # a root at a finite end is divided out: nudging the end off it could move roots across it
        if pt is not None and sf.sign_at(pt) == 0:
            sf = sf.exact_div(Polynomial((-pt, 1)))  # once: sf is square-free
    if lo is None or hi is None:
        bound = cauchy_root_bound(sf)
        lo, hi = -bound if lo is None else lo, bound if hi is None else hi
    (a, b), m = integer_numerators((lo, hi))
    chain = sf._sturm_chain()
    return sf, a, b, m, _variations_at(chain, a, m), _variations_at(chain, b, m)


def count_real_roots(p: Polynomial, lo: Optional[RatLike] = None, hi: Optional[RatLike] = None) -> int:
    """Number of distinct real roots of ``p`` in the open interval (lo, hi).

    ``None`` stands for the corresponding infinity.
    """
    *_, v_a, v_b = _end_box(p, lo, hi)
    return v_a - v_b


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """All real roots of ``p`` lie in (-M, M) for the returned M."""
    if p.degree < 1:
        return Fraction(1)
    *rest, lead = p.ints
    return 1 + Fraction(max(map(abs, rest)), abs(lead))


def isolates(p: Polynomial, lo: RatLike, hi: RatLike) -> bool:
    """True when (lo, hi) is an isolating interval of ``p``: neither end a root, one root inside."""
    lo, hi = exact_rational(lo, "endpoint"), exact_rational(hi, "endpoint")
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
    """Open interval (a/m, b/m) that contains exactly one root of ``poly``, kept as the box the kernels bisect.

    Integers a < b over m > 0, reduced on construction so that equal fields mean equal values; the ``Fraction``s
    ``lo``, ``hi``, ``width`` and ``midpoint`` are derived on read, and ``of`` builds an interval from rational ends.
    ``certified`` is the proof that the box isolates the root: set only by this module's kernels that proved it
    (``_with_certificate``), so construction, ``of`` and ``dataclasses.replace`` give an uncertified interval. It
    takes no part in equality, hashing or output.
    """

    a: int
    b: int
    m: int
    poly: Polynomial
    certified: bool = field(default=False, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not (self.m > 0 and self.a < self.b):
            raise ValueError("an interval box needs numerators a < b over m > 0")
        g = _int_gcd(self.a, self.b, self.m)
        if g > 1:
            for name in ("a", "b", "m"):
                object.__setattr__(self, name, getattr(self, name) // g)

    @classmethod
    def of(cls, lo: RatLike, hi: RatLike, poly: Polynomial) -> "IsolatingInterval":
        """The interval (lo, hi) of ``poly``, for rational ends; a float is refused."""
        (a, b), m = integer_numerators((exact_rational(lo, "endpoint"), exact_rational(hi, "endpoint")))
        return cls(a, b, m, poly)

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.m)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.m)

    @property
    def width(self) -> Fraction:
        return Fraction(self.b - self.a, self.m)

    @property
    def midpoint(self) -> Fraction:
        return Fraction(self.a + self.b, 2 * self.m)


def _with_certificate(iv: IsolatingInterval, proven: bool = True) -> IsolatingInterval:
    """``iv``, an interval its caller has just built, marked ``certified`` when ``proven``."""
    object.__setattr__(iv, "certified", proven)
    return iv


def certify_box(lo: tuple[int, int], hi: tuple[int, int], p: Polynomial,
                enclosing: Optional[IsolatingInterval] = None) -> Optional[IsolatingInterval]:
    """The certified interval (lo, hi) of ``p`` when it isolates a root of ``p``, else None.

    lo < hi are (numerator, positive denominator) pairs. A certified ``enclosing`` interval of ``p`` has exactly one
    root of ``p`` in its box and none at its ends, so for [lo, hi] inside the closed box a sign change of the
    square-free part between lo and hi puts that root inside; without one, the part, which changes sign across each
    of its simple roots, has none in (lo, hi) or one at an end. Otherwise the Sturm test ``isolates_at`` decides.
    """
    (lo_n, lo_d), (hi_n, hi_d), e = lo, hi, enclosing
    if not (e is not None and e.certified and e.poly is p and e.a * lo_d <= lo_n * e.m and hi_n * e.m <= e.b * hi_d):
        proven = isolates_at(p, lo_n, lo_d, hi_n, hi_d)
    elif not lo_n * hi_d < hi_n * lo_d:
        raise ValueError("degenerate interval: need lo < hi")
    else:
        head = squarefree_part(p).ints
        proven = _horner_sign(head, lo_n, lo_d) * _horner_sign(head, hi_n, hi_d) < 0
    return _with_certificate(IsolatingInterval(lo_n * hi_d, hi_n * lo_d, lo_d * hi_d, p)) if proven else None


def _carve(p: Polynomial, a: int, b: int, m: int, wn: int, wd: int, isolating: bool = False) -> tuple[int, int, int]:
    """(lo, hi, k): an isolating box [lo/k, hi/k] of ``p`` around its exact root (a + b) / (2m).

    The radius (b - a) / (2m) is halved, by doubling the denominator, at least
    once and until ``isolates_at`` holds and the width is at most wn / wd.
    When [a/m, b/m] is ``isolating`` (a box carved before), so is every
    smaller box centred on the root, and only the width is tested.
    """
    c, r, k = a + b, b - a, 2 * m
    while True:
        c, k = 2 * c, 2 * k
        if 2 * r * wd <= wn * k and (isolating or isolates_at(p, c - r, k, c + r, k)):
            return c - r, c + r, k


def isolate_real_roots(p: Polynomial, lo: Optional[RatLike] = None, hi: Optional[RatLike] = None) -> list[IsolatingInterval]:
    """Pairwise-disjoint certified intervals, one per distinct root in (lo, hi), in ascending order."""
    sf, a, b, m, v_a, v_b = _end_box(p, lo, hi)
    # neither end is a root (``_end_box``), nor is any end pushed below, and
    # each box (a, b, m) carries the variation counts at its ends; the lower
    # half is pushed last, so boxes leave the stack from left to right
    chain = sf._sturm_chain()
    out: list[IsolatingInterval] = []
    stack = [(a, b, m, v_a, v_b)]
    while stack:
        a, b, m, v_a, v_b = stack.pop()
        if v_a - v_b == 1:
            out.append(_with_certificate(IsolatingInterval(a, b, m, sf)))
        elif v_a - v_b > 1:
            signs = [_horner_sign(q, a + b, 2 * m) for q in chain]
            if signs[0] == 0:
                # the box's own width never binds: every carved box is at most half as wide
                lo_n, hi_n, k = _carve(sf, a, b, m, b - a, m)
                v_lo, v_hi, r = _variations_at(chain, lo_n, k), _variations_at(chain, hi_n, k), k // m
                stack += [(hi_n, b * r, k, v_hi, v_b), (lo_n, hi_n, k, v_lo, v_hi), (a * r, lo_n, k, v_a, v_lo)]
            else:
                v_mid = _variations(signs)
                stack += [(a + b, 2 * b, 2 * m, v_mid, v_b), (2 * a, a + b, 2 * m, v_a, v_mid)]
    return out


class RootBisection:
    """An interval's box [a/m, b/m], halved on demand and resumed where it stopped; ``interval`` reads it back.

    Opening checks that ``poly`` has nonzero, opposite signs at the ends, the
    sign ``s_lo`` at a/m kept at the lower end of every box, and the entry's
    ``certified`` carries over. Halving maps (a, b, m) to (2a, a + b, 2m) or
    (a + b, 2b, 2m), the dyadic points a ``Fraction`` bisection would visit,
    and keeps the numerator width delta = b - a over m 2^k for the entry
    denominator m and the k halvings made, so only the lower numerator is
    carried. The k-th midpoint is (2a + delta) / (m 2^k), where p has the sign
    of the sum of the e_i mid^i 2^(k (deg - i)), e_i = c_i m^(deg - i): the e_i
    are formed once per entry box and the powers of two are shifts, one big
    multiplication per Horner step. A midpoint that is a root, found exactly,
    is carved around by ``_carve`` from the box it halves, and the carved box,
    centred on the root, is the next entry box, which the next halving carves
    again by width alone.
    """

    __slots__ = ("poly", "certified", "s_lo", "a", "delta", "m", "k", "_e", "_carved")

    def __init__(self, iv: IsolatingInterval):
        self.poly, self.certified, a, b, m = iv.poly, iv.certified, iv.a, iv.b, iv.m
        self.s_lo, s_hi = _horner_sign(self.poly.ints, a, m), _horner_sign(self.poly.ints, b, m)
        if self.s_lo == 0 or s_hi == 0:
            raise IntegrityError("isolating interval endpoints must not be roots")
        if self.s_lo == s_hi:
            raise IntegrityError("isolating interval endpoints must straddle the root")
        self._enter(a, b, m, False)

    def _enter(self, a: int, b: int, m: int, carved: bool) -> tuple[int, int, int]:
        self.a, self.delta, self.m, self.k, self._carved = a, b - a, m, 0, carved
        self._e = [c * m**j for j, c in enumerate(reversed(self.poly.ints))]  # e_deg, e_(deg-1), ..., e_0
        return a, b, m

    @property
    def box(self) -> tuple[int, int, int]:
        return self.a, self.a + self.delta, self.m << self.k

    @property
    def interval(self) -> IsolatingInterval:
        """The current box as an interval of ``poly``, certified when the entry interval was."""
        return _with_certificate(IsolatingInterval(*self.box, self.poly), self.certified)

    def halve(self, count: int, wn: int, wd: int) -> tuple[int, int, int]:
        """The box after ``count`` more halvings, or the box carved to width wn / wd around an exact hit."""
        lead, *rest = self._e
        a, delta, k = self.a, self.delta, self.k
        for k in range(k + 1, k + count + 1):
            mid = 2 * a + delta
            acc = lead
            for j, e in enumerate(rest, 1):
                acc = acc * mid + (e << j * k)
            if not acc:
                return self._enter(*_carve(self.poly, a, a + delta, self.m << (k - 1), wn, wd, self._carved), True)
            a = mid if (acc > 0) == (self.s_lo > 0) else 2 * a
        self.a, self.k = a, k
        return self.box

    def to_width(self, wn: int, wd: int) -> tuple[int, int, int]:
        """Halve K times, the least K with delta wd <= wn d 2^K for the box's denominator d: 2^K >= q, below."""
        q = -(-self.delta * wd // (wn * (self.m << self.k)))  # ceil(delta wd / (wn d)) >= 1
        return self.halve((q - 1).bit_length(), wn, wd)


def refine_root(iv: IsolatingInterval, width: RatLike) -> IsolatingInterval:
    """Deterministic bisection down to the requested width; output nests in input.

    One ``RootBisection`` of ``iv``, in integers, which carves a box around an
    exact hit; the result is certified when ``iv`` is.
    """
    width = exact_rational(width, "width")
    if width <= 0:
        raise ValueError("width must be positive")
    bisection = RootBisection(iv)
    bisection.to_width(width.numerator, width.denominator)
    return bisection.interval


def int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
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

    The sum runs in integers: with every content an integer over one
    denominator M, each polynomial is an integer one over M, and the sum is
    an integer polynomial over M^(m + 1).
    """
    polys = (*p, num, den)
    scales, common = integer_numerators(q.content for q in polys)
    *ps, n, d = [[k * v for v in q.ints] for k, q in zip(scales, polys)]
    acc, dpow = ps[-1], [1]
    for c in reversed(ps[:-1]):
        dpow = int_mul(dpow, d)
        acc = [u + v for u, v in zip_longest(int_mul(acc, n), int_mul(c, dpow), fillvalue=0)]
    return Polynomial(acc).scale(Fraction(1, common ** len(ps)))
