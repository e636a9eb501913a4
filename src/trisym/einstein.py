"""Classify diagonal invariant Einstein metrics for a coefficient triple.

A diagonal metric x1 <.,.>|p1 + x2 <.,.>|p2 + x3 <.,.>|p3 has Ricci
coefficients

    r_i = 1/(2 x_i) + (a_i / 2) (x_i/(x_j x_k) - x_k/(x_i x_j) - x_j/(x_i x_k))

and is Einstein iff r1 = r2 = r3. Clearing denominators (multiply by
2 x1 x2 x3) turns r_i into F_i = x_j x_k + a_i (x_i^2 - x_j^2 - x_k^2), so
the system is F1 = F2 = F3. Solutions are reported up to scaling,
normalized so x1 = 1.

Branches:
  * a1 = a2 = a3 = a: closed-form list; only the standard metric for
    a in {1/4, 1/2}, otherwise the four metrics
    (t,t,t), ((1-2a)t, 2at, 2at) and its two coordinate rotations.
  * exactly one equal pair a_i = a_j: the difference r_i - r_j factors as
    (x_j - x_i)(x_k - 2 a_i (x_i + x_j)) = 0, and each factor reduces the
    remaining equation to a quadratic, solved in integers (scaled by L, L^3):
      x_i = x_j:                (1-2a_k) x_i^2 - x_i x_k + (a_i+a_k) x_k^2 = 0
      x_k = 2a_i (x_i + x_j):   (a_i+a_k)(1-4a_i^2)(x_i^2 + x_j^2)
                                   = (1 - 2a_i + 8a_i^2 (a_i+a_k)) x_i x_j
    These, the all-equal metrics and those at the pivot point below stay
    integers (P_u + Q_u sqrt d) / R over their quadratic's radicand d: each is
    normalized to x1 = 1, certified once, deduplicated and ordered in integers
    (``_exact_solutions``), and only then is one ``Fraction`` built per number.
  * all distinct: set x1 = 1, read G1 = L (F1-F3) and G2 = L (F2-F3) off the system's integer rows (L the lcm of
    the denominators of a), cancel their x2^2 terms to get a relation x2 * den(x3) = num(x3) with den linear,
    eliminate x2 by substituting num/den into G2 (the eliminant den^2 G2(num/den)), isolate the positive real roots
    of the squarefree eliminant by Sturm bisection, and back-substitute through num/den, in integers
    (``_link_x2_interval``). The system is invariant under swapping x2, x3 together with a2, a3, so the x2 eliminant
    is the x3 eliminant of (a1, a3, a2), on the rows of the numerators (n1, n3, n2). A positive root x3 with
    den(x3) != 0 gives the real solution (1, num/den, x3): x2 = num/den solves F2 = F3, and then
    den x2 - num = c2 G1 - c1 G2 with c2 = L (a2 + a3) > 0 gives F1 = F3. By the x2 lemma its x2 is positive,
    except at x3 = 1 when a2 = 1/2 (skipped). At the pivot point, the root xi of den = (-L (n1 + n2), L (n2 + n3)),
    so xi = (a1 + a2)/(a2 + a3), num(xi) is a nonzero multiple of (a1 + a2)(a1 - a3)(2 (a1 + a2 + a3) - 1): the
    eliminant, c2 num(xi)^2 at xi, vanishes there exactly when a1 + a2 + a3 = 1/2, and then c2 G1 - c1 G2 vanishes
    identically at xi, so the solutions there are the roots of one integer quadratic, d1^2 G2(xi, x2) for
    d1 = L (n2 + n3) (``_pivot_solutions``), and xi is divided out of the eliminant.

Every positive solution has a positive Einstein constant, because a_i <= 1/2:
let x_i be the largest coordinate; then x_i^2 - x_j^2 - x_k^2 >= -min(x_j, x_k)^2,
so F_i >= x_j x_k - a_i min(x_j, x_k)^2 >= x_j x_k / 2 > 0, and at a solution
the Einstein constant is r_i = F_i / (2 x1 x2 x3). No sign needs certifying.

The x2 lemma: for a_i in (0, 1/2], every real solution with x1, x3 > 0 has
x2 >= 0, and x2 = 0 only at (1, 0, 1) with a2 = 1/2. Let A = a1 + a2 and
C = a2 + a3. For x2 = -s < 0 put P = s^2 - x1^2 + x3^2 and
Q = s^2 + x1^2 - x3^2; then F2 - F1 = 0 and F2 - F3 = 0 read

    A P = 2 a2 x3^2 - x3 (x1 + s),    C Q = 2 a2 x1^2 - x1 (x3 + s).

If x3 >= x1, the second right-hand side is at most x1 (x1 - x3 - s) < 0, so
Q < 0 < P, as P + Q = 2 s^2. Since A > a2 and C > a2, this gives
x3 (x1 + s) < a2 (x1^2 + x3^2 - s^2) < x1 (x3 + s), that is, x3 < x1: a
contradiction. If x1 > x3, the same steps with the two equations swapped give
x1 < x3. If x2 = 0, F1 = F3 reads (a1 + a3)(x1^2 - x3^2) = 0, so x3 = x1, and
then F2 = F1 reads x1^2 (1 - 2 a2) = 0, so a2 = 1/2. Conversely (1, 0, 1)
solves the system whenever a2 = 1/2.

The equal-pair lemma: every real root of the two equal-pair quadratics is
positive. For a_k < 1/2 the roots r of (1 - 2a_k) r^2 - r + (a_i + a_k) have
positive product and sum; at a_k = 1/2 the one root is a_i + 1/2. The sum
branch runs only for a_i < 1/2, where E q^2 + M q + E has
E = (a_i + a_k)(1 - 4a_i^2) > 0 and -M = 1 - 2a_i + 8a_i^2 (a_i + a_k) > 0:
its roots have product 1 and a positive sum, and x_k = 2a_i (q + 1) > 0.
So the branch tests no sign; ``_solves_in_integers`` is the one positivity check.

Each triple is prepared once, as an ``EinsteinSystem`` that validates a and
reads the rows of L (F_i - F_j) (below); solve, refine and verify share it,
and every solution of the solver carries it. ``_tighten`` takes an interval
solution one step, one x2 link through the solution's own system (a hand-built
one has none: ``IntegrityError``): ``refine_solution`` takes it once, x3 and x2
below the width, and ``verify_solution`` once per round, x3 alone sized. The
solver's intervals are ``certified``, so each later link decides its x2 box by
two end signs inside the given one (``polysolve.certify_box``), with no Sturm
chain (the solver drops its eliminants'), and ``verify_solution`` re-checks
none of them. Only ``polysolve`` issues certificates.

Verification works on the cleared form, in integers. For positive x,
r_i - r_j = (F_i - F_j) / (2 x1 x2 x3), and L (F_i - F_j) is an integer
quadratic form in (x1, x2, x3), written once per system as the difference of
L F_i = L x_j x_k + n_i (x_i^2 - x_j^2 - x_k^2), n_i = L a_i (``_scaled_form``).
A box is written as integer numerators [A_u, B_u] over one denominator D.
Every monomial x_s x_t scaled by D^2 is monotone in the numerators, so
G = L D^2 (F_i - F_j) over the box lies between the sums taking, for each
coefficient, the corner that makes its term least, and greatest. If G
excludes 0 the residual is certifiably nonzero; otherwise
|r_i - r_j| <= max|G| D / (2 L A1 A2 A3), exact on a point box:
``residual_bound`` is that bound at a solution's midpoint, derived on first
read. The enclosure overestimates linearly in the box width (Moore, *Interval
Analysis*, 1966), so a verification round sizes its step from it, in
integers: the x3 width w with bound B becomes w min(1/8, tol / (4 B)), one
unreduced integer pair. x2 = num/den over that x3 box shrinks with it, so one
round and one link iteration usually certify. An exact solution is
checked on the same rows, in integers with sqrt d kept symbolic: once when the
solver builds it, and once per ``verify_solution`` (``_solves_exactly``).

All certification is exact; floating point appears only in display helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul, sub
from typing import ClassVar, Optional, Union

from .cases import SpaceCase
from .coeffs import coefficients_for_case
from .errors import IntegrityError, NotApplicable, TrisymError
from .intervals import eval_poly_range
from .polysolve import (
    IsolatingInterval,
    Polynomial,
    RootBisection,
    certify_box,
    exact_rational,
    int_mul,
    integer_numerators,
    isolate_real_roots,
    isolates_at,
    squarefree_part,
)
from .surd import QuadraticSurd, exact_sign, integer_roots_of_quadratic, integer_sign, sqrt_midpoint

HALF = Fraction(1, 2)

BRANCH_STANDARD = "standard"
BRANCH_PAIR_LINEAR = "equal-pair-linear"
BRANCH_PAIR_SUM = "equal-pair-sum"
BRANCH_GENERIC = "generic"
_BRANCH_ORDER = {BRANCH_STANDARD: 0, BRANCH_PAIR_LINEAR: 1, BRANCH_PAIR_SUM: 2, BRANCH_GENERIC: 3}

# iteration budgets of the certification loops (each step refines an interval)
_LINK_STEPS = 400
_VERIFY_STEPS = 200
# the default tolerance of ``verify_solution``, and of `trisym solve --tol`
CERTIFICATION_TOL = Fraction(1, 10**20)


@dataclass(frozen=True)
class RootCoordinate:
    """A coordinate known exactly as the unique root of a polynomial in an interval."""

    interval: IsolatingInterval


Coordinate = Union[Fraction, QuadraticSurd, RootCoordinate]


@dataclass(frozen=True)
class EinsteinSolution:
    """One invariant Einstein metric, normalized to x1 = 1.

    The Einstein constant of every positive solution is positive (the lemma
    in the module docstring), so its sign is a class constant.
    """

    einstein_constant_sign: ClassVar[str] = "positive"

    x: tuple[Coordinate, Coordinate, Coordinate]
    branch: str
    system: Optional[EinsteinSystem] = field(default=None, compare=False)  # the solver's; None when hand-built

    @property
    def is_exact(self) -> bool:
        return all(not isinstance(c, RootCoordinate) for c in self.x)

    @property
    def _own_system(self) -> EinsteinSystem:
        if self.system is None:  # hand-built: nothing bounds or tightens its intervals
            raise IntegrityError("interval solution without refinement data")
        return self.system

    @cached_property
    def residual_bound(self) -> Fraction:
        """max |r_i - r_j| at the midpoint of the box ``x``, exactly (0 when exact); derived on first read."""
        if self.is_exact:
            return Fraction(0)
        _, n, d = _residual_enclosure(self._own_system, [(A + B, A + B, 2 * D) for A, B, D in _interval_boxes(self.x)])
        return Fraction(n, d)

    def approx(self, prec: int = 40) -> tuple[Fraction, Fraction, Fraction]:
        return tuple(
            c.interval.midpoint if isinstance(c, RootCoordinate)
            else c.approx(prec) if isinstance(c, QuadraticSurd)
            else Fraction(c)
            for c in self.x
        )

    def __repr__(self) -> str:
        vals = ", ".join(f"{float(v):.6f}" for v in self.approx())
        return f"EinsteinSolution({self.branch}; x = ({vals}))"


def _budget_exhausted(stage: str, budget: int, widths: dict[str, Fraction]) -> IntegrityError:
    """The error for a certification loop that ran out of steps, with its last interval widths."""
    return IntegrityError(f"{stage}: not certified within its budget of {budget} steps; last widths: {_format_widths(widths)}")


def _format_widths(widths: dict[str, Fraction]) -> str:
    return ", ".join(f"{name} {Decimal(w.numerator) / Decimal(w.denominator):.3e}" for name, w in widths.items())


def _interval_boxes(x) -> list[tuple[int, int, int]]:
    """Rational x1 and interval x2, x3 as integer boxes (A, B, D), 0 < A <= B over D > 0; else ``TrisymError``."""
    if isinstance(x[0], (RootCoordinate, QuadraticSurd)) or not all(isinstance(c, RootCoordinate) for c in x[1:]):
        shown = ", ".join(type(c).__name__ for c in x)
        raise TrisymError(f"an interval solution has a rational x1 and interval x2 and x3; got {shown}")
    x1 = exact_rational(x[0], "metric coordinate")
    boxes = [(x1.numerator, x1.numerator, x1.denominator)] + [(c.interval.a, c.interval.b, c.interval.m) for c in x[1:]]
    if min(A for A, _, _ in boxes) <= 0:
        raise TrisymError("metric coordinates must be positive")
    return boxes


def _ricci(a, x, i: int):
    """r_i at metric x; works for any values with field arithmetic (Fraction, QuadraticSurd)."""
    j, k = [t for t in range(3) if t != i]
    xi, xj, xk = x[i], x[j], x[k]
    return 1 / (2 * xi) + a[i] * HALF * (xi / (xj * xk) - xk / (xi * xj) - xj / (xi * xk))


def ricci_coefficients(a, x):
    """(r1, r2, r3) at metric x; exact for rational or quadratic-surd input, a float refused by name."""
    a = _validate_a(a)
    x = tuple(c if isinstance(c, QuadraticSurd) else exact_rational(c, "metric coordinate") for c in x)
    if len(x) != 3 or any(exact_sign(v) <= 0 for v in x):
        raise TrisymError(f"give three positive metric coordinates x = (x1, x2, x3); got {x}")
    return tuple(_ricci(a, x, i) for i in range(3))


# the monomials x_s x_t of a quadratic form in (x1, x2, x3), and the pairs (i, j) of r_i - r_j
_MONOMIALS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_PAIRS = ((0, 1), (0, 2), (1, 2))


def _scaled_form(scale: int, n, i: int) -> tuple[int, ...]:
    """L F_i = L x_j x_k + n_i (x_i^2 - x_j^2 - x_k^2) over ``_MONOMIALS``, for n_i = L a_i; x_j x_k is the (3 + i)th."""
    return tuple(n[i] if t == i else -n[i] for t in range(3)) + tuple(scale if t == i else 0 for t in range(3))


def _rows(scale: int, n) -> tuple[tuple[int, ...], ...]:
    """The integer coefficients of L (F_i - F_j) over ``_MONOMIALS``, for each (i, j) of ``_PAIRS``."""
    forms = [_scaled_form(scale, n, i) for i in range(3)]
    return tuple(tuple(map(sub, forms[i], forms[j])) for i, j in _PAIRS)


def _difference_rows(a) -> tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(L, n, rows): L the lcm of the denominators of the rational triple ``a``, n_i = L a_i, and ``_rows(L, n)``."""
    n, scale = integer_numerators(a)
    return scale, tuple(n), _rows(scale, n)


def _residual_enclosure(system: EinsteinSystem, boxes) -> tuple[bool, int, int]:
    """Enclose every r_i - r_j of ``system`` over a positive box in integers.

    ``boxes`` holds x1, x2, x3 as integer boxes (A, B, D) (``_interval_boxes``). Returns (excludes_zero, n, d):
    excludes_zero when some r_i - r_j is certifiably nonzero on the box, and
    max |r_i - r_j| <= n / d over the box, with equality on a point box.
    """
    common = lcm(*(D for _, _, D in boxes))
    lo, hi = ([box[u] * (common // box[2]) for box in boxes] for u in (0, 1))
    # G = scale * common^2 * (F_i - F_j) is a sum of coefficient times monomial, each increasing in the numerators
    mono_lo = [lo[s] * lo[t] for s, t in _MONOMIALS]
    mono_hi = [hi[s] * hi[t] for s, t in _MONOMIALS]
    excludes_zero, g_max = False, 0
    for row in system.rows:  # each term at the end of its monomial that makes it least, and greatest
        g_lo = g_hi = 0
        for c, u, v in zip(row, mono_lo, mono_hi):
            g_lo, g_hi = (g_lo + c * u, g_hi + c * v) if c > 0 else (g_lo + c * v, g_hi + c * u)
        excludes_zero = excludes_zero or g_lo > 0 or g_hi < 0
        g_max = max(g_max, g_hi, -g_lo)
    # |r_i - r_j| = |F_i - F_j| / (2 x1 x2 x3) <= (g_max / (scale common^2)) / (2 lo1 lo2 lo3 / common^3)
    return excludes_zero, g_max * common, 2 * system.scale * lo[0] * lo[1] * lo[2]


def _solves_in_integers(rows, d: int, P, Q) -> bool:
    """F1 = F2 = F3 at the positive metric x_u = (P_u + Q_u sqrt d) / R, integers P_u, Q_u, any R > 0, ``rows`` a system's.

    d is the one radicand (0 when every Q_u is). R^2 x_s x_t is (P_s P_t + Q_s Q_t d) + (P_s Q_t + Q_s P_t) sqrt d, so
    the rows of the pairs (0, 1) and (0, 2) give L R^2 (F_i - F_j) = g + h sqrt d with integers g and h. As sqrt d is
    irrational (every ``QuadraticSurd`` is), F_i = F_j exactly when g = h = 0. Each x_u > 0 is decided by
    ``integer_sign``; no field product is taken. The solver's exact metrics and ``_solves_exactly`` both end here.
    """
    if min(map(integer_sign, P, Q, (d, d, d))) <= 0:
        raise TrisymError("metric coordinates must be positive")
    rational = [P[s] * P[t] + Q[s] * Q[t] * d for s, t in _MONOMIALS]
    irrational = [P[s] * Q[t] + Q[s] * P[t] for s, t in _MONOMIALS] if d else []  # h sqrt 0 is 0
    return not any(sum(map(mul, row, part)) for row in rows[:2] for part in (rational, irrational))


def _solves_exactly(rows, x) -> bool:
    """``_solves_in_integers`` at the exact metric x: ``Fraction``s and ``QuadraticSurd``s over one radicand."""
    d, parts = 0, []
    for c in x:
        if isinstance(c, QuadraticSurd):
            if d and c.d != d:
                raise TrisymError(f"exact coordinates over two radicands, {d} and {c.d}; give every surd over one")
            d = c.d
            parts += (c.p, c.q)
        else:
            parts += (exact_rational(c, "metric coordinate"), 0)
    nums, _ = integer_numerators(parts)
    return _solves_in_integers(rows, d, nums[0::2], nums[1::2])


def _validate_a(a) -> tuple[Fraction, Fraction, Fraction]:
    vals = tuple(exact_rational(v, "coefficient a =") for v in a)
    if len(vals) != 3:
        raise TrisymError(f"give three coefficients a = (a1, a2, a3); got {len(vals)}")
    for v in vals:
        if not 0 < v.numerator * 2 <= v.denominator:  # 0 < v <= 1/2
            raise TrisymError(f"coefficient a = {v} outside (0, 1/2]")
    return vals


@dataclass(frozen=True)
class EinsteinSystem:
    """r1 = r2 = r3 for one coefficient triple, prepared once for solve, refine and verify.

    Building it validates ``a`` and reads ``scale`` = L, the ``numerators``
    n_i = L a_i and the ``rows`` of L (F_i - F_j) (``_difference_rows``); ``odd``
    is the index of the unpaired coefficient (0 when all are equal, -1 when all
    are distinct). Only the all-distinct branch reads, derived on first use, the
    ``pivot`` (num, den) with x2 = num / den (``_pivot``) and the square-free
    eliminants in x3 and in x2.
    """

    a: tuple[Fraction, Fraction, Fraction]
    scale: int = field(init=False)
    numerators: tuple[int, int, int] = field(init=False)
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    odd: int = field(init=False)

    def __post_init__(self):
        a = _validate_a(self.a)
        odd = 0 if a[1] == a[2] else 1 if a[0] == a[2] else 2 if a[0] == a[1] else -1  # k whose other two are equal
        for name, value in zip(("a", "scale", "numerators", "rows", "odd"), (a, *_difference_rows(a), odd)):
            object.__setattr__(self, name, value)  # the fields of a frozen dataclass, set once

    @cached_property
    def pivot(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _pivot(self.rows)

    @cached_property
    def x3(self) -> Polynomial:
        return _eliminant(self.rows, self.pivot, "x3")

    @cached_property
    def x2(self) -> Polynomial:
        n1, n2, n3 = self.numerators  # x2 is the x3 eliminant of (a1, a3, a2)
        rows = _rows(self.scale, (n1, n3, n2))
        return _eliminant(rows, _pivot(rows), "x2")


def _exact_solutions(system: EinsteinSystem, metrics) -> list:
    """(approx, solution) for each (branch, d, triple) of ``metrics`` whose metric no equal one precedes.

    The metric x_u = (P_u + Q_u sqrt d) / R of the integer pairs (P_u, Q_u) in ``triple`` is normalized to x1 = 1 by
    the conjugate of x1, as x_u = (U_u + V_u sqrt d) / U_1 with U_1 > 0 = V_1, and certified once. Metrics are equal
    as ``QuadraticSurd.__eq__`` compares (p, the sign of q, and q^2 d), here by cross-multiplication; approx is x2 and
    x3 at ``approx(40)`` (``_ordered``). Only a kept metric's numbers are built, one ``Fraction`` each.
    """
    out, kept = [], []
    for branch, d, triple in metrics:
        p1, q1 = triple[0]
        # x_u / x1 = (P_u + Q_u sqrt d)(P_1 - Q_1 sqrt d) / (P_1^2 - Q_1^2 d), over their content with the sign of the norm
        U, V = [p * p1 - q * q1 * d for p, q in triple], [q * p1 - p * q1 for p, q in triple]
        g = gcd(*U, *V) if U[0] > 0 else -gcd(*U, *V)
        U, V = [u // g for u in U], [v // g for v in V]
        if not _solves_in_integers(system.rows, d, U, V):
            raise IntegrityError(f"branch {branch} produced a non-solution (U + V sqrt {d}) / {U[0]}, U = {U}, V = {V}")
        n = U[0]
        if not any(
            all(U[t] * k == W[t] * n and V[t] * Z[t] >= 0 and (V[t] * k) ** 2 * d == (Z[t] * n) ** 2 * e for t in (1, 2))
            for e, W, Z, k in kept
        ):
            kept.append((d, U, V, n))
            s, m = sqrt_midpoint(d, 40) if d else (0, 1)
            approx = ((U[1] * m + V[1] * s, n * m), (U[2] * m + V[2] * s, n * m))
            x = tuple(QuadraticSurd(Fraction(u, n), Fraction(v, n), d) if v else Fraction(u, n) for u, v in zip(U, V))
            out.append((approx, EinsteinSolution(x=x, branch=branch, system=system)))
    return out


def _solutions_all_equal(system: EinsteinSystem) -> list:
    n, m = system.numerators[0], system.scale
    big, small = (m - 2 * n, 0), (2 * n, 0)  # 1 - 2a and 2a over m, for a = n / m
    rotations = [] if m in (2 * n, 4 * n) else [[big, small, small], [small, big, small], [small, small, big]]
    return _exact_solutions(system, [(BRANCH_STANDARD, 0, [(1, 0)] * 3)] + [(BRANCH_PAIR_LINEAR, 0, r) for r in rotations])


def _solutions_equal_pair(system: EinsteinSystem) -> list:
    k, scale = system.odd, system.scale
    i, j = [t for t in range(3) if t != k]
    n_pair, n_odd = system.numerators[i], system.numerators[k]  # a_t = n_t / scale

    # branch x_i = x_j: (1 - 2 a_odd) r^2 - r + (a_pair + a_odd) = 0, r = x_i / x_k (linear when a_odd = 1/2),
    # scaled by L = scale; the roots of both branches are positive by the equal-pair lemma (module docstring)
    d, roots = integer_roots_of_quadratic(scale - 2 * n_odd, -scale, n_pair + n_odd, scale)
    metrics = [(BRANCH_PAIR_LINEAR, d, [(r, 0) if t == k else (p, q) for t in range(3)]) for p, q, r in roots]

    # branch x_k = 2 a_pair (x_i + x_j): symmetric quadratic in q = x_i / x_j = (P + Q sqrt d) / R, scaled by L^3;
    # at x_j = 1, x_k = 2 a_pair (q + 1) = 2 n_pair (P + R + Q sqrt d) / (L R)
    if 2 * n_pair != scale:
        lead = (n_pair + n_odd) * (scale * scale - 4 * n_pair * n_pair)
        mid = -(scale**3 - 2 * n_pair * scale * scale + 8 * n_pair * n_pair * (n_pair + n_odd))
        d, roots = integer_roots_of_quadratic(lead, mid, lead, scale**3)
        for p, q, r in roots:
            parts = {i: (scale * p, scale * q), j: (scale * r, 0), k: (2 * n_pair * (p + r), 2 * n_pair * q)}
            metrics.append((BRANCH_PAIR_SUM, d, [parts[t] for t in range(3)]))

    return _exact_solutions(system, metrics)  # the first of equal metrics


# -- generic branch (all coefficients distinct) ------------------------------

def _forms(rows) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """L (F1 - F3) and L (F2 - F3) at x1 = 1 as the integer (A, B, c) of A(x3) + B(x3) x2 + c x2^2."""
    # rows (0, 2) and (1, 2) of _difference_rows; over _MONOMIALS, A is x1^2, x1 x3, x3^2; B x1 x2, x2 x3; c x2^2
    return tuple(((r[0], r[4], r[2]), (r[5], r[3]), r[1]) for r in rows[1:])


def _pivot(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(num, den) with x2 den(x3) = num(x3) at x1 = 1, for the triple whose ``_difference_rows`` are ``rows``.

    Both keep the common scale of the rows, since reducing each one to its primitive part would change their ratio.
    """
    (A1, B1, c1), (A2, B2, c2) = _forms(rows)
    # cancel x2^2: c2 L (F1 - F3) - c1 L (F2 - F3) = den(x3) x2 - num(x3)
    den = tuple(c2 * u - c1 * v for u, v in zip(B1, B2))
    num = tuple(c1 * u - c2 * v for u, v in zip(A2, A1))
    if not den[1]:
        raise IntegrityError("pivot polynomial is not linear")
    return num, den


def _eliminant(rows, pivot, name: str) -> Polynomial:
    """The square-free part of den^2 L (F2 - F3) at x2 = num/den, a polynomial in x3, for (num, den) = ``pivot``:
    den^2 A + den num B + c num^2 for L (F2 - F3) = A + B x2 + c x2^2 (``_forms``), on the integer tuples."""
    num, den = pivot
    A, B, c = _forms(rows)[1]
    parts = zip(int_mul(int_mul(den, den), A), int_mul(int_mul(den, num), B), int_mul(num, num))
    elim = Polynomial([u + v + c * w for u, v, w in parts])
    if elim.is_zero:
        raise IntegrityError(f"{name} eliminant vanished identically")
    return squarefree_part(elim)


def _pivot_solutions(system: EinsteinSystem) -> list:
    """The exact solutions at the pivot point x3 = xi = -d0 / d1 of den = (d0, d1), as ``_exact_solutions`` gives them.

    On a1 + a2 + a3 = 1/2, c2 G1 - c1 G2 = den x2 - num vanishes identically at xi (module docstring), so they are the
    roots x2 of d1^2 G2(xi, x2); each real one is positive by the x2 lemma, since xi != 1 when a1 != a3.
    """
    d0, d1 = system.pivot[1]  # d1 = L (n2 + n3) > 0
    (A0, A1, A2), (B0, B1), c = _forms(system.rows)[1]
    lead = c * d1 * d1  # also the scale: the radicand is read off the monic quadratic
    d, roots = integer_roots_of_quadratic(lead, (B0 * d1 - B1 * d0) * d1, A0 * d1 * d1 - A1 * d0 * d1 + A2 * d0 * d0, lead)
    metrics = [(BRANCH_GENERIC, d, [(r * d1, 0), (p * d1, q * d1), (-r * d0, 0)]) for p, q, r in roots]
    return _exact_solutions(system, metrics)


def _below(u: tuple[int, int], v: tuple[int, int]) -> bool:
    """u < v for rationals given as (numerator, positive denominator)."""
    return u[0] * v[1] < v[0] * u[1]


def _link_x2_interval(system: EinsteinSystem, iv3: IsolatingInterval, enclosing: Optional[IsolatingInterval] = None,
                      width: Optional[tuple[int, int]] = None,
                      narrow: bool = True) -> tuple[IsolatingInterval, IsolatingInterval]:
    """Refine x3 until it is positive and num/den certifies one positive root of the x2 polynomial.

    Returns (x2 interval, refined x3 interval). The x2 polynomial is the x2 eliminant, or ``enclosing.poly`` when
    ``enclosing`` is given: a given x2 interval is certified on its own polynomial, and its box clips the x2
    enclosure. With ``width`` = (wn, wd), x3 is first bisected below wn / wd inside its own box, and when ``narrow``
    the x2 enclosure must be at most that wide. No sign test is needed: x2 is positive by the x2 lemma, and a
    nonpositive x2 would fail ``0 < lo`` until ``_LINK_STEPS`` ran out.

    For intervals the solver made, the clip never binds: ``enclosing`` is num/den over an x3 box containing ``iv3``,
    and the range of num/den is inclusion isotone. It guards hand-built solutions; an empty clip raises at once,
    since by that isotonicity no smaller x3 box can reopen it.

    The loop runs in integers on the box of ``iv3``, [A, B] over M, in one ``RootBisection`` (which checks its ends
    once): each failed iteration halves it twice more, carving around an exact dyadic hit, through the boxes
    ``refine_root(iv3, iv3.width / 4)`` would return. The exact range of num/den (``eval_poly_range``), the clip and
    the width are pairs (numerator, positive denominator). ``polysolve.certify_box`` decides the range: by the x2
    polynomial's Sturm chain in the first link, by two end signs inside a certified ``enclosing`` in a later one. The
    x2 box is returned certified, the x3 box when ``iv3`` is; only errors build ``Fraction``s.
    """
    bisection = RootBisection(iv3)
    A, B, M = bisection.box if width is None else bisection.to_width(*width)
    p2 = system.x2 if enclosing is None else enclosing.poly
    num, den = system.pivot
    x2 = None
    for _ in range(_LINK_STEPS):
        d_lo, d_hi, d_s = eval_poly_range(den, A, B, M)
        if d_lo > 0 or d_hi < 0:
            n_lo, n_hi, n_s = eval_poly_range(num, A, B, M)
            if d_hi < 0:  # num/den = (-num)/(-den), with -den positive on the box
                n_lo, n_hi, d_lo, d_hi = -n_hi, -n_lo, -d_hi, -d_lo
            # each end of num/den divides by the end of den that makes it extreme
            lo = (n_lo * d_s, (d_hi if n_lo >= 0 else d_lo) * n_s)
            hi = (n_hi * d_s, d_lo * n_s)
            if enclosing is not None:
                e_lo, e_hi = (enclosing.a, enclosing.m), (enclosing.b, enclosing.m)
                clip_lo = e_lo if _below(lo, e_lo) else lo
                clip_hi = e_hi if _below(e_hi, hi) else hi
                if not _below(clip_lo, clip_hi):
                    x2_range = Fraction(*hi) - Fraction(*lo)
                    shown = _format_widths({"x3": Fraction(B - A, M), "x2 range": x2_range, "enclosing x2": enclosing.width})
                    raise IntegrityError(f"x2 back-substitution: x2 range misses the enclosing x2 interval; widths: {shown}")
                lo, hi = clip_lo, clip_hi
            x2 = lo, hi
            # hi - lo <= width, as (hi_n lo_d - lo_n hi_d) / (lo_d hi_d)
            fits = not narrow or width is None or (hi[0] * lo[1] - lo[0] * hi[1]) * width[1] <= width[0] * lo[1] * hi[1]
            if 0 < A and 0 < lo[0] and _below(lo, hi) and fits and (iv2 := certify_box(lo, hi, p2, enclosing)):
                return iv2, bisection.interval
        A, B, M = bisection.halve(2, B - A, 4 * M)
    x2_width = {} if x2 is None else {"x2 enclosure": Fraction(*x2[1]) - Fraction(*x2[0])}
    raise _budget_exhausted("x2 back-substitution", _LINK_STEPS, {"x3": Fraction(B - A, M), **x2_width})


def _solutions_generic(system: EinsteinSystem) -> list:
    out, remaining = [], system.x3
    if 2 * sum(system.numerators) == system.scale:  # a1 + a2 + a3 = 1/2: the x3 eliminant vanishes at the pivot point
        out, remaining = _pivot_solutions(system), remaining.exact_div(Polynomial(system.pivot[1]))

    polys = [system.x3]
    for iv3 in isolate_real_roots(remaining, 0, None):
        if system.a[1] == HALF and iv3.a < iv3.m < iv3.b:
            continue  # the point (1, 0, 1), the one root with x2 = 0 (x2 lemma)
        iv2, iv3 = _link_x2_interval(system, iv3)
        polys += (iv2.poly, iv3.poly)
        x = (Fraction(1), RootCoordinate(iv2), RootCoordinate(iv3))
        approx = tuple((iv.a + iv.b, 2 * iv.m) for iv in (iv2, iv3))  # the midpoints
        out.append((approx, EinsteinSolution(x=x, branch=BRANCH_GENERIC, system=system)))
    for p in polys:  # kept solutions carry no Sturm chain; a carve or an uncertified box builds one again
        p.drop_sturm_chain()
    return out


def _tighten(system: EinsteinSystem, x, width: tuple[int, int], narrow: bool = True):
    """``x`` with x3 refined below ``width`` = (wn, wd) and x2 re-linked in its interval, as narrow when ``narrow``."""
    iv2, iv3 = _link_x2_interval(system, x[2].interval, x[1].interval, width, narrow)
    return (x[0], RootCoordinate(iv2), RootCoordinate(iv3))


def _ordered(found) -> list[EinsteinSolution]:
    """A branch's (approx, solution) pairs by branch, then x2 and x3 at approx(40), over one common denominator."""
    m = lcm(*(den for approx, _ in found for _, den in approx))
    keys = [(_BRANCH_ORDER[s.branch], n2 * (m // d2), n3 * (m // d3)) for ((n2, d2), (n3, d3)), s in found]
    return [found[t][1] for t in sorted(range(len(found)), key=keys.__getitem__)]


def solve_einstein(a) -> list[EinsteinSolution]:
    """All positive solutions of r1 = r2 = r3 up to scale, normalized to x1 = 1."""
    system = EinsteinSystem(a)
    equal = system.a[0] == system.a[1] == system.a[2]
    branch = _solutions_generic if system.odd < 0 else _solutions_all_equal if equal else _solutions_equal_pair
    return _ordered(branch(system))


def refine_solution(sol: EinsteinSolution, width) -> EinsteinSolution:
    """Shrink interval coordinates below ``width``, which must be positive; exact solutions pass through."""
    width = exact_rational(width, "width")
    if width <= 0:
        raise TrisymError(f"width {width} must be positive")
    if sol.is_exact:
        return sol
    _interval_boxes(sol.x)  # refuses what verify_solution refuses
    return replace(sol, x=_tighten(sol._own_system, sol.x, (width.numerator, width.denominator)))


def verify_solution(a, sol: EinsteinSolution, tol=CERTIFICATION_TOL) -> bool:
    """Certified check that ``sol`` solves the Einstein system to tolerance ``tol`` > 0.

    Exact coordinates are checked by F1 = F2 = F3 in integers, every time
    (``_solves_exactly``); a float coordinate, a coordinate or box that is not
    positive, and surds over two radicands raise ``TrisymError``. Interval
    coordinates are tightened through ``sol``'s own system (its rows read when
    ``a`` is its triple of ``Fraction``s, else a system is built for ``a``)
    until the integer enclosure of every r_i - r_j (module docstring) lies
    inside (-tol, tol), or certifiably excludes zero (False), in rounds sized
    as the module docstring says and bounded by ``_VERIFY_STEPS``. Before
    True, each given x2 and x3 box that is not ``certified`` (a solver's box
    is) must isolate a root of its own ``poly`` (``isolates_at``), else
    ``IntegrityError`` names the coordinate.

    True means every residual is below ``tol`` on a box around the solution,
    False that one residual is nonzero; on a non-solution whose true residual
    lies below ``tol`` either may come back, both certified.
    """
    own = sol.system  # reused for its own triple of Fractions only: 0.25 == Fraction(1, 4), and a float is refused
    same = own is not None and isinstance(a, tuple) and set(map(type, a)) == {Fraction} and a == own.a
    system = own if same else EinsteinSystem(a)
    tol = exact_rational(tol, "tolerance")
    if tol <= 0:
        raise TrisymError(f"tolerance {tol} must be positive")
    if sol.is_exact:
        return _solves_exactly(system.rows, sol.x)
    x, tn, td = sol.x, tol.numerator, tol.denominator
    for _ in range(_VERIFY_STEPS):
        excludes_zero, n, d = _residual_enclosure(system, boxes := _interval_boxes(x))
        if excludes_zero:
            return False
        if n * td < tn * d:  # n / d < tol
            for name, iv in (("x2", sol.x[1].interval), ("x3", sol.x[2].interval)):
                if not iv.certified and not isolates_at(iv.poly, iv.a, iv.m, iv.b, iv.m):
                    raise IntegrityError(f"{name}: the given interval isolates no root of its polynomial")
            return True
        wn, wd = boxes[2][1] - boxes[2][0], boxes[2][2]  # the x3 width w = wn / wd, then w min(1/8, tol d / (4 n))
        x = _tighten(sol._own_system, x, (wn, 8 * wd) if 2 * tn * d >= n * td else (wn * tn * d, wd * td * 4 * n), False)
    raise _budget_exhausted("verification", _VERIFY_STEPS, {f"x{u + 1}": x[u].interval.width for u in (1, 2)})


@dataclass(frozen=True)
class CaseSolutions:
    """Solver output for one catalog entry."""

    case: SpaceCase
    a: tuple[Fraction, Fraction, Fraction]
    solutions: tuple[EinsteinSolution, ...]


def solve_case(case: SpaceCase) -> CaseSolutions:
    """Coefficients plus the full Einstein solution list for a catalog entry.

    Raises NotApplicable for the flagged cases whose summands are isomorphic
    (the diagonal ansatz does not exhaust their invariant metrics there).
    """
    if case.isomorphic_summands:
        raise NotApplicable(f"{case.describe()}: isotropy summands are isomorphic; the diagonal solver does not apply")
    data = coefficients_for_case(case)
    return CaseSolutions(case=case, a=data.a, solutions=tuple(solve_einstein(data.a)))
