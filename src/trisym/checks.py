"""The one table of checks behind `trisym verify` and the acceptance tests.

``CHECKS`` lists every check once, in order, with the acceptance criterion it
belongs to; ``SCOPES`` names the criteria each `trisym verify` scope runs, and
the acceptance tests select their criterion's entries from the same table. The
golden data lives here too, so the CLI and the test suite run exactly the same
assertions. The numeric oracles deliberately use independent methods
(floating-point grids and eigenvalue root finders) from the exact
certification path they cross-check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, NamedTuple

from .cases import ambient_dim, enumerate_cases, make_case
from .coeffs import coefficients_for_case, gamma_from_killing_ratio
from .einstein import EinsteinSystem, refine_solution, solve_case, solve_einstein, verify_solution
from .polysolve import Polynomial, count_real_roots, squarefree_part
from .surd import QuadraticSurd

F = Fraction


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{status}  {self.name}{tail}"


class Check(NamedTuple):
    """One entry of ``CHECKS``: its acceptance criterion, its name, and the check, which takes the seed.

    A check raises on failure and may return a detail string on success.
    """

    criterion: int
    name: str
    check: Callable[[int], str | None]

    def run(self, seed: int) -> CheckResult:
        try:
            detail = self.check(seed)
        except Exception as exc:  # surfaced, not masked: a crash is a failure
            return CheckResult(self.name, False, f"{type(exc).__name__}: {exc}")
        return CheckResult(self.name, True, detail or "")


# every check, in the order `trisym verify` prints them; filled by @_check
CHECKS: list[Check] = []

# the acceptance criteria each `trisym verify` scope runs, in the order argparse lists the scopes
SCOPES = {"tables": (1, 2), "solutions": (3, 4, 5), "properties": (6,), "all": (1, 2, 3, 4, 5, 6)}


def _check(criterion: int, name: str):
    """Register the decorated function in ``CHECKS`` as the check ``name`` of acceptance criterion ``criterion``."""

    def register(check):
        CHECKS.append(Check(criterion, name, check))
        return check

    return register


# the default seed of the randomized checks, and of `trisym verify --seed`
CHECK_SEED = 42


def run_checks(scope: str, seed: int = CHECK_SEED) -> list[CheckResult]:
    """Run the checks of ``scope``'s criteria (``SCOPES``), in table order."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    return [entry.run(seed) for entry in CHECKS if entry.criterion in SCOPES[scope]]


# -- golden data -------------------------------------------------------------

# reference dimension table of the solver-relevant rows (d1, d2, d3)
DIM_TABLE = {
    "E6-II": (16, 16, 24),
    "E6-III": (14, 28, 12),
    "E7-I": (32, 32, 32),
    "E7-II": (24, 30, 40),
    "E7-III": (35, 35, 35),
    "E8-I": (48, 64, 64),
    "E8-II": (64, 64, 64),
    "F4-II": (20, 8, 8),
}


def a_ii_dims(l: int) -> tuple[int, int, int]:
    return ((l - 1) * (l + 3) // 4, (l + 1) * (l + 3) // 4, (l - 1) * (l + 1) // 4)


# per-case exact coefficient table
GAMMA_TABLE = {
    "E6-II": ((F(1, 2), F(1, 2), F(2, 3)), (F(1, 4), F(1, 4), F(1, 6))),
    "E6-III": ((F(1, 2), F(3, 4), F(5, 12)), (F(1, 4), F(1, 8), F(7, 24))),
    "E7-I": ((F(5, 9),) * 3, (F(2, 9),) * 3),
    "E7-II": ((F(4, 9), F(5, 9), F(2, 3)), (F(5, 18), F(2, 9), F(1, 6))),
    "E7-III": ((F(4, 9),) * 3, (F(5, 18),) * 3),
    "E8-I": ((F(7, 15), F(3, 5), F(3, 5)), (F(4, 15), F(1, 5), F(1, 5))),
    "E8-II": ((F(7, 15),) * 3, (F(4, 15),) * 3),
    "F4-II": ((F(7, 9), F(4, 9), F(4, 9)), (F(1, 9), F(5, 18), F(5, 18))),
    "F4-I": ((F(7, 9),) * 3, (F(1, 9),) * 3),
    "E6-I": ((F(2, 3),) * 3, (F(1, 6),) * 3),
}


def a_ii_coefficients(k: int):
    gammas = (F(1, 2), F(k + 1, 2 * k), F(k - 1, 2 * k))
    a = (F(1, 4), F(k - 1, 4 * k), F(k + 1, 4 * k))
    return gammas, a


# eliminant quartics, ascending coefficients
QUARTICS = {
    "E6-III": Polynomial([855, -4152, 7048, -4960, 1200]),
    "E7-II": Polynomial([5832, -19926, 24732, -13482, 2744]),
}


def a_ii_quartic(k: int) -> Polynomial:
    return Polynomial(
        [
            12 * k**4 - 20 * k**3 + 7 * k**2 + 2 * k - 1,
            -(48 * k**4 - 48 * k**3 + 4 * k**2 + 4 * k),
            72 * k**4 - 36 * k**3 - 4 * k**2,
            -(48 * k**4 - 8 * k**3),
            12 * k**4,
        ]
    )


# reference decimals for the two interval-solution cases: (x2, x3) pairs
DECIMALS = {
    "E6-III": ((F("1.4618"), F("1.8845")), (F("0.8640"), F("0.4838"))),
    "E7-II": ((F("1.7489"), F("1.5535")), (F("0.6139"), F("0.7302"))),
}

# the A-II solution-count sweep runs over k = 2.._A_II_K_MAX
_A_II_K_MAX = 50

EXPECTED_COUNTS = {
    "E6-II": 2, "E6-III": 2, "E7-II": 2, "E8-I": 2, "F4-II": 2,
    "E7-I": 4, "E7-III": 4, "E8-II": 4, "F4-I": 4, "E6-I": 4,
}


def _rational_pattern(a: Fraction) -> set[tuple[Fraction, Fraction, Fraction]]:
    big, small = 1 - 2 * a, 2 * a
    pats = {(F(1),) * 3}
    for raw in ([big, small, small], [small, big, small], [small, small, big]):
        t0 = raw[0]
        pats.add((F(1), raw[1] / t0, raw[2] / t0))
    return pats


def _proportional(p: Polynomial, q: Polynomial) -> bool:
    """p = c q for a rational c != 0: their primitive integer coefficients agree up to sign."""
    return not p.is_zero and p.ints in (q.ints, tuple(-v for v in q.ints))


# -- criterion 1: dimension table --------------------------------------------


@_check(1, "dimension table rows (exceptional + A-II closed forms)")
def _dimension_rows(_seed):
    for label, expected in DIM_TABLE.items():
        _, d1, d2, d3 = make_case(label).dims
        if (d1, d2, d3) != expected:
            raise AssertionError(f"{label}: dims {(d1, d2, d3)} != {expected}")
    for l in range(3, 26, 2):
        _, d1, d2, d3 = make_case("A-II", l=l).dims
        if (d1, d2, d3) != a_ii_dims(l):
            raise AssertionError(f"A-II l={l}: dims {(d1, d2, d3)} != {a_ii_dims(l)}")


@_check(1, "dim h + d1 + d2 + d3 = dim g on the catalog to rank 12")
def _dimension_sums(_seed):
    count = 0
    for case in enumerate_cases(12):  # construction runs the case_dims gate
        if sum(case.dims) != ambient_dim(case):
            raise AssertionError(f"{case.describe()}: dims {case.dims} do not fill the algebra")
        count += 1
    return f"{count} cases checked"


# -- criterion 2: coefficients -----------------------------------------------


@_check(2, "exceptional-case gamma and a values")
def _exceptional_coefficients(_seed):
    for label, (gammas, a) in GAMMA_TABLE.items():
        data = coefficients_for_case(make_case(label))
        if data.gammas != gammas or data.a != a:
            raise AssertionError(f"{label}: {data.gammas}, {data.a}")


@_check(2, "A-II coefficient family in k")
def _a_ii_coefficient_family(_seed):
    for k in range(2, 13):
        data = coefficients_for_case(make_case("A-II", k=k))
        gammas, a = a_ii_coefficients(k)
        if data.gammas != gammas or data.a != a:
            raise AssertionError(f"A-II k={k}: {data.gammas}, {data.a}")


@_check(2, "anchor gammas equal dual-Coxeter ratios")
def _anchors_as_ratios(_seed):
    pairs = [
        (("D", 6), ("E", 7), F(5, 9)),
        (("D", 8), ("E", 8), F(7, 15)),
        (("A", 7), ("E", 7), F(4, 9)),
        (("E", 7), ("E", 8), F(3, 5)),
        (("B", 4), ("F", 4), F(7, 9)),
        (("C", 3), ("F", 4), F(4, 9)),
        (("F", 4), ("E", 6), F(3, 4)),
        (("C", 4), ("E", 6), F(5, 12)),
        (("A", 5), ("E", 6), F(1, 2)),
        (("D", 5), ("E", 6), F(2, 3)),
        (("E", 6), ("E", 7), F(2, 3)),
    ]
    for sub, amb, want in pairs:
        got = gamma_from_killing_ratio(sub, amb)
        if got != want:
            raise AssertionError(f"{sub} in {amb}: {got} != {want}")
    for k in range(2, 8):
        if gamma_from_killing_ratio(("C", k), ("A", 2 * k - 1)) != F(k + 1, 2 * k):
            raise AssertionError(f"C{k} in A{2 * k - 1}")


@_check(2, "d_i (1 - gamma_i) constant across blocks, catalog to rank 12")
def _identity_everywhere(_seed):
    count = 0
    for case in enumerate_cases(12):
        data = coefficients_for_case(case)
        d = data.dims
        if len({d[i] * (1 - data.gammas[i]) for i in range(3)}) != 1:
            raise AssertionError(f"{case.describe()}: d(1-gamma) not constant")
        if data.boundary and not (case.isomorphic_summands or case.type_label == "A-I"):
            raise AssertionError(f"{case.describe()}: unexpected boundary coefficient")
        count += 1
    return f"{count} cases checked"


# -- criterion 3: solution counts --------------------------------------------


@_check(3, "A-II family: two metrics, quartic has two positive roots")
def _a_ii_sweep(_seed):
    for k in range(2, _A_II_K_MAX + 1):
        sols = solve_case(make_case("A-II", k=k)).solutions
        if len(sols) != 2:
            raise AssertionError(f"A-II k={k}: {len(sols)} solutions")
        if count_real_roots(a_ii_quartic(k), 0, None) != 2:
            raise AssertionError(f"A-II k={k}: Sturm count on (0, inf) != 2")
    return f"k = 2..{_A_II_K_MAX}"


@_check(3, "exceptional-case solution counts")
def _fixed_counts(_seed):
    for label, expected in EXPECTED_COUNTS.items():
        sols = solve_case(make_case(label)).solutions
        if len(sols) != expected:
            raise AssertionError(f"{label}: {len(sols)} != {expected}")


@_check(3, "a = (1/4,1/4,1/4) and (1/2,1/2,1/2) give only the standard metric")
def _standard_only(_seed):
    for a in ((F(1, 4),) * 3, (F(1, 2),) * 3):
        sols = solve_einstein(a)
        if len(sols) != 1 or sols[0].x != (F(1), F(1), F(1)):
            raise AssertionError(f"a = {a}: {sols}")


# -- criterion 4: solution values --------------------------------------------


@_check(4, "E6-II closed-form solutions (1, 3/5, 4/5) and (1, 5/3, 4/3)")
def _e6_ii_values(_seed):
    got = {tuple(s.x) for s in solve_case(make_case("E6-II")).solutions}
    if got != {(F(1), F(3, 5), F(4, 5)), (F(1), F(5, 3), F(4, 3))}:
        raise AssertionError(f"{got}")


@_check(4, "equal-coefficient cases match the four-metric pattern")
def _equal_coefficient_patterns(_seed):
    for label, (_, a) in GAMMA_TABLE.items():
        if a[0] == a[1] == a[2]:
            got = {tuple(s.x) for s in solve_case(make_case(label)).solutions}
            if got != _rational_pattern(a[0]):
                raise AssertionError(f"{label}: {got}")


@_check(4, "E8-I solutions are (1, q, q) with 7q^2 - 15q + 7 = 0")
def _e8_i_values(_seed):
    sols = solve_case(make_case("E8-I")).solutions
    if len(sols) != EXPECTED_COUNTS["E8-I"]:
        raise AssertionError(f"{len(sols)} solutions")
    for s in sols:
        x2, x3 = s.x[1], s.x[2]
        if x2 != x3 or not isinstance(x2, QuadraticSurd) or x2.d != 29:
            raise AssertionError(f"{s.x}")
        if 7 * x2 * x2 - 15 * x2 + 7 != 0:
            raise AssertionError("root is not a zero of 7x^2 - 15x + 7")


@_check(4, "F4-II solutions satisfy the 196/499 quadratic on x2/x3")
def _f4_ii_values(_seed):
    sols = solve_case(make_case("F4-II")).solutions
    if len(sols) != EXPECTED_COUNTS["F4-II"]:
        raise AssertionError(f"{len(sols)} solutions")
    for s in sols:
        x2, x3 = s.x[1], s.x[2]
        if x2 + x3 != F(9, 5):
            raise AssertionError("x2 + x3 != 9/5 (sum branch relation)")
        if 196 * x2 * x2 - 499 * x2 * x3 + 196 * x3 * x3 != 0:
            raise AssertionError("solution does not satisfy 196 q^2 - 499 q + 196 = 0")


@_check(4, "interval solutions match reference decimals to 5e-4")
def _reference_decimals(_seed):
    tol = F(5, 10**4)
    for label, pairs in DECIMALS.items():
        refined = [refine_solution(s, F(1, 10**8)) for s in solve_case(make_case(label)).solutions]
        got = sorted((s.approx()[1], s.approx()[2]) for s in refined)
        for (g2, g3), (w2, w3) in zip(got, sorted(pairs), strict=True):  # a missing or extra solution fails
            if abs(g2 - w2) > tol or abs(g3 - w3) > tol:
                raise AssertionError(f"{label}: ({float(g2)}, {float(g3)}) vs ({w2}, {w3})")


@_check(4, "A-III l=2 (full flag of rank 2): a = 1/6 and four metrics")
def _full_flag_rank2(_seed):
    case = make_case("A-III", l=2, i=1, j=2)
    data = coefficients_for_case(case)
    if data.a != (F(1, 6),) * 3:
        raise AssertionError(f"a = {data.a}")
    if len(solve_case(case).solutions) != 4:
        raise AssertionError("expected four metrics")


# -- criterion 5: eliminant quartics -----------------------------------------


@_check(5, "E6-III and E7-II eliminants match the reference quartics")
def _fixed_quartics(_seed):
    for label, want in QUARTICS.items():
        got = EinsteinSystem(coefficients_for_case(make_case(label)).a).x3
        if not _proportional(got, want):
            raise AssertionError(f"{label}: {got.ints}")


@_check(5, "A-II eliminant matches the symbolic quartic")
def _a_ii_quartics(_seed):
    for k in range(2, 11):
        got = EinsteinSystem(coefficients_for_case(make_case("A-II", k=k)).a).x3
        if not _proportional(got, squarefree_part(a_ii_quartic(k))):
            raise AssertionError(f"k={k}: {got.ints}")
    return "k = 2..10"


# -- criterion 6: properties against independent oracles ---------------------


def _random_fraction(rng: random.Random) -> Fraction:
    # open interval (0, 1/2), bounded away from the endpoints so that the
    # closed-form solution patterns stay inside the oracle's (0, 20] grid box
    den = rng.randint(8, 40)
    lo = max(1, den // 8)
    hi = max(lo, (9 * den) // 20)
    return F(rng.randint(lo, hi), den)


def _random_a_triple(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    mode = rng.randrange(3)
    if mode == 0:
        v = _random_fraction(rng)
        return (v, v, v)
    if mode == 1:
        v, w = _random_fraction(rng), _random_fraction(rng)
        triple = [v, v, w]
        rng.shuffle(triple)
        return tuple(triple)
    return (_random_fraction(rng), _random_fraction(rng), _random_fraction(rng))


_GRID_BOX_HI = 20.0
_GRID_N = 600


def grid_count_oracle(a) -> int:
    """Independent float oracle for the number of positive solutions.

    Scans the grid over (0, _GRID_BOX_HI]^2 (x1 = 1) for cells where both cleared
    differences change sign, polishes every candidate cell's center and then
    each corner of a candidate cell with plain 2x2 Newton iteration in floating
    point, and counts the distinct converged positive solutions. The corners
    matter where solutions lie about a cell apart, so that one center's basin
    holds several: three metrics of (87400/470533, 87400/470533, 4567/18408)
    lie within 0.03 of each other in x2.
    """
    import numpy as np

    a1, a2, a3 = (float(v) for v in a)

    def g_pair(x2, x3):
        f1 = x2 * x3 + a1 * (1 - x2**2 - x3**2)
        f2 = x3 + a2 * (x2**2 - 1 - x3**2)
        f3 = x2 + a3 * (x3**2 - 1 - x2**2)
        return f1 - f3, f2 - f3

    xs = np.linspace(1e-9, _GRID_BOX_HI, _GRID_N + 1)
    x2g, x3g = np.meshgrid(xs, xs, indexing="ij")
    g1, g2 = g_pair(x2g, x3g)

    def cellwise_change(g):
        c = np.stack([g[:-1, :-1], g[1:, :-1], g[:-1, 1:], g[1:, 1:]])
        return (c.min(axis=0) <= 0) & (c.max(axis=0) >= 0)

    cand = np.argwhere(cellwise_change(g1) & cellwise_change(g2)).tolist()
    half = _GRID_BOX_HI / (2 * _GRID_N)
    corners = sorted({(ci + di, cj + dj) for ci, cj in cand for di in (0, 1) for dj in (0, 1)})
    starts = [(xs[ci] + half, xs[cj] + half) for ci, cj in cand] + [(xs[i], xs[j]) for i, j in corners]
    found: list[tuple[float, float]] = []
    for u, v in starts:
        for _ in range(80):
            h1, h2 = g_pair(u, v)
            j11 = v - 2 * a1 * u - (1 - 2 * a3 * u)
            j12 = u - 2 * (a1 + a3) * v
            j21 = 2 * (a2 + a3) * u - 1
            j22 = 1 - 2 * (a2 + a3) * v
            det = j11 * j22 - j12 * j21
            # the Jacobian degenerates at multiple solutions; residual decides
            if not np.isfinite(det) or abs(det) < 1e-15:
                break
            du = (h1 * j22 - h2 * j12) / det
            dv = (j11 * h2 - j21 * h1) / det
            u, v = u - du, v - dv
            if abs(du) + abs(dv) < 1e-14:
                break
        if not (1e-6 < u <= _GRID_BOX_HI and 1e-6 < v <= _GRID_BOX_HI):
            continue
        h1, h2 = g_pair(u, v)
        if abs(h1) + abs(h2) > 1e-9:
            continue
        if not any(abs(u - p) + abs(v - q) < 1e-5 for p, q in found):
            found.append((u, v))
    return len(found)


@_check(6, "(1,1,1) is a solution iff a1 = a2 = a3")
def _standard_iff_equal(seed):
    rng = random.Random(seed)
    for _ in range(120):
        a = _random_a_triple(rng)
        has_standard = any(s.x == (F(1), F(1), F(1)) for s in solve_einstein(a))
        if has_standard != (a[0] == a[1] == a[2]):
            raise AssertionError(f"a = {a}")


@_check(6, "solution count invariant under coefficient permutations")
def _permutation_equivariance(_seed):
    for label in [*GAMMA_TABLE, "A-II"]:
        case = make_case(label, l=5) if label == "A-II" else make_case(label)
        a = coefficients_for_case(case).a
        base = len(solve_einstein(a))
        for perm in permutations(range(3)):
            if len(solve_einstein(tuple(a[p] for p in perm))) != base:
                raise AssertionError(f"{label} perm {perm}: count changed")


@_check(6, "every reported solution verifies at tol 1e-20")
def _everything_verifies(_seed):
    for label in EXPECTED_COUNTS:
        cs = solve_case(make_case(label))
        for s in cs.solutions:
            if not verify_solution(cs.a, s):
                raise AssertionError(f"{label}: {s}")


@_check(6, "Sturm root counts agree with a numeric eigenvalue oracle")
def _sturm_vs_numeric(seed):
    import numpy as np

    rng = random.Random(seed)
    disagreements = 0
    for _ in range(100):
        deg = rng.randint(1, 6)
        coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        p = Polynomial(coeffs)
        roots = np.roots(list(reversed([float(c) for c in squarefree_part(p).coeffs])))
        if count_real_roots(p, None, None) != sum(1 for r in roots if abs(r.imag) < 1e-7):
            disagreements += 1
    if disagreements:
        raise AssertionError(f"{disagreements} disagreements")
    return "100 random polynomials"


@_check(6, "brute-force grid oracle agrees on solution counts")
def _grid_oracle(seed):
    rng = random.Random(seed + 1)
    for label in ("E6-III", "E7-II", "E7-I", "E8-I", "F4-II"):
        a = coefficients_for_case(make_case(label)).a
        if grid_count_oracle(a) != len(solve_einstein(a)):
            raise AssertionError(f"{label}: oracle mismatch")
    for _ in range(200):
        a = _random_a_triple(rng)
        found, expected = len(solve_einstein(a)), grid_count_oracle(a)
        if expected != found:
            raise AssertionError(f"a = {a}: oracle {expected} != {found}")
    return "200 random triples + named cases"
