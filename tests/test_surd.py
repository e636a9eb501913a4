import operator
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trisym import surd
from trisym.einstein import RootCoordinate, ricci_coefficients, solve_einstein
from trisym.surd import QuadraticSurd, exact_sign, make_quadratic, roots_of_quadratic, squarefree_decompose


def test_squarefree_decompose():
    assert squarefree_decompose(29) == (1, 29)
    assert squarefree_decompose(1177) == (1, 1177)
    assert squarefree_decompose(18) == (3, 2)
    assert squarefree_decompose(256) == (16, 1)


def test_make_quadratic_collapses_perfect_squares():
    assert make_quadratic(F(1), F(2), 9) == F(7)
    v = make_quadratic(F(0), F(1), 8)
    assert isinstance(v, QuadraticSurd) and v.d == 2 and v.q == 2


def test_arithmetic_in_field():
    r = make_quadratic(F(15, 14), F(-1, 14), 29)  # (15 - sqrt 29)/14
    s = make_quadratic(F(15, 14), F(1, 14), 29)
    assert r * s == F(1)  # product of the roots of 7x^2 - 15x + 7
    assert r + s == F(15, 7)
    assert 7 * r * r - 15 * r + 7 == 0
    assert (1 / r) == s


def test_signs_and_order():
    r = make_quadratic(F(15, 14), F(-1, 14), 29)
    s = make_quadratic(F(15, 14), F(1, 14), 29)
    assert exact_sign(r) == 1 and exact_sign(-s) == -1
    assert r < 1 < s
    assert r < s


def test_one_order_rule():
    # <=, > and >= derive from < (the sign of the exact difference) and ==
    r = make_quadratic(F(15, 14), F(-1, 14), 29)  # about 0.687
    s = make_quadratic(F(15, 14), F(1, 14), 29)  # about 1.456
    assert (r <= s, r > s, r >= s, s > r, s >= r) == (True, False, False, True, True)
    assert (r <= r, r >= r, r > r, r < r) == (True, True, False, False)
    assert (F(1) <= s, F(1) >= s, 2 > s, s >= 1, s <= F(3, 2)) == (True, False, True, True, True)
    for other in (make_quadratic(F(1), F(1), 2), 1.5):  # another radicand, and a float
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(r, other)


def test_rational_quadratic_roots():
    # 15x^2 - 34x + 15 has rational roots 3/5 and 5/3
    roots = roots_of_quadratic(F(15), F(-34), F(15))
    assert roots == [F(3, 5), F(5, 3)]


def test_surd_quadratic_roots():
    roots = roots_of_quadratic(F(7), F(-15), F(7))
    assert len(roots) == 2 and all(isinstance(r, QuadraticSurd) for r in roots)
    assert roots[0] < roots[1]
    for r in roots:
        assert 7 * r * r - 15 * r + 7 == 0


def test_negative_leading_coefficient_keeps_ascending_order():
    # -7x^2 + 15x - 7 has the roots of 7x^2 - 15x + 7
    roots = roots_of_quadratic(F(-7), F(15), F(-7))
    assert roots == roots_of_quadratic(F(7), F(-15), F(7))
    assert roots[0] < roots[1]


def test_perfect_square_discriminant_either_sign():
    # discriminant 34^2 - 4 * 15 * 15 = 16^2: rational roots 3/5 and 5/3
    assert roots_of_quadratic(F(15), F(-34), F(15)) == [F(3, 5), F(5, 3)]
    assert roots_of_quadratic(F(-15), F(34), F(-15)) == [F(3, 5), F(5, 3)]
    # -6 (x + 1/3)(x - 1/4): discriminant (1/2)^2 + 4 * 6 * (1/2) = 49/4
    assert roots_of_quadratic(F(-6), F(-1, 2), F(1, 2)) == [F(-1, 3), F(1, 4)]


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(lambda v: v != 0),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
def test_roots_ascend_and_solve(a, b, c):
    roots = roots_of_quadratic(a, b, c)
    assert all(r0 < r1 for r0, r1 in zip(roots, roots[1:]))
    for r in roots:
        assert a * r * r + b * r + c == 0


def test_no_real_roots():
    assert roots_of_quadratic(F(1), F(0), F(1)) == []


def test_double_root():
    assert roots_of_quadratic(F(1), F(-2), F(1)) == [F(1)]


def test_cross_field_equality_is_false():
    a = make_quadratic(F(0), F(1), 2)
    b = make_quadratic(F(0), F(1), 3)
    assert a != b and a != F(1)


@given(st.integers(-20, 20), st.integers(1, 20), st.sampled_from([2, 3, 5, 29, 1177]))
def test_inverse_roundtrip(pn, qn, d):
    v = make_quadratic(F(pn, 3), F(qn, 7), d)
    assert isinstance(v, QuadraticSurd)
    assert v * (1 / v) == F(1)


@given(st.integers(-20, 20), st.integers(-20, 20), st.sampled_from([2, 3, 5, 29]))
def test_sign_matches_float(pn, qn, d):
    if qn == 0:
        return
    v = QuadraticSurd(F(pn), F(qn), d)
    f = pn + qn * d**0.5
    if abs(f) > 1e-9:
        assert exact_sign(v) == (1 if f > 0 else -1)


@st.composite
def near_cancelling(draw):
    """(p, q, d) with p within 1 of -q sqrt(d) half of the time, d a perfect square now and then."""
    q = draw(st.integers(-(10**30), 10**30))
    d = draw(st.one_of(st.integers(0, 10**12), st.integers(0, 10**6).map(lambda r: r * r)))
    if draw(st.booleans()):
        root = isqrt(q * q * d)
        return (-root if q > 0 else root) + draw(st.integers(-1, 1)), q, d
    return draw(st.integers(-(10**30), 10**30)), q, d


@given(near_cancelling())
def test_integer_sign_matches_rational_bounds(pqd):
    p, q, d = pqd
    r = isqrt(d)
    if r * r == d:
        expected = exact_sign(F(p + q * r))
    else:  # p + q sqrt(d) is 0 or at least 1 / (|p| + |q| sqrt(d)) > 10^-40 away, so 10^-80 bounds decide
        scale = 10**80
        lo = F(isqrt(d * scale * scale), scale)
        hi = lo + F(1, scale)
        expected = exact_sign(p + q * lo)
        assert expected == exact_sign(p + q * hi)
    assert surd.integer_sign(p, q, d) == expected
    if q and r * r != d:
        assert QuadraticSurd(F(p), F(q), d).sign() == expected


def bounds_midpoint(v: QuadraticSurd, prec: int) -> F:
    """The midpoint of p + q*lo and p + q*hi, lo and hi the multiples of 10^-prec around sqrt(d)."""
    scale = 10**prec
    lo = F(isqrt(v.d * scale * scale), scale)
    hi = lo + F(1, scale)
    ends = sorted((v.p + v.q * lo, v.p + v.q * hi))
    return (ends[0] + ends[1]) / 2


@given(
    st.fractions(max_denominator=10**6),
    st.fractions(max_denominator=10**6).filter(bool),
    st.integers(2, 10**40).filter(lambda d: isqrt(d) ** 2 != d),
    st.integers(0, 120),
)
def test_approx_is_the_bounds_midpoint(p, q, d, prec):
    v = QuadraticSurd(p, q, d)
    assert v.approx(prec) == bounds_midpoint(v, prec)
    assert v.approx() == bounds_midpoint(v, 30)


def coord_approx_reference(c, prec: int) -> F:
    """A coordinate's rational value as it was read before ``EinsteinSolution.approx`` read it itself."""
    if isinstance(c, RootCoordinate):
        return c.interval.midpoint
    return bounds_midpoint(c, prec) if isinstance(c, QuadraticSurd) else F(c)


# standard and equal-pair-linear, equal-pair-sum, equal-pair-linear with surds, the same
# with a surd and a rational, equal-pair-sum with surds, generic, generic with pivot solutions
BRANCH_TRIPLES = [
    (F(2, 9),) * 3,
    (F(1, 4), F(1, 4), F(1, 6)),
    (F(4, 15), F(1, 5), F(1, 5)),
    (F(1, 5), F(1, 3), F(1, 5)),
    (F(1, 3), F(1, 3), F(1, 5)),
    (F(1, 4), F(1, 8), F(7, 24)),
    (F(1, 6), F(1, 8), F(5, 24)),
]


@pytest.mark.parametrize("prec", [6, 40, 60])
def test_solution_approx_reads_each_coordinate(prec):
    branches = set()
    for a in BRANCH_TRIPLES:
        for s in solve_einstein(a):
            branches.add(s.branch)
            assert s.approx(prec) == tuple(coord_approx_reference(c, prec) for c in s.x)
            assert s.approx() == tuple(coord_approx_reference(c, 40) for c in s.x)
    assert branches == {"standard", "equal-pair-linear", "equal-pair-sum", "generic"}


def test_equality_is_by_value():
    a = QuadraticSurd(F(0), F(1), 8)  # sqrt(8) = 2 sqrt(2)
    b = make_quadratic(F(0), F(2), 2)
    assert a == b and hash(a) == hash(b)
    assert QuadraticSurd(F(1), F(-1), 8) != QuadraticSurd(F(1), F(2), 2)  # q of opposite signs
    assert QuadraticSurd(F(1), F(1), 8) != QuadraticSurd(F(1), F(1), 3)  # different fields


@pytest.mark.parametrize("d", [0, 1, 4, 9])
def test_constructor_rejects_rational_radicands(d):
    with pytest.raises(ValueError):
        QuadraticSurd(F(0), F(1), d)


def test_constructor_accepts_non_square_free_radicand():
    v = QuadraticSurd(F(1), F(1), 8)
    assert v.d == 8 and exact_sign(v - 3) == 1  # 1 + sqrt(8) > 3


@pytest.fixture
def decompose_calls(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return squarefree_decompose(n)

    monkeypatch.setattr(surd, "squarefree_decompose", counted)
    return calls


def test_quadratic_reduces_its_radicand_once(decompose_calls):
    roots = roots_of_quadratic(F(7), F(-15), F(7))
    assert len(roots) == 2 and len(decompose_calls) == 1


def test_field_arithmetic_never_reduces(decompose_calls):
    a = (F(4, 15), F(1, 5), F(1, 5))  # E8-I: (1, q, q) with 7q^2 - 15q + 7 = 0
    sols = solve_einstein(a)
    decompose_calls.clear()
    for s in sols:
        r1, r2, r3 = ricci_coefficients(a, s.x)
        assert r1 == r2 == r3
    assert len(sols) == 2 and decompose_calls == []


def _square_part_only(n: int) -> tuple[int, int]:
    """``squarefree_decompose`` without trial division: (1, n) unless n is a perfect square."""
    r = isqrt(n)
    return (r, 1) if r * r == n else (1, n)


def roots_reference(a, b, c):
    """``roots_of_quadratic`` as written in ``Fraction`` arithmetic before the integer kernel."""
    a, b, c = F(a), F(b), F(c)
    if a == 0:
        if b == 0:
            raise ValueError("constant equation")
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        return [-b / (2 * a)]
    num, den = disc.numerator, disc.denominator
    base = -b / (2 * a)
    spread = F(1, den) / (2 * a)
    r2 = make_quadratic(base, spread, num * den)
    r1 = 2 * base - r2
    return [r1, r2] if a > 0 else [r2, r1]


def shape(v):
    """A root as its exact representation: the type and every stored number."""
    return ("surd", v.p, v.q, v.d) if isinstance(v, QuadraticSurd) else (type(v).__name__, v)


@st.composite
def quadratics(draw):
    """(a, b, c) with denominators up to 10^6: any, with a negative lead, a zero or a
    perfect-square discriminant (from two rational roots), or linear."""
    coeff = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
    kind = draw(st.sampled_from(["any", "negative", "double", "square", "linear"]))
    a = draw(coeff.filter(bool))
    if kind == "negative":
        a = -abs(a)
    if kind in ("double", "square"):
        r1 = draw(coeff)
        r2 = r1 if kind == "double" else draw(coeff)
        return a, -a * (r1 + r2), a * r1 * r2
    b, c = draw(coeff), draw(coeff)
    if kind == "linear":
        return F(0), b or F(1), c
    return a, b, c


@given(quadratics())
@example((F(7), F(-15), F(7)))
@example((F(-7), F(15), F(-7)))  # negative lead
@example((F(1), F(-2), F(1)))  # zero discriminant
@example((F(15), F(-34), F(15)))  # perfect-square discriminant
@example((F(-6), F(-1, 2), F(1, 2)))
@example((F(0), F(-3, 5), F(2, 7)))  # linear
@example((F(2, 5), F(-1), F(47, 90)))  # the linear branch of (2/9, 2/9, 3/10)
def test_roots_match_the_fraction_reference(abc):
    def run(solve):
        radicands = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(surd, "squarefree_decompose", lambda n: radicands.append(n) or _square_part_only(n))
            roots = solve(*abc)
        return roots, [shape(r) for r in roots], radicands

    got, expected = run(roots_of_quadratic), run(roots_reference)
    assert got[0] == expected[0]
    assert got[1:] == expected[1:]  # the same representation, and the same radicands reduced, call for call


def test_integer_kernel_hands_over_the_lowest_terms_radicand(decompose_calls):
    # 7 r^2 - 15 r + 7 scaled by 6: discriminant 29 * 36 over 36, so the radicand is 29
    d, roots = surd.integer_roots_of_quadratic(42, -90, 42, 6)
    assert decompose_calls == [29] and d == 29
    assert roots == [(540, -36, 504), (540, 36, 504)]  # (15 -/+ sqrt 29) / 14
    assert surd.integer_roots_of_quadratic(-1, 2, -1, 1) == (0, [(2, 0, 2)])
    assert surd.integer_roots_of_quadratic(0, -2, 3, 5) == (0, [(3, 0, 2)])
    assert surd.integer_roots_of_quadratic(1, 0, 1, 1) == (0, [])
    with pytest.raises(ValueError, match="constant equation"):
        surd.integer_roots_of_quadratic(0, 0, 1, 1)
