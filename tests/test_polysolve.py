import random
import re
from dataclasses import replace
from fractions import Fraction as F
from math import ceil, floor, gcd, isqrt, prod

import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from trisym import polysolve
from trisym.errors import IntegrityError, TrisymError
from trisym.polysolve import (
    IsolatingInterval,
    Polynomial,
    RootBisection,
    cauchy_root_bound,
    certify_box,
    count_real_roots,
    isolate_real_roots,
    isolates,
    isolates_at,
    poly_gcd,
    refine_root,
    resultant,
    squarefree_part,
    sturm_sequence,
)


# the independent reference: sympy polynomials over QQ, the field of fractions
X = sympy.Symbol("x")
QQ = sympy.QQ


def poly(*coeffs):
    """ascending coefficients"""
    return Polynomial(coeffs)


def Q(v):
    v = F(v)
    return sympy.Rational(v.numerator, v.denominator)


def sp(*coeffs):
    """The sympy polynomial over QQ with these ascending coefficients."""
    return sympy.Poly.from_list([Q(c) for c in reversed(coeffs)], X, domain=QQ)


def to_sympy(p):
    return sp(*p.coeffs)


def from_sympy(s):
    return Polynomial(F(int(c.p), int(c.q)) for c in reversed(s.all_coeffs()))


def sym(expr):
    """The Polynomial of a sympy expression or polynomial in X: products and powers computed by sympy."""
    return from_sympy(sympy.Poly(expr, X, domain=QQ))


def is_positive_multiple(ints, ref):
    """``ints`` (ascending integers) is c * ``ref`` for a rational c > 0."""
    ref = [F(int(r.p), int(r.q)) for r in reversed(ref.all_coeffs())]
    if len(ints) != len(ref):
        return False
    c = ints[-1] / ref[-1]
    return c > 0 and all(v == c * r for v, r in zip(ints, ref))


class TestArithmetic:
    def test_gcd(self):
        p = sym((X - 1) * (X - 2))
        q = sym((X - 1) * (X + 5))
        assert poly_gcd(p, q) == poly(-1, 1)

    def test_squarefree(self):
        p = sym((X - 1) ** 2 * (X - 3))
        assert squarefree_part(p) == sym((X - 1) * (X - 3))

    def test_eval(self):
        p = poly(1, -2, 3)
        assert p(F(1, 2)) == 1 - 1 + F(3, 4)

    def test_exact_div(self):
        p = sym((X**2 - 2) * (3 * X + 1) / 7)
        assert p.exact_div(poly(-2, 0, 1)) == poly(F(1, 7), F(3, 7))
        with pytest.raises(IntegrityError, match="non-divisible"):
            poly(0, 1).exact_div(poly(1, 2))  # x / (2x + 1): the lead 2 does not divide 1, remainder 0 below
        with pytest.raises(ZeroDivisionError):
            poly(1, 1).exact_div(poly())


class TestSturm:
    def test_chain_x2_minus_2(self):
        # positive multiples of the textbook chain x^2 - 2, 2x, 2
        chain = sturm_sequence(poly(-2, 0, 1))
        assert chain == [poly(-2, 0, 1), poly(0, 1), poly(1)]
        ref = sympy.sturm(sp(-2, 0, 1))
        assert all(is_positive_multiple(q.ints, r) for q, r in zip(chain, ref))

    def test_repeated_root_reduced(self):
        p = sym((X - 1) ** 2)
        assert count_real_roots(p, 0, 2) == 1

    def test_a_ii_quartic_k2(self):
        # coefficients of the k = 2 member of the quartic family,
        # evaluated from the symbolic coefficients
        k = 2
        p = poly(
            12 * k**4 - 20 * k**3 + 7 * k**2 + 2 * k - 1,
            -(48 * k**4 - 48 * k**3 + 4 * k**2 + 4 * k),
            72 * k**4 - 36 * k**3 - 4 * k**2,
            -(48 * k**4 - 8 * k**3),
            12 * k**4,
        )
        assert p == poly(63, -408, 848, -704, 192)
        assert count_real_roots(p, 0, None) == 2

    def test_count_basic(self):
        assert count_real_roots(poly(-2, 0, 1), 0, None) == 1
        assert count_real_roots(poly(-2, 0, 1), None, None) == 2

    def test_reference_quartics_have_two_positive_roots(self):
        assert count_real_roots(poly(855, -4152, 7048, -4960, 1200), 0, None) == 2
        assert count_real_roots(poly(5832, -19926, 24732, -13482, 2744), 0, None) == 2

    def test_root_at_endpoint_excluded(self):
        p = sym(X * (X - 1))  # roots 0 and 1
        assert count_real_roots(p, 0, 2) == 1
        assert count_real_roots(p, 0, 1) == 0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots(poly(-2, 0, 1), 1, 1)
        with pytest.raises(ValueError):
            count_real_roots(poly(), 0, 1)


class TestIsolation:
    def test_two_roots(self):
        ivs = isolate_real_roots(poly(2, -3, 1), 0, 10)
        assert len(ivs) == 2
        assert ivs[0].lo < 1 < ivs[0].hi
        assert ivs[1].lo < 2 < ivs[1].hi

    def test_e6_iii_quartic(self):
        p = poly(855, -4152, 7048, -4960, 1200)
        ivs = isolate_real_roots(p, 0, None)
        assert len(ivs) == 2
        mids = [float(refine_root(iv, F(1, 10**8)).midpoint) for iv in ivs]
        assert abs(mids[0] - 0.4838) < 5e-4
        assert abs(mids[1] - 1.8845) < 5e-4

    def test_rational_root_hit_by_bisection(self):
        # roots at 1 and 3; midpoint of (0, 2) lands exactly on 1
        p = sym((X - 1) * (X - 3))
        ivs = isolate_real_roots(p, 0, 2)
        assert len(ivs) == 1
        iv = ivs[0]
        assert iv.lo < 1 < iv.hi


class TestRefine:
    def test_sqrt2(self):
        iv = isolate_real_roots(poly(-2, 0, 1), 1, 2)[0]
        r = refine_root(iv, F(1, 10**6))
        assert r.hi - r.lo <= F(1, 10**6)
        assert r.lo < F(1414213562373, 10**12) < r.hi

    def test_nesting_and_sign_straddle(self):
        iv = isolate_real_roots(poly(-2, 0, 1), 0, None)[0]
        r = refine_root(iv, F(1, 1000))
        assert iv.lo <= r.lo < r.hi <= iv.hi
        assert (iv.poly(r.lo) > 0) != (iv.poly(r.hi) > 0)

    def test_e6_iii_root_to_four_decimals(self):
        p = poly(855, -4152, 7048, -4960, 1200)
        iv = isolate_real_roots(p, 0, None)[-1]  # larger of the two roots
        r = refine_root(iv, F(1, 10**8))
        rounded = round(float(r.midpoint), 4)
        assert rounded == 1.8845

    def test_quadratic_root_against_isqrt_oracle(self):
        # smaller root of 7x^2 - 15x + 7 is (15 - sqrt(29)) / 14
        p = poly(7, -15, 7)
        iv = isolate_real_roots(p, 0, 1)[0]
        r = refine_root(iv, F(1, 10**12))
        scale = 10**24
        lo = F(isqrt(29 * scale * scale), scale)
        oracle = (15 - lo) / 14
        assert abs(r.midpoint - oracle) < F(1, 10**10)


class TestResultant:
    # p is given by its coefficients in y (polynomials in x); the second
    # equation is den(x) * y = num(x)

    def test_xy_minus_1(self):
        p = (poly(-1), poly(0, 1))  # x*y - 1
        res = resultant(p, poly(2), poly(1))  # y - 2
        lead = res[res.degree]
        assert res.scale(1 / lead) == poly(F(-1, 2), 1)

    def test_identical_inputs_vanish(self):
        p = (poly(-1), poly(0, 1))  # x*y - 1, i.e. den = x, num = 1
        assert resultant(p, poly(1), poly(0, 1)).is_zero

    def test_common_zero_projection_vanishes(self):
        # p = y - x^2, q = y - 2x: common zeros at x = 0, 2
        p = (poly(0, 0, -1), poly(1))
        res = resultant(p, poly(0, 2), poly(1))
        assert res(F(0)) == 0 and res(F(2)) == 0 and res(F(1)) != 0


class TestProperties:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8, unique=True))
    def test_product_of_distinct_linear_factors(self, roots):
        p = sym(prod((sp(-r, 1) for r in roots), start=sp(1)))
        assert count_real_roots(p, None, None) == len(roots)

    def test_count_vs_numeric_oracle(self):
        import numpy as np

        rng = random.Random(7)
        for _ in range(100):
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-50, 50) for _ in range(deg + 1)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            p = Polynomial(coeffs)
            sf = squarefree_part(p)
            numeric = sum(
                1
                for r in np.roots(list(reversed([float(c) for c in sf.coeffs])))
                if abs(r.imag) < 1e-7
            )
            assert count_real_roots(p, None, None) == numeric

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=6, unique=True), st.integers(2, 12))
    def test_isolation_covers_all_roots(self, roots, denom):
        p = sym(prod((sp(-r, 1) for r in roots), start=sp(1)))
        ivs = isolate_real_roots(p, None, None)
        assert len(ivs) == len(roots)
        for r, iv in zip(sorted(roots), ivs):
            assert iv.lo < r < iv.hi
            refined = refine_root(iv, F(1, denom))
            assert refined.lo < r < refined.hi


@st.composite
def factored_polys(draw):
    """(p, roots): c * prod (q x - n)^k times, half the time, a quadratic irreducible over Q; degree <= 8.

    ``roots`` are the distinct rational roots.
    """
    quadratic = draw(st.booleans())
    factors, roots, degree = [], set(), 2 if quadratic else 0
    for n, q, k in draw(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 5), st.integers(1, 3)), max_size=5)):
        if degree + k <= 8:
            factors.append(sp(-n, q) ** k)
            roots.add(F(n, q))
            degree += k
    if quadratic:  # x^2 + b x + c with a discriminant that is not a square: two irrational real roots, or none
        b, c = draw(st.integers(-6, 6)), draw(st.integers(-20, 20))
        disc = b * b - 4 * c
        assume(disc < 0 or isqrt(disc) ** 2 != disc)
        factors.append(sp(c, b, 1))
    return sym(prod(factors, start=sp(draw(st.integers(-9, 9).filter(bool))))), sorted(roots)


@st.composite
def end(draw, p, roots, sign):
    """An end of a count: None, a finite rational, a root of p, or at or beyond the Cauchy bound on either side."""
    kind = draw(st.sampled_from(["none", "finite", "root", "beyond"]))
    if kind == "none":
        return None
    if kind == "finite":
        return draw(st.fractions(min_value=-15, max_value=15, max_denominator=6))
    if kind == "root" and roots:
        return draw(st.sampled_from(roots))
    return draw(st.sampled_from([sign, -sign])) * (cauchy_root_bound(p) + draw(st.integers(0, 3)))


class TestEndBox:
    @given(factored_polys(), st.data())
    def test_count_isolation_and_sympy_agree(self, pr, data):
        # the end box replaces an infinite end by the Cauchy bound: the count must not change
        p, roots = pr
        lo, hi = data.draw(end(p, roots, -1)), data.draw(end(p, roots, 1))
        assume(lo is None or hi is None or lo < hi)
        inside = {
            r
            for r in to_sympy(p).real_roots()
            if (lo is None or bool(r > Q(lo))) and (hi is None or bool(r < Q(hi)))
        }
        assert count_real_roots(p, lo, hi) == len(isolate_real_roots(p, lo, hi)) == len(inside)


# -- references for the integer kernel -------------------------------------------


def _fraction_sign(v):
    return (v > 0) - (v < 0)


def evaluator(p):
    """x -> p(x) by Horner's rule on the Fraction coefficients, the reference evaluation."""
    coeffs = p.coeffs[::-1]

    def at(x):
        acc = F(0)
        for c in coeffs:
            acc = acc * x + c
        return acc

    return at


def _ref_variations(chain, x, neg_inf=False):
    if x is None:
        signs = [int(sympy.sign(q.LC())) * (-1 if neg_inf and q.degree() % 2 else 1) for q in chain]
    else:
        signs = [int(sympy.sign(q.eval(Q(x)))) for q in chain]
    signs = [v for v in signs if v]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


def ref_count(p, lo, hi):
    """Distinct roots in the open interval (lo, hi), from sympy's Sturm sequence over QQ."""
    sf = to_sympy(p).sqf_part()
    for pt in (lo, hi):
        while pt is not None and sf.degree() >= 1 and sf.eval(Q(pt)) == 0:
            sf = sf.quo(sp(-pt, 1))
    if sf.degree() <= 0:
        return 0
    chain = sympy.sturm(sf)
    return _ref_variations(chain, lo, neg_inf=True) - _ref_variations(chain, hi)


def ref_refine(p, lo, hi, width):
    """Fraction bisection: the endpoints refine_root must reproduce exactly."""
    p = evaluator(p)
    s_lo = _fraction_sign(p(lo))
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = _fraction_sign(p(mid))
        if s_mid == 0:
            d = (hi - lo) / 4
            while True:
                a, b = mid - d, mid + d
                if b - a <= width and p(a) != 0 and p(b) != 0:
                    return a, b
                d = d / 2
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def ref_deflated(p, lo, hi):
    """The square-free part of ``p`` with a root at each finite end among ``lo`` and ``hi`` divided out, by sympy."""
    sf = squarefree_part(p)
    for pt in (lo, hi):
        if pt is not None and sf(pt) == 0:
            sf = from_sympy(to_sympy(sf).quo(sp(-pt, 1)))
    return sf


def ref_isolate(p, lo, hi):
    """Fraction bisection with the carve around an exact hit: the intervals isolate_real_roots must reproduce."""
    sf = ref_deflated(p, lo, hi)
    if sf.degree <= 0:
        return []
    bound = cauchy_root_bound(sf)
    lo, hi = -bound if lo is None else lo, bound if hi is None else hi
    out, stack = [], [(lo, hi)] if lo < hi else []
    while stack:
        s, t = stack.pop()
        n = count_real_roots(sf, s, t)
        if n == 1:
            out.append((s, t))
        elif n > 1:
            mid = (s + t) / 2
            if sf.sign_at(mid) == 0:
                d = (t - s) / 2
                while True:
                    d = d / 2
                    if isolates(sf, mid - d, mid + d):
                        break
                out.append((mid - d, mid + d))
                stack += [(s, mid - d), (mid + d, t)]
            else:
                stack += [(s, mid), (mid, t)]
    return sorted(out)


def _build_poly(roots, mults, c, lead):
    factors = [sp(-r, 1) ** m for r, m in zip(roots, mults)]
    return sym(prod(factors, start=sp(lead)) * (sp(1) if c is None else sp(-c, 0, 1)))


small_roots = st.fractions(min_value=-4, max_value=4, max_denominator=8)
# roots with multiplicities, times an optional irreducible quadratic factor
repeated_root_polys = st.builds(
    _build_poly,
    st.lists(small_roots, min_size=1, max_size=4),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
    st.sampled_from([None, 2, 3, 7]),
    st.fractions(min_value=-5, max_value=5, max_denominator=9).filter(lambda v: v != 0),
)

# endpoints: an infinity, a likely root, or a rational with a large denominator
endpoints = st.one_of(
    st.none(),
    st.fractions(min_value=-5, max_value=5, max_denominator=8),
    st.integers(-5 * 10**30, 5 * 10**30).map(lambda n: F(n, 10**30 + 7)),
)


def _rational_roots(p):
    """Roots of p among the values the ``small_roots`` strategy draws (endpoints to test at, not a reference)."""
    return [F(n, d) for d in range(1, 9) for n in range(-4 * d, 4 * d + 1) if p.sign_at(F(n, d)) == 0]


class TestIntegerKernel:
    @given(repeated_root_polys, endpoints, endpoints)
    def test_count_matches_fraction_reference(self, p, lo, hi):
        assume(lo is None or hi is None or lo < hi)
        assert count_real_roots(p, lo, hi) == ref_count(p, lo, hi)

    @given(repeated_root_polys)
    def test_count_with_roots_on_the_endpoints(self, p):
        roots = sorted(set(_rational_roots(p)))
        for lo in roots:
            for hi in roots + [lo + 1]:
                if lo < hi:
                    assert count_real_roots(p, lo, hi) == ref_count(p, lo, hi)

    @given(repeated_root_polys, st.integers(1, 60))
    def test_refine_matches_fraction_bisection(self, p, bits):
        width = F(1, 2**bits)
        for iv in isolate_real_roots(p):
            got = refine_root(iv, width)
            assert (got.lo, got.hi) == ref_refine(iv.poly, iv.lo, iv.hi, width)

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(-40, 40)), min_size=1, max_size=6),
        st.one_of(st.none(), st.fractions(min_value=-30, max_value=30, max_denominator=16)),
        st.one_of(st.none(), st.fractions(min_value=-30, max_value=30, max_denominator=16)),
    )
    @example([(1, 1), (0, 3)], F(1, 2), None)  # (2x - 1)(x - 3) on (1/2, oo): the intervals' polynomial is x - 3
    def test_isolate_matches_fraction_bisection(self, factors, lo, hi):
        # a product of (2^k x - n): dyadic roots, so bisection midpoints hit them exactly
        assume(lo is None or hi is None or lo < hi)
        p = sym(prod((sp(-n, 2**k) for k, n in factors), start=sp(1)))
        got = isolate_real_roots(p, lo, hi)
        assert [(iv.lo, iv.hi) for iv in got] == ref_isolate(p, lo, hi)
        assert all(iv.poly == ref_deflated(p, lo, hi) for iv in got)

    @given(small_roots, st.integers(0, 6), st.integers(1, 40), st.sampled_from([None, 2, 5]))
    def test_refine_hits_exact_root(self, root, k, bits, c):
        # a dyadic interval centred on a rational root: the first midpoint is the root
        p = sym(sp(-root, 1) * (sp(1) if c is None else sp(-c, 0, 1)))
        d = F(1, 2**k)
        assume(count_real_roots(p, root - d, root + d) == 1 and p(root - d) != 0 and p(root + d) != 0)
        iv = IsolatingInterval.of(root - d, root + d, p)
        width = F(1, 2**bits)
        got = refine_root(iv, width)
        assert (got.lo, got.hi) == ref_refine(p, iv.lo, iv.hi, width)
        assert got.lo < root < got.hi

    @given(repeated_root_polys)
    def test_integer_chain_is_a_positive_multiple(self, p):
        chain = p._sturm_chain()
        ref = sympy.sturm(to_sympy(p))
        assert len(chain) == len(ref)
        for ints, q in zip(chain, ref):
            assert all(isinstance(v, int) for v in ints)
            assert is_positive_multiple(ints, q)

    @given(repeated_root_polys, st.fractions(max_denominator=10**12))
    def test_sign_at_matches_fraction_evaluation(self, p, x):
        assert p.sign_at(x) == _fraction_sign(evaluator(p)(x))

    def test_chain_built_once_per_polynomial(self, monkeypatch):
        builds = []

        real = polysolve._remainder_sequence

        def counting(a, b):
            builds.append(a)
            return real(a, b)

        monkeypatch.setattr(polysolve, "_remainder_sequence", counting)
        p = poly(855, -4152, 7048, -4960, 1200)
        ivs = isolate_real_roots(p, 0, None)
        for iv in ivs:
            refine_root(iv, F(1, 10**50))
            count_real_roots(iv.poly, iv.lo, iv.hi)
        assert len(ivs) == 2 and len(builds) == 1


# -- the integer remainder sequence against sympy over QQ ------------------------

big = st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**12))
nonzero_big = big.filter(lambda v: v != 0)


@st.composite
def sparse_polys(draw):
    """Degree 1..8, at least half the coefficients zero, a leading coefficient of either sign.

    Sparse remainders lose more than one degree per step, which is where the
    sign of a pseudo-remainder depends on the steps actually taken. A third
    carry the repeated factor x^j, a third the square of a binomial.
    """
    repeat = draw(st.sampled_from(["none", "power of x", "binomial squared"]))
    if repeat == "binomial squared":
        i = draw(st.integers(2, 4))  # (c x^i + e)^2: 3 nonzero of 2i + 1 coefficients
        binomial = sp(draw(nonzero_big), *[0] * (i - 1), draw(nonzero_big))
        return sym(binomial**2 * sp(*[0] * draw(st.integers(0, 8 - 2 * i)), draw(nonzero_big)))
    d = draw(st.integers(1, 6 if repeat == "power of x" else 8))
    coeffs = [F(0)] * d + [draw(nonzero_big)]
    free = (d + 1) // 2 - 1  # nonzero coefficients below the lead
    if free:  # one of the two lowest is nonzero, so x^2 divides only in the power-of-x third
        for k in {draw(st.integers(0, 1))} | draw(st.sets(st.integers(2, d - 1), max_size=free - 1)):
            coeffs[k] = draw(nonzero_big)
    j = draw(st.integers(2, 8 - d)) if repeat == "power of x" else 0
    return poly(*[0] * j, *coeffs)


def ref_gcd(a, b):
    """Monic gcd by sympy over QQ."""
    return from_sympy(to_sympy(a).gcd(to_sympy(b)))


def ref_squarefree(p):
    """Monic square-free part by sympy over QQ."""
    return from_sympy(to_sympy(p).sqf_part())


def ref_resultant(p, num, den):
    """den^m p(num / den) = sum of p[k] num^k den^(m - k), in sympy over QQ."""
    ps, n, d = [to_sympy(c) for c in p], to_sympy(num), to_sympy(den)
    m = len(ps) - 1
    return from_sympy(sum((c * n**k * d ** (m - k) for k, c in enumerate(ps)), sp()))


class TestRemainderSequence:
    # the references are sympy polynomials over QQ, the field of fractions

    @given(st.one_of(sparse_polys(), repeated_root_polys))
    def test_chain_is_the_fraction_sturm_sequence(self, p):
        chain = sturm_sequence(p)
        ref = sympy.sturm(to_sympy(p))
        assert [q.ints for q in chain] == list(p._sturm_chain())
        assert len(chain) == len(ref)
        assert all(q.content == 1 and is_positive_multiple(q.ints, r) for q, r in zip(chain, ref))

    @given(sparse_polys())
    def test_squarefree_part_matches_fraction_euclid(self, p):
        sf = squarefree_part(p)
        assert sf == ref_squarefree(p)
        if sf._chain is not None:
            assert sf._chain[0] == sf.ints

    @given(sparse_polys(), sparse_polys())
    def test_gcd_matches_fraction_euclid(self, p, q):
        assert poly_gcd(p, q) == ref_gcd(p, q)
        pq = from_sympy(to_sympy(p) * to_sympy(q))
        assert poly_gcd(pq, q) == ref_gcd(pq, q) == q.monic()

    @given(st.lists(sparse_polys(), min_size=1, max_size=3), sparse_polys(), sparse_polys())
    def test_resultant_matches_fraction_horner(self, p, num, den):
        assert resultant(p, num, den) == ref_resultant(p, num, den)

    def test_squarefree_input_calls_no_fraction_euclid(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a gcd on the square-free path")

        monkeypatch.setattr(polysolve, "poly_gcd", refuse)
        p = poly(-7, 0, 0, 3, 0, -2)  # square-free, negative lead
        sf = squarefree_part(p)
        assert sf[sf.degree] == 1 and sf._chain is not None
        monkeypatch.undo()
        ref = sympy.sturm(to_sympy(p))
        assert len(sf._sturm_chain()) == len(ref)
        assert all(is_positive_multiple(q, r) for q, r in zip(sf._sturm_chain(), ref))


# -- the stored form: content * ints -----------------------------------------------

# zeros, small and 10^30-sized rationals, and plain integers (the constructor's integer path)
coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**30), 10**30),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    big,
)
coefficient_lists = st.builds(
    lambda c, zeros: c + [0] * zeros,  # trailing zeros are stripped
    st.lists(coefficients, max_size=7),
    st.integers(0, 3),
)
nonzero_polys = coefficient_lists.map(Polynomial).filter(lambda p: not p.is_zero)


def _stripped(c):
    c = [F(v) for v in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class TestRepresentation:
    @given(coefficient_lists)
    def test_stored_form(self, c):
        p = Polynomial(c)
        assert type(p.content) is F and p.content > 0
        assert all(type(v) is int for v in p.ints)
        assert p.coeffs == _stripped(c) == tuple(v * p.content for v in p.ints)
        if p.ints:
            assert gcd(*p.ints) == 1 and p.ints[-1] != 0
        else:
            assert p.content == 1 and p.degree == -1

    @given(coefficient_lists, coefficient_lists, st.sampled_from([1, -1, F(3, 7)]))
    def test_equality_and_hash_follow_coeffs(self, c, d, k):
        p, q = Polynomial(c), Polynomial(d)
        assert (p == q) is (p.coeffs == q.coeffs)
        # the same coefficients built another way: as Fractions, with a trailing zero, or scaled
        r = Polynomial([F(v) * k for v in c] + [0])
        assert (p.scale(k) == r) and hash(p.scale(k)) == hash(r)
        assert (p == r) is (p.coeffs == r.coeffs)

    @given(nonzero_polys, coefficients)
    def test_monic_and_scale_match_sympy(self, p, v):
        assert p.monic() == from_sympy(to_sympy(p).monic())
        assert p.scale(v) == from_sympy(to_sympy(p).mul_ground(Q(v)))

    @given(nonzero_polys, nonzero_polys)
    def test_exact_div_matches_sympy(self, p, q):
        pq = from_sympy(to_sympy(p) * to_sympy(q))
        assert pq.exact_div(q) == p
        quo, rem = to_sympy(p).div(to_sympy(q))
        if rem.is_zero:
            assert p.exact_div(q) == from_sympy(quo)
        else:
            with pytest.raises(IntegrityError, match="non-divisible"):
                p.exact_div(q)

    def test_ratio_strings_accepted(self):
        assert Polynomial(["1/2", 3]) == poly(F(1, 2), 3)


# -- floats are refused at every public entry point ------------------------------

P = poly(-2, 0, 1)
IV = IsolatingInterval.of(F(1), F(2), P)


class TestFloatsRefused:
    # a float stands for a binary fraction: Polynomial([0.1, 1]) would hold 3602879701896397/36028797018963968
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: Polynomial([0.1, 1]), "coefficient 0.1", id="coefficient"),
            pytest.param(lambda: IsolatingInterval.of(1.0, 2.0, P), "endpoint 1.0", id="interval"),
            pytest.param(lambda: IsolatingInterval.of(F(1), 2.0, P), "endpoint 2.0", id="interval-hi"),
            pytest.param(lambda: IsolatingInterval.of(1.0, 2, P), "endpoint 1.0", id="interval-lo"),
            pytest.param(lambda: P.sign_at(0.5), "point 0.5", id="sign_at"),
            pytest.param(lambda: P.scale(0.5), "scale factor 0.5", id="scale"),
            pytest.param(lambda: isolates(P, 1.0, 2), "endpoint 1.0", id="isolates"),
            pytest.param(lambda: count_real_roots(P, 0.5, None), "bound 0.5", id="count-lo"),
            pytest.param(lambda: count_real_roots(P, None, 2.5), "bound 2.5", id="count-hi"),
            pytest.param(lambda: isolate_real_roots(P, 0.5), "bound 0.5", id="isolate-lo"),
            pytest.param(lambda: isolate_real_roots(P, 0, 2.5), "bound 2.5", id="isolate-hi"),
            pytest.param(lambda: refine_root(IV, 0.001), "width 0.001", id="refine-width"),
        ],
    )
    def test_float_refused(self, call, message):
        with pytest.raises(TrisymError, match=f"^{message} is a float; give an int, a Fraction or a 'p/q' string$"):
            call()

    def test_interval_ends_become_fractions(self):
        iv = IsolatingInterval.of(1, "3/2", P)
        assert (type(iv.lo), type(iv.hi)) == (F, F) and iv.hi == F(3, 2)
        assert refine_root(iv, "1/1000") == refine_root(IsolatingInterval.of(F(1), F(3, 2), P), F(1, 1000))


class TestIntervalBox:
    """An isolating interval is its reduced integer box; the rational ends are derived on read."""

    def test_reduced_on_construction(self):
        assert IsolatingInterval.of(F(1, 2), F(1), P) == IsolatingInterval(2, 4, 4, P)
        assert hash(IsolatingInterval.of(F(1, 2), F(1), P)) == hash(IsolatingInterval(2, 4, 4, P))
        iv = IsolatingInterval(6, 9, 12, P)
        assert (iv.a, iv.b, iv.m) == (2, 3, 4) and iv != IsolatingInterval(2, 3, 4, poly(-3, 0, 5))
        assert (iv.lo, iv.hi, iv.width, iv.midpoint) == (F(1, 2), F(3, 4), F(1, 4), F(5, 8))

    @pytest.mark.parametrize("box", [(2, 2, 3), (3, 2, 3), (1, 2, 0), (-2, -1, -3)])
    def test_box_needs_ordered_ends_over_a_positive_denominator(self, box):
        with pytest.raises(ValueError, match="^an interval box needs numerators a < b over m > 0$"):
            IsolatingInterval(*box, P)


class TestCertificate:
    """Only the kernels that prove a box isolates its root mark it ``certified``; the mark is not part of its value."""

    def test_isolation_certifies(self):
        # (2x - 1)(4x - 1)(x - 5) on (0, 8): bisection meets the root 1/2 as the midpoint of (0, 1) and carves around it
        ivs = isolate_real_roots(sym(sp(-1, 2) * sp(-1, 4) * sp(-5, 1)), 0, 8)
        assert [iv.lo < F(1, 2) < iv.hi for iv in ivs] == [False, True, False]
        assert ivs[1].midpoint == F(1, 2)
        assert all(iv.certified for iv in ivs)
        assert all(iv.certified for iv in isolate_real_roots(poly(-2, 0, 1)))

    def test_refinement_keeps_the_certificate_it_is_given(self):
        iv = isolate_real_roots(poly(-2, 0, 1), 1, 2)[0]
        assert refine_root(iv, F(1, 10**30)).certified
        assert not refine_root(IsolatingInterval(iv.a, iv.b, iv.m, iv.poly), F(1, 10**30)).certified

    def test_bisection_keeps_the_certificate_it_is_given(self):
        # the interval a RootBisection hands back, before and after halving and after a carve, is certified exactly
        # when the interval it opened from is; a copy made by dataclasses.replace carries none
        for iv in (isolate_real_roots(poly(-2, 0, 1), 1, 2)[0], isolate_real_roots(poly(-1, 2), 0, 1)[0]):
            for given in (iv, replace(iv)):
                bisection = RootBisection(given)
                opened = bisection.interval
                bisection.halve(3, 1, 64)
                assert opened == given and bisection.interval.poly is given.poly
                assert opened.certified is bisection.interval.certified is given.certified is (given is iv)

    def test_carve_around_an_exact_dyadic_hit_is_certified(self):
        # 2x - 1 on (0, 1): the first midpoint is the root, so refinement carves a box around it
        iv = isolate_real_roots(poly(-1, 2), 0, 1)[0]
        assert (iv.a, iv.b, iv.m) == (0, 1, 1) and iv.certified
        carved = refine_root(iv, F(1, 8))
        assert carved.lo < F(1, 2) < carved.hi and carved.midpoint == F(1, 2) and carved.certified

    def test_copies_and_hand_built_boxes_are_uncertified(self):
        iv = isolate_real_roots(poly(-2, 0, 1), 1, 2)[0]
        assert iv.certified
        for other in (
            replace(iv),
            replace(iv, poly=poly(-7, 1)),
            IsolatingInterval.of(iv.lo, iv.hi, iv.poly),
            IsolatingInterval(iv.a, iv.b, iv.m, iv.poly),
        ):
            assert not other.certified
        with pytest.raises(TypeError):
            IsolatingInterval(iv.a, iv.b, iv.m, iv.poly, True)

    def test_certificate_is_not_part_of_the_value(self):
        iv = isolate_real_roots(poly(-2, 0, 1), 1, 2)[0]
        bare = replace(iv)
        assert iv.certified and not bare.certified
        assert iv == bare and hash(iv) == hash(bare) and repr(iv) == repr(bare)

    def test_two_signs_only_inside_the_certified_box(self, monkeypatch):
        # (x - 1)(x - 2)(x - 3): inside the certified box around 2 the end signs decide; (0, 4) reaches past it,
        # holds three roots and has opposite end signs, so it gets the Sturm test
        p = sym(sp(-1, 1) * sp(-2, 1) * sp(-3, 1))
        iv = next(iv for iv in isolate_real_roots(p) if iv.lo < 2 < iv.hi)
        p = iv.poly
        assert iv.certified and p.sign_at(0) * p.sign_at(4) < 0
        assert certify_box((0, 1), (4, 1), p, iv) is None and isolates_at(p, 0, 1, 4, 1) is False
        tests, sturm = [], polysolve.isolates_at
        monkeypatch.setattr(polysolve, "isolates_at", lambda *args: tests.append(args) or sturm(*args))
        box = certify_box((iv.a, iv.m), (iv.b, iv.m), p, iv)
        assert box == iv and box.certified and tests == []
        assert certify_box((2, 1), (iv.b, iv.m), p, iv) is None and tests == []  # an end at the root
        assert certify_box((iv.a, iv.m), (iv.b, iv.m), p, replace(iv)) == iv and len(tests) == 1  # no certificate
        assert certify_box((iv.a, iv.m), (iv.b, iv.m), p) == iv and len(tests) == 2  # no enclosing interval
        with pytest.raises(ValueError, match="need lo < hi"):
            certify_box((iv.b, iv.m), (iv.a, iv.m), p, iv)

class TestNonRationalRefused:
    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(lambda: Polynomial(["x"]), "coefficient 'x'", id="coefficient"),
            pytest.param(lambda: Polynomial([1, None]), "coefficient None", id="coefficient-none"),
            pytest.param(lambda: IsolatingInterval.of("1/0", 2, P), "endpoint '1/0'", id="interval"),
            pytest.param(lambda: P.sign_at("x"), "point 'x'", id="sign_at"),
            pytest.param(lambda: P.scale(1j), "scale factor 1j", id="scale"),
            pytest.param(lambda: isolates(P, 1, "2/0"), "endpoint '2/0'", id="isolates"),
            pytest.param(lambda: count_real_roots(P, "x", None), "bound 'x'", id="count"),
            pytest.param(lambda: isolate_real_roots(P, None, [2]), "bound [2]", id="isolate"),
            pytest.param(lambda: refine_root(IV, "x"), "width 'x'", id="refine-width"),
        ],
    )
    def test_non_rational_refused(self, call, message):
        # what Fraction() cannot read raises TrisymError, not its ValueError, ZeroDivisionError or TypeError
        with pytest.raises(
            TrisymError, match=f"^{re.escape(message)} is not a rational number; give an int, a Fraction or a 'p/q' string$"
        ):
            call()


# -- the kernels shared with the x2 link ---------------------------------------

integer_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(lambda c: poly(*c)).filter(
    lambda p: not p.is_zero
)
finite_endpoints = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=8),
    st.integers(-5 * 10**30, 5 * 10**30).map(lambda n: F(n, 10**30 + 7)),
)


def _big_quartic(rng, bits):
    """(u x - v)(s x - t)(w x^2 - c) with factors of about bits / 3 bits: a quartic with coefficients of about ``bits`` bits."""
    third = bits // 3

    def size():
        return rng.getrandbits(third) | 1 << third

    u, s, w = size(), size(), size()
    return sym(sp(-rng.randrange(u, 3 * u), u) * sp(-rng.randrange(s // 5, s), s) * sp(-rng.randrange(w, 4 * w), 0, w))


def _deep_boxes(p):
    """Intervals of ``p`` over m = 3 * 7 * 11 * 2^j, uncertified, isolating each real root of ``p``."""
    out = []
    for iv in isolate_real_roots(p):
        for j in (0, 9):
            m = 3 * 7 * 11 * 2**j
            iv = refine_root(iv, F(1, 4 * m))
            a, b = floor(iv.lo * m), ceil(iv.hi * m)
            if isolates_at(p, a, m, b, m):
                out.append(IsolatingInterval(a, b, m, p))
    return out


def _bisected(iv, wn, wd):
    """The box of a fresh ``RootBisection`` of ``iv`` taken to width wn / wd, checked against its ``interval``."""
    bisection = RootBisection(iv)
    got = bisection.to_width(wn, wd)
    assert bisection.interval == IsolatingInterval(*got, iv.poly) and bisection.box == got
    return got


def _value(box):
    return F(box[0], box[2]), F(box[1], box[2])


def _assert_fraction_bisection(iv, got, width):
    """``got``, a bisection of ``iv``, is the Fraction bisection to ``width``, over the entry denominator times 2^k."""
    k = got[2] // iv.m
    assert got[2] == iv.m * k and k & (k - 1) == 0
    assert _value(got) == ref_refine(iv.poly, iv.lo, iv.hi, width)


class TestSharedKernels:
    @given(st.one_of(integer_polys, repeated_root_polys, sparse_polys()), st.data())
    def test_isolates_is_its_definition(self, p, data):
        # endpoints often sit on rational roots of p
        ends = st.one_of(finite_endpoints, st.sampled_from(_rational_roots(p) or [F(0)]))
        lo, hi = data.draw(ends), data.draw(ends)
        assume(lo < hi)
        expected = p.sign_at(lo) != 0 and p.sign_at(hi) != 0 and count_real_roots(p, lo, hi) == 1
        assert isolates(p, lo, hi) is expected
        assert isolates_at(p, lo.numerator, lo.denominator, hi.numerator, hi.denominator) is expected

    @given(st.one_of(integer_polys, repeated_root_polys), st.data())
    def test_certify_box_is_the_sturm_test(self, p, data):
        # with no enclosing interval, the box comes back certified exactly when the Sturm test holds
        ends = st.one_of(finite_endpoints, st.sampled_from(_rational_roots(p) or [F(0)]))
        lo, hi = data.draw(ends), data.draw(ends)
        assume(lo < hi)
        box = certify_box((lo.numerator, lo.denominator), (hi.numerator, hi.denominator), p)
        assert (box is not None) is isolates(p, lo, hi)
        if box is not None:
            assert (box.lo, box.hi, box.poly, box.certified) == (lo, hi, p, True)

    def test_isolates_needs_lo_below_hi(self):
        with pytest.raises(ValueError, match="need lo < hi"):
            isolates(poly(-2, 0, 1), F(2), F(1))

    @given(repeated_root_polys, st.integers(1, 60))
    @example(poly(1, -15, 50), 1)  # boxes 13/80 wide for the width 1/2: already met, no halving
    @example(poly(-1, -1, 1), 3)  # boxes 2 wide for 1/8: the K = 4th halving meets the width exactly
    @example(poly(F(-3, 2), 2, 2), 1)  # boxes 2 wide for 1/2, roots 1/2 and -3/2 at the midpoints of the K = 2nd halving
    def test_bisect_root_gives_the_fraction_bisection(self, p, bits):
        width = F(1, 2**bits)
        for iv in isolate_real_roots(p):
            bisection = RootBisection(iv)
            assert bisection.box == (iv.a, iv.b, iv.m) and bisection.s_lo == iv.poly.sign_at(iv.lo)
            got = bisection.to_width(width.numerator, width.denominator)
            # on an exact hit too: the box is carved around the root as the reference carves it
            assert _value(got) == ref_refine(iv.poly, iv.lo, iv.hi, width)
            assert iv.poly.sign_at(_value(got)[0]) == bisection.s_lo
            assert bisection.interval == IsolatingInterval(*got, iv.poly) and bisection.interval.certified

    @pytest.mark.parametrize("bits", [60, 150, 300])
    def test_bisect_root_gives_the_fraction_bisection_at_depth(self, bits):
        # eliminant-sized quartics, entry boxes over 3 * 7 * 11 * 2^j, widths down to 2^-1100,
        # and the x2 link's quartering, (wn, wd) = (b - a, 4m)
        boxes = _deep_boxes(_big_quartic(random.Random(bits), bits))
        assert len(boxes) >= 4
        for n, iv in enumerate(boxes):
            for e in (1, 7, 60, 300) + ((1100,) if n == 0 else ()):
                _assert_fraction_bisection(iv, _bisected(iv, 1, 2**e), F(1, 2**e))
            for _ in range(3):
                quarter = iv.b - iv.a, 4 * iv.m
                got = _bisected(iv, *quarter)
                _assert_fraction_bisection(iv, got, F(*quarter))
                iv = IsolatingInterval(*got, iv.poly)

    @pytest.mark.parametrize("depth", [50, 173])
    def test_bisect_root_carves_an_exact_hit_at_depth(self, depth):
        # the root a/m + t / (m 2^depth), t odd, is first met as the midpoint of halving ``depth``
        rng = random.Random(depth)
        m = 3 * 7 * 11 * 2**5
        a = rng.randrange(m, 2 * m)
        t = rng.getrandbits(depth) | 1
        num, den = a * 2**depth + t, m * 2**depth  # the root, in the entry box [a/m, (a + 1)/m]
        p = sym(sp(-num, den) * sp(-rng.getrandbits(90) - 2**90, 0, 2**90 + 1) * sp(-(2**200 + 1), 2**199))
        assert p.degree == 4 and isolates_at(p, a, m, a + 1, m) and F(num, den) < 2
        iv = IsolatingInterval(a, a + 1, m, p)
        assert (iv.a, iv.b, iv.m) == (a, a + 1, m)
        for e in (depth + 20, 2 * depth + 20, 1100):  # past depth: the entry width is about 2^-13
            got = _bisected(iv, 1, 2**e)
            _assert_fraction_bisection(iv, got, F(1, 2**e))
            assert F(got[0] + got[1], 2 * got[2]) == F(num, den)  # carved around the root

    @staticmethod
    def _resumed_is_fresh(iv, steps, widths=()):
        """One ``RootBisection`` of ``iv`` taken to each of ``widths``, then halved twice ``steps`` times as the x2 link
        halves it, gives by value the boxes of fresh bisections of the interval before each step. Returns the steps'
        boxes and, per step, the isolation tests (``isolates_at`` calls) of the fresh and of the resumed bisection."""
        resumed, seen, tests = RootBisection(iv), [], []
        calls, sturm = [], polysolve.isolates_at
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polysolve, "isolates_at", lambda *args: calls.append(args) or sturm(*args))
            for wn, wd in widths:
                box = _bisected(iv, wn, wd)
                got = resumed.to_width(wn, wd)
                assert got == resumed.box and _value(got) == _value(box)
                iv = IsolatingInterval(*box, iv.poly)
                assert resumed.interval == iv
            for _ in range(steps):
                quarter = iv.b - iv.a, 4 * iv.m  # the width, and an exact hit's carve width, of the link's step
                before = len(calls)
                box = _bisected(iv, *quarter)
                fresh = len(calls) - before
                got = resumed.halve(2, *quarter)
                assert got == resumed.box and _value(got) == _value(box)
                seen.append(box)
                tests.append((fresh, len(calls) - before - fresh))
                iv = IsolatingInterval(*box, iv.poly)
        return seen, tests

    @given(repeated_root_polys, st.integers(1, 40), st.integers(1, 12))
    @example(poly(F(-3, 2), 2, 2), 1, 3)  # roots 1/2 and -3/2 at the midpoints of the second halving: carves
    def test_resumed_bisection_is_fresh_bisect_root(self, p, bits, steps):
        for iv in isolate_real_roots(p):
            self._resumed_is_fresh(iv, steps, [(1, 2**bits)])

    @pytest.mark.parametrize("bits", [60, 150, 300])
    def test_resumed_bisection_at_depth(self, bits):
        # the kernel tests' eliminant-sized quartics, entry boxes over 3 * 7 * 11 * 2^j, hundreds of halvings
        for iv in _deep_boxes(_big_quartic(random.Random(bits), bits)):
            self._resumed_is_fresh(iv, 150, [(1, 2**7), (1, 2**60)])

    def test_resumed_bisection_carves_an_exact_hit(self):
        # the root a/m + t / (m 2^51), t odd, is the midpoint of halving 51: after the 8 halvings to 2^-20 it is the
        # midpoint of the box of step 21 and is met in step 22, of two halvings each. The carved box is the next entry
        # box, centred on the root, so every later step carves again: a fresh bisection tests the isolation of its
        # carve, and the resumed one, whose entry box a carve already isolated, only its width
        rng = random.Random(51)
        m = 3 * 7 * 11 * 2**5
        a, t = rng.randrange(m, 2 * m), rng.getrandbits(51) | 1
        num, den = a * 2**51 + t, m * 2**51
        p = sym(sp(-num, den) * sp(-rng.getrandbits(90) - 2**90, 0, 2**90 + 1) * sp(-(2**200 + 1), 2**199))
        carves, carve = [], polysolve._carve
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polysolve, "_carve", lambda *args: carves.append(args) or carve(*args))
            boxes, tests = self._resumed_is_fresh(IsolatingInterval(a, a + 1, m, p), 30, [(1, 2**20)])
        assert len(carves) == 2 * 9  # steps 22 to 30, in the fresh calls and in the resumed bisection alike
        assert [F(lo + hi, 2 * k) == F(num, den) for lo, hi, k in boxes] == [False] * 20 + [True] * 10
        assert tests == [(0, 0)] * 21 + [(1, 1)] + [(1, 0)] * 8

    @given(small_roots, st.integers(0, 6), st.integers(1, 40), st.sampled_from([None, 2, 5]))
    def test_bisect_root_stops_at_an_exact_hit(self, root, k, bits, c):
        p = sym(sp(-root, 1) * (sp(1) if c is None else sp(-c, 0, 1)))
        d = F(1, 2**k)
        assume(isolates(p, root - d, root + d))
        iv = IsolatingInterval.of(root - d, root + d, p)
        width = F(1, 2**bits)
        got = _bisected(iv, width.numerator, width.denominator)
        if 2 * d <= width:
            assert got == (iv.a, iv.b, iv.m)
        else:  # the first midpoint is the root: the box is carved around it
            lo, hi = F(got[0], got[2]), F(got[1], got[2])
            assert (lo, hi) == ref_refine(p, iv.lo, iv.hi, width) and lo < root < hi
            assert hi - lo <= width and isolates(p, lo, hi)

    def test_refine_root_builds_no_fractions_in_its_loop(self, fractions_made):
        iv = isolate_real_roots(poly(-2, 0, 1), 1, 2)[0]
        shallow, deep = (fractions_made(lambda: refine_root(iv, w)) for w in (F(1, 10**10), F(1, 10**300)))
        assert deep == shallow == 0  # the returned interval is the box the kernel bisected

    def test_refine_root_makes_no_horner_evaluation_in_its_loop(self, monkeypatch):
        # bisection signs come from the dyadic kernel; a full homogenised Horner is made only by the opening end checks
        calls = []

        def counted(ints, n, d, f=polysolve._horner_sign):
            calls.append(d)
            return f(ints, n, d)

        monkeypatch.setattr(polysolve, "_horner_sign", counted)
        iv = IsolatingInterval.of(F(1), F(2), poly(-2, 0, 1))
        counts = []
        for w in (F(1, 10**10), F(1, 10**300)):
            calls.clear()
            refine_root(iv, w)
            counts.append(len(calls))
        assert counts == [2, 2]

    def test_isolate_builds_no_fractions_in_its_loop(self, fractions_made):
        close = sym(sp(F(-1, 3), 1) * sp(F(-1, 3) - F(1, 10**40), 1) * sp(-5, 1))
        apart = sym(sp(F(-1, 3), 1) * sp(F(-2, 3), 1) * sp(-5, 1))
        counts = []
        for p in (close, apart):
            p._sturm_chain()  # the chain is built once per polynomial, outside the loop
            counts.append(fractions_made(lambda: isolate_real_roots(p)))
        assert counts[0] == counts[1] <= 3  # the Cauchy bound; the returned intervals are boxes

    @pytest.mark.parametrize(
        "iv, message",
        [
            (IsolatingInterval.of(F(1), F(2), poly(-1, 0, 1)), "must not be roots"),
            (IsolatingInterval.of(F(2), F(3), poly(-2, 0, 1)), "must straddle the root"),
        ],
    )
    def test_root_box_checks_the_ends(self, iv, message):
        with pytest.raises(IntegrityError, match=f"^isolating interval endpoints {message}$"):
            RootBisection(iv)
        with pytest.raises(IntegrityError, match=message):
            refine_root(iv, F(1, 10))
