from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
import hashlib
import json
from itertools import combinations, permutations, product
import random
import re
import time
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given
from hypothesis import strategies as st

from trisym import cli, einstein, polysolve, surd
from trisym.cases import make_case
from trisym.checks import grid_count_oracle
from trisym.coeffs import coefficients_for_case
from trisym.einstein import (
    BRANCH_GENERIC,
    BRANCH_PAIR_LINEAR,
    BRANCH_PAIR_SUM,
    BRANCH_STANDARD,
    EinsteinSolution,
    EinsteinSystem,
    RootCoordinate,
    refine_solution,
    ricci_coefficients,
    solve_case,
    solve_einstein,
    verify_solution,
)
from trisym.errors import IntegrityError, NotApplicable, TrisymError
from trisym.polysolve import (
    IsolatingInterval,
    Polynomial,
    certify_box,
    int_mul,
    integer_numerators,
    isolate_real_roots,
    isolates,
    isolates_at,
    refine_root,
    resultant,
    squarefree_part,
)
from trisym.serialize import encode_solution
from trisym.surd import QuadraticSurd, exact_sign, make_quadratic, roots_of_quadratic

from test_intervals import fraction_range
from test_surd import _square_part_only, roots_reference

rational_a = st.fractions(min_value=F(1, 10), max_value=F(9, 20), max_denominator=24)


class TestRicci:
    def test_equal_everything(self):
        a = F(1, 5)
        for t in (F(1), F(3, 7)):
            rs = ricci_coefficients((a, a, a), (t, t, t))
            assert rs == ((1 - a) / (2 * t),) * 3

    def test_known_einstein_metric(self):
        r1, r2, r3 = ricci_coefficients((F(1, 4), F(1, 4), F(1, 6)), (F(5, 3), F(1), F(4, 3)))
        assert r1 == r2 == r3

    def test_standard_metric_not_einstein_for_unequal_a(self):
        r1, r2, r3 = ricci_coefficients((F(1, 4), F(1, 6), F(1, 3)), (F(1), F(1), F(1)))
        assert r1 != r2
        assert (r1, r2, r3) == (F(3, 8), F(5, 12), F(1, 3))

    def test_positivity_required(self):
        with pytest.raises(TrisymError, match="give three positive metric coordinates"):
            ricci_coefficients((F(1, 4),) * 3, (F(1), F(-1), F(1)))

    def test_three_coordinates_required(self):
        with pytest.raises(TrisymError, match="give three positive metric coordinates"):
            ricci_coefficients((F(1, 4),) * 3, (F(1), F(1)))

    @pytest.mark.parametrize("x", [(1, 1, 1), ("1", "1", "1"), (F(1), 1, F(1))])
    def test_int_coordinates_give_fractions(self, x):
        rs = ricci_coefficients((F(1, 4),) * 3, x)
        assert rs == (F(3, 8),) * 3 and all(type(r) is F for r in rs)

    def test_string_coefficients_read_exactly(self):
        assert ricci_coefficients(("1/4", "1/4", "1/6"), (F(5, 3), 1, F(4, 3))) == (F(3, 10),) * 3

    @pytest.mark.parametrize(
        "a,x,message",
        [
            ((F(1, 4),) * 3, (0.5, F(1), F(1)), "metric coordinate 0.5 is a float"),
            ((F(1, 4),) * 3, (F(1), F(1), "one"), "metric coordinate 'one' is not a rational number"),
            ((F(1, 4),) * 2, (F(1),) * 3, "give three coefficients a = (a1, a2, a3); got 2"),
            ((0.25, F(1, 4), F(1, 4)), (F(1),) * 3, "coefficient a = 0.25 is a float"),
            ((F(1, 4), F(1, 4), F(3, 4)), (F(1),) * 3, "coefficient a = 3/4 outside (0, 1/2]"),
        ],
    )
    def test_bad_input_refused_by_name(self, a, x, message):
        with pytest.raises(TrisymError, match="^" + re.escape(message)):
            ricci_coefficients(a, x)


class TestAllEqualBranch:
    def test_generic_value_has_four(self):
        sols = solve_einstein((F(2, 9),) * 3)
        got = {tuple(s.x) for s in sols}
        assert got == {
            (F(1), F(1), F(1)),
            (F(1), F(4, 5), F(4, 5)),
            (F(1), F(5, 4), F(1)),
            (F(1), F(1), F(5, 4)),
        }
        assert sum(1 for s in sols if s.branch == BRANCH_STANDARD) == 1

    @pytest.mark.parametrize("a", [F(1, 4), F(1, 2)])
    def test_special_values_standard_only(self, a):
        sols = solve_einstein((a, a, a))
        assert len(sols) == 1 and sols[0].x == (F(1), F(1), F(1))

    def test_einstein_constant_positive(self):
        for s in solve_einstein((F(1, 6),) * 3):
            assert s.einstein_constant_sign == "positive"


positive_x = st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6)
admissible_a = st.fractions(min_value=F(1, 10**6), max_value=F(1, 2), max_denominator=10**6)
GENERIC_CASES = [("E6-III", {}), ("E7-II", {}), ("A-II", dict(l=3)), ("A-II", dict(l=9))]
EDGE_VALUES = (F(1, 2), F(1, 4), F(1, 1000), F(499, 1000), F(1, 10**6), F(499999, 10**6))
EDGE_TRIPLES = list(combinations(EDGE_VALUES, 3))


class TestPositiveConstant:
    """a_i <= 1/2 makes the Einstein constant of every positive solution positive."""

    @given(st.tuples(positive_x, positive_x, positive_x), st.tuples(admissible_a, admissible_a, admissible_a))
    def test_lemma_at_largest_coordinate(self, x, a):
        # F_i = x_j x_k + a_i (x_i^2 - x_j^2 - x_k^2) >= x_j x_k / 2 when x_i is largest
        i = max(range(3), key=lambda t: x[t])
        j, k = [t for t in range(3) if t != i]
        f_i = x[j] * x[k] + a[i] * (x[i] ** 2 - x[j] ** 2 - x[k] ** 2)
        assert f_i >= x[j] * x[k] / 2 > 0
        assert einstein._ricci(a, x, i) == f_i / (2 * x[0] * x[1] * x[2])

    @pytest.mark.parametrize(
        "a",
        [coefficients_for_case(make_case(label, **params)).a for label, params in GENERIC_CASES] + EDGE_TRIPLES,
    )
    def test_ricci_positive_on_verified_boxes(self, a):
        tol = F(1, 10**20)
        sols = [s for s in solve_einstein(a) if s.branch == BRANCH_GENERIC and not s.is_exact]
        assert sols
        for s in sols:
            assert all(c.interval.lo > 0 for c in s.x[1:])
            s = refine_solution(s, tol)
            assert verify_solution(a, s, tol)
            # r_1 = F_1 / (2 x1 x2 x3), and q F_1 = q x2 x3 + p (x1^2 - x2^2 - x3^2) for a_1 = p / q has
            # integer coefficients; over a box with numerators over one denominator D, q D^2 F_1 is
            # at least the sum taking each monomial at its lower corner when its coefficient
            # is positive and at its upper corner otherwise; so that sum > 0 gives r_1 > 0
            coeffs = einstein._scaled_form(a[0].denominator, (a[0].numerator, 0, 0), 0)
            nums, _ = integer_numerators([s.x[0], s.x[0]] + [e for c in s.x[1:] for e in (c.interval.lo, c.interval.hi)])
            lo, hi = nums[0::2], nums[1::2]
            corner = [lo if c > 0 else hi for c in coeffs]
            assert sum(c * m[u] * m[v] for c, m, (u, v) in zip(coeffs, corner, einstein._MONOMIALS)) > 0


class TestEqualPairBranch:
    def test_sum_branch_rational_roots(self):
        sols = solve_einstein((F(1, 4), F(1, 4), F(1, 6)))
        assert {tuple(s.x) for s in sols} == {
            (F(1), F(3, 5), F(4, 5)),
            (F(1), F(5, 3), F(4, 3)),
        }
        assert {s.branch for s in sols} == {BRANCH_PAIR_SUM}

    def test_surd_roots(self):
        sols = solve_einstein((F(4, 15), F(1, 5), F(1, 5)))
        assert len(sols) == 2
        for s in sols:
            q = s.x[1]
            assert isinstance(q, QuadraticSurd) and q.d == 29
            assert s.x[2] == q
            assert 7 * q * q - 15 * q + 7 == 0
            assert s.branch == BRANCH_PAIR_LINEAR

    def test_sum_branch_surds(self):
        sols = solve_einstein((F(1, 9), F(5, 18), F(5, 18)))
        assert len(sols) == 2
        for s in sols:
            x2, x3 = s.x[1], s.x[2]
            assert x2 + x3 == F(9, 5)
            assert 196 * x2 * x2 - 499 * x2 * x3 + 196 * x3 * x3 == 0

    def test_odd_coefficient_one_half(self):
        # the quadratic on the equal-coordinate branch degenerates to linear
        sols = solve_einstein((F(1, 3), F(1, 3), F(1, 2)))
        linear = [s for s in sols if s.branch == BRANCH_PAIR_LINEAR]
        assert len(linear) == 1
        assert linear[0].x == (F(1), F(1), F(6, 5))

    def test_pair_coefficient_one_half(self):
        # no sum-branch solutions; the linear branch discriminant is negative
        assert solve_einstein((F(1, 2), F(1, 2), F(1, 3))) == []


class TestEqualPairPositivity:
    """The equal-pair lemma (module docstring): every root of both branch quadratics is positive."""

    pair_a = st.one_of(
        st.fractions(min_value=F(1, 10**4), max_value=F(1, 2), max_denominator=10**4),
        st.sampled_from([F(1, 4), F(1, 2), F(1, 10**6), F(499999, 10**6)]),
    )

    @given(pair_a, pair_a)
    @example(F(1, 4), F(1, 2))
    @example(F(1, 2), F(1, 4))
    @example(F(1, 4), F(1, 3))
    @example(F(1, 3), F(1, 2))
    def test_branch_roots_positive(self, a_pair, a_odd):
        assume(a_pair != a_odd)
        with mock.patch.object(surd, "squarefree_decompose", _square_part_only):
            linear = roots_of_quadratic(1 - 2 * a_odd, F(-1), a_pair + a_odd)
            total = []
            if a_pair != HALF:
                lead = (a_pair + a_odd) * (1 - 4 * a_pair * a_pair)
                total = roots_of_quadratic(lead, -(1 - 2 * a_pair + 8 * a_pair * a_pair * (a_pair + a_odd)), lead)
        assert all(exact_sign(r) > 0 for r in linear)
        assert all(exact_sign(q) > 0 and exact_sign(2 * a_pair * (q + 1)) > 0 for q in total)


class TestBadInput:
    """Every entry point reads a through ``exact_rational`` and takes exactly three coefficients."""

    SOL = solve_einstein((F(1, 4), F(1, 8), F(7, 24)))[0]

    ENTRIES = [solve_einstein, EinsteinSystem, lambda a: verify_solution(a, TestBadInput.SOL)]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "a, shown",
        [(("1/3", "x", "1/5"), "'x'"), (("1/3", "1/0", "1/5"), "'1/0'"), ((F(1, 3), None, F(1, 5)), "None")],
    )
    def test_non_rational_coefficient(self, entry, a, shown):
        with pytest.raises(TrisymError, match=f"^coefficient a = {re.escape(shown)} is not a rational number"):
            entry(a)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("a", [(F(1, 3), F(1, 4)), (F(1, 3), F(1, 4), F(1, 5), F(1, 7)), ()])
    def test_three_coefficients(self, entry, a):
        with pytest.raises(TrisymError, match=f"^give three coefficients a = \\(a1, a2, a3\\); got {len(a)}$"):
            entry(a)

    def test_float_refused_where_the_solution_system_is_reused(self):
        # the floats equal SOL's own triple by value, so a reuse test by == alone would let them through
        assert (0.25, 0.125, F(7, 24)) == (F(1, 4), F(1, 8), F(7, 24))
        with pytest.raises(TrisymError, match="coefficient a = 0.25 is a float"):
            verify_solution((0.25, 0.125, F(7, 24)), TestBadInput.SOL)

    @pytest.mark.parametrize("width", ["x", "1/0", None])
    def test_non_rational_width(self, width):
        with pytest.raises(TrisymError, match=f"^width {re.escape(repr(width))} is not a rational number"):
            refine_solution(self.SOL, width)


class TestGenericBranch:
    def test_float_a_refused(self):
        # a float stands for a binary fraction, not the decimal it shows
        with pytest.raises(TrisymError, match="coefficient a = 0.25 is a float"):
            EinsteinSystem((0.25, F(1, 8), F(7, 24)))

    def test_counts(self):
        assert len(solve_einstein((F(5, 18), F(2, 9), F(1, 6)))) == 2
        assert len(solve_einstein((F(1, 4), F(1, 8), F(7, 24)))) == 2

    def test_decimals(self):
        sols = solve_einstein((F(5, 18), F(2, 9), F(1, 6)))
        refined = sorted(
            (refine_solution(s, F(1, 10**8)).approx() for s in sols), key=lambda t: t[1]
        )
        assert abs(refined[0][1] - F("0.6139")) < F(5, 10**4)
        assert abs(refined[0][2] - F("0.7302")) < F(5, 10**4)
        assert abs(refined[1][1] - F("1.7489")) < F(5, 10**4)
        assert abs(refined[1][2] - F("1.5535")) < F(5, 10**4)

    def test_interval_coordinates_positive(self):
        for s in solve_einstein((F(1, 4), F(1, 8), F(7, 24))):
            for c in s.x[1:]:
                assert isinstance(c, RootCoordinate)
                assert c.interval.lo > 0

    def test_refinement_monotone(self):
        s = solve_einstein((F(1, 4), F(1, 8), F(7, 24)))[0]
        r = refine_solution(s, F(1, 10**10))
        for old, new in zip(s.x[1:], r.x[1:]):
            assert old.interval.lo <= new.interval.lo < new.interval.hi <= old.interval.hi
            assert new.interval.width <= F(1, 10**10)

    @pytest.mark.parametrize("width", [0, F(-1, 10**10)])
    @pytest.mark.parametrize("a", [(F(1, 4), F(1, 4), F(1, 6)), (F(1, 4), F(1, 8), F(7, 24))])  # exact, interval
    def test_refine_width_must_be_positive(self, a, width):
        for s in solve_einstein(a):
            with pytest.raises(TrisymError, match="must be positive"):
                refine_solution(s, width)

    @pytest.mark.parametrize("a", [(F(1, 4), F(1, 4), F(1, 6)), (F(1, 4), F(1, 8), F(7, 24))])  # exact, interval
    def test_refine_width_float_rejected(self, a):
        for s in solve_einstein(a):
            with pytest.raises(TrisymError, match="width 1e-10 is a float"):
                refine_solution(s, 1e-10)
            assert refine_solution(s, "1/10000000000").x == refine_solution(s, F(1, 10**10)).x

    def test_eliminants_are_squarefree_quartics(self):
        e = EinsteinSystem((F(5, 18), F(2, 9), F(1, 6)))  # E7-II
        for elim in (e.x3, e.x2):
            assert elim.degree == 4 and elim[4] == 1
            assert squarefree_part(elim) == elim
        den = e.pivot[1]
        assert len(den) == 2 and den[1] != 0  # den is linear

    def test_eliminants_match_sympy_resultants(self):
        # an independent exact oracle: the monic square-free part of sympy's
        # resultant of F1 - F3 and F2 - F3 (x1 = 1) in x2, and in x3
        x2, x3 = sympy.symbols("x2 x3")

        def oracle(a, eliminate, keep):
            a1, a2, a3 = (sympy.Rational(v.numerator, v.denominator) for v in a)
            f1 = x2 * x3 + a1 * (1 - x2**2 - x3**2)
            f2 = x3 + a2 * (x2**2 - 1 - x3**2)
            f3 = x2 + a3 * (x3**2 - 1 - x2**2)
            res = sympy.Poly(sympy.resultant(f1 - f3, f2 - f3, eliminate), keep, domain=sympy.QQ)
            coeffs = res.sqf_part().monic().all_coeffs()
            return Polynomial(F(int(c.p), int(c.q)) for c in reversed(coeffs))

        rng = random.Random(4)
        edges = (F(1, 2), F(1, 10**6), F(499999, 10**6))
        triples = list(permutations(edges))
        while len(triples) < 46:
            q = rng.randint(10, 10 ** rng.randint(1, 6))
            t = [F(rng.randint(1, q // 2), q) for _ in range(3)]
            if len(triples) < 18:
                t[rng.randrange(3)] = rng.choice(edges)
            if len(set(t)) == 3:
                triples.append(tuple(t))
        triples += [t for r in (F(1, 3), F(7, 1000)) for t in permutations((F(1, 2), F(1, 10**6), r))]
        triples.append((F(1, 5), F(1, 6), F(2, 15)))  # a1 + a2 + a3 = 1/2: the x3 eliminant vanishes at the pivot point
        for a in triples:
            e = EinsteinSystem(a)
            assert e.x3 == oracle(a, x2, x3), a
            assert e.x2 == oracle(a, x3, x2), a

    def test_eliminants_are_the_resultant_of_their_forms(self):
        # the substitution den^2 A + den num B + c num^2 against the general routine on the same integer forms
        rng = random.Random(31)
        edges = (F(1, 2), F(1, 4), F(1, 10**6), F(499999, 10**6))
        triples = set()
        while len(triples) < 200:
            q = rng.randint(10, 10 ** rng.randint(1, 6))
            t = [F(rng.randint(1, q // 2), q) for _ in range(3)]
            if rng.random() < 0.3:
                t[rng.randrange(3)] = rng.choice(edges)
            if len(set(t)) == 3:
                triples.add(tuple(t))
        for a in sorted(triples):
            e = EinsteinSystem(a)
            for rows, got in ((e.rows, e.x3), (EinsteinSystem((a[0], a[2], a[1])).rows, e.x2)):
                num, den = einstein._pivot(rows)
                A, B, c = einstein._forms(rows)[1]
                forms = (Polynomial(A), Polynomial(B), Polynomial((c,)))
                assert got == squarefree_part(resultant(forms, Polynomial(num), Polynomial(den))), a

    def test_counts_match_sympy_resultant(self):
        # the x2 lemma: every positive root x3 of the resultant in x2 of
        # F1 - F3 and F2 - F3 (x1 = 1) is one positive solution, except
        # x3 = 1 when a2 = 1/2, the point (1, 0, 1), and except the pivot
        # point xi = (a1 + a2)/(a2 + a3), where the solutions are the common
        # positive roots x2 of F1 - F3 and F2 - F3; sympy is the exact oracle
        x2, x3 = sympy.symbols("x2 x3")
        rng = random.Random(12)

        def rand():
            q = rng.randint(10, 10 ** rng.randint(1, 6))
            return F(rng.randint(1, q // 2), q)

        triples = []
        for edge in (F(1, 2), F(1, 10**6), F(499999, 10**6)):
            for pos in range(3):
                for _ in range(3):
                    t = [rand(), rand(), rand()]
                    t[pos] = edge
                    triples.append(tuple(t))
        triples += [(rand(), F(1, 2), rand()) for _ in range(20)]
        while len(triples) < 100:  # a1 + a2 + a3 = 1/2 over one even q: when distinct, the pivot point is a root
            q = 2 * rng.randint(5, 10 ** rng.randint(1, 6) // 2)
            n1 = rng.randint(1, q // 2 - 2)
            n2 = rng.randint(1, q // 2 - 1 - n1)
            triples.append((F(n1, q), F(n2, q), F(q // 2 - n1 - n2, q)))
        checked = {True: 0, False: 0}  # by a2 == 1/2
        locus = 0
        for a in triples:
            if len(set(a)) < 3:
                continue
            a1, a2, a3 = (sympy.Rational(v.numerator, v.denominator) for v in a)
            f1 = x2 * x3 + a1 * (1 - x2**2 - x3**2)
            f2 = x3 + a2 * (x2**2 - 1 - x3**2)
            f3 = x2 + a3 * (x3**2 - 1 - x2**2)
            res = sympy.Poly(sympy.resultant(f1 - f3, f2 - f3, x2), x3, domain=sympy.QQ).sqf_part()
            xi = (a1 + a2) / (a2 + a3)
            positive = sum(1 for r in res.real_roots() if r > 0 and r != xi)
            if res.eval(xi) == 0:
                common = sympy.Poly(sympy.gcd((f1 - f3).subs(x3, xi), (f2 - f3).subs(x3, xi)), x2, domain=sympy.QQ)
                positive += sum(1 for r in common.sqf_part().real_roots() if r > 0)
                locus += 1
            half = a[1] == F(1, 2)
            assert len(solve_einstein(a)) == positive - half, a
            checked[half] += 1
        assert checked[True] >= 20 and checked[False] >= 20 and locus >= 20

    def test_a_validation(self):
        with pytest.raises(TrisymError):
            solve_einstein((F(0), F(1, 4), F(1, 3)))
        with pytest.raises(TrisymError):
            solve_einstein((F(3, 4), F(1, 4), F(1, 3)))

    def test_float_coefficient_rejected(self):
        # 0.3 is the binary fraction 5404319552844595/18014398509481984, not 3/10
        with pytest.raises(TrisymError, match="a = 0.3 is a float"):
            solve_einstein((F(1, 4), 0.3, F(1, 5)))
        with pytest.raises(TrisymError, match="a = 0.25 is a float"):
            solve_einstein((0.25, 0.3, 0.2))

    def test_exact_inputs_accepted(self):
        expected = [s.approx(20) for s in solve_einstein((F(1, 4), F(3, 10), F(1, 5)))]
        assert [s.approx(20) for s in solve_einstein(("1/4", "3/10", "1/5"))] == expected
        with pytest.raises(TrisymError, match="outside"):  # an int is exact, only out of range
            solve_einstein((1, F(1, 4), F(1, 5)))


class TestSolveCase:
    def test_a_ii_k2(self):
        assert len(solve_case(make_case("A-II", l=3)).solutions) == 2

    def test_e7_iii(self):
        result = solve_case(make_case("E7-III"))
        assert len(result.solutions) == 4
        a = F(5, 18)
        assert {tuple(s.x) for s in result.solutions} == {
            (F(1), F(1), F(1)),
            (F(1), F(5, 4), F(5, 4)),
            (F(1), F(4, 5), F(1)),
            (F(1), F(1), F(4, 5)),
        }

    def test_e8_ii_patterns(self):
        result = solve_case(make_case("E8-II"))
        assert {tuple(s.x) for s in result.solutions} == {
            (F(1), F(1), F(1)),
            (F(1), F(8, 7), F(8, 7)),
            (F(1), F(7, 8), F(1)),
            (F(1), F(1), F(7, 8)),
        }

    def test_flagged_cases_not_applicable(self):
        with pytest.raises(NotApplicable):
            solve_case(make_case("D-IV", l=5))
        with pytest.raises(NotApplicable):
            solve_case(make_case("B-II", l=3, i=3))

    def test_group_case_single_round_metric(self):
        result = solve_case(make_case("A-I"))
        assert len(result.solutions) == 1
        assert result.solutions[0].x == (F(1), F(1), F(1))


class TestVerify:
    def test_exact_true(self):
        sols = solve_einstein((F(2, 9),) * 3)
        target = [s for s in sols if s.x == (F(1), F(4, 5), F(4, 5))][0]
        assert verify_solution((F(2, 9),) * 3, target)

    def test_perturbed_false(self):
        bad = EinsteinSolution(
            x=(F(1), F(4, 5) + F(1, 100), F(4, 5)),
            branch=BRANCH_PAIR_LINEAR,
        )
        assert not verify_solution((F(2, 9),) * 3, bad)

    def test_interval_solutions_verify(self):
        a = (F(1, 4), F(1, 8), F(7, 24))
        for s in solve_einstein(a):
            assert verify_solution(a, s, F(1, 10**8))

    def test_interval_perturbed_false(self):
        # the solutions of a nearby triple leave a residual near 10^-12, far above tol
        a = (F(1, 4), F(1, 8), F(7, 24))
        perturbed = (a[0], a[1], a[2] + F(1, 10**12))
        for s in solve_einstein(a):
            assert verify_solution(perturbed, s, F(1, 10**20)) is False
            for tol in (F(1, 10**50), F(1, 10**300)):
                assert verify_solution(perturbed, refine_solution(s, tol), tol) is False

    def test_surd_perturbed_false(self):
        # exact coordinates are checked by identity, so any perturbation is caught
        a = (F(4, 15), F(1, 5), F(1, 5))
        perturbed = (a[0] + F(1, 10**12), a[1], a[2])
        sols = solve_einstein(a)
        assert len(sols) == 2 and all(isinstance(s.x[1], QuadraticSurd) for s in sols)
        for s in sols:
            assert verify_solution(a, s) is True
            assert verify_solution(perturbed, s) is False

    def test_tolerance_far_below_the_solve_width(self):
        a = (F(1, 4), F(1, 3), F(1, 5))
        for s in solve_einstein(a):
            assert verify_solution(a, s, F(1, 10**300)) is True

    @pytest.mark.parametrize("tol", [0, F(-1, 10**20)])
    def test_tolerance_must_be_positive(self, tol):
        a = (F(1, 4), F(1, 3), F(1, 5))
        with pytest.raises(TrisymError, match="must be positive"):
            verify_solution(a, solve_einstein(a)[0], tol)

    def test_float_tolerance_rejected(self):
        a = (F(1, 4), F(1, 3), F(1, 5))
        with pytest.raises(TrisymError, match="tolerance 1e-20 is a float"):
            verify_solution(a, solve_einstein(a)[0], 1e-20)
        assert verify_solution(a, solve_einstein(a)[0], "1/100000000000000000000") is True

    def test_every_solution_verifies_tightly(self):
        for label in ("E6-II", "E7-II", "E8-I", "F4-II", "E7-I"):
            result = solve_case(make_case(label))
            for s in result.solutions:
                assert verify_solution(result.a, s, F(1, 10**20))


class TestTighteningPin:
    """The refine-and-verify path of the ``sweep-generic`` benchmark keeps its values.

    ``SOLVE_PINS`` reach ``_tighten`` only at the CLI's one width; this digest
    of (x, residual_bound, verify_solution) after ``refine_solution`` to
    10^-10, 10^-50 and 10^-300 on the 20 edge triples was recorded with the
    ``Fraction`` interval back-substitution.
    """

    DIGEST = "37f0c5d6140a92eddc4a1e0f4c25d893fbd80e8b92dbd220945b09bf214630e4"

    def test_edge_triples_refine_and_verify_unchanged(self):
        record = []
        for a in EDGE_TRIPLES:
            for s in solve_einstein(a):
                for d in (10, 50, 300):
                    tol = F(1, 10**d)
                    r = refine_solution(s, tol)
                    x = [(c.interval.lo, c.interval.hi) if isinstance(c, RootCoordinate) else str(c) for c in r.x]
                    record.append((x, r.residual_bound, verify_solution(a, r, tol)))
        assert len(record) == 102
        assert hashlib.sha256(repr(record).encode()).hexdigest() == self.DIGEST


class TestResidualBound:
    """``residual_bound`` is derived on first read, from the solution's own coordinates."""

    A = (F(1, 4), F(1, 8), F(7, 24))

    @pytest.fixture
    def enclosures(self, monkeypatch):
        calls = []
        enclose = einstein._residual_enclosure

        def counted(*args):
            calls.append(args)
            return enclose(*args)

        monkeypatch.setattr(einstein, "_residual_enclosure", counted)
        return calls

    def test_derived_once_on_read(self, enclosures):
        sols = [refine_solution(s, F(1, 10**30)) for s in solve_einstein(self.A)]
        assert len(sols) == 2 and enclosures == []
        bounds = [s.residual_bound for s in sols]
        assert len(enclosures) == 2
        assert [s.residual_bound for s in sols] == bounds and len(enclosures) == 2

    def test_bound_of_the_new_coordinates(self):
        for s in solve_einstein(self.A):
            x = refine_solution(s, F(1, 10**30)).x
            moved = replace(s, x=x)
            r = ricci_coefficients(self.A, moved.approx())
            assert moved.residual_bound == max(abs(r[i] - r[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
            assert moved.residual_bound < s.residual_bound


class TestHandBuiltInterval:
    """An interval solution built by hand has no system to bound or tighten it with."""

    A = (F(1, 4), F(1, 8), F(7, 24))

    @pytest.mark.parametrize(
        "use",
        [
            lambda s: s.residual_bound,
            lambda s: refine_solution(s, F(1, 10**30)),
            lambda s: verify_solution(TestHandBuiltInterval.A, s),
        ],
        ids=["residual_bound", "refine_solution", "verify_solution"],
    )
    def test_refused_by_name(self, use):
        for s in solve_einstein(self.A):
            with pytest.raises(IntegrityError, match="^interval solution without refinement data$"):
                use(EinsteinSolution(x=s.x, branch=BRANCH_GENERIC))


class TestVerifyRounds:
    """Each tightening is sized from the residual enclosure, so one is enough."""

    @pytest.fixture
    def tightenings(self, monkeypatch):
        calls = []
        tighten = einstein._tighten

        def counted(*args):
            calls.append(args)
            return tighten(*args)

        monkeypatch.setattr(einstein, "_tighten", counted)
        return calls

    @pytest.mark.parametrize("label", ["E6-III", "E7-II"])
    def test_one_round_at_cli_defaults(self, label, tightenings):
        result = solve_case(make_case(label))
        sols = [s for s in result.solutions if not s.is_exact]
        assert len(sols) == 2
        for s in sols:
            tightenings.clear()
            assert verify_solution(result.a, s, F(1, 10**20))
            assert len(tightenings) == 1

    @pytest.mark.parametrize(
        "label, params",
        [
            ("A-III", dict(l=12, i=1, j=3)),
            ("B-I", dict(l=12, i=3, j=2)),
            ("C-I", dict(l=12, i=1, j=3)),
            ("D-II", dict(l=12, i=2)),
        ],
    )
    def test_rounds_build_no_fractions(self, label, params, tightenings, fractions_made):
        # refined to 10^-13, as `solve` refines, a rank-12 interval solution takes one round at the default tol
        # 10^-20: the widest width, the enclosure bound and the step are integer pairs, so no Fraction is built
        result = solve_case(make_case(label, **params))
        sols = [refine_solution(s, F(1, 10**13)) for s in result.solutions if not s.is_exact]
        assert len(sols) >= 2
        for s in sols:
            tightenings.clear()
            assert fractions_made(lambda: verify_solution(result.a, s)) == 0
            assert len(tightenings) == 1

    @pytest.mark.parametrize(
        "a",
        [
            (F(1, 4), F(1, 3), F(1, 5)),
            (F(1, 4), F(1, 8), F(7, 24)),
            (F(1, 1000), F(499, 1000), F(1, 4)),
            (F(1, 2), F(1, 10**6), F(499999, 10**6)),
        ],
    )
    @pytest.mark.parametrize("digits", [10, 50, 300])
    def test_at_most_one_round_after_refinement(self, a, digits, tightenings):
        tol = F(1, 10**digits)
        for s in solve_einstein(a):
            s = refine_solution(s, tol)
            tightenings.clear()
            assert verify_solution(a, s, tol)
            assert len(tightenings) <= 1


kernel_a = st.one_of(admissible_a, st.sampled_from(EDGE_VALUES))
unit_fraction = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


@st.composite
def positive_boxes(draw):
    """(lo, hi) around a point of [10^-3, 10^3], 10^-1 to 10^-300 wide, over a power of 2 or of 10^30 + 7."""
    center = draw(st.fractions(min_value=F(1, 1000), max_value=1000, max_denominator=10**6))
    digits = draw(st.integers(1, 300))
    base = draw(st.sampled_from([2, 10**30 + 7]))
    den = base
    while den < 10 ** (digits + 2):
        den *= base
    lo = F(center.numerator * den // center.denominator, den)
    return lo, lo + F(den // 10**digits, den)


def ricci_differences(a, x):
    r = [einstein._ricci(a, x, i) for i in range(3)]
    return [r[i] - r[j] for i, j in ((0, 1), (0, 2), (1, 2))]


def as_boxes(ends):
    """Rational (lo, hi) ends as the integer boxes (A, B, D) that ``_residual_enclosure`` reads."""
    return [(*nums, d) for nums, d in map(integer_numerators, ends)]


class TestResidualKernel:
    """The integer enclosure of every r_i - r_j holds the exact differences over its box."""

    @given(
        st.tuples(kernel_a, kernel_a, kernel_a),
        st.tuples(st.one_of(st.just((F(1), F(1))), positive_boxes()), positive_boxes(), positive_boxes()),
        st.lists(st.tuples(unit_fraction, unit_fraction, unit_fraction), min_size=1, max_size=3),
    )
    def test_bound_holds_over_the_box(self, a, ends, interior):
        excludes_zero, n, d = einstein._residual_enclosure(EinsteinSystem(a), as_boxes(ends))
        points = list(product(*ends))
        points += [tuple(lo + t * (hi - lo) for (lo, hi), t in zip(ends, ts)) for ts in [(F(1, 2),) * 3, *interior]]
        diffs = [ricci_differences(a, x) for x in points]
        assert max(abs(v) for row in diffs for v in row) <= F(n, d)
        if excludes_zero:  # then some difference keeps one strict sign on the box
            assert any(all(row[p] > 0 for row in diffs) or all(row[p] < 0 for row in diffs) for p in range(3))

    @given(st.tuples(kernel_a, kernel_a, kernel_a), st.tuples(positive_x, positive_x, positive_x))
    def test_point_box_is_exact(self, a, x):
        _, n, d = einstein._residual_enclosure(EinsteinSystem(a), as_boxes((v, v) for v in x))
        assert F(n, d) == max(abs(v) for v in ricci_differences(a, x))


def field_reference(a, x) -> bool:
    """r1 = r2 = r3 by ``_ricci`` in ``QuadraticSurd`` arithmetic: the field definition."""
    r1, r2, r3 = (einstein._ricci(a, x, i) for i in range(3))
    return r1 == r2 == r3


HALF = F(1, 2)
exact_a = st.one_of(
    st.fractions(min_value=F(1, 10**4), max_value=F(1, 2), max_denominator=10**4),
    st.sampled_from([F(1, 2), F(1, 4), F(1, 10**6), F(499999, 10**6)]),
)


@st.composite
def exact_triples(draw):
    """An all-equal or equal-pair triple (a_odd = 1/2 often), or a distinct triple summing to 1/2.

    Every solution of the first two kinds is exact; the third kind has exact
    solutions at the pivot point of the generic branch.
    """
    kind = draw(st.sampled_from(["equal", "pair", "pivot"]))
    if kind == "equal":
        return (draw(exact_a),) * 3
    if kind == "pair":
        pair, odd = draw(exact_a), draw(st.one_of(exact_a, st.just(HALF)))
        assume(pair != odd)
        k = draw(st.integers(0, 2))
        return tuple(odd if t == k else pair for t in range(3))
    a1, a2 = draw(exact_a), draw(exact_a)
    a3 = HALF - a1 - a2
    assume(a3 > 0 and len({a1, a2, a3}) == 3)
    return (a1, a2, a3)


def exact_solutions(a):
    """The exact solutions of ``a``, over unreduced radicands.

    Trial division hangs on the radicands of some equal-pair triples with
    denominators near 10^4; ``QuadraticSurd`` needs only a radicand that is
    not a perfect square, and neither check below needs more.
    """
    with mock.patch.object(surd, "squarefree_decompose", _square_part_only):
        return [s.x for s in solve_einstein(a) if s.is_exact]


def solves_exactly(a, x):
    return einstein._solves_exactly(einstein._difference_rows(a)[2], x)


class TestExactCheck:
    """The integer kernel ``_solves_exactly`` against F1 = F2 = F3 in field arithmetic."""

    @given(exact_triples())
    def test_every_exact_solution_passes(self, a):
        sols = exact_solutions(a)
        assume(sols)
        for x in sols:
            assert solves_exactly(a, x) is True
            assert field_reference(a, x)

    @given(exact_triples(), st.data())
    def test_perturbed_coordinate_fails(self, a, data):
        sols = exact_solutions(a)
        assume(sols)
        x = data.draw(st.sampled_from(sols))
        u, part, k = data.draw(st.integers(0, 2)), data.draw(st.sampled_from("pq")), data.draw(st.integers(1, 60))
        d = next((c.d for c in x if isinstance(c, QuadraticSurd)), 2)
        p, q = (x[u].p, x[u].q) if isinstance(x[u], QuadraticSurd) else (x[u], F(0))
        delta = F(1, 10**k)
        y = list(x)
        p, q = (p + delta, q) if part == "p" else (p, q + delta)
        y[u] = QuadraticSurd(p, q, d) if q else p
        # another solution can differ from x in one coordinate by delta: (1, 1, 1) and
        # (1, 11/10, 1) for a = 5/21, so compare with all of them after normalizing
        assume(all(y[1] / y[0] != z[1] or y[2] / y[0] != z[2] for z in sols))
        assert solves_exactly(a, tuple(y)) is False
        assert field_reference(a, tuple(y)) is False

    @given(exact_triples().filter(lambda a: len(set(a)) < 3), st.data())
    def test_perturbed_odd_coefficient_fails(self, a, data):
        k = EinsteinSystem(a).odd
        k = data.draw(st.integers(0, 2)) if k < 0 else k
        perturbed = tuple(v - F(1, 10**12) if t == k else v for t, v in enumerate(a))
        for x in exact_solutions(a):
            assert solves_exactly(perturbed, x) is False
            assert field_reference(perturbed, x) is False

    @given(exact_a.filter(lambda v: v not in (F(1, 4), HALF)), st.data())
    def test_rational_part_alone_does_not_certify(self, a, data):
        # u + v sqrt 2 for two rational solutions u, v of (a, a, a): the rational part
        # G(u) + 2 G(v) of each cleared difference G vanishes, the sqrt 2 part does not
        u, v = data.draw(st.permutations(exact_solutions((a,) * 3)))[:2]
        x = tuple(make_quadratic(s, t, 2) for s, t in zip(u, v))
        assert solves_exactly((a,) * 3, x) is False
        assert field_reference((a,) * 3, x) is False

    def test_no_field_arithmetic(self, monkeypatch):
        cases = [(a, solve_einstein(a)) for a in [(F(4, 15), F(1, 5), F(1, 5)), (F(2, 9),) * 3, (F(1, 4), F(1, 4), F(1, 6))]]
        assert [len(sols) for _, sols in cases] == [2, 4, 2]
        assert all(s.is_exact for _, sols in cases for s in sols)

        def refuse(*args):
            raise AssertionError("field arithmetic on the exact certification path")

        for cls, names in (
            (QuadraticSurd, ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__truediv__", "norm")),
            (F, ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__truediv__", "__rtruediv__")),
        ):
            for name in names:
                monkeypatch.setattr(cls, name, refuse)
        for a, sols in cases:
            for s in sols:
                assert solves_exactly(a, s.x) is True
                assert verify_solution(a, s) is True

    @pytest.mark.parametrize(
        "x, message",
        [
            (
                (F(1), make_quadratic(F(1), F(1), 2), make_quadratic(F(1), F(1), 3)),
                "exact coordinates over two radicands, 2 and 3",
            ),
            ((F(1), F(-1), F(1)), "metric coordinates must be positive"),
            ((F(1), 0.5, F(1)), "metric coordinate 0.5 is a float"),
            ((F(1), make_quadratic(F(1), F(-1), 2), F(1)), "metric coordinates must be positive"),
            # edits of the coordinates of an interval solution of a generic triple
            pytest.param(lambda x: (1.0, *x[1:]), "metric coordinate 1.0 is a float", id="interval-x1-float"),
            pytest.param(lambda x: (F(0), *x[1:]), "metric coordinates must be positive", id="interval-x1-zero"),
            pytest.param(
                lambda x: (1 + make_quadratic(F(0), F(1, 10), 2), *x[1:]),
                "rational x1 and interval x2 and x3; got QuadraticSurd, RootCoordinate, RootCoordinate",
                id="interval-x1-surd",
            ),
            pytest.param(
                lambda x: (x[0], F(1), x[2]),
                "rational x1 and interval x2 and x3; got Fraction, Fraction, RootCoordinate",
                id="interval-x2-rational",
            ),
            pytest.param(
                lambda x: (*x[:2], RootCoordinate(replace(x[2].interval, a=0))),
                "metric coordinates must be positive",
                id="interval-x3-box-from-zero",
            ),
        ],
    )
    def test_hand_built_solution_errors(self, x, message):
        if callable(x):
            a = (F(1, 4), F(1, 8), F(7, 24))
            sol = solve_einstein(a)[0]
            sol = replace(sol, x=x(sol.x))
        else:
            a, sol = (F(1, 3), F(1, 3), F(1, 5)), EinsteinSolution(x=x, branch=BRANCH_PAIR_LINEAR)
        with pytest.raises(TrisymError, match=message):
            verify_solution(a, sol)
        if callable(x):  # refine_solution refuses the same interval solutions, by the same message
            with pytest.raises(TrisymError, match=message):
                refine_solution(sol, F(1, 10**10))


# the small band of the sweep-pair benchmark: p/q in (0, 1/2] for q in 8..10
SMALL_BAND = sorted({F(p, q) for q in range(8, 11) for p in range(1, q // 2 + 1)})


def exact_branch_reference(a) -> list[EinsteinSolution]:
    """The all-equal or equal-pair solutions of ``a`` as built in ``QuadraticSurd`` field
    arithmetic before the integer branches: roots by ``roots_reference``, x1 = 1 by division."""
    system = EinsteinSystem(a)

    def solution(triple, branch):
        t0 = triple[0]
        return EinsteinSolution(x=(F(1), triple[1] / t0, triple[2] / t0), branch=branch, system=system)

    if len(set(system.a)) == 1:
        a = system.a[0]
        out = [solution([F(1)] * 3, BRANCH_STANDARD)]
        if a in (F(1, 4), HALF):
            return out
        big, small = 1 - 2 * a, 2 * a
        return out + [solution(pat, BRANCH_PAIR_LINEAR) for pat in ([big, small, small], [small, big, small], [small, small, big])]
    k = system.odd
    i, j = [t for t in range(3) if t != k]
    a_pair, a_odd = system.a[i], system.a[k]
    out = []
    for r in roots_reference(1 - 2 * a_odd, F(-1), a_pair + a_odd):
        triple = [F(0)] * 3
        triple[i] = triple[j] = r
        triple[k] = F(1)
        out.append(solution(triple, BRANCH_PAIR_LINEAR))
    if a_pair != HALF:
        lead = (a_pair + a_odd) * (1 - 4 * a_pair * a_pair)
        for q in roots_reference(lead, -(1 - 2 * a_pair + 8 * a_pair * a_pair * (a_pair + a_odd)), lead):
            triple = [F(0)] * 3
            triple[i], triple[j], triple[k] = q, F(1), 2 * a_pair * (q + 1)
            out.append(solution(triple, BRANCH_PAIR_SUM))
    return [s for n, s in enumerate(out) if all(s.x != t.x for t in out[:n])]


def encoded(sols) -> list[str]:
    return [json.dumps(encode_solution(s), sort_keys=True) for s in sols]


def reference_order(sol):
    """The solver's output order: by branch, then by x2 and x3 at 40 digits (``QuadraticSurd.approx(40)``,
    the midpoint of an interval, a rational as it is)."""
    order = (BRANCH_STANDARD, BRANCH_PAIR_LINEAR, BRANCH_PAIR_SUM, BRANCH_GENERIC)
    approx = [
        c.interval.midpoint if isinstance(c, RootCoordinate) else c.approx(40) if isinstance(c, QuadraticSurd) else c
        for c in sol.x[1:]
    ]
    return (order.index(sol.branch), *approx)


def recorded_radicands(solve, triples) -> list[list[int]]:
    """The arguments ``solve`` hands ``surd.squarefree_decompose``, per triple, answered by ``_square_part_only``."""
    calls = []
    with mock.patch.object(surd, "squarefree_decompose", lambda n: calls[-1].append(n) or _square_part_only(n)):
        for a in triples:
            calls.append([])
            solve(a)
    return calls


def small_band_triples():
    """Every small-band pair with the odd coefficient at each position, and every all-equal triple."""
    pairs = [(p, o) for p in SMALL_BAND for o in SMALL_BAND if p != o]
    return [tuple(o if t == k else p for t in range(3)) for p, o in pairs for k in range(3)] + [(v,) * 3 for v in SMALL_BAND]


def adversarial_triples(seed: int, n: int):
    """``n`` equal-pair triples with denominators log-uniform in 10^4..10^6, the odd one at a random position."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        pair, odd = (F(rng.randint(1, q // 2), q) for q in (int(10 ** rng.uniform(4, 6)) for _ in range(2)))
        if pair != odd:
            k = rng.randrange(3)
            out.append(tuple(odd if t == k else pair for t in range(3)))
    return out


class TestIntegerExactBranches:
    """The all-equal and equal-pair branches, built in integers, against ``exact_branch_reference``."""

    def assert_same(self, a):
        system = EinsteinSystem(a)
        branch = einstein._solutions_all_equal if len(set(system.a)) == 1 else einstein._solutions_equal_pair
        keyed, expected = branch(system), exact_branch_reference(a)
        got = [s for _, s in keyed]
        assert [(s.x, s.branch) for s in got] == [(s.x, s.branch) for s in expected]
        assert encoded(got) == encoded(expected)
        # the integer sort keys are the rationals approx(40) gives for x2 and x3
        assert [tuple(F(n, d) for n, d in approx) for approx, _ in keyed] == [s.approx(40)[1:] for s in expected]
        assert encoded(solve_einstein(a)) == encoded(sorted(expected, key=reference_order))

    def test_small_band(self):
        for a in small_band_triples():
            self.assert_same(a)

    @pytest.mark.parametrize("k", range(3))
    def test_first_of_equal_metrics_is_kept(self, k):
        # a_pair + a_odd = (1 - 2 a_pair) / (2 (1 - 8 a_pair^2)) puts the sum branch's double root q = 1
        # on the linear metric x_k = 4 a_pair x_i; the linear label is kept
        a = tuple(F(41, 170) if t == k else F(1, 5) for t in range(3))
        self.assert_same(a)
        system = EinsteinSystem(a)
        assert [s.branch for _, s in einstein._solutions_equal_pair(system)] == [BRANCH_PAIR_LINEAR] * 2

    @given(TestEqualPairPositivity.pair_a, st.one_of(TestEqualPairPositivity.pair_a, st.just(HALF)), st.integers(0, 2))
    @example(F(87400, 470533), F(4567, 18408), 2)
    # denominators near 10^12: 40-digit keys of metrics within 0.03 of each other, and of a_odd = 1/2
    @example(F(87400 * 10**6 + 1, 470533 * 10**6), F(4567 * 10**8 + 3, 18408 * 10**8), 0)
    @example(F(123456789011, 999999999989), F(271828182845, 1000000000039), 1)
    @example(F(314159265358, 999999999937), HALF, 2)
    def test_large_denominators(self, a_pair, a_odd, k):
        with mock.patch.object(surd, "squarefree_decompose", _square_part_only):
            self.assert_same(tuple(a_odd if t == k else a_pair for t in range(3)))
            self.assert_same((a_pair,) * 3)

    @pytest.mark.parametrize("triples", [small_band_triples, lambda: adversarial_triples(24, 400)], ids=["small-band", "adversarial"])
    def test_same_radicands_call_for_call(self, triples):
        # the sweep-pair benchmark's timeouts fall inside squarefree_decompose: the same
        # arguments in the same order keep its failure set
        triples = triples()
        got = recorded_radicands(solve_einstein, triples)
        assert got == recorded_radicands(exact_branch_reference, triples)
        assert sum(map(len, got)) >= len(triples)

    def test_no_field_arithmetic(self, monkeypatch):
        triples = small_band_triples() + [(F(4, 15), F(1, 5), F(1, 5)), (F(1, 9), F(5, 18), F(5, 18))]

        def refuse(*args):
            raise AssertionError("QuadraticSurd field arithmetic in an exact branch")

        for name in ("inverse", "__truediv__", "__rtruediv__", "__mul__", "__rmul__"):
            monkeypatch.setattr(QuadraticSurd, name, refuse)
        surds = {s.branch for a in triples for s in solve_einstein(a) if any(isinstance(c, QuadraticSurd) for c in s.x)}
        assert surds == {BRANCH_PAIR_LINEAR, BRANCH_PAIR_SUM}

    def test_four_metrics_and_the_grid_oracle_finds_four(self):
        # two sum-branch metrics lie near the linear one at (1, 1, 0.744), within about one cell of the float
        # grid; polished from its cell centres alone, the grid oracle found 3. The radicands hang trial division
        a_pair, a_odd = F(87400, 470533), F(4567, 18408)
        a = (a_pair, a_pair, a_odd)
        with mock.patch.object(surd, "squarefree_decompose", _square_part_only):
            sols = solve_einstein(a)
        assert [s.branch for s in sols] == [BRANCH_PAIR_LINEAR] * 2 + [BRANCH_PAIR_SUM] * 2
        assert all(s.is_exact and solves_exactly(a, s.x) for s in sols)
        assert len({s.x for s in sols}) == 4
        r = sympy.Symbol("r")
        ap, ao = sympy.Rational(a_pair.numerator, a_pair.denominator), sympy.Rational(a_odd.numerator, a_odd.denominator)
        lead = (ap + ao) * (1 - 4 * ap**2)
        linear = sympy.Poly((1 - 2 * ao) * r**2 - r + ap + ao, r)
        total = sympy.Poly(lead * r**2 - (1 - 2 * ap + 8 * ap**2 * (ap + ao)) * r + lead, r)
        assert [p.count_roots() for p in (linear, total)] == [2, 2]
        assert grid_count_oracle(a) == 4


class TestCertifiedOnce:
    """An exact metric is certified once when the solver builds it, in integers, and once per ``verify_solution``."""

    # (a, metrics built, exact solutions): two, four and one dropped equal-pair metrics, all-equal, and a generic
    # triple with two exact metrics at its pivot point beside two interval ones
    TRIPLES = [
        pytest.param((F(2, 9), F(2, 9), F(3, 10)), 2, 2, id="pair-two"),
        pytest.param((F(1, 5), F(2, 9), F(1, 5)), 4, 4, id="pair-four"),
        pytest.param((F(41, 170), F(1, 5), F(1, 5)), 3, 2, id="pair-one-dropped"),
        pytest.param((F(2, 9),) * 3, 4, 4, id="all-equal"),
        pytest.param((F(1, 5), F(1, 6), F(2, 15)), 2, 2, id="pivot-point"),
    ]

    @staticmethod
    def counted(monkeypatch, name) -> list:
        seen = []

        def wrapper(*args, f=getattr(einstein, name)):
            seen.append(args)
            return f(*args)

        monkeypatch.setattr(einstein, name, wrapper)
        return seen

    @pytest.mark.parametrize("a, built, exact", TRIPLES)
    def test_once_at_construction_and_once_per_verify(self, a, built, exact, monkeypatch):
        checked, integer = self.counted(monkeypatch, "_solves_exactly"), self.counted(monkeypatch, "_solves_in_integers")
        sols = [s for s in solve_einstein(a) if s.is_exact]
        assert (len(checked), len(integer), len(sols)) == (0, built, exact)
        for s in sols:
            del checked[:], integer[:]
            assert verify_solution(a, s) is True
            assert (len(checked), len(integer)) == (1, 1)

    @pytest.mark.parametrize("a, _built, _exact", TRIPLES)
    def test_a_moved_coordinate_fails_verification(self, a, _built, _exact):
        delta = F(1, 10**30)
        for s in (s for s in solve_einstein(a) if s.is_exact):
            for u, c in enumerate(s.x):
                moved = QuadraticSurd(c.p + delta, c.q, c.d) if isinstance(c, QuadraticSurd) else c + delta
                x = tuple(moved if t == u else v for t, v in enumerate(s.x))
                assert verify_solution(a, replace(s, x=x)) is False

    def test_pivot_point_metrics_sort_beside_interval_ones(self):
        sols = solve_einstein((F(1, 5), F(1, 6), F(2, 15)))
        assert [s.is_exact for s in sols] == [False, True, False, True]
        assert sols == sorted(sols, key=reference_order)


class TestIntervalSolutionAsGiven:
    """verify_solution encloses the residual at the coordinates it is given, x1 included."""

    A = (F(1, 4), F(1, 8), F(7, 24))

    @pytest.mark.parametrize("tol", [F(1, 10**20), F(1, 10**3)])
    def test_wrong_x1_is_rejected(self, tol):
        for s in solve_einstein(self.A):
            assert verify_solution(self.A, replace(s, x=(F(1001, 1000), *s.x[1:])), tol) is False

    @given(
        st.tuples(admissible_a, admissible_a, admissible_a).filter(lambda a: len(set(a)) == 3),
        st.fractions(min_value=F(1, 10**6), max_value=F(1, 10), max_denominator=10**7),
        st.booleans(),
    )
    def test_any_shifted_x1_is_rejected(self, a, delta, negative):
        sols = [s for s in solve_einstein(a) if not s.is_exact]
        assume(sols)
        x1 = 1 - delta if negative else 1 + delta
        for s in sols:
            assert verify_solution(a, replace(s, x=(x1, *s.x[1:])), F(1, 10**20)) is False


class TestDifferenceRows:
    @given(st.tuples(kernel_a, kernel_a, kernel_a).filter(lambda a: len(set(a)) == 3))
    def test_x2_eliminant_is_the_x3_eliminant_of_the_swapped_triple(self, a):
        assert EinsteinSystem(a).x2 == EinsteinSystem((a[0], a[2], a[1])).x3

    @given(st.tuples(kernel_a, kernel_a, kernel_a), st.tuples(positive_x, positive_x, positive_x))
    def test_each_row_is_its_ricci_difference(self, a, x):
        # row (i, j) at x is L (F_i - F_j) = 2 L x1 x2 x3 (r_i - r_j), for a and, on the numerators the x2
        # eliminant reads, for (a1, a3, a2)
        e = EinsteinSystem(a)
        n1, n2, n3 = e.numerators
        assert e.rows == einstein._rows(e.scale, e.numerators)
        for b, rows in ((a, e.rows), ((a[0], a[2], a[1]), einstein._rows(e.scale, (n1, n3, n2)))):
            r = [einstein._ricci(b, x, i) for i in range(3)]
            for row, (i, j) in zip(rows, einstein._PAIRS):
                value = sum(c * x[s] * x[t] for c, (s, t) in zip(row, einstein._MONOMIALS))
                assert value == 2 * e.scale * x[0] * x[1] * x[2] * (r[i] - r[j])

    @pytest.mark.parametrize(
        "a", [(F(1, 4), F(1, 8), F(7, 24)), (F(1, 6), F(1, 8), F(5, 24)), (F(4, 15), F(1, 5), F(1, 5)), (F(2, 9),) * 3]
    )
    def test_computed_once_per_solve(self, a, monkeypatch):
        # the rows and the validation of a, once per triple: refinement and the
        # CLI's verification of each refined solution read the solver's system
        calls = {"_difference_rows": [], "_validate_a": []}
        for name, seen in calls.items():

            def counted(b, f=getattr(einstein, name), seen=seen):
                seen.append(b)
                return f(b)

            monkeypatch.setattr(einstein, name, counted)
        sols = solve_einstein(a)
        assert sols and [len(seen) for seen in calls.values()] == [1, 1]
        for s in sols:
            assert verify_solution(a, refine_solution(s, F(1, 10**30)), F(1, 10**30))
        assert [len(seen) for seen in calls.values()] == [1, 1]

    @given(st.one_of(st.tuples(admissible_a, admissible_a, admissible_a), exact_triples()).filter(lambda a: len(set(a)) == 3))
    @example((F(1, 5), F(1, 6), F(2, 15)))
    def test_pivot_point_in_closed_form(self, a):
        # den = (-L (n1 + n2), L (n2 + n3)), so xi = (a1 + a2)/(a2 + a3), a root of the x3 eliminant exactly when
        # a1 + a2 + a3 = 1/2
        e = EinsteinSystem(a)
        n1, n2, n3 = e.numerators
        assert e.pivot[1] == (-e.scale * (n1 + n2), e.scale * (n2 + n3))
        assert (e.x3.sign_at((a[0] + a[1]) / (a[1] + a[2])) == 0) == (sum(a) == HALF)

    def test_pivot_once_per_row_set(self, monkeypatch):
        # one (num, den) for the rows, read by the x3 eliminant and the link, and one for the swapped rows of x2
        seen = []

        def counted(rows, f=einstein._pivot):
            seen.append(rows)
            return f(rows)

        monkeypatch.setattr(einstein, "_pivot", counted)
        a = (F(1, 7), F(2, 9), F(3, 11))
        sols = solve_einstein(a)  # reads the pivot point, the x3 eliminant and, per root, the link and the x2 eliminant
        for s in sols:
            assert verify_solution(a, refine_solution(s, F(1, 10**30)), F(1, 10**30))
        rows = sols[0].system.rows
        assert len(sols) == 2 and seen == [rows, EinsteinSystem((a[0], a[2], a[1])).rows]


def reference_link(e, iv3, enclosing=None, width=None):
    """The x2 link in Fractions: num/den over the x3 box, then ``refine_root(iv3, iv3.width / 4)``."""
    for _ in range(einstein._LINK_STEPS):
        (n_lo, n_hi), (d_lo, d_hi) = (fraction_range(p, iv3.lo, iv3.hi) for p in e.pivot)
        if d_lo > 0 or d_hi < 0:
            quotients = [n / d for n in (n_lo, n_hi) for d in (d_lo, d_hi)]
            lo, hi = min(quotients), max(quotients)
            if enclosing is not None:
                lo, hi = max(lo, enclosing.lo), min(hi, enclosing.hi)
            if 0 < iv3.lo and 0 < lo < hi and (width is None or hi - lo <= width) and isolates(e.x2, lo, hi):
                return (lo, hi), (iv3.lo, iv3.hi)
        iv3 = refine_root(iv3, iv3.width / 4)
    raise AssertionError("reference link ran out of steps")


def link_ends(e, iv3, enclosing=None, width=None, narrow=True):
    pair = None if width is None else (width.numerator, width.denominator)  # the link takes a width as two ints
    iv2, iv3 = einstein._link_x2_interval(e, iv3, enclosing, pair, narrow)
    return (iv2.lo, iv2.hi), (iv3.lo, iv3.hi)


class TestLink:
    """The link bisects the x3 box in integers through the same boxes as ``refine_root``."""

    A = (F(1, 4), F(1, 8), F(7, 24))

    @pytest.mark.parametrize("a", [A, (F(5, 18), F(2, 9), F(1, 6)), *EDGE_TRIPLES[:6]])
    def test_same_intervals_as_refine_root(self, a):
        e = EinsteinSystem(a)
        for iv3 in isolate_real_roots(e.x3, 0, None):
            if a[1] == HALF and iv3.lo < 1 < iv3.hi:
                continue
            assert link_ends(e, iv3) == reference_link(e, iv3)
            iv2 = einstein._link_x2_interval(e, iv3)[0]
            for width in (F(1, 10**10), F(1, 10**50)):
                start = refine_root(iv3, width)
                assert link_ends(e, start, iv2, width) == reference_link(e, start, iv2, width)
                # given the width, the link bisects x3 below it itself
                assert link_ends(e, iv3, iv2, width) == reference_link(e, start, iv2, width)

    @pytest.mark.parametrize("a", [A, (F(1, 7), F(2, 9), F(3, 11)), *EDGE_TRIPLES[:6]])
    def test_verification_link_sizes_x3_alone(self, a):
        # a verification round bisects x3 below the width and links x2 from there with no width test: the reference
        # link from the bisected box with no width, in one iteration (x3 is that box); it differs from the
        # refinement link, which narrows x2 too, exactly when the x2 box is wider than the width
        e = EinsteinSystem(a)
        for s in solve_einstein(a):
            iv2, iv3 = s.x[1].interval, s.x[2].interval
            width = iv3.width / 2**30
            start = refine_root(iv3, width)
            got = link_ends(e, iv3, iv2, width, narrow=False)
            assert got == reference_link(e, start, iv2) and got[1] == (start.lo, start.hi)
            (lo, hi), _ = got
            assert (hi - lo > width) is (got != link_ends(e, iv3, iv2, width))

    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_dyadic_hit(self, k):
        # a hand-built x3 box whose polynomial x - c has its root at the first midpoint
        e = EinsteinSystem(self.A)
        for s in solve_einstein(self.A):
            c = refine_solution(s, F(1, 2**40)).x[2].interval.lo
            box = IsolatingInterval.of(c - F(1, 2**k), c + F(1, 2**k), Polynomial((-c, 1)))
            assert box.poly.sign_at(box.midpoint) == 0
            assert link_ends(e, box) == reference_link(e, box)

    def test_no_fractions_in_its_loop(self, fractions_made):
        e = EinsteinSystem(self.A)
        widths = (None, (1, 10**10), (1, 10**300))
        for iv3 in isolate_real_roots(e.x3, 0, None):
            iv2 = einstein._link_x2_interval(e, iv3)[0]
            # from one iteration on the solver's box to hundreds of halvings below 10^-300
            counts = [fractions_made(lambda: einstein._link_x2_interval(e, iv3, iv2, w)) for w in widths]
            assert counts == [0] * 3

    def test_clip_to_a_narrower_enclosing_interval(self):
        # a hand-built x2 interval well inside num/den over the x3 box: the clip binds, and the link returns it
        e = EinsteinSystem(self.A)
        for iv3 in isolate_real_roots(e.x3, 0, None):
            iv2 = einstein._link_x2_interval(e, iv3)[0]
            narrow = refine_root(iv2, iv2.width / 2**20)
            assert einstein._link_x2_interval(e, iv3, narrow)[0] == narrow

    def test_both_outputs_certified(self):
        # the link proves its x2 box; the x3 box keeps the certificate of the box it was given
        e = EinsteinSystem(self.A)
        for iv3 in isolate_real_roots(e.x3, 0, None):
            iv2, out3 = einstein._link_x2_interval(e, iv3)
            assert iv3.certified and iv2.certified and out3.certified
            for width in (None, (1, 10**50)):
                refined = einstein._link_x2_interval(e, iv3, iv2, width)
                assert all(iv.certified for iv in refined)
                bare2, bare3 = einstein._link_x2_interval(e, replace(iv3), replace(iv2), width)
                assert bare2.certified and not bare3.certified
                assert (bare2, bare3) == refined

    def test_ends_that_do_not_straddle_the_root(self):
        e = EinsteinSystem(self.A)
        iv3 = solve_einstein(self.A)[0].x[2].interval
        beside = IsolatingInterval.of(iv3.hi, iv3.hi + iv3.width, iv3.poly)
        assert iv3.poly.sign_at(beside.lo) == iv3.poly.sign_at(beside.hi) != 0
        with pytest.raises(IntegrityError, match="^isolating interval endpoints must straddle the root$"):
            einstein._link_x2_interval(e, beside)


class TestX2OnItsOwnPolynomial:
    """A given x2 interval is certified on its own polynomial, not on the x2 eliminant of the system."""

    A = (F(1, 7), F(2, 9), F(3, 11))

    @pytest.mark.parametrize("root", ["seven", "midpoint"])
    @pytest.mark.parametrize(
        "use",
        [lambda a, s: verify_solution(a, s), lambda a, s: refine_solution(s, F(1, 10**30))],
        ids=["verify_solution", "refine_solution"],
    )
    def test_tampered_polynomial_is_refused(self, root, use):
        s = solve_einstein(self.A)[0]
        iv = s.x[1].interval
        # x - 7 has no root in the interval; 2m x - (a + b) has its one root at the midpoint, away from x2
        poly = Polynomial((-7, 1)) if root == "seven" else Polynomial((-(iv.a + iv.b), 2 * iv.m))
        assert isolates(poly, iv.lo, iv.hi) == (root == "midpoint")
        tampered = replace(s, x=(s.x[0], RootCoordinate(replace(iv, poly=poly)), s.x[2]))
        start = time.perf_counter()
        with pytest.raises(IntegrityError, match="^x2 back-substitution: "):
            use(self.A, tampered)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("u", [1, 2], ids=["x2", "x3"])
    def test_tampered_polynomial_on_a_narrow_box_is_refused(self, u):
        # refined to 10^-40 the first round certifies, so no tightening reads the polynomial
        s = refine_solution(solve_einstein(self.A)[0], F(1, 10**40))
        assert verify_solution(self.A, s) is True
        x = list(s.x)
        x[u] = RootCoordinate(replace(x[u].interval, poly=Polynomial((-7, 1))))
        with pytest.raises(IntegrityError, match=f"^x{u + 1}: the given interval isolates no root of its polynomial$"):
            verify_solution(self.A, replace(s, x=tuple(x)))

    @pytest.mark.parametrize("u", [1, 2], ids=["x2", "x3"])
    def test_swapped_box_is_refused(self, u):
        # a solver box moved through replace, beside its root, carries no certificate, so verify_solution tests it
        s = refine_solution(solve_einstein(self.A)[0], F(1, 10**40))
        iv = s.x[u].interval
        close = refine_root(iv, iv.width / 2**40)
        beside = replace(iv, a=close.b * iv.m, b=close.b * iv.m + (iv.b - iv.a) * close.m, m=close.m * iv.m)
        assert iv.certified and not beside.certified and not isolates(iv.poly, beside.lo, beside.hi)
        x = list(s.x)
        x[u] = RootCoordinate(beside)
        with pytest.raises(IntegrityError, match=f"^x{u + 1}: the given interval isolates no root of its polynomial$"):
            verify_solution(self.A, replace(s, x=tuple(x)))

    def test_refined_interval_keeps_its_polynomial(self):
        # (x - 7) times the eliminant has the same one root in the interval; refinement keeps that polynomial
        for s in solve_einstein(self.A):
            iv = s.x[1].interval
            c = (0, *iv.poly.ints)
            poly = Polynomial(tuple(c[t] - 7 * (c[t + 1] if t + 1 < len(c) else 0) for t in range(len(c))))
            assert poly.degree == iv.poly.degree + 1 and isolates(poly, iv.lo, iv.hi)
            given = replace(s, x=(s.x[0], RootCoordinate(replace(iv, poly=poly)), s.x[2]))
            refined = refine_solution(given, F(1, 10**30))
            assert refined.x[1].interval.poly == poly
            assert refined.x[1].interval == replace(refine_solution(s, F(1, 10**30)).x[1].interval, poly=poly)
            assert verify_solution(self.A, given) is True

    def test_refined_interval_on_a_squared_polynomial(self):
        # the eliminant squared has the root twice and no sign change there; a second refinement decides the x2 box
        # inside the certified first one by the signs of the square-free part, as the Sturm test does
        for s in solve_einstein(self.A):
            iv = s.x[1].interval
            sq = Polynomial(int_mul(iv.poly.ints, iv.poly.ints))
            given = replace(s, x=(s.x[0], RootCoordinate(replace(iv, poly=sq)), s.x[2]))
            once = refine_solution(given, F(1, 10**30))
            assert once.x[1].interval.poly == sq and once.x[1].interval.certified
            twice = refine_solution(once, F(1, 10**60)).x[1].interval
            assert twice.poly == sq and twice == replace(refine_solution(s, F(1, 10**60)).x[1].interval, poly=sq)


class TestTwoSignDecision:
    """Inside a certified interval, ``certify_box`` decides by two end signs exactly as the Sturm test does."""

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_sturm_test_on_sub_boxes(self, seed):
        rng = random.Random(seed)
        while True:
            q = rng.randint(10, 10 ** rng.randint(1, 4))
            a = tuple(F(rng.randint(1, q // 2), q) for _ in range(3))
            if len(set(a)) == 3:
                break
        e = EinsteinSystem(a)
        r = F(rng.randint(1, 99), rng.randint(1, 99))  # a rational root, so that sub-box ends can sit on a root
        with_r = Polynomial(int_mul(e.x3.ints, (-r.numerator, r.denominator)))
        decided = Counter()  # by (decision, an end at the rational root)
        for p in (e.x3, e.x2, with_r):
            for iv in isolate_real_roots(p, 0, None):
                assert iv.certified
                # the box's ends, ends of refinements around the root, the root when rational, and points between;
                # every pair of them is a sub-box, so some touch the ends of the enclosing box
                points = {iv.lo, iv.hi} | ({r} if p is with_r and iv.lo < r < iv.hi else set())
                for k in (4, 30, 120):
                    close = refine_root(iv, iv.width / 2**k)
                    points |= {close.lo, close.hi}
                points |= {iv.lo + iv.width * F(rng.randint(1, 999), 1000) for _ in range(15)}
                pairs = list(combinations(sorted(points), 2))
                assert len(pairs) >= 200
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(polysolve, "isolates_at", None)  # every sub-box is decided by two signs, no Sturm test
                    got = [certify_box((lo.numerator, lo.denominator), (hi.numerator, hi.denominator), iv.poly, iv)
                           for lo, hi in pairs]
                for (lo, hi), box in zip(pairs, got):
                    expected = isolates_at(iv.poly, lo.numerator, lo.denominator, hi.numerator, hi.denominator)
                    assert (box is not None) is expected
                    if expected:
                        assert (box.lo, box.hi, box.poly, box.certified) == (lo, hi, iv.poly, True)
                    decided[expected, p is with_r and r in (lo, hi)] += 1
        assert decided[True, False] >= 100 and decided[False, False] >= 100 and decided[False, True] >= 20


class TestBudgets:
    """An exhausted iteration budget raises IntegrityError naming stage, budget and widths."""

    A = (F(1, 4), F(1, 8), F(7, 24))

    def test_verification_budget_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(einstein, "_VERIFY_STEPS", 0)
        assert cli.main(["solve", "--a", "1/4", "1/8", "7/24"]) == 3
        assert "verification: not certified within its budget of 0 steps" in capsys.readouterr().err

    def test_back_substitution_budget(self, monkeypatch):
        monkeypatch.setattr(einstein, "_LINK_STEPS", 0)
        with pytest.raises(IntegrityError, match=r"^x2 back-substitution: .* budget of 0 steps; last widths: x3 "):
            solve_einstein(self.A)

    def test_x2_link_stays_inside_enclosing(self, monkeypatch):
        # hand-built: the x2 interval of one solution as the enclosure for the
        # x3 interval of the other, so num/den over the x3 box misses it
        s, other = (refine_solution(t, F(1, 10**10)) for t in solve_einstein(self.A))
        e = EinsteinSystem(self.A)
        iv3, enclosing = s.x[2].interval, other.x[1].interval
        num_range, den_range = (fraction_range(p, iv3.lo, iv3.hi) for p in e.pivot)
        assert den_range[0] > 0 or den_range[1] < 0
        quotients = [n / d for n in num_range for d in den_range]
        assert max(quotients) < enclosing.lo or enclosing.hi < min(quotients)
        monkeypatch.setattr(einstein, "_LINK_STEPS", 3)
        with pytest.raises(IntegrityError, match=r"^x2 back-substitution: x2 range misses the enclosing") as err:
            einstein._link_x2_interval(e, iv3, enclosing)
        assert " -" not in str(err.value)  # widths only, never a negative clip

    def test_verification_budget(self, monkeypatch):
        sol = solve_einstein(self.A)[0]
        monkeypatch.setattr(einstein, "_VERIFY_STEPS", 1)
        with pytest.raises(IntegrityError, match=r"^verification: .* budget of 1 steps; last widths: x2 .*, x3 "):
            verify_solution(self.A, sol, F(1, 10**40))


class TestProperties:
    @given(rational_a, rational_a, rational_a)
    def test_standard_iff_all_equal(self, a1, a2, a3):
        sols = solve_einstein((a1, a2, a3))
        has_standard = any(s.x == (F(1), F(1), F(1)) for s in sols)
        assert has_standard == (a1 == a2 == a3)

    @given(rational_a, rational_a)
    def test_pair_positivity_claim(self, ap, ak):
        # every real root of the equal-coordinate quadratic is positive
        sols = solve_einstein((ap, ap, ak))
        for s in sols:
            for c in s.x:
                if isinstance(c, QuadraticSurd):
                    assert c.sign() == 1
                elif isinstance(c, F):
                    assert c > 0

    @pytest.mark.parametrize("label", ["E6-II", "E6-III", "E7-II", "E8-I", "F4-II", "E7-I"])
    def test_permutation_equivariance(self, label):
        width = F(1, 10**12)

        def approx_set(sols):
            return [tuple(float(v) for v in refine_solution(s, width).approx()) for s in sols]

        a = coefficients_for_case(make_case(label)).a
        reference = sorted(approx_set(solve_einstein(a)))
        for perm in permutations(range(3)):
            pa = tuple(a[p] for p in perm)
            sols = solve_einstein(pa)
            assert len(sols) == len(reference)
            # un-normalize, permute back, re-normalize, compare numerically
            back = []
            for vals in approx_set(sols):
                unperm = [0.0] * 3
                for pos, orig in enumerate(perm):
                    unperm[orig] = vals[pos]
                back.append(tuple(v / unperm[0] for v in unperm))
            for b, r in zip(sorted(back), reference):
                assert all(abs(x - y) < 1e-6 for x, y in zip(b, r))

    def test_deterministic_ordering(self):
        a = (F(1, 4), F(1, 8), F(7, 24))
        first = [tuple(s.x) for s in solve_einstein(a)]
        second = [tuple(s.x) for s in solve_einstein(a)]
        assert first == second


class TestClassicalFamilies:
    """Counts known from the classical literature for the matrix models."""

    @pytest.mark.parametrize("l,i,j", [(5, 1, 3), (8, 2, 5), (7, 1, 4), (9, 1, 3), (6, 2, 4)])
    def test_unitary_flags_have_four_metrics(self, l, i, j):
        # these coefficient triples satisfy a1 + a2 + a3 = 1/2, which is
        # exactly the locus where the back-substitution pivot degenerates;
        # the solver must recover the rational pivot solutions
        result = solve_case(make_case("A-III", l=l, i=i, j=j))
        assert sum(result.a) == F(1, 2)
        assert len(result.solutions) == 4
        for s in result.solutions:
            assert verify_solution(result.a, s, F(1, 10**12))

    @pytest.mark.parametrize("l,i,j", [(3, 1, 2), (4, 1, 2), (5, 1, 3), (7, 2, 4), (9, 3, 6)])
    def test_symplectic_family_has_four_metrics(self, l, i, j):
        result = solve_case(make_case("C-I", l=l, i=i, j=j))
        assert len(result.solutions) == 4

    @pytest.mark.parametrize(
        "label,params",
        [
            ("B-I", dict(l=4, i=3, j=2)),
            ("B-I", dict(l=6, i=4, j=2)),
            ("D-I", dict(l=6, i=2, j=4)),
            ("D-III", dict(l=5, i=1, j=2)),
            ("B-II", dict(l=5, i=3)),
        ],
    )
    def test_orthogonal_family_has_one_to_four_metrics(self, label, params):
        result = solve_case(make_case(label, **params))
        assert 1 <= len(result.solutions) <= 4
        for s in result.solutions:
            assert verify_solution(result.a, s, F(1, 10**12))
