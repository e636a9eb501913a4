from fractions import Fraction as F

import pytest

from trisym.cases import enumerate_cases, make_case
from trisym.coeffs import (
    IsotropyData,
    coefficients_for_case,
    derive_gammas,
    gamma_from_killing_ratio,
    sizes_gammas,
)
from trisym.errors import InconsistentData, TrisymError


class TestKillingRatios:
    def test_named_symmetric_pairs(self):
        assert gamma_from_killing_ratio(("D", 6), ("E", 7)) == F(5, 9)
        assert gamma_from_killing_ratio(("D", 8), ("E", 8)) == F(7, 15)
        for k in range(2, 9):
            assert gamma_from_killing_ratio(("C", k), ("A", 2 * k - 1)) == F(k + 1, 2 * k)

    def test_embedding_index(self):
        # the orthogonal subalgebra of the unitary family embeds with index 2
        for k in range(3, 8):
            assert gamma_from_killing_ratio(("D", k), ("A", 2 * k - 1), 2) == F(k - 1, 2 * k)

    def test_nonsimple_rejected(self):
        with pytest.raises(TrisymError):
            gamma_from_killing_ratio(("T", 1), ("E", 7))
        with pytest.raises(TrisymError):
            gamma_from_killing_ratio(("A", 0), ("E", 7))


class TestDerivation:
    def test_from_first_block(self):
        data = derive_gammas((14, 28, 12), 1, F(1, 2))
        assert data.gammas == (F(1, 2), F(3, 4), F(5, 12))
        assert data.a == (F(1, 4), F(1, 8), F(7, 24))

    def test_from_second_block(self):
        data = derive_gammas((24, 30, 40), 2, F(5, 9))
        assert data.gammas == (F(4, 9), F(5, 9), F(2, 3))
        assert data.a == (F(5, 18), F(2, 9), F(1, 6))

    def test_symmetric_dims(self):
        data = derive_gammas((10, 10, 10), 1, F(1, 3))
        assert data.gammas == (F(1, 3),) * 3
        assert data.a == (F(1, 3),) * 3

    def test_out_of_range_rejected(self):
        with pytest.raises(InconsistentData):
            derive_gammas((14, 28, 12), 1, F(3, 2))
        with pytest.raises(InconsistentData, match=r"^derived gamma_2 = -97/2 outside range"):
            # the derived gamma for the tiny block falls out of range
            derive_gammas((100, 2, 2), 1, F(1, 100))

    def test_anchor_block_equivalence(self):
        # one consistent data set, anchored through any of its three blocks
        expected = derive_gammas((14, 28, 12), 1, F(1, 2))
        assert derive_gammas((14, 28, 12), 2, F(3, 4)) == expected
        assert derive_gammas((14, 28, 12), 3, F(5, 12)) == expected
        same = derive_gammas((35, 35, 35), 1, F(4, 9))
        for blk in (2, 3):
            assert derive_gammas((35, 35, 35), blk, F(4, 9)) == same


CASE_TABLE = {
    "E6-II": ((F(1, 2), F(1, 2), F(2, 3)), (F(1, 4), F(1, 4), F(1, 6))),
    "E6-III": ((F(1, 2), F(3, 4), F(5, 12)), (F(1, 4), F(1, 8), F(7, 24))),
    "E7-I": ((F(5, 9),) * 3, (F(2, 9),) * 3),
    "E7-II": ((F(4, 9), F(5, 9), F(2, 3)), (F(5, 18), F(2, 9), F(1, 6))),
    "E7-III": ((F(4, 9),) * 3, (F(5, 18),) * 3),
    "E8-I": ((F(7, 15), F(3, 5), F(3, 5)), (F(4, 15), F(1, 5), F(1, 5))),
    "E8-II": ((F(7, 15),) * 3, (F(4, 15),) * 3),
    "F4-I": ((F(7, 9),) * 3, (F(1, 9),) * 3),
    "F4-II": ((F(7, 9), F(4, 9), F(4, 9)), (F(1, 9), F(5, 18), F(5, 18))),
}


class TestPerCase:
    @pytest.mark.parametrize("label", sorted(CASE_TABLE))
    def test_reference_values(self, label):
        data = coefficients_for_case(make_case(label))
        gammas, a = CASE_TABLE[label]
        assert data.gammas == gammas
        assert data.a == a

    def test_a_ii_family(self):
        for k in range(2, 12):
            data = coefficients_for_case(make_case("A-II", l=2 * k - 1))
            assert data.gammas == (F(1, 2), F(k + 1, 2 * k), F(k - 1, 2 * k))
            assert data.a == (F(1, 4), F(k - 1, 4 * k), F(k + 1, 4 * k))

    def test_a_ii_k3_example(self):
        assert coefficients_for_case(make_case("A-II", l=5)).a == (F(1, 4), F(1, 6), F(1, 3))

    def test_group_case_boundary(self):
        data = coefficients_for_case(make_case("A-I"))
        assert data.gammas == (F(0),) * 3
        assert data.a == (F(1, 2),) * 3
        assert data.boundary

    def test_full_flag_rank2(self):
        data = coefficients_for_case(make_case("A-III", l=2, i=1, j=2))
        assert data.a == (F(1, 6),) * 3

    def test_sizes_formulas(self):
        assert sizes_gammas("su", (1, 1, 1)) == (F(2, 3),) * 3
        assert sizes_gammas("sp", (1, 1, 1)) == (F(3, 4),) * 3
        assert sizes_gammas("so", (3, 3, 1)) == (F(2, 5), F(2, 5), F(4, 5))


class TestInvariants:
    def test_killing_identity_on_catalog(self):
        for case in enumerate_cases(12):
            data = coefficients_for_case(case)
            vals = {data.dims[i] * (1 - data.gammas[i]) for i in range(3)}
            assert len(vals) == 1, case.describe()
            assert vals.pop() == 2 * data.A

    def test_a_range_on_catalog(self):
        for case in enumerate_cases(12):
            data = coefficients_for_case(case)
            for v in data.a:
                assert 0 < v <= F(1, 2)
            if data.boundary:
                # only the group case and the flagged degenerate shapes
                assert case.type_label == "A-I" or case.isomorphic_summands

    def test_isotropy_data_validation(self):
        with pytest.raises(InconsistentData, match="inconsistent with dims"):
            IsotropyData(dims=(2, 2, 2), gammas=(F(1, 2), F(1, 2), F(1, 3)))
        with pytest.raises(InconsistentData, match=r"^gamma_1 = 1 outside \[0, 1\)$"):
            IsotropyData(dims=(2, 2, 2), gammas=(F(1), F(1), F(1)))
        # consistency is checked first: gamma_1 = 1 is also out of range
        with pytest.raises(InconsistentData, match="inconsistent with dims"):
            IsotropyData(dims=(2, 2, 2), gammas=(F(1), F(1), F(1, 2)))

    def test_coefficient_layer_fraction_count(self, fractions_made):
        # A = d_i (1 - gamma_i) / 2 derived once per entry; 14,304 when every block recomputed it
        cases = [c for c in enumerate_cases(12) if not c.isomorphic_summands]
        assert len(cases) == 588
        assert fractions_made(lambda: [coefficients_for_case(c) for c in cases]) <= 9500

    def test_isotropy_data_derives_coefficients(self):
        data = IsotropyData(dims=(2, 4, 4), gammas=(F(0), F(1, 2), F(1, 2)))
        assert data.casimirs == (F(0), F(1, 4), F(1, 4))
        assert data.A == 1
        assert data.a == (F(1, 2), F(1, 4), F(1, 4))
        assert data.boundary
