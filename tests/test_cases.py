import contextlib
import dataclasses
import hashlib
import io
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisym.cases import (
    InvolutionMarking,
    case_dims,
    enumerate_cases,
    find_cases,
    inner_decomposition_dims,
    make_case,
)
from trisym.cli import main as cli_main
from trisym.errors import IntegrityError, InvalidMarking, TrisymError
from trisym.rootsys import build_root_system

DIM_ROWS = {
    "E6-II": (16, 16, 24),
    "E6-III": (14, 28, 12),
    "E7-I": (32, 32, 32),
    "E7-II": (24, 30, 40),
    "E7-III": (35, 35, 35),
    "E8-I": (48, 64, 64),
    "E8-II": (64, 64, 64),
    "F4-II": (20, 8, 8),
}


class TestEnumeration:
    def test_rank_1_only_the_group_case(self):
        cases = enumerate_cases(1)
        assert [c.type_label for c in cases] == ["A-I"]

    def test_rank_4_includes_expected_rows(self):
        cases = enumerate_cases(4)
        keys = {(c.type_label, c.params) for c in cases}
        assert ("D-I", (("l", 4), ("i", 1), ("j", 2))) in keys
        assert ("F4-I", ()) in keys and ("F4-II", ()) in keys
        assert ("A-II", (("l", 3),)) in keys

    def test_rank_8_exceptional_rows(self):
        cases = enumerate_cases(8)
        exceptional = sorted(c.type_label for c in cases if c.family in ("E", "F"))
        assert exceptional == [
            "E6-I", "E6-II", "E6-III", "E7-I", "E7-II", "E7-III",
            "E8-I", "E8-II", "F4-I", "F4-II",
        ]

    def test_each_case_exactly_once(self):
        cases = enumerate_cases(9)
        keys = [(c.type_label, c.params) for c in cases]
        assert len(keys) == len(set(keys))

    def test_max_rank_validation(self):
        with pytest.raises(TrisymError, match="^max_rank must be >= 1, not 0$"):
            enumerate_cases(0)

    @pytest.mark.parametrize("selector,max_rank", [("A-III", 0), ("E7-II", -1)])
    def test_find_cases_applies_the_same_bound(self, selector, max_rank):
        with pytest.raises(TrisymError) as want:
            enumerate_cases(max_rank)
        with pytest.raises(TrisymError) as got:
            find_cases(selector, max_rank=max_rank)
        assert type(got.value) is type(want.value) is TrisymError
        assert str(got.value) == str(want.value) == f"max_rank must be >= 1, not {max_rank}"


# entries per family, recorded before the families were declared in one place
FAMILY_COUNTS = {
    12: {
        "A-I": 1, "A-II": 5, "A-III": 67, "B-I": 150, "B-II": 41, "B-III": 71, "C-I": 53,
        "D-I": 52, "D-II": 54, "D-III": 95, "D-IV": 9, "D-V": 9,
    },
    20: {
        "A-I": 1, "A-II": 9, "A-III": 274, "B-I": 696, "B-II": 109, "B-III": 294, "C-I": 237,
        "D-I": 236, "D-II": 170, "D-III": 525, "D-IV": 17, "D-V": 17,
    },
}
EXCEPTIONAL = ("E6-I", "E6-II", "E6-III", "E7-I", "E7-II", "E7-III", "E8-I", "E8-II", "F4-I", "F4-II")

# sha256 of `trisym list --max-rank 12 --format <fmt>`, recorded the same way
LIST_12_SHA256 = {
    "json": "8f9fd833e67188a7ba345d5a54945320dc747da6996a986ba70e8d74cef4a9df",
    "csv": "20d8e4e6969d1e40dd47f90bfb966b3f6f795cbab5eaffc6940227bd48e5e096",
}

# sha256 of the stdout of `trisym <argv>`, recorded before the simple-type facts
# were declared once: rank 20 covers every factor name and dimension of the
# catalog, `verify tables` the dual-Coxeter anchor ratios
CATALOG_SHA256 = {
    "list --max-rank 20 --format json": "c2c748c9d184b89bcde58dd797227f2ae8b73fd8be5c6098eb5187500031e3d6",
    "verify tables --format json": "3720086fc88338f7ddb62fe1c2b02e2b63752a6cdd7371669891d895e1ce5d47",
}


def _observed_spans(cases):
    """(label, earlier params, name) -> (min, max, an entry) over the given cases."""
    spans = {}
    for c in cases:
        for k, (name, v) in enumerate(c.params):
            key = (c.type_label, c.params[:k], name)
            lo, hi, rep = spans.get(key, (v, v, c))
            spans[key] = (min(lo, v), max(hi, v), rep)
    return spans


class TestDeclaration:
    @pytest.mark.parametrize("max_rank,total", [(12, 617), (20, 2595)])
    def test_counts_per_family(self, max_rank, total):
        cases = enumerate_cases(max_rank)
        want = dict(FAMILY_COUNTS[max_rank], **{label: 1 for label in EXCEPTIONAL})
        assert len(cases) == total
        assert Counter(c.type_label for c in cases) == want

    def test_every_entry_round_trips(self):
        for c in enumerate_cases(12):
            assert make_case(c.type_label, **dict(c.params)) == c
            assert make_case(c.inp_tag, **dict(c.params)) == c

    def test_one_step_past_each_bound_is_rejected(self):
        spans = _observed_spans(enumerate_cases(12))
        assert len(spans) > 100
        for (label, before, name), (lo, hi, rep) in spans.items():
            # l has no upper bound (A-I aside); i and j are bounded on both sides
            outside = [lo - 1] if name == "l" and label != "A-I" else [lo - 1, hi + 1]
            for v in outside:
                params = dict(rep.params, **{name: v})
                with pytest.raises(TrisymError, match=f"^{label}: parameter out of range \\({name}={v};"):
                    make_case(label, **params)

    def test_rejection_names_the_bounds(self):
        with pytest.raises(TrisymError, match=r"A-III: .*\(i=3; need 1 <= i <= 2 at l=5\)"):
            make_case("A-III", l=5, i=3, j=6)
        with pytest.raises(TrisymError, match=r"B-III: .*\(j=2; need 3 <= j <= 4 at l=6, i=5\)"):
            make_case("B-III", l=6, i=5, j=2)
        with pytest.raises(TrisymError, match=r"A-II: .*\(l=4; need l in 3, 5, 7, \.\.\.\)"):
            make_case("A-II", l=4)
        with pytest.raises(TrisymError, match=r"D-IV: .*\(l=3; need l >= 4\)"):
            make_case("D-IV", l=3)

    @pytest.mark.parametrize("fmt", sorted(LIST_12_SHA256))
    def test_list_output_is_pinned(self, fmt):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["list", "--max-rank", "12", "--format", fmt]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == LIST_12_SHA256[fmt]

    @pytest.mark.parametrize("argv", sorted(CATALOG_SHA256))
    def test_catalog_output_is_pinned(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(argv.split()) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CATALOG_SHA256[argv]


class TestInnerDecomposition:
    def test_rank2_flag_manifold(self):
        rs = build_root_system("A", 2)
        assert inner_decomposition_dims(rs, InvolutionMarking.inner({1}, {2})) == (2, 2, 2, 2)

    def test_f4_triality_case(self):
        rs = build_root_system("F", 4)
        assert inner_decomposition_dims(rs, InvolutionMarking.inner({4}, {3})) == (28, 8, 8, 8)

    def test_e7_first_case(self):
        rs = build_root_system("E", 7)
        assert inner_decomposition_dims(rs, InvolutionMarking.inner({6}, {2})) == (37, 32, 32, 32)

    def test_invalid_marks_rejected(self):
        rs = build_root_system("A", 2)
        with pytest.raises(InvalidMarking):
            inner_decomposition_dims(rs, InvolutionMarking.inner({1}, {7}))
        with pytest.raises(InvalidMarking):
            inner_decomposition_dims(rs, InvolutionMarking.inner({1}, set()))
        with pytest.raises(InvalidMarking):
            inner_decomposition_dims(
                rs, InvolutionMarking(frozenset({1}), frozenset({2}), outer="flip")
            )

    def test_swapping_marks_permutes_blocks(self):
        rs = build_root_system("E", 8)
        a = inner_decomposition_dims(rs, InvolutionMarking.inner({7}, {1}))
        b = inner_decomposition_dims(rs, InvolutionMarking.inner({1}, {7}))
        assert a[0] == b[0]
        assert sorted(a[1:]) == sorted(b[1:])
        # the convention swaps the theta-fixed and tau-fixed blocks
        assert (a[1], a[2]) == (b[2], b[1])


def parity_walk(rs, marking):
    """(dim h, d1, d2, d3) by summing each root's coefficients over the marks, as the package did before the masks."""
    counts = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for root in rs.positive_roots:
        e_h = sum(root[k - 1] for k in marking.h_marks) % 2
        e_h1 = sum(root[k - 1] for k in marking.h1_marks) % 2
        counts[(e_h, e_h1)] += 1
    return rs.rank + 2 * counts[(0, 0)], 2 * counts[(0, 1)], 2 * counts[(1, 0)], 2 * counts[(1, 1)]


@st.composite
def multi_node_markings(draw):
    """A root system of type E6-E8, F4, B_l or D_l with two nonempty mark sets of any size."""
    family, rank = draw(
        st.sampled_from([("E", 6), ("E", 7), ("E", 8), ("F", 4)])
        | st.tuples(st.just("B"), st.integers(2, 20))
        | st.tuples(st.just("D"), st.integers(4, 20))
    )
    marks = st.frozensets(st.integers(1, rank), min_size=1, max_size=rank)
    return build_root_system(family, rank), InvolutionMarking(draw(marks), draw(marks))


class TestParityMasks:
    def test_every_inner_entry_matches_the_walk(self):
        inner = [c for c in enumerate_cases(20) if c.is_inner]
        assert len(inner) == 1468
        for c in inner:
            rs = build_root_system(c.family, c.rank)
            assert inner_decomposition_dims(rs, c.marking) == parity_walk(rs, c.marking), c.describe()

    @given(multi_node_markings())
    def test_multi_node_marks_match_the_walk(self, drawn):
        rs, marking = drawn
        assert inner_decomposition_dims(rs, marking) == parity_walk(rs, marking)

    @given(multi_node_markings())
    def test_xor_parity_is_sum_parity(self, drawn):
        rs, marking = drawn
        for marks in (marking.h_marks, marking.h1_marks):
            xored = 0
            for k in marks:
                xored ^= rs.parity_masks[k - 1]
            for r, root in enumerate(rs.positive_roots):
                assert (xored >> r) & 1 == sum(root[k - 1] for k in marks) % 2


class TestCaseDims:
    def test_a_ii_l5(self):
        assert case_dims(make_case("A-II", l=5)) == (9, 8, 12, 6)

    def test_e6_iii(self):
        assert case_dims(make_case("E6-III")) == (24, 14, 28, 12)

    def test_f4_ii(self):
        assert case_dims(make_case("F4-II")) == (16, 20, 8, 8)

    @pytest.mark.parametrize("label,want", sorted(DIM_ROWS.items()))
    def test_reference_rows(self, label, want):
        dim_h, d1, d2, d3 = case_dims(make_case(label))
        assert (d1, d2, d3) == want

    def test_a_ii_closed_forms(self):
        for l in range(3, 22, 2):
            _, d1, d2, d3 = case_dims(make_case("A-II", l=l))
            assert (d1, d2, d3) == (
                (l - 1) * (l + 3) // 4,
                (l + 1) * (l + 3) // 4,
                (l - 1) * (l + 1) // 4,
            )

    def test_dimension_sum_across_catalog(self):
        from trisym.cases import ambient_dim

        for case in enumerate_cases(12):
            dim_h, d1, d2, d3 = case_dims(case)
            assert dim_h + d1 + d2 + d3 == ambient_dim(case)

    @given(st.integers(2, 14), st.data())
    def test_a_iii_dims_match_unitary_model(self, l, data):
        i = data.draw(st.integers(1, max(1, (l + 1) // 3)))
        j = data.draw(st.integers(2 * i, (l + i + 1) // 2))
        case = make_case("A-III", l=l, i=i, j=j)
        n1, n2, n3 = i, j - i, l + 1 - j
        _, d1, d2, d3 = case_dims(case)
        assert sorted((d1, d2, d3)) == sorted((2 * n1 * n2, 2 * n2 * n3, 2 * n1 * n3))

    @pytest.mark.parametrize(
        "label,params,change,message",
        [
            ("E7-II", {}, dict(isotropy_factors=(("A", 5),)), "isotropy metadata dim 35 != parity dim 39"),
            (
                "E6-III", {}, dict(fixed_subalgebra_types=((("A", 1), ("A", 5)), (("F", 4),), (("C", 3),))),
                "dim h + sum(d) = 63 != dim g = 78",
            ),
            (
                "E6-III", {}, dict(fixed_subalgebra_types=((("T", 24),), (("T", 51),), (("T", 51),))),
                "nonpositive summand dimension (0, 27, 27)",
            ),
            (
                "E7-II", {}, dict(fixed_subalgebra_types=((("A", 6),), (("A", 1), ("D", 6)), (("T", 1), ("E", 6)))),
                "dim k1 = 48 != dim h + d1 = 63",
            ),
            ("A-III", dict(l=5, i=1, j=2), dict(sizes=("su", (1, 2, 3))), "sizes model dims (12, 6, 4) != (8, 2, 8)"),
        ],
    )
    def test_gate_rejects_inconsistent_metadata(self, label, params, change, message):
        case = make_case(label, **params)
        with pytest.raises(IntegrityError, match="^" + re.escape(f"{case.describe()}: {message}")):
            dataclasses.replace(case, **change)

    def test_c_i_matches_symplectic_model(self):
        _, d1, d2, d3 = case_dims(make_case("C-I", l=3, i=1, j=2))
        assert (d1, d2, d3) == (4, 4, 4)
        _, d1, d2, d3 = case_dims(make_case("C-I", l=4, i=1, j=2))
        assert sorted((d1, d2, d3)) == [4, 8, 8]


class TestSelectors:
    def test_tag_and_label_equivalent(self):
        assert make_case("InP17") == make_case("E7-II")
        assert make_case("inp17") == make_case("e7-ii")

    def test_k_alias_for_a_ii(self):
        assert make_case("A-II", k=3) == make_case("A-II", l=5)
        assert find_cases("A-II", k=3) == [make_case("A-II", l=5)]
        for select in (make_case, find_cases):
            with pytest.raises(TrisymError, match="inconsistent l and k"):
                select("A-II", l=7, k=3)

    def test_a_i_names_its_rank(self):
        assert make_case("A-I") == make_case("A-I", l=1) == find_cases("A-I", l=1)[0]
        assert make_case("A-I").params == (("l", 1),)

    def test_bad_selector(self):
        with pytest.raises(TrisymError):
            make_case("Z9-I")

    def test_missing_params(self):
        with pytest.raises(TrisymError):
            make_case("A-III", l=5)

    def test_out_of_range_params(self):
        with pytest.raises(TrisymError):
            make_case("A-III", l=5, i=3, j=4)
        with pytest.raises(TrisymError):
            make_case("A-II", l=4)

    @pytest.mark.parametrize(
        "label,params,message",
        [
            ("A-II", dict(l="5"), "A-II: parameter l = '5' is not an int"),
            ("A-II", dict(l=5.0), "A-II: parameter l = 5.0 is not an int"),
            ("A-II", dict(k=True), "A-II: parameter k = True is not an int"),
            ("A-II", dict(k="3"), "A-II: parameter k = '3' is not an int"),
            ("A-III", dict(l=5, i=1, j=2.0), "A-III: parameter j = 2.0 is not an int"),
            ("B-II", dict(l=4, i=True), "B-II: parameter i = True is not an int"),
        ],
    )
    def test_non_int_params_refused_by_name(self, label, params, message):
        for select in (make_case, find_cases):
            with pytest.raises(TrisymError, match="^" + re.escape(message) + "$"):
                select(label, **params)

    def test_non_int_filter_refused_by_name(self):
        with pytest.raises(TrisymError, match=r"^A-III: parameter i = 1\.0 is not an int$"):
            find_cases("A-III", max_rank=6, i=1.0)

    @pytest.mark.parametrize("max_rank", [2.5, 3.0, "3", True])
    def test_non_int_max_rank_refused_by_name(self, max_rank):
        message = f"^max_rank {re.escape(repr(max_rank))} is not an int$"
        with pytest.raises(TrisymError, match=message):
            enumerate_cases(max_rank)
        with pytest.raises(TrisymError, match=message):
            find_cases("A-III", max_rank=max_rank, i=1)

    def test_find_cases_filters(self):
        found = find_cases("A-III", max_rank=6, i=1)
        assert found and all(dict(c.params)["i"] == 1 for c in found)

    def test_flags(self):
        assert make_case("D-IV", l=5).isomorphic_summands
        assert make_case("B-II", l=4, i=4).isomorphic_summands
        assert not make_case("B-II", l=4, i=3).isomorphic_summands
