import re

import pytest

from trisym import rootsys
from trisym.errors import InvalidRootSystem
from trisym.rootsys import build_root_system, canonicalize_type, dimension, dual_coxeter_number

POSITIVE_COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
}
EXCEPTIONAL_COUNTS = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}

DIMS = {
    "A": lambda l: l * (l + 2),
    "B": lambda l: l * (2 * l + 1),
    "C": lambda l: l * (2 * l + 1),
    "D": lambda l: l * (2 * l - 1),
}
EXCEPTIONAL_DIMS = {("E", 6): 78, ("E", 7): 133, ("E", 8): 248, ("F", 4): 52, ("G", 2): 14}


def all_types(max_rank=20):
    for l in range(1, max_rank + 1):
        yield ("A", l)
    for l in range(2, max_rank + 1):
        yield ("B", l)
    for l in range(3, max_rank + 1):
        yield ("C", l)
    for l in range(4, max_rank + 1):
        yield ("D", l)
    yield from EXCEPTIONAL_COUNTS


class TestExamples:
    def test_a2(self):
        rs = build_root_system("A", 2)
        assert len(rs.positive_roots) == 3
        assert rs.maximal_root == (1, 1)
        assert dimension(rs) == 8

    def test_f4_maximal_root(self):
        rs = build_root_system("F", 4)
        assert rs.maximal_root == (2, 3, 4, 2)

    def test_e8(self):
        rs = build_root_system("E", 8)
        assert len(rs.positive_roots) == 120
        assert dimension(rs) == 248
        assert rs.dual_coxeter == 30

    def test_dimension_examples(self):
        assert dimension(build_root_system("A", 1)) == 3
        assert dimension(build_root_system("E", 6)) == 78
        assert dimension(build_root_system("D", 4)) == 28

    def test_dual_coxeter_examples(self):
        assert dual_coxeter_number("D", 6) == 10
        assert dual_coxeter_number("A", 7) == 8
        assert dual_coxeter_number("C", 1) == 2  # C1 = A1

    def test_e_series_maximal_roots(self):
        # branch-node coefficient is the largest in each E diagram
        assert build_root_system("E", 6).maximal_root == (1, 2, 3, 2, 1, 2)
        assert build_root_system("E", 7).maximal_root == (1, 2, 3, 4, 3, 2, 2)
        assert build_root_system("E", 8).maximal_root == (2, 3, 4, 5, 6, 4, 2, 3)


class TestInvariants:
    @pytest.mark.parametrize("family,rank", list(all_types()))
    def test_counts_and_dims(self, family, rank):
        rs = build_root_system(family, rank)
        if family in POSITIVE_COUNTS:
            assert len(rs.positive_roots) == POSITIVE_COUNTS[family](rank)
            assert dimension(rs) == DIMS[family](rank)
        else:
            assert len(rs.positive_roots) == EXCEPTIONAL_COUNTS[(family, rank)]
            assert dimension(rs) == EXCEPTIONAL_DIMS[(family, rank)]

    @pytest.mark.parametrize("family,rank", list(all_types()))
    def test_maximal_root_dominates(self, family, rank):
        rs = build_root_system(family, rank)
        m = rs.maximal_root
        heights = [sum(r) for r in rs.positive_roots]
        assert sum(m) == max(heights)
        assert sum(1 for h in heights if h == max(heights)) == 1
        for root in rs.positive_roots:
            assert all(a >= b for a, b in zip(m, root))

    @pytest.mark.parametrize("family,rank", list(all_types()))
    def test_roots_unique_and_positive(self, family, rank):
        rs = build_root_system(family, rank)
        assert len(set(rs.positive_roots)) == len(rs.positive_roots)
        for root in rs.positive_roots:
            assert all(c >= 0 for c in root) and any(c > 0 for c in root)

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("F", 4), ("G", 2)])
    def test_enumerated_dimension_checked_against_declaration(self, monkeypatch, family, rank):
        dim, dual_coxeter = rootsys._facts(family, rank)
        monkeypatch.setattr(rootsys, "_facts", lambda f, r: (dim + 1, dual_coxeter))
        build_root_system.cache_clear()
        try:
            with pytest.raises(InvalidRootSystem, match=f"^{family}{rank}: dimension {dim} != {dim + 1}$"):
                build_root_system(family, rank)
        finally:
            build_root_system.cache_clear()


    def test_maximal_root_checked_against_every_root(self, monkeypatch):
        # the highest generated root, (2, 0), is not coefficient-wise at least (0, 1)
        monkeypatch.setattr(rootsys, "_generate_positive_roots", lambda cartan: [(1, 0), (0, 1), (2, 0)])
        message = "^A2: generated maximal root is not coefficient-wise >= every positive root$"
        with pytest.raises(InvalidRootSystem, match=message):
            build_root_system.__wrapped__("A", 2)


class TestCanonicalization:
    def test_low_rank_coincidences(self):
        assert canonicalize_type("B", 1) == ("A", 1)
        assert canonicalize_type("C", 1) == ("A", 1)
        assert canonicalize_type("C", 2) == ("B", 2)
        assert canonicalize_type("D", 3) == ("A", 3)
        assert build_root_system("C", 2).family == "B"

    @pytest.mark.parametrize(
        "family,rank",
        [("D", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("A", 0), ("H", 2)],
    )
    def test_invalid_types_rejected(self, family, rank):
        with pytest.raises(InvalidRootSystem):
            build_root_system(family, rank)

    def test_dual_coxeter_table(self):
        assert [dual_coxeter_number("A", l) for l in (1, 3, 7)] == [2, 4, 8]
        assert [dual_coxeter_number("B", l) for l in (2, 5)] == [3, 9]
        assert [dual_coxeter_number("C", l) for l in (3, 4)] == [4, 5]
        assert [dual_coxeter_number("D", l) for l in (4, 8)] == [6, 14]
        assert dual_coxeter_number("E", 6) == 12
        assert dual_coxeter_number("E", 7) == 18
        assert dual_coxeter_number("E", 8) == 30
        assert dual_coxeter_number("F", 4) == 9
        assert dual_coxeter_number("G", 2) == 4


def string_closure(cartan):
    """The positive roots by root strings, as the package built them before the reflection closure."""
    rank = len(cartan)
    simples = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    known = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(rank):
                pairing = sum(cartan[i][j] * beta[j] for j in range(rank))
                # beta + ai is a root iff p - <beta, ai^vee> >= 1, p the steps of the string below beta
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if down[i] < 0 or tuple(down) not in known:
                        break
                    p += 1
                if p - pairing >= 1:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in known:
                        known.add(t)
                        new.append(t)
        frontier = new
    return sorted(known, key=lambda r: (sum(r), r))


class TestDerivedData:
    @pytest.mark.parametrize("family,rank", list(all_types()))
    def test_reflection_closure_equals_root_strings(self, family, rank):
        rs = build_root_system(family, rank)
        assert list(rs.positive_roots) == string_closure(rs.cartan)

    @pytest.mark.parametrize("family,rank", list(all_types()))
    def test_parity_masks_read_each_coefficient(self, family, rank):
        rs = build_root_system(family, rank)
        assert len(rs.parity_masks) == rank
        for k, mask in enumerate(rs.parity_masks):
            assert mask < 1 << len(rs.positive_roots)
            for r, root in enumerate(rs.positive_roots):
                assert (mask >> r) & 1 == root[k] % 2

    @pytest.mark.parametrize("rank", [True, 5.0, "5", None])
    def test_non_int_rank_refused_by_name(self, rank):
        for cached in (1, 5):  # True == 1 and 5.0 == 5 must not be answered from the cache
            build_root_system("A", cached)
        with pytest.raises(InvalidRootSystem, match=f"^A rank {re.escape(repr(rank))} is not an int$"):
            build_root_system("A", rank)
        with pytest.raises(InvalidRootSystem, match="is not an int"):
            canonicalize_type("B", rank)
