"""Catalog of the classified spaces with three isotropy summands.

Each catalog entry records one homogeneous space G/H, where G is compact
simple and the isotropy complement splits into three summands p1, p2, p3
cut out by a commuting pair of order-2 automorphisms (theta, tau).

Eigenspace convention, fixed once and validated by the dimension tests:

    h  = (theta=+, tau=+)     p1 = (theta=+, tau=-)
    p2 = (theta=-, tau=+)     p3 = (theta=-, tau=-)

For pairs where both automorphisms are inner (given by diagram-node
markings), the summand dimensions are computed from root parities: a root
a = sum n_k a_k contributes its two real root dimensions to the block
selected by (e_H(a), e_H1(a)) = (sum of n_k over theta-marks mod 2, same
for tau-marks), read as XORs of the root system's per-node parity
bitmasks. For pairs with an outer ingredient, dimensions come from
the curated types of the fixed subalgebras k_i = h + p_i, as
d_i = dim k_i - dim h. The identity dim h + d1 + d2 + d3 = dim g is
enforced either way; for inner pairs, so is dim k_i = dim h + d_i for the
recorded subalgebra types.

Families with a classical matrix model additionally carry a "sizes" triple
(s1, s2, s3): the space is G(s1+s2+s3)/G(s1)xG(s2)xG(s3) with p_i the
tensor product of the factors j, k != i, so d_i = kappa * s_j * s_k. The
flag `isomorphic_summands` marks the degenerate shapes whose summands
coincide as h-modules; the diagonal-metric solver is not applicable there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import xor
from typing import Callable, Iterator, Optional

from .errors import IntegrityError, InvalidMarking, TrisymError, require_int
from .rootsys import LOW_RANK_COINCIDENCES, RootSystem, build_root_system, dimension, type_dimension

# A subalgebra factor: ("T", k) is a k-dimensional torus, otherwise (family, rank).
Factor = tuple[str, int]

# kind -> (kappa, shift) of each classical model: d_i = kappa s_j s_k, and shift enters coeffs.sizes_gammas
CLASSICAL_MODELS = {"su": (2, 0), "sp": (4, 1), "so": (1, -2)}


def factor_dim(f: Factor) -> int:
    fam, r = f
    return r if fam == "T" else type_dimension(fam, r)


def factor_name(f: Factor) -> str:
    fam, r = f
    if fam == "T":
        return "T" if r == 1 else f"T^{r}"
    if f == ("D", 1):
        return "T"
    if f == ("D", 2):
        return "A1xA1"
    fam, r = LOW_RANK_COINCIDENCES.get(f, f)
    return f"{fam}{r}"


def factors_dim(factors: tuple[Factor, ...]) -> int:
    return sum(factor_dim(f) for f in factors)


def factors_name(factors: tuple[Factor, ...]) -> str:
    names = [factor_name(f) for f in factors if factor_dim(f) > 0]
    return "x".join(names) if names else "e"


@dataclass(frozen=True)
class InvolutionMarking:
    """Diagram-node data determining an involution pair.

    Marks are 1-based node indices of the ambient diagram; `outer` is a
    descriptor string when the second involution has a diagram-automorphism
    component (such pairs carry no usable parity data here).
    """

    h_marks: frozenset[int]
    h1_marks: frozenset[int]
    outer: Optional[str] = None

    @classmethod
    def inner(cls, h_marks, h1_marks) -> "InvolutionMarking":
        return cls(frozenset(h_marks), frozenset(h1_marks))


def inner_decomposition_dims(rs: RootSystem, marking: InvolutionMarking) -> tuple[int, int, int, int]:
    """(dim h, d1, d2, d3) from root parities of an inner involution pair.

    theta's odd roots are the XOR of ``rs.parity_masks`` over ``h_marks``, tau's over ``h1_marks``;
    each root adds 2 to its block, and h is the rest of g.
    """
    if marking.outer is not None:
        raise InvalidMarking("marking has an outer component; parity rule does not apply")
    if not marking.h_marks or not marking.h1_marks:
        raise InvalidMarking("both mark sets must be nonempty")
    bad = (marking.h_marks | marking.h1_marks) - set(range(1, rs.rank + 1))
    if bad:
        raise InvalidMarking(f"marks {sorted(bad)} outside diagram nodes 1..{rs.rank}")
    theta, tau = (reduce(xor, (rs.parity_masks[k - 1] for k in marks)) for marks in (marking.h_marks, marking.h1_marks))
    d1, d2, d3 = (2 * m.bit_count() for m in (tau & ~theta, theta & ~tau, theta & tau))
    return dimension(rs) - d1 - d2 - d3, d1, d2, d3


@dataclass(frozen=True)
class SpaceCase:
    """One catalog entry: a classified space with its construction metadata."""

    inp_tag: str
    type_label: str
    family: str
    rank: int
    params: tuple[tuple[str, int], ...]
    isotropy_factors: tuple[Factor, ...]
    fixed_subalgebra_types: tuple[tuple[Factor, ...], tuple[Factor, ...], tuple[Factor, ...]]
    marking: InvolutionMarking
    # coefficient data is anchored by anchor_gamma when set, else by sizes
    # when set, else abelian (see coeffs.coefficients_for_case)
    sizes: Optional[tuple[str, tuple[int, int, int]]] = None
    anchor_block: int = 0
    anchor_gamma: Optional[Fraction] = None
    isomorphic_summands: bool = False
    # (dim h, d1, d2, d3), computed once by the case_dims integrity gate
    dims: tuple[int, int, int, int] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dims", case_dims(self))

    @property
    def isotropy_type(self) -> str:
        return factors_name(self.isotropy_factors)

    @property
    def is_inner(self) -> bool:
        return self.marking.outer is None

    def describe(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.type_label}({ps})" if ps else self.type_label

    def __repr__(self) -> str:
        return f"SpaceCase({self.describe()})"


def ambient_dim(case: SpaceCase) -> int:
    return factor_dim((case.family, case.rank))


def isotropy_dim(case: SpaceCase) -> int:
    return factors_dim(case.isotropy_factors)


def case_dims(case: SpaceCase) -> tuple[int, int, int, int]:
    """(dim h, d1, d2, d3); parity-derived when inner, metadata-derived otherwise.

    Fails loudly when the bookkeeping identities do not close.
    """
    dim_g = ambient_dim(case)
    dim_h = isotropy_dim(case)
    ks = [factors_dim(kt) for kt in case.fixed_subalgebra_types]
    if case.is_inner:
        rs = build_root_system(case.family, case.rank)
        h_from_roots, d1, d2, d3 = inner_decomposition_dims(rs, case.marking)
        if h_from_roots != dim_h:
            raise IntegrityError(
                f"{case.describe()}: isotropy metadata dim {dim_h} != parity dim {h_from_roots}"
            )
    else:
        d1, d2, d3 = (k - dim_h for k in ks)
    if dim_h + d1 + d2 + d3 != dim_g:
        raise IntegrityError(
            f"{case.describe()}: dim h + sum(d) = {dim_h + d1 + d2 + d3} != dim g = {dim_g}"
        )
    if min(d1, d2, d3) <= 0:
        raise IntegrityError(f"{case.describe()}: nonpositive summand dimension {(d1, d2, d3)}")
    if case.is_inner:  # outer entries define d_i by dim k_i - dim h
        for idx, (k, d) in enumerate(zip(ks, (d1, d2, d3)), 1):
            if k != dim_h + d:
                raise IntegrityError(f"{case.describe()}: dim k{idx} = {k} != dim h + d{idx} = {dim_h + d}")
    if case.sizes is not None:
        kind, (s1, s2, s3) = case.sizes
        kappa = CLASSICAL_MODELS[kind][0]
        expect = (kappa * s2 * s3, kappa * s1 * s3, kappa * s1 * s2)
        if (d1, d2, d3) != expect:
            raise IntegrityError(f"{case.describe()}: sizes model dims {expect} != {(d1, d2, d3)}")
    return dim_h, d1, d2, d3


# ---------------------------------------------------------------------------
# The families. Each is declared once, next to the function that builds its
# entries: the declaration both validates parameters and enumerates them.
# ---------------------------------------------------------------------------

# inclusive (lo, hi) bounds of a parameter, given the parameters before it
Bounds = Callable[..., tuple[int, int]]


@dataclass(frozen=True)
class Family:
    """One catalog family: label, InP tag, ambient type and parameter range.

    The parameters are l (the ambient rank), then i with bounds in l, then j
    with bounds in (l, i). l runs from l[0] in steps of `l_step` up to l[1]
    (unbounded when None). A family without parameters has the fixed ambient
    rank `rank`. `build` maps the parameters to the remaining entry fields.
    """

    label: str
    tag: str
    group: str
    build: Callable[..., dict]
    l: Optional[tuple[int, Optional[int]]] = None
    l_step: int = 1
    i: Optional[Bounds] = None
    j: Optional[Bounds] = None
    rank: Optional[int] = None

    @property
    def names(self) -> tuple[str, ...]:
        if self.l is None:
            return ()
        return ("l", "i", "j")[: 1 + (self.i is not None) + (self.j is not None)]

    def bounds(self, name: str, p: dict[str, int]) -> tuple[int, Optional[int]]:
        """Bounds of parameter `name`, given the earlier parameters in `p`."""
        if name == "l":
            return self.l
        return self.i(p["l"]) if name == "i" else self.j(p["l"], p["i"])

    def _validate(self, name: str, p: dict[str, int]) -> None:
        lo, hi = self.bounds(name, p)
        v = p[name]
        if lo <= v and (hi is None or v <= hi) and (name != "l" or (v - lo) % self.l_step == 0):
            return
        if hi is not None:
            need = f"{lo} <= {name} <= {hi}"
        elif self.l_step > 1:
            need = f"{name} in {lo}, {lo + self.l_step}, {lo + 2 * self.l_step}, ..."
        else:
            need = f"{name} >= {lo}"
        at = ", ".join(f"{k}={p[k]}" for k in self.names[: self.names.index(name)])
        raise TrisymError(
            f"{self.label}: parameter out of range ({name}={v}; need {need}{' at ' + at if at else ''})"
        )

    def case(self, given: dict[str, int]) -> SpaceCase:
        """The entry for the given parameters, validated against the range."""
        missing = [n for n in self.names if n not in given]
        extra = [n for n in given if n not in self.names]
        if missing:
            raise TrisymError(f"{self.label}: missing parameter(s) {missing}")
        if extra:
            raise TrisymError(f"{self.label}: unexpected parameter(s) {extra}")
        p = {n: given[n] for n in self.names}
        for name in self.names:
            self._validate(name, p)
        return SpaceCase(
            inp_tag=self.tag,
            type_label=self.label,
            family=self.group,
            rank=self.rank if self.l is None else p["l"],
            params=tuple(p.items()),
            **self.build(**p),
        )

    def points(self, max_rank: int, p: Optional[dict[str, int]] = None) -> Iterator[dict[str, int]]:
        """Every admissible parameter set with ambient rank <= max_rank, in ascending order."""
        p = p or {}
        if len(p) == len(self.names):
            if self.l is not None or self.rank <= max_rank:
                yield p
            return
        name = self.names[len(p)]
        lo, hi = self.bounds(name, p)
        if name == "l":
            hi = max_rank if hi is None else min(hi, max_rank)
        for v in range(lo, hi + 1, self.l_step if name == "l" else 1):
            yield from self.points(max_rank, {**p, name: v})


# every family by type label, in catalog order
FAMILIES: dict[str, Family] = {}


def _family(label: str, tag: str, group: str, **ranges):
    """Declare a family whose entries the decorated function builds."""

    def register(build):
        FAMILIES[label] = Family(label, tag, group, build, **ranges)
        return build

    return register


def _torus(k: int) -> Factor:
    return ("T", k)


@_family("A-I", "InP1", "A", l=(1, 1))
def _a_i(l):
    return dict(
        isotropy_factors=(),
        fixed_subalgebra_types=((_torus(1),), (_torus(1),), (_torus(1),)),
        marking=InvolutionMarking(frozenset({1}), frozenset(), outer="center-negation"),
    )


@_family("A-II", "InP2", "A", l=(3, None), l_step=2)
def _a_ii(l):
    k = (l + 1) // 2
    return dict(
        isotropy_factors=(_torus(1), ("A", k - 1)),
        fixed_subalgebra_types=(
            (("A", k - 1), ("A", k - 1), _torus(1)),
            (("C", k),),
            (("D", k),),
        ),
        marking=InvolutionMarking(frozenset({k}), frozenset(), outer="diagram-flip"),
        anchor_block=2,
        anchor_gamma=Fraction(k + 1, 2 * k),
    )


@_family("A-III", "InP3", "A", l=(2, None), i=lambda l: (1, (l + 1) // 3), j=lambda l, i: (2 * i, (l + i + 1) // 2))
def _a_iii(l, i, j):
    n1, n2, n3 = i, j - i, l + 1 - j
    return dict(
        isotropy_factors=(_torus(2), ("A", i - 1), ("A", j - i - 1), ("A", l - j)),
        fixed_subalgebra_types=(
            (_torus(1), ("A", i - 1), ("A", l - i)),
            (_torus(1), ("A", j - 1), ("A", l - j)),
            (_torus(1), ("A", n1 + n3 - 1), ("A", n2 - 1)),
        ),
        marking=InvolutionMarking.inner({i}, {j}),
        sizes=("su", (n1, n3, n2)),
    )


@_family("B-I", "InP4", "B", l=(3, None), i=lambda l: (3, l), j=lambda l, i: ((i + 1) // 2, i - 1))
def _b_i(l, i, j):
    return dict(
        isotropy_factors=(("B", l - i), ("D", j), ("D", i - j)),
        fixed_subalgebra_types=(
            (("D", i), ("B", l - i)),
            (("D", j), ("B", l - j)),
            (("D", i - j), ("B", l - i + j)),
        ),
        marking=InvolutionMarking.inner({i}, {j}),
        sizes=("so", (2 * (l - i) + 1, 2 * j, 2 * (i - j))),
    )


@_family("B-II", "InP5", "B", l=(2, None), i=lambda l: ((l + 2) // 2, l))
def _b_ii(l, i):
    return dict(
        isotropy_factors=(("B", i - 1), ("B", l - i)),
        fixed_subalgebra_types=(
            (("D", i), ("B", l - i)),
            (("D", l),),
            (("B", i - 1), ("D", l - i + 1)),
        ),
        marking=InvolutionMarking(frozenset({i}), frozenset(), outer="extended-node-swap"),
        sizes=("so", (2 * (l - i) + 1, 1, 2 * i - 1)),
        isomorphic_summands=(i == l),
    )


@_family(
    "B-III", "InP6", "B",
    l=(3, None), i=lambda l: ((2 * l + 3) // 3, l), j=lambda l, i: ((i + 2) // 2, min(2 * i - l, i - 1)),
)
def _b_iii(l, i, j):
    return dict(
        isotropy_factors=(("B", j - 1), ("B", i - j), ("B", l - i)),
        fixed_subalgebra_types=(
            (("D", i), ("B", l - i)),
            (("B", j - 1), ("D", l - j + 1)),
            (("B", i - j), ("D", l - i + j)),
        ),
        marking=InvolutionMarking(frozenset({i}), frozenset({j}), outer="extended-node-swap"),
        sizes=("so", (2 * (l - i) + 1, 2 * j - 1, 2 * (i - j) + 1)),
    )


@_family("C-I", "InP7", "C", l=(3, None), i=lambda l: (1, l // 3), j=lambda l, i: (2 * i, (l + i) // 2))
def _c_i(l, i, j):
    return dict(
        isotropy_factors=(("C", i), ("C", j - i), ("C", l - j)),
        fixed_subalgebra_types=(
            (("C", i), ("C", l - i)),
            (("C", j), ("C", l - j)),
            (("C", j - i), ("C", l - j + i)),
        ),
        marking=InvolutionMarking.inner({i}, {j}),
        sizes=("sp", (i, l - j, j - i)),
    )


@_family("D-I", "InP8", "D", l=(4, None), i=lambda l: (1, l // 3), j=lambda l, i: (2 * i, (l + i) // 2))
def _d_i(l, i, j):
    return dict(
        isotropy_factors=(("D", i), ("D", j - i), ("D", l - j)),
        fixed_subalgebra_types=(
            (("D", i), ("D", l - i)),
            (("D", j), ("D", l - j)),
            (("D", j - i), ("D", l - j + i)),
        ),
        marking=InvolutionMarking.inner({i}, {j}),
        sizes=("so", (2 * i, 2 * (l - j), 2 * (j - i))),
    )


@_family("D-II", "InP9", "D", l=(4, None), i=lambda l: (1, l - 2))
def _d_ii(l, i):
    return dict(
        isotropy_factors=(("B", i - 1), ("D", l - i)),
        fixed_subalgebra_types=(
            (("D", i), ("D", l - i)),
            (("B", l - 1),),
            (("B", i - 1), ("B", l - i)),
        ),
        marking=InvolutionMarking(frozenset({i}), frozenset(), outer="fork-swap"),
        sizes=("so", (2 * (l - i), 1, 2 * i - 1)),
        isomorphic_summands=(i == 1),
    )


@_family("D-III", "InP10", "D", l=(4, None), i=lambda l: (1, l - 3), j=lambda l, i: (i + 1, (l + i - 1) // 2))
def _d_iii(l, i, j):
    return dict(
        isotropy_factors=(("D", i), ("B", j - i), ("B", l - j - 1)),
        fixed_subalgebra_types=(
            (("D", i), ("D", l - i)),
            (("B", j), ("B", l - j - 1)),
            (("B", j - i), ("B", i + l - j - 1)),
        ),
        marking=InvolutionMarking(frozenset({i}), frozenset({j}), outer="fork-swap"),
        sizes=("so", (2 * i, 2 * (l - j) - 1, 2 * (j - i) + 1)),
    )


@_family("D-IV", "InP11", "D", l=(4, None))
def _d_iv(l):
    return dict(
        isotropy_factors=(("D", l - 1),),
        fixed_subalgebra_types=(
            (_torus(1), ("D", l - 1)),
            (("B", l - 1),),
            (("B", l - 1),),
        ),
        marking=InvolutionMarking(frozenset({1}), frozenset(), outer="center-negation"),
        sizes=("so", (2 * (l - 1), 1, 1)),
        isomorphic_summands=True,
    )


@_family("D-V", "InP12", "D", l=(4, None))
def _d_v(l):
    return dict(
        isotropy_factors=(_torus(2), ("A", l - 2)),
        fixed_subalgebra_types=(
            (_torus(1), ("D", l - 1)),
            (_torus(1), ("A", l - 1)),
            (_torus(1), ("A", l - 1)),
        ),
        marking=InvolutionMarking.inner({1}, {l}),
        anchor_block=1,
        anchor_gamma=Fraction(2 * l - 4, 2 * l - 2),
    )


def _exceptional(label, tag, group, rank, iso, ks, marking, anchor_block, anchor_gamma):
    """Declare a parameterless family with fixed ambient rank and one anchored gamma."""
    _family(label, tag, group, rank=rank)(
        lambda: dict(
            isotropy_factors=iso,
            fixed_subalgebra_types=ks,
            marking=marking,
            anchor_block=anchor_block,
            anchor_gamma=anchor_gamma,
        )
    )


_exceptional(
    "E6-I", "InP13", "E", 6, (_torus(2), ("D", 4)),
    ((_torus(1), ("D", 5)), (_torus(1), ("D", 5)), (_torus(1), ("D", 5))),
    InvolutionMarking.inner({1}, {5}), 1, Fraction(2, 3),
)
_exceptional(
    "E6-II", "InP14", "E", 6, (_torus(1), ("A", 1), ("A", 1), ("A", 3)),
    ((("A", 1), ("A", 5)), (("A", 1), ("A", 5)), (_torus(1), ("D", 5))),
    InvolutionMarking.inner({6}, {2}), 1, Fraction(1, 2),
)
_exceptional(
    "E6-III", "InP15", "E", 6, (("A", 1), ("C", 3)),
    ((("A", 1), ("A", 5)), (("F", 4),), (("C", 4),)),
    InvolutionMarking(frozenset({6}), frozenset(), outer="diagram-flip"), 1, Fraction(1, 2),
)
_exceptional(
    "E7-I", "InP16", "E", 7, (("A", 1), ("A", 1), ("A", 1), ("D", 4)),
    ((("A", 1), ("D", 6)), (("A", 1), ("D", 6)), (("A", 1), ("D", 6))),
    InvolutionMarking.inner({6}, {2}), 1, Fraction(5, 9),
)
_exceptional(
    "E7-II", "InP17", "E", 7, (_torus(1), ("A", 1), ("A", 5)),
    ((("A", 7),), (("A", 1), ("D", 6)), (_torus(1), ("E", 6))),
    InvolutionMarking.inner({7}, {2}), 2, Fraction(5, 9),
)
_exceptional(
    "E7-III", "InP18", "E", 7, (("D", 4),),
    ((("A", 7),), (("A", 7),), (("A", 7),)),
    InvolutionMarking(frozenset({7}), frozenset({4}), outer="diagram-flip+inner"), 1, Fraction(4, 9),
)
_exceptional(
    "E8-I", "InP19", "E", 8, (("A", 1), ("A", 1), ("D", 6)),
    ((("D", 8),), (("A", 1), ("E", 7)), (("A", 1), ("E", 7))),
    InvolutionMarking.inner({7}, {1}), 2, Fraction(3, 5),
)
_exceptional(
    "E8-II", "InP20", "E", 8, (("D", 4), ("D", 4)),
    ((("D", 8),), (("D", 8),), (("D", 8),)),
    InvolutionMarking.inner({7}, {3}), 1, Fraction(7, 15),
)
_exceptional(
    "F4-I", "InP21", "F", 4, (("D", 4),),
    ((("B", 4),), (("B", 4),), (("B", 4),)),
    InvolutionMarking.inner({4}, {3}), 1, Fraction(7, 9),
)
_exceptional(
    "F4-II", "InP22", "F", 4, (("A", 1), ("A", 1), ("C", 2)),
    ((("B", 4),), (("A", 1), ("C", 3)), (("A", 1), ("C", 3))),
    InvolutionMarking.inner({4}, {1}), 1, Fraction(7, 9),
)


def _resolve(selector: str, params: dict) -> tuple[Family, dict[str, int]]:
    """The family named by a type label or InP tag, with the given parameters.

    Every given parameter must be an int. `k` is an alias for A-II's
    l = 2k - 1, and a parameter with a single admissible value (A-I's l = 1)
    may be left out.
    """
    key = selector.strip().replace("_", "-").upper()
    fam = next((f for f in FAMILIES.values() if key in (f.label.upper(), f.tag.upper())), None)
    if fam is None:
        raise TrisymError(f"unknown case selector {selector!r}")
    given = {k: require_int(v, f"{fam.label}: parameter {k} =") for k, v in params.items() if v is not None}
    if fam.label == "A-II" and "k" in given:
        l = 2 * given.pop("k") - 1
        if given.setdefault("l", l) != l:
            raise TrisymError("A-II: inconsistent l and k (need l = 2k - 1)")
    if fam.l is not None and fam.l[0] == fam.l[1]:
        given.setdefault("l", fam.l[0])
    return fam, given


def make_case(selector: str, **params: int) -> SpaceCase:
    """Construct a single catalog entry by label/tag and parameters (see `_resolve`)."""
    fam, given = _resolve(selector, params)
    return fam.case(given)


# the ambient-rank bound `find_cases` searches when none is given
SELECTOR_MAX_RANK = 12
# the ambient-rank bound of `trisym list` and `scripts/build_catalog.py` when none is given
LIST_MAX_RANK = 8


def _max_rank(value) -> int:
    """``value`` as a catalog bound on the ambient rank: an int of at least 1."""
    if require_int(value, "max_rank") < 1:
        raise TrisymError(f"max_rank must be >= 1, not {value}")
    return value


def enumerate_cases(max_rank: int) -> list[SpaceCase]:
    """Every catalog entry with ambient rank <= max_rank, each exactly once."""
    max_rank = _max_rank(max_rank)
    return [fam.case(p) for fam in FAMILIES.values() for p in fam.points(max_rank)]


def find_cases(selector: str, max_rank: int = SELECTOR_MAX_RANK, **params: int) -> list[SpaceCase]:
    """Catalog entries matching a label/tag, filtered by any given parameters."""
    max_rank = _max_rank(max_rank)
    fam, given = _resolve(selector, params)
    if all(n in given for n in fam.names):
        return [fam.case(given)]
    return [fam.case(p) for p in fam.points(max_rank) if all(p.get(k) == v for k, v in given.items())]
