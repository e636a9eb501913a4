"""Exact coefficient data for the Einstein system of each case.

For each space the metric equations depend only on the summand dimensions
(d1, d2, d3) and the ratios gamma_i relating the Killing form of the
effective subalgebra of k_i = h + p_i to the restriction of the ambient
Killing form. The Casimir constants are c_i = gamma_i / 2, and the single
structure constant A obeys

    2A = d_i (1 - 2 c_i)        (independent of i),

so one anchored gamma determines the other two. Anchors are either a
dual-Coxeter-number ratio for a simple subalgebra, the closed-form ratios
of the classical matrix models, or zero for abelian k_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cases import CLASSICAL_MODELS, Factor, SpaceCase
from .errors import InconsistentData, TrisymError
from .rootsys import dual_coxeter_number

Triple = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class IsotropyData:
    """Dimensions, gammas and the coefficients they determine for one case.

    casimirs c_i = gamma_i / 2, A = d_i (1 - gamma_i) / 2 and
    a_i = (1 - gamma_i) / 2 = A / d_i are derived once from (dims, gammas).
    """

    dims: tuple[int, int, int]
    gammas: Triple
    casimirs: Triple = field(init=False)
    A: Fraction = field(init=False)
    a: Triple = field(init=False)

    def __post_init__(self):
        a = tuple((1 - g) / 2 for g in self.gammas)
        A = self.dims[0] * a[0]
        if any(d * v != A for d, v in zip(self.dims[1:], a[1:])):
            raise InconsistentData(f"gammas {self.gammas} inconsistent with dims {self.dims}")
        for i, g in enumerate(self.gammas):
            if not (0 <= g < 1):
                raise InconsistentData(f"gamma_{i + 1} = {g} outside [0, 1)")
        object.__setattr__(self, "casimirs", tuple(g / 2 for g in self.gammas))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "a", a)

    @property
    def boundary(self) -> bool:
        """True when some a_i = 1/2 (equivalently gamma_i = 0)."""
        return any(v == Fraction(1, 2) for v in self.a)


def gamma_from_killing_ratio(sub: Factor, ambient: Factor, embedding_index: int = 1) -> Fraction:
    """Killing-form ratio h^vee(sub) / (index * h^vee(ambient)) for simple types."""
    for fam, rank in (sub, ambient):
        if fam == "T" or rank == 0:
            raise TrisymError(f"{fam}{rank} is not simple; derive this gamma from the others")
    if embedding_index < 1:
        raise ValueError("embedding index must be a positive integer")
    return Fraction(dual_coxeter_number(*sub), embedding_index * dual_coxeter_number(*ambient))


def derive_gammas(dims: tuple[int, int, int], anchor_index: int, anchor_gamma: Fraction) -> IsotropyData:
    """Full coefficient set from one anchored gamma via 2A = d_i(1 - 2c_i).

    Rejects anchors or derived values outside (0, 1).
    """
    if anchor_index not in (1, 2, 3):
        raise ValueError("anchor_index must be 1, 2 or 3")
    anchor_gamma = Fraction(anchor_gamma)
    if not 0 < anchor_gamma < 1:
        raise InconsistentData(f"anchor gamma {anchor_gamma} outside the admissible range")
    if min(dims) <= 0:
        raise ValueError("dims must be positive")
    A = dims[anchor_index - 1] * (1 - anchor_gamma) / 2
    gammas = tuple(anchor_gamma if i == anchor_index - 1 else 1 - 2 * A / d for i, d in enumerate(dims))
    for i, g in enumerate(gammas):
        if not 0 < g < 1:
            raise InconsistentData(f"derived gamma_{i + 1} = {g} outside range (wrong anchor or dims?)")
    return IsotropyData(tuple(dims), gammas)


def sizes_gammas(kind: str, sizes: tuple[int, int, int]) -> Triple:
    """Killing ratios of the classical models G(s1+s2+s3)/G(s1)xG(s2)xG(s3).

    gamma_i = g(s_j + s_k) / g(s1+s2+s3) with g(s) = s + shift, the shift of
    ``CLASSICAL_MODELS`` (s, s+1, s-2 for the unitary, symplectic and
    orthogonal families), that is gamma_i = (n - s_i) / n for
    n = s1 + s2 + s3 + shift. The orthogonal form is the standard trace-form
    ratio and stays valid for s_j + s_k as small as 2 (where it degenerates
    to zero for a torus).
    """
    n = sum(sizes) + CLASSICAL_MODELS[kind][1]
    return tuple(Fraction(n - s, n) for s in sizes)


def coefficients_for_case(case: SpaceCase) -> IsotropyData:
    """IsotropyData for a catalog entry: from its anchored gamma, else its sizes model, else abelian."""
    dims = case.dims[1:]
    if case.anchor_gamma is not None:
        return derive_gammas(dims, case.anchor_block, case.anchor_gamma)
    if case.sizes is not None:
        return IsotropyData(dims, sizes_gammas(*case.sizes))
    return IsotropyData(dims, (Fraction(0), Fraction(0), Fraction(0)))
