"""Simple root systems A..G with the node numbering used by the case catalog.

Roots are integer coefficient vectors over the simple-root basis; the Cartan
matrix supplies all pairings, so no floating-point coordinates exist anywhere.
Each type's data is derived once (``build_root_system`` is cached): the
positive roots, and per node the bitmask of those with an odd coefficient there.

Node numbering (nonstandard for the E series; fixed by the catalog's marking
data, do not renumber):

  A_l   a1 - a2 - ... - al                       (lowest root joins a1 and al)
  B_l   a1 - a2 - ... => al        al short      (lowest root joins a2)
  C_l   a1 - a2 - ... <= al        al long       (lowest root joins a1)
  D_l   a1 - ... - a_{l-2} < (a_{l-1}, al)       (lowest root joins a2)
  E6    chain a1..a5, a6 on a3                   (lowest root joins a6)
  E7    chain a1..a6, a7 on a4                   (lowest root joins a6)
  E8    chain a1..a7, a8 on a5                   (lowest root joins a1)
  F4    a1 - a2 => a3 - a4         a3, a4 short  (lowest root joins a1)
  G2    a1 <= a2                   a1 short

In the C family the node index i counts from the end carrying the lowest
root, so marking a_i fixes sp(i) + sp(l-i); this mapping is pinned by the
symplectic-family dimension tests (Sp(3)/Sp(1)^3 with blocks (4, 4, 4),
Sp(4)/Sp(1)Sp(1)Sp(2) with blocks (8, 4, 8)).

Each simple type's facts are declared here once: dim g and the dual Coxeter
number (closed forms for A..D, one table for E, F, G) and the map of
low-rank coincidences. Construction canonicalizes the coincidences, rejects
D1, D2 and rank-0 types as non-simple, and checks every enumerated
dimension against the declared one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidRootSystem, require_int

# (dim g, h^vee) of the classical types. The dimensions hold at every rank
# >= 0, including the non-simple D1 = T and D2 = A1 x A1; h^vee holds only
# for canonical types, so it is read after canonicalization.
_CLASSICAL = {
    "A": lambda l: (l * (l + 2), l + 1),
    "B": lambda l: (l * (2 * l + 1), 2 * l - 1),
    "C": lambda l: (l * (2 * l + 1), l + 1),
    "D": lambda l: (l * (2 * l - 1), 2 * l - 2),
}

# (dim g, h^vee) of the exceptional types
_EXCEPTIONAL = {("E", 6): (78, 12), ("E", 7): (133, 18), ("E", 8): (248, 30), ("F", 4): (52, 9), ("G", 2): (14, 4)}

LOW_RANK_COINCIDENCES = {("B", 1): ("A", 1), ("C", 1): ("A", 1), ("C", 2): ("B", 2), ("D", 3): ("A", 3)}

FAMILIES = (*_CLASSICAL, *dict.fromkeys(fam for fam, _ in _EXCEPTIONAL))


def _facts(family: str, rank: int) -> tuple[int, int]:
    return _CLASSICAL[family](rank) if family in _CLASSICAL else _EXCEPTIONAL[family, rank]


def type_dimension(family: str, rank: int) -> int:
    """dim g of the type as declared; any rank >= 0 for A..D, the tabled ranks for E, F, G."""
    return _facts(family, rank)[0]


def canonicalize_type(family: str, rank: int) -> tuple[str, int]:
    """Map a (family, rank) pair to its canonical simple type, or raise."""
    if family not in FAMILIES:
        raise InvalidRootSystem(f"unknown family {family!r}; expected one of {FAMILIES}")
    require_int(rank, f"{family} rank", InvalidRootSystem)
    if rank < 1:
        raise InvalidRootSystem(f"{family}{rank}: rank must be >= 1")
    if (family, rank) == ("D", 1):
        raise InvalidRootSystem("D1 is a torus, not a simple type")
    if (family, rank) == ("D", 2):
        raise InvalidRootSystem("D2 = A1 x A1 is not simple")
    if family in _CLASSICAL:
        return LOW_RANK_COINCIDENCES.get((family, rank), (family, rank))
    if (family, rank) not in _EXCEPTIONAL:
        ranks = [str(r) for fam, r in _EXCEPTIONAL if fam == family]
        need = f"{', '.join(ranks[:-1])} or {ranks[-1]}" if len(ranks) > 1 else ranks[0]
        raise InvalidRootSystem(f"{family}{rank}: rank must be {need}")
    return family, rank


def _edges(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Diagram edges (i, j, cij, cji) with c[i][j] = 2(ai,aj)/(ai,ai), 0-based nodes."""
    chain = [(k, k + 1, -1, -1) for k in range(rank - 1)]
    if family in ("A",):
        return chain
    if family == "B":
        chain[-1] = (rank - 2, rank - 1, -1, -2)
        return chain
    if family == "C":
        chain[-1] = (rank - 2, rank - 1, -2, -1)
        return chain
    if family == "D":
        chain = [(k, k + 1, -1, -1) for k in range(rank - 2)]
        chain.append((rank - 3, rank - 1, -1, -1))
        return chain
    if family == "E":
        branch = {6: 2, 7: 3, 8: 4}[rank]
        chain = [(k, k + 1, -1, -1) for k in range(rank - 2)]
        chain.append((branch, rank - 1, -1, -1))
        return chain
    if family == "F":
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    return [(0, 1, -3, -1)]  # G2, a1 short


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, cij, cji in _edges(family, rank):
        m[i][j] = cij
        m[j][i] = cji
    return tuple(tuple(row) for row in m)


def _generate_positive_roots(cartan: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """The positive roots, sorted by (height, coefficients): the simple roots closed under raising reflections.

    With p_i = <beta, a_i^vee> = sum_j cartan[i][j] beta_j, s_i(beta) = beta - p_i a_i is positive for
    positive beta != a_i (Humphreys, Introduction to Lie Algebras and Representation Theory, 10.2 Lemma B),
    and higher exactly when p_i < 0; every positive root is reached so (the height induction of 10.3).
    Each root carries p, and a step adds -p_i times column i of the Cartan matrix to it.
    """
    rank = len(cartan)
    columns = [tuple(row[i] for row in cartan) for i in range(rank)]
    pairings = {tuple(int(k == i) for k in range(rank)): columns[i] for i in range(rank)}
    frontier = list(pairings.items())
    while frontier:
        beta, p = frontier.pop()
        for i, p_i in enumerate(p):
            if p_i < 0:
                up = beta[:i] + (beta[i] - p_i,) + beta[i + 1 :]
                if up not in pairings:
                    pairings[up] = q = tuple(pk - p_i * ck for pk, ck in zip(p, columns[i]))
                    frontier.append((up, q))
    return sorted(pairings, key=lambda r: (sum(r), r))


@dataclass(frozen=True)
class RootSystem:
    """A simple root system with positive roots in the simple-root basis."""

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    maximal_root: tuple[int, ...]
    dual_coxeter: int
    # per node, bit r set when positive_roots[r] has an odd coefficient there
    parity_masks: tuple[int, ...]

    def __repr__(self) -> str:
        return f"RootSystem({self.family}{self.rank}, {len(self.positive_roots)} positive roots)"


def dual_coxeter_number(family: str, rank: int) -> int:
    """Dual Coxeter number of the canonical simple type."""
    return _facts(*canonicalize_type(family, rank))[1]


@lru_cache(maxsize=None, typed=True)  # typed: a bool or float rank is refused, not a cache hit
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the root system, canonicalizing low-rank coincidences first."""
    family, rank = canonicalize_type(family, rank)
    dim, dual_coxeter = _facts(family, rank)
    cartan = _cartan_matrix(family, rank)
    roots = _generate_positive_roots(cartan)
    maximal = max(roots, key=sum)
    if not all(all(m >= r for m, r in zip(maximal, root)) for root in roots):
        raise InvalidRootSystem(f"{family}{rank}: generated maximal root is not coefficient-wise >= every positive root")
    rs = RootSystem(
        family=family,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(roots),
        maximal_root=maximal,
        dual_coxeter=dual_coxeter,
        parity_masks=tuple(sum(1 << r for r, root in enumerate(roots) if root[k] & 1) for k in range(rank)),
    )
    if dimension(rs) != dim:
        raise InvalidRootSystem(f"{family}{rank}: dimension {dimension(rs)} != {dim}")
    return rs


def dimension(rs: RootSystem) -> int:
    """dim g = rank + 2 * (number of positive roots)."""
    return rs.rank + 2 * len(rs.positive_roots)
