"""Free abelian groups Z^n and their sublattices; elements are int tuples."""

from __future__ import annotations

import re
from itertools import product
from math import isqrt, prod

from ..intlinalg import RowLattice, echelon_contains, smith_normal_form
from .base import (Element, FCInfo, Group, GroupError, LatticeEntry, LatticeResult,
                   finite_class, vector_key)
from .subgroups import INFINITE, AsGroup, Infinite, Subgroup, subgroup_kind

# intermediate_subgroups lists the subgroups of a noncyclic finite quotient
# Z^n / H of order at most QUOTIENT_CAP; above it the answer is unknown
QUOTIENT_CAP = 64
# the divisors of a cyclic quotient's order m are found by trial division up
# to sqrt(m); above DIVISOR_SCAN_CAP ** 2 its lattice stays unknown
DIVISOR_SCAN_CAP = 10 ** 6


class FreeAbelian(Group):
    exact_kernel = "abelian"
    torsion_free = virtually_nilpotent = amenable = True

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise GroupError("rank must be >= 0")
        self.rank = rank
        self.name = f"Z^{rank}"

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def identity(self):
        return (0,) * self.rank

    def contains(self, x) -> bool:
        return (isinstance(x, tuple) and len(x) == self.rank
                and all(isinstance(c, int) for c in x))

    def commutes(self, a, b) -> bool:
        return True

    def conj(self, g, x):
        return x

    @property
    def is_abelian(self) -> bool:
        return True

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def order(self) -> int | None:
        return 1 if self.rank == 0 else None

    def elements(self):
        if self.rank == 0:
            return [()]
        raise GroupError(f"{self.name} is not enumerable")

    def generators(self):
        return tuple(tuple(1 if j == i else 0 for j in range(self.rank))
                     for i in range(self.rank))

    def element_key(self, x):
        return vector_key(x)

    def element_str(self, x) -> str:
        return "(" + ", ".join(str(c) for c in x) + ")"

    def parse_element(self, text: str):
        vec = parse_int_vector(text, self.rank)
        return vec

    def describe(self) -> str:
        return f"free abelian group Z^{self.rank}"

    def generated_subgroup(self, gens):
        return Subgroup.sublattice(self, gens)

    # -- structure queries: every class is a singleton ---------------------
    def h_conjugacy_class(self, g, H):
        return finite_class([g])

    def centralizer_generators(self, H, g):
        return H.generators()

    def centralizer_of_subgroup(self, H):
        return Subgroup.full(self)

    def fc_centralizer(self, H):
        return FCInfo(Subgroup.full(self), central=True, note="abelian group")

    def intermediate_subgroups(self, H, max_entries):
        """The K between H and Z^n, read off the Smith diagonal of H's basis.
        A cyclic quotient Z_m (Z when m = 0) has K_d = H + d*Z^n for each
        d | m, by decreasing d for m > 0, as the Gamma_d chain for m = 0;
        a noncyclic finite quotient of order at most QUOTIENT_CAP has every
        K on the box of H's pivots; any other quotient is unknown."""
        n = self.rank
        if H.is_full():
            return LatticeResult("ok", (LatticeEntry("the full group", Subgroup.full(self), 1),))
        rows = RowLattice(n, H.generators()).basis()
        _, d, _ = smith_normal_form(rows)
        diag = [d[i][i] for i in range(len(rows))]
        free, torsion = n - len(rows), sum(x > 1 for x in diag)
        if free + torsion == 1:
            m = prod(diag) if torsion else 0
            if m and isqrt(m) > DIVISOR_SCAN_CAP:
                return LatticeResult("unknown", (), f"cyclic quotient of order {m} is above "
                                                    f"the divisor scan cap {DIVISOR_SCAN_CAP ** 2}")
            entries = []
            for k in _divisors(m)[::-1] if m else range(max_entries + 1):
                K = H if k == m else Subgroup.sublattice(
                    self, rows + [tuple(k * x for x in u) for u in self.generators()])
                entries.append(LatticeEntry(f"Gamma_{k}" + {m: " (= H)", 1: " (= G)"}.get(k, ""),
                                            K, K.index()))
            if m:
                return LatticeResult("ok", tuple(entries))
            return LatticeResult("truncated", tuple(entries),
                                 f"one entry for each n >= 0; truncated at n = {max_entries}")
        if free == 0:
            order = prod(diag)
            if order > QUOTIENT_CAP:
                return LatticeResult("unknown", (), f"noncyclic finite quotient of order {order}: "
                                                    f"above the cap {QUOTIENT_CAP} on its "
                                                    f"subgroup search")
            subs = [Subgroup.sublattice(self, k) for k in _lattices_above(rows)]
            entries = [LatticeEntry(f"index-{K.index()} sublattice", K, K.index()) for K in subs]
            return LatticeResult("ok", tuple(sorted(entries, key=lambda e: -e.index_in_g)))
        return LatticeResult("unknown", (), f"quotient of free rank {free} with {torsion} "
                                            f"torsion factors: not a recognized chain")


@subgroup_kind
class Sublattice(Subgroup):
    """A sublattice of Z^n by its reduced echelon basis (``RowLattice``), so
    every spanning set of one sublattice gives one description."""

    basis: tuple

    kind = "sublattice"

    @classmethod
    def spanned_by(cls, parent: Group, vectors) -> "Sublattice":
        if not isinstance(parent, FreeAbelian):
            raise GroupError("sublattice descriptions require a free abelian parent")
        for c in vectors:
            if len(c) != parent.rank:
                raise GroupError("sublattice generator has wrong length")
            if not all(isinstance(x, int) for x in c):
                raise GroupError(f"sublattice generator {tuple(c)} has a non-integer entry")
        return cls(parent, tuple(RowLattice(parent.rank, vectors).basis()))

    def describe_desc(self) -> str:
        return "sublattice generated by " + ", ".join(map(str, self.basis))

    def _contains(self, x: Element) -> bool:
        return echelon_contains(self.basis, x)

    def generators(self) -> tuple[Element, ...]:
        return self.basis

    def enumerate_elements(self) -> list[Element] | None:
        return None if self.basis else [self.parent.identity()]

    def index(self) -> int | Infinite:
        # a full-rank reduced basis has its pivots on the diagonal
        if len(self.basis) < self.parent.rank:
            return INFINITE
        return prod(b[i] for i, b in enumerate(self.basis))

    def as_group(self) -> AsGroup:
        basis = self.basis
        n = self.parent.rank

        def embed(c):
            return tuple(sum(ci * bi[k] for ci, bi in zip(c, basis)) for k in range(n))

        return AsGroup(FreeAbelian(len(basis)), embed)

    def is_full(self) -> bool:
        return self.index() == 1

    def is_trivial_subgroup(self) -> bool:
        return not self.basis


def parse_int_vector(text: str, rank: int) -> tuple[int, ...]:
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    parts = [p for p in re.split(r"[,\s]+", t.strip()) if p]
    if not all(re.fullmatch(r"[-+]?[0-9]+", p) for p in parts):
        raise GroupError(f"cannot parse integer vector from {text!r}")
    if len(parts) != rank:
        raise GroupError(f"expected {rank} coordinates in {text!r}")
    return tuple(int(p) for p in parts)


def _divisors(m: int) -> list[int]:
    """The divisors of m > 0 in increasing order, by trial division up to sqrt(m)."""
    small = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return small + [m // k for k in reversed(small) if k * k != m]


def _lattices_above(rows: list) -> list[tuple]:
    """The reduced bases of the sublattices K of Z^n that contain the full-rank
    H of reduced basis rows.  K's row i has its pivot q | p_i on the diagonal,
    and right of it entries below the pivots of K's later rows; the bases are
    built from the last row up, and a partial basis is kept only when it holds
    H's row with the same pivot (H's later rows it already holds)."""
    found = [()]
    for i in reversed(range(len(rows))):
        found = [(row,) + below for below in found for q in _divisors(rows[i][i])
                 for tail in product(*(range(b[j]) for j, b in enumerate(below, i + 1)))
                 for row in [(0,) * i + (q,) + tail]
                 if echelon_contains((row,) + below, rows[i])]
    return found
