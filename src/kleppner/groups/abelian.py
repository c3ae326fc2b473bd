"""Free abelian groups Z^n and their sublattices; elements are int tuples."""

from __future__ import annotations

import random
import re

from .. import tribool as tb
from ..intlinalg import RowLattice, invert_unimodular, mat_mul_vec, smith_normal_form
from .base import (Element, FCInfo, Group, GroupError, LatticeEntry, LatticeResult,
                   finite_class, vector_key)
from .finite import FiniteTable
from .subgroups import INFINITE, AsGroup, Infinite, Subgroup, subgroup_kind


class FreeAbelian(Group):
    exact_kernel = "abelian"
    facts = {
        "prime": (tb.HOLDS, "free abelian groups are torsion-free"),
        "fc_hypercentral": (tb.HOLDS, "finitely generated nilpotent, hence of polynomial growth"),
        "cstar_simple": (tb.FAILS, "abelian groups are not icc"),
    }

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

    def random_element(self, rng: random.Random, size: int = 6):
        return tuple(rng.randint(-size, size) for _ in range(self.rank))

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
        n = self.rank
        if H.is_full():
            return LatticeResult("ok", (LatticeEntry("the full group", Subgroup.full(self), 1),))
        if H.is_trivial_subgroup() and n >= 2:
            return LatticeResult("unknown", (), "quotient Z^n: infinitely many intermediate "
                                                "sublattices in rank >= 2, not a recognized chain")
        basis = RowLattice(n, H.generators()).basis()
        r = len(basis)
        cols = [[basis[i][k] for i in range(r)] for k in range(n)] if r else [[0] for _ in range(n)]
        u, d, _v = smith_normal_form(cols)
        diag = [d[i][i] if i < min(len(d), r) else 0 for i in range(n)]
        uinv = invert_unimodular(u)

        if all(x != 0 for x in diag):
            # finite quotient: enumerate subgroups of prod Z_diag and lift
            coords = _mixed_radix(diag)
            index = {c: i for i, c in enumerate(coords)}
            table = [[index[tuple((a + b) % m for a, b, m in zip(x, y, diag))]
                      for y in coords] for x in coords]
            q = FiniteTable(table, [str(c) for c in coords], name="quotient")
            entries = []
            for s in q.all_subgroups():
                gens = list(basis)
                for i in sorted(s):
                    v = mat_mul_vec(uinv, coords[i])
                    if any(v):
                        gens.append(v)
                sub = Subgroup.sublattice(self, RowLattice(n, gens).basis())
                entries.append(LatticeEntry(f"index-{sub.index()} sublattice", sub, sub.index()))
            entries.sort(key=lambda e: (-e.index_in_g, e.label))
            return LatticeResult("ok", tuple(entries))

        free_positions = [i for i, x in enumerate(diag) if x == 0]
        if len(free_positions) == 1 and all(x == 1 for x in diag if x != 0):
            # quotient is a copy of Z: a chain indexed by n >= 0
            gen = mat_mul_vec(uinv, tuple(1 if i == free_positions[0] else 0 for i in range(n)))
            entries = [LatticeEntry("Gamma_0 (= H)", H, H.index()),
                       LatticeEntry("Gamma_1 (= G)", Subgroup.sublattice(self, basis + [gen]), 1)]
            for k in range(2, max_entries + 1):
                sub = Subgroup.sublattice(self, basis + [tuple(k * x for x in gen)])
                entries.append(LatticeEntry(f"Gamma_{k}", sub, sub.index()))
            return LatticeResult("truncated", tuple(entries),
                                 f"one entry for each n >= 0; truncated at n = {max_entries}")

        return LatticeResult("unknown", (),
                             "quotient mixes free and torsion parts; not a recognized chain")


@subgroup_kind
class Sublattice(Subgroup):
    columns: tuple  # generating integer vectors

    kind = "sublattice"

    def describe_desc(self) -> str:
        cols = ", ".join(str(tuple(c)) for c in self.columns)
        return f"sublattice generated by {cols}"

    def _validate(self) -> None:
        if not isinstance(self.parent, FreeAbelian):
            raise GroupError("sublattice descriptions require a free abelian parent")
        for c in self.columns:
            if len(c) != self.parent.rank:
                raise GroupError("sublattice generator has wrong length")
            if not all(isinstance(x, int) for x in c):
                raise GroupError(f"sublattice generator {tuple(c)} has a non-integer entry")

    def lattice(self) -> RowLattice:
        return RowLattice(self.parent.rank, self.columns)

    def _contains(self, x: Element) -> bool:
        return self.lattice().contains(x)

    def generators(self) -> tuple[Element, ...]:
        return tuple(tuple(r) for r in self.lattice().rows)

    def enumerate_elements(self) -> list[Element] | None:
        return None if self.lattice().rows else [self.parent.identity()]

    def index(self) -> int | Infinite:
        idx = self.lattice().index_in_ambient()
        return INFINITE if idx is None else idx

    def as_group(self) -> AsGroup:
        basis = self.lattice().basis()
        n = self.parent.rank

        def embed(c):
            return tuple(sum(ci * bi[k] for ci, bi in zip(c, basis)) for k in range(n))

        return AsGroup(FreeAbelian(len(basis)), embed)

    def is_full(self) -> bool:
        return self.lattice().index_in_ambient() == 1

    def is_trivial_subgroup(self) -> bool:
        return self.lattice().is_trivial()


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


def _mixed_radix(moduli: list[int]) -> list[tuple[int, ...]]:
    out = [()]
    for m in moduli:
        out = [c + (i,) for c in out for i in range(m)]
    return out
