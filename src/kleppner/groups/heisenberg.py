"""The discrete Heisenberg group: Z^3 with a twisted third coordinate.

Product: (a1,a2,a3)(b1,b2,b3) = (a1+b1, a2+b2, a3+b3+a1*b2).
Conjugation: g x g^-1 = (x1, x2, x3 + g1*x2 - g2*x1), so the class of x under
a subgroup is controlled by the linear form (g1,g2) -> g1*x2 - g2*x1.
"""

from __future__ import annotations

import random
from math import gcd

from .. import tribool as tb
from ..intlinalg import RowLattice, integer_kernel
from .abelian import parse_int_vector
from .base import (FCInfo, Group, LatticeEntry, LatticeResult, finite_class, infinite_class,
                   vector_key)

Triple = tuple[int, int, int]


class Heisenberg(Group):
    name = "Heisenberg"
    rank = 3
    facts = {
        "prime": (tb.HOLDS, "FC-center = center = {(0,0,t)}, a copy of Z"),
        "fc_hypercentral": (tb.HOLDS, "finitely generated nilpotent, hence of polynomial growth"),
        "cstar_simple": (tb.FAILS, "amenable with nontrivial center, not icc"),
    }

    def mul(self, a: Triple, b: Triple) -> Triple:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def inv(self, a: Triple) -> Triple:
        return (-a[0], -a[1], -a[2] + a[0] * a[1])

    def identity(self) -> Triple:
        return (0, 0, 0)

    def contains(self, x) -> bool:
        return (isinstance(x, tuple) and len(x) == 3
                and all(isinstance(c, int) for c in x))

    def conj(self, g: Triple, x: Triple) -> Triple:
        return (x[0], x[1], x[2] + g[0] * x[1] - g[1] * x[0])

    def commutes(self, a: Triple, b: Triple) -> bool:
        return a[0] * b[1] == a[1] * b[0]

    @property
    def is_abelian(self) -> bool:
        return False

    def generators(self) -> tuple[Triple, ...]:
        return ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def element_key(self, x: Triple):
        return vector_key(x)

    def element_str(self, x: Triple) -> str:
        return f"({x[0]}, {x[1]}, {x[2]})"

    def parse_element(self, text: str) -> Triple:
        return parse_int_vector(text, 3)

    def random_element(self, rng: random.Random, size: int = 6) -> Triple:
        return (rng.randint(-size, size), rng.randint(-size, size), rng.randint(-size, size))

    def describe(self) -> str:
        return "discrete Heisenberg group (Z^3, twisted product)"

    def generated_subgroup(self, gens):
        # generators inside an abelian coordinate plane generate a plane lattice
        from .subgroups import HeisPlane
        for plane in (0, 1):
            if all(g[plane] == 0 for g in gens):
                i, j = (1, 2) if plane == 0 else (0, 2)
                lat = RowLattice(2, [(g[i], g[j]) for g in gens])
                return HeisPlane(self, plane, tuple(lat.basis()))
        return super().generated_subgroup(gens)

    # -- structure queries: everything goes through the commutation form ----
    def h_conjugacy_class(self, g, H, cap, depth_cap):
        # conjugation shifts only the third coordinate, by h1*g2 - h2*g1
        d = 0
        for h in H.generators():
            d = gcd(d, h[0] * g[1] - h[1] * g[0])
        if d == 0:
            return finite_class([g])
        return infinite_class(
            f"orbit is {{({g[0]}, {g[1]}, {g[2]} + {d}*t) : t in Z}}, infinite")

    def centralizer_generators(self, H, g):
        """h commutes with g iff h1*g2 = h2*g1."""
        from .subgroups import CoordinateZero, FullSubgroup, HeisCongruence, TrivialSubgroup
        if isinstance(H, TrivialSubgroup):
            return ()
        if not isinstance(H, (FullSubgroup, CoordinateZero, HeisCongruence)):
            return None
        gens = H.generators()
        # parametrize H by its generator exponents; the commutation form is
        # linear in the (h1, h2) coordinates, which add under the product
        kernel = integer_kernel([[h[0] * g[1] - h[1] * g[0] for h in gens]])
        out = []
        for vec in kernel:
            h = self.identity()
            for c, gen in zip(vec, gens):
                h = self.mul(h, self.power(gen, c))
            if h != self.identity():
                out.append(h)
        return tuple(out)

    def centralizer_of_subgroup(self, H):
        from .subgroups import Subgroup
        rows = [[h[1], -h[0]] for h in H.generators()]  # h1*x2 - h2*x1 = 0 for all gens
        kernel = integer_kernel(rows) if any(any(r) for r in rows) else [(1, 0), (0, 1)]
        lat = RowLattice(2, kernel)
        if lat.rank == 2 and lat.index_in_ambient() == 1:
            return Subgroup.full(self)
        if lat.rank == 0:
            return Subgroup.coordinate_zero(self, {0, 1})
        basis = lat.basis()
        if len(basis) == 1:
            v = basis[0]
            if v in ((1, 0), (-1, 0)):
                return Subgroup.coordinate_zero(self, {1})
            if v in ((0, 1), (0, -1)):
                return Subgroup.coordinate_zero(self, {0})
        return None  # a slanted line of centralizers: outside the catalog

    def fc_centralizer(self, H):
        # a class is a singleton or infinite, so FC_G(H) = C_G(H)
        c = self.centralizer_of_subgroup(H)
        if c is None:
            return FCInfo(None, note="centralizer outside catalog")
        central = all(self.commutes(s, t) for s in c.generators() for t in self.generators())
        return FCInfo(c, central=central, note="Heisenberg classes are singletons or infinite")

    def intermediate_subgroups(self, H, max_entries):
        from .subgroups import Subgroup
        if H != Subgroup.coordinate_zero(self, {0}):
            return super().intermediate_subgroups(H, max_entries)
        entries = [LatticeEntry("Gamma_0 (= H)", H, H.index()),
                   LatticeEntry("Gamma_1 (= G)", Subgroup.full(self), 1)]
        for n in range(2, max_entries + 1):
            sub = Subgroup.heis_congruence(self, n)
            entries.append(LatticeEntry(f"Gamma_{n}", sub, sub.index()))
        return LatticeResult("truncated", tuple(entries),
                             f"one entry for each n >= 0; truncated at n = {max_entries}")

    def centralizer_lattice(self, cent):
        if cent.is_full():
            # C_G(H) = G happens only for central H; twist characters kill the
            # commutator direction (0,0,1), so solve over the abelianized coords
            return 2, lambda v: (v[0], v[1], 0), ((0, 0, 1),)
        return super().centralizer_lattice(cent)
