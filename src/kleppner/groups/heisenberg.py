"""The discrete Heisenberg group: Z^3 with a twisted third coordinate.

Product: (a1,a2,a3)(b1,b2,b3) = (a1+b1, a2+b2, a3+b3+a1*b2).
Conjugation: g x g^-1 = (x1, x2, x3 + g1*x2 - g2*x1), so the class of x under
a subgroup is controlled by the linear form (g1,g2) -> g1*x2 - g2*x1.

Besides the full and trivial subgroups, the described subgroups are the
congruence subgroups {x : m | x1} and the lattices inside the two abelian
coordinate planes {(0, a2, a3)} and {(a1, 0, a3)}.
"""

from __future__ import annotations

import random
from math import gcd, isqrt

from ..intlinalg import RowLattice, echelon_contains, integer_kernel
from .abelian import FreeAbelian, parse_int_vector
from .base import (Element, FCInfo, Group, GroupError, LatticeEntry, LatticeResult, finite_class,
                   infinite_class, vector_key)
from .subgroups import INFINITE, AsGroup, GeneratedSubgroup, Infinite, Subgroup, subgroup_kind

Triple = tuple[int, int, int]


class Heisenberg(Group):
    name = "Heisenberg"
    rank = 3
    torsion_free = virtually_nilpotent = amenable = True

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
        for plane in (0, 1):
            if all(g[plane] == 0 for g in gens):
                rows = RowLattice(2, [(g[1 - plane], g[2]) for g in gens]).basis()
                if len(rows) == 2:  # Hermite form: one basis per lattice
                    (p, q), (_, r) = rows
                    rows = [(p, q % r), (0, r)]
                return HeisPlane(self, plane, tuple(rows))
        return super().generated_subgroup(gens)

    # -- structure queries: everything goes through the commutation form ----
    def h_conjugacy_class(self, g, H):
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
        if isinstance(H, GeneratedSubgroup):
            # the ordered products of its generators need not reach every element
            return None
        gens = H.generators()
        if not gens:
            return ()
        # every element of H is an ordered product of powers of its generators,
        # so parametrize H by the exponents; the commutation form is linear in
        # the (h1, h2) coordinates, which add under the product
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
        rows = [[h[1], -h[0]] for h in H.generators()]  # h1*x2 - h2*x1 = 0 for all gens
        kernel = integer_kernel(rows) if any(any(r) for r in rows) else [(1, 0), (0, 1)]
        lat = RowLattice(2, kernel)
        if lat.rank == 2 and lat.index_in_ambient() == 1:
            return Subgroup.full(self)
        # the center and the kernel directions generate C_G(H); off the
        # coordinate planes it is a slanted line of centralizers, outside the catalog
        cent = self.generated_subgroup(tuple((v[0], v[1], 0) for v in lat.basis())
                                       + ((0, 0, 1),))
        return cent if isinstance(cent, HeisPlane) else None

    def fc_centralizer(self, H):
        # a class is a singleton or infinite, so FC_G(H) = C_G(H)
        c = self.centralizer_of_subgroup(H)
        if c is None:
            return FCInfo(None, note="centralizer outside catalog")
        central = all(self.commutes(s, t) for s in c.generators() for t in self.generators())
        return FCInfo(c, central=central, note="Heisenberg classes are singletons or infinite")

    def intermediate_subgroups(self, H, max_entries):
        if isinstance(H, HeisCongruence):
            return _congruence_lattice(self, H.modulus, max_entries)
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


# the divisors of a congruence modulus n are found by trial division up to
# sqrt(n); above DIVISOR_SCAN_CAP ** 2 its lattice stays unknown
DIVISOR_SCAN_CAP = 10 ** 6


def _congruence_lattice(G: Heisenberg, n: int, max_entries: int) -> LatticeResult:
    """The subgroups between {n | a1} and G.  That H is normal with quotient
    Z_n through a1 mod n, so they are the {d | a1} for d dividing n, of index
    d; listed by decreasing index, H first and G last."""
    root = isqrt(n)
    if root > DIVISOR_SCAN_CAP:
        return LatticeResult("unknown", (), f"modulus {n} is above the divisor scan cap "
                                            f"{DIVISOR_SCAN_CAP ** 2}")
    small = [m for m in range(1, root + 1) if n % m == 0]
    divisors = [n // m for m in small] + [m for m in reversed(small) if m * m != n]
    entries = tuple(LatticeEntry(f"Gamma_{d}" + {n: " (= H)", 1: " (= G)"}.get(d, ""),
                                 Subgroup.heis_congruence(G, d) if d > 1 else Subgroup.full(G), d)
                    for d in divisors[:max_entries])
    if len(divisors) <= max_entries:
        return LatticeResult("ok", entries)
    return LatticeResult("truncated", entries, f"one entry for each of the {len(divisors)} "
                                               f"divisors of {n}; truncated at {max_entries}")


@subgroup_kind
class HeisCongruence(Subgroup):
    modulus: int  # elements with first coordinate divisible by modulus (>= 2)

    kind = "first-coordinate-multiple"

    def describe_desc(self) -> str:
        return f"{{(a1, a2, a3) : {self.modulus} | a1}}"

    def _validate(self) -> None:
        if not isinstance(self.parent, Heisenberg) or self.modulus < 2:
            raise GroupError("congruence description needs Heisenberg parent and modulus >= 2")

    def _contains(self, x: Element) -> bool:
        return x[0] % self.modulus == 0

    def generators(self) -> tuple[Element, ...]:
        return ((self.modulus, 0, 0), (0, 1, 0), (0, 0, 1))

    def index(self) -> int:
        return self.modulus


@subgroup_kind
class HeisPlane(Subgroup):
    """A nonzero lattice in one of the abelian coordinate planes of the
    Heisenberg group: plane 0 is {(0, a2, a3)}, plane 1 is {(a1, 0, a3)}.
    The coordinate subgroups, such as {(0, a2, a3)} or the center
    {(0, 0, a3)}, are the lattices spanned by coordinate unit vectors."""

    plane: int
    rows: tuple  # Hermite basis of the lattice in the two free coordinates

    kind = "heisenberg-plane-lattice"

    def describe_desc(self) -> str:
        gens = self.generators()
        if all(sorted(g) == [0, 0, 1] for g in gens):
            pattern = [f"a{i + 1}" if any(g[i] for g in gens) else "0" for i in range(3)]
            return "{(" + ", ".join(pattern) + ")}"
        return f"plane sublattice generated by {', '.join(map(str, gens))}"

    def lift(self, a: int, b: int) -> tuple[int, int, int]:
        """The point of the plane with free coordinates (a, b)."""
        return (0, a, b) if self.plane == 0 else (a, 0, b)

    def _validate(self) -> None:
        if not isinstance(self.parent, Heisenberg) or self.plane not in (0, 1) or not self.rows:
            raise GroupError("plane lattice needs a Heisenberg parent, plane 0 or 1 and a "
                             "nonzero lattice")

    def _contains(self, x: Element) -> bool:
        # plane 0 kills a1, plane 1 kills a2
        return x[self.plane] == 0 and echelon_contains(self.rows, (x[1 - self.plane], x[2]))

    def generators(self) -> tuple[Element, ...]:
        return tuple(self.lift(*r) for r in self.rows)

    def index(self) -> Infinite:
        return INFINITE

    def as_group(self) -> AsGroup:
        rows = self.rows

        def embed(c):
            return self.lift(sum(ci * r[0] for ci, r in zip(c, rows)),
                             sum(ci * r[1] for ci, r in zip(c, rows)))

        return AsGroup(FreeAbelian(len(rows)), embed)
