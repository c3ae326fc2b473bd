"""The discrete Heisenberg group: Z^3 with a twisted third coordinate.

Product: (a1,a2,a3)(b1,b2,b3) = (a1+b1, a2+b2, a3+b3+a1*b2).
Conjugation: g x g^-1 = (x1, x2, x3 + g1*x2 - g2*x1), so the class of x under
a subgroup is controlled by the linear form (g1,g2) -> g1*x2 - g2*x1.

Every subgroup other than G and {e} is a ``HeisEchelon``, kept as its reduced
echelon basis whatever generators gave it; membership, index, normality and
centralizers are read off that basis.  The intermediate subgroups above a
subgroup that contains the centre are those of Z^2 above its image in
G/Z = Z^2, lifted.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import gcd, prod

from ..intlinalg import integer_kernel
from .abelian import FreeAbelian, parse_int_vector
from .base import (Element, FCInfo, Group, LatticeEntry, LatticeResult, finite_class,
                   infinite_class, vector_key)
from .subgroups import INFINITE, AsGroup, Infinite, Subgroup, subgroup_kind

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

    def describe(self) -> str:
        return "discrete Heisenberg group (Z^3, twisted product)"

    def generated_subgroup(self, gens):
        """<gens> by its reduced echelon basis: Euclid on the first, then the
        second coordinate leaves central elements, and d3 is their gcd with
        [b1, b2] = (0, 0, d1*d2), which generates [H, H] because the
        commutator is bilinear and central."""
        b1, rest = _euclid(self, gens, 0)
        b2, central = _euclid(self, rest, 1)
        d3 = gcd(*(c[2] for c in central), b1[0] * b2[1] if b1 and b2 else 0)
        if b1 and b2:
            b1 = self.mul(b1, self.power(b2, -(b1[1] // b2[1])))
        if d3:  # b3 = (0, 0, d3) is central: reduce the third coordinates by it
            b1, b2 = (b and (b[0], b[1], b[2] % d3) for b in (b1, b2))
        basis = tuple(b for b in (b1, b2, (0, 0, d3) if d3 else None) if b)
        if not basis:
            return Subgroup.trivial(self)
        H = HeisEchelon(self, basis)
        return Subgroup.full(self) if H.index() == 1 else H

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
        kernel = integer_kernel(rows, 2)  # reduced echelon, so Z^2 reads as e_1, e_2
        if kernel == [(1, 0), (0, 1)]:
            return Subgroup.full(self)
        # the center and the kernel directions generate C_G(H)
        return Subgroup.generated(self, [(v[0], v[1], 0) for v in kernel] + [(0, 0, 1)])

    def center_of_subgroup(self, H):
        # an abelian H is its own centre; a nonabelian H meets the centre of G
        # in <(0, 0, d3)>, its central basis vector
        return super().center_of_subgroup(H) or Subgroup.generated(
            self, [h for h in H.generators() if h[:2] == (0, 0)])

    def fc_centralizer(self, H):
        # a class is a singleton or infinite, so FC_G(H) = C_G(H)
        c = self.centralizer_of_subgroup(H)
        central = all(self.commutes(s, t) for s in c.generators() for t in self.generators())
        return FCInfo(c, central=central)

    def intermediate_subgroups(self, H, max_entries):
        """A subgroup that contains the centre Z = <(0, 0, 1)> is the preimage
        of its image in G/Z = Z^2, and so is every subgroup above it: the
        lattice is that of Z^2 over the image, each entry lifted."""
        if not H.contains((0, 0, 1)):
            return super().intermediate_subgroups(H, max_entries)
        plane = FreeAbelian(2)
        image = Subgroup.sublattice(plane, [h[:2] for h in H.generators()])
        res = plane.intermediate_subgroups(image, max_entries)
        return LatticeResult(res.status, tuple(
            LatticeEntry(e.label, Subgroup.generated(
                self, [k + (0,) for k in e.subgroup.generators()] + [(0, 0, 1)]), e.index_in_g)
            for e in res.entries), res.note)

    def centralizer_lattice(self, cent):
        if cent.is_full():
            # C_G(H) = G happens only for central H; twist characters kill the
            # commutator direction (0,0,1), so solve over the abelianized coords
            return 2, lambda v: (v[0], v[1], 0), ((0, 0, 1),)
        return super().centralizer_lattice(cent)


def _euclid(G: Heisenberg, gens, i: int):
    """(p, rest) after Euclid on coordinate i of gens by the moves g -> g p^-q,
    which keep the subgroup: p is the one element left with coordinate i
    nonzero, made positive there (or None), rest the elements where it is 0."""
    live = [g for g in gens if g[i]]
    rest = [g for g in gens if not g[i]]
    while len(live) > 1:
        p, *others = sorted(live, key=lambda g: abs(g[i]))
        live = [p]
        for g in others:
            r = G.mul(g, G.power(p, -(g[i] // p[i])))
            (live if r[i] else rest).append(r)
    if not live:
        return None, rest
    return (live[0] if live[0][i] > 0 else G.inv(live[0])), rest


def _modulus(gens) -> int:
    """m when gens is the basis (m, 0, 0), (0, 1, 0), (0, 0, 1) of {m | a1}, else 0."""
    m = gens[0][0] if gens else 0
    return m if gens == ((m, 0, 0), (0, 1, 0), (0, 0, 1)) else 0


@subgroup_kind
class HeisEchelon(Subgroup):
    """b1 = (d1, e, f), b2 = (0, d2, g), b3 = (0, 0, d3), each present or not,
    pivots positive, 0 <= e < d2 and 0 <= f, g < d3 when b2, b3 are present:
    an induced polycyclic sequence (Sims 1994, ch. 9), unique per subgroup,
    and every element is b1^x b2^y b3^z for exactly one (x, y, z)."""

    basis: tuple

    kind = "heisenberg-echelon"

    def describe_desc(self) -> str:
        gens = self.basis
        if m := _modulus(gens):
            return f"{{(a1, a2, a3) : {m} | a1}}"
        if all(sorted(g) == [0, 0, 1] for g in gens):
            pattern = [f"a{i + 1}" if any(g[i] for g in gens) else "0" for i in range(3)]
            return "{(" + ", ".join(pattern) + ")}"
        inner = ", ".join(map(self.parent.element_str, gens))
        if any(all(g[i] == 0 for g in gens) for i in (0, 1)):
            return f"plane sublattice generated by {inner}"
        return f"subgroup generated by {inner}"

    def _contains(self, x: Element) -> bool:
        # sift x through the basis, pivot by pivot
        G = self.parent
        for b in self.basis:
            i = next(k for k in range(3) if b[k])
            if x[i] % b[i]:
                return False
            x = G.mul(G.power(b, -(x[i] // b[i])), x)
        return x == G.identity()

    def generators(self) -> tuple[Element, ...]:
        return self.basis

    def index(self) -> int | Infinite:
        return prod(b[i] for i, b in enumerate(self.basis)) if len(self.basis) == 3 else INFINITE

    def as_group(self) -> AsGroup | None:
        G, basis = self.parent, self.basis
        if not all(G.commutes(a, b) for a, b in combinations(basis, 2)):
            return None
        return AsGroup(FreeAbelian(len(basis)),
                       lambda c: reduce(G.mul, map(G.power, basis, c), G.identity()))
