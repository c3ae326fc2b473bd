"""Direct products of two catalog groups and their product subgroups;
elements are pairs.

Commuting is componentwise, so C_G(H), FC_G(H) and every H-class are read off
the projections of any H, the factor subgroups that the components of H's
generators generate.  The other queries split a product of factor subgroups
(a ``ProductSubgroup``, or the full or trivial subgroup).
"""

from __future__ import annotations

from .. import tribool as tb
from .abelian import FreeAbelian
from .base import (Element, FCInfo, Group, GroupError, LatticeEntry, LatticeResult,
                   finite_class, infinite_class, unknown_class)
from .structure import is_normal
from .subgroups import INFINITE, AsGroup, Infinite, Subgroup, subgroup_kind

# the rule that combines the factors' catalog predicates on a product of
# factor subgroups
_COMBINE_NOTES = {
    "prime": "the FC-center of a product is the product of FC-centers",
    "fc_hypercentral": "products of FC-hypercentral groups are FC-hypercentral",
    "cstar_simple": "a product is C*-simple iff both factors are",
}


class DirectProduct(Group):
    def __init__(self, left: Group, right: Group) -> None:
        self.left = left
        self.right = right
        self.name = f"{left.name} x {right.name}"
        # a class passes to the product exactly when both factors have it
        self.torsion_free = left.torsion_free and right.torsion_free
        self.virtually_nilpotent = left.virtually_nilpotent and right.virtually_nilpotent
        self.amenable = left.amenable and right.amenable

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def contains(self, x) -> bool:
        return (isinstance(x, tuple) and len(x) == 2
                and self.left.contains(x[0]) and self.right.contains(x[1]))

    def commutes(self, a, b) -> bool:
        return self.left.commutes(a[0], b[0]) and self.right.commutes(a[1], b[1])

    @property
    def is_abelian(self) -> bool:
        return self.left.is_abelian and self.right.is_abelian

    @property
    def is_finite(self) -> bool:
        return self.left.is_finite and self.right.is_finite

    @property
    def order(self) -> int | None:
        lo, ro = self.left.order, self.right.order
        if lo is None or ro is None:
            return None
        return lo * ro

    def elements(self):
        return [(a, b) for a in self.left.elements() for b in self.right.elements()]

    def generators(self):
        el, er = self.left.identity(), self.right.identity()
        out = [(g, er) for g in self.left.generators()]
        out += [(el, g) for g in self.right.generators()]
        return tuple(out)

    def element_key(self, x):
        return (self.left.element_key(x[0]), self.right.element_key(x[1]))

    def element_str(self, x) -> str:
        return f"({self.left.element_str(x[0])}, {self.right.element_str(x[1])})"

    def parse_element(self, text: str):
        t = text.strip()
        if not (t.startswith("(") and t.endswith(")")):
            raise GroupError(f"product element must look like (left; right): {text!r}")
        body = t[1:-1]
        if ";" not in body:
            raise GroupError(f"product element needs ';' separator: {text!r}")
        ls, rs = body.split(";", 1)
        return (self.left.parse_element(ls), self.right.parse_element(rs))

    def describe(self) -> str:
        return f"direct product ({self.left.describe()}) x ({self.right.describe()})"

    # -- structure queries ------------------------------------------------
    def _factors(self, H):
        """(left, right) when H is a product of factor subgroups, counting a
        full or trivial H; None otherwise."""
        if isinstance(H, ProductSubgroup):
            return H.left, H.right
        if H.is_full():
            return Subgroup.full(self.left), Subgroup.full(self.right)
        if H.is_trivial_subgroup():
            return Subgroup.trivial(self.left), Subgroup.trivial(self.right)
        return None

    def _projections(self, H):
        """(pi_A H, pi_B H), the factor subgroups that the components of H's
        generators generate: H's factors when H is a product."""
        parts = self._factors(H)
        if parts is not None:
            return parts
        gens = H.generators()
        return (Subgroup.generated(self.left, [h[0] for h in gens]),
                Subgroup.generated(self.right, [h[1] for h in gens]))

    def h_conjugacy_class(self, g, H):
        parts = self._projections(H)
        left = self.left.h_conjugacy_class(g[0], parts[0])
        right = self.right.h_conjugacy_class(g[1], parts[1])
        if left.infinite or right.infinite:
            side = "left" if left.infinite else "right"
            cert = left.certificate if left.infinite else right.certificate
            return infinite_class(f"{side} component class is infinite: {cert}")
        if left.unknown or right.unknown:
            return unknown_class(left.reason or right.reason)
        # the orbit of g lies in the finite product of the factor classes, and
        # each generator of H permutes it, so its inverse is one of its powers
        gens, orbit, frontier = H.generators(), {g}, [g]
        while frontier:
            x = frontier.pop()
            new = {self.conj(h, x) for h in gens} - orbit
            orbit |= new
            frontier += new
        return finite_class(sorted(orbit, key=self.element_key))

    def centralizer_generators(self, H, g):
        parts = self._factors(H)
        if parts is None:
            # C_H(g) is not read off the projections: it is H when g
            # centralizes H, and enumerated when H is finite
            if all(self.commutes(h, g) for h in H.generators()):
                return H.generators()
            elems = H.enumerate_elements()
            return None if elems is None else Subgroup.finite_subset(
                self, [h for h in elems if self.commutes(h, g)]).generators()
        lg = self.left.centralizer_generators(parts[0], g[0])
        rg = self.right.centralizer_generators(parts[1], g[1])
        if lg is None or rg is None:
            return None
        el, er = self.left.identity(), self.right.identity()
        return tuple((x, er) for x in lg) + tuple((el, y) for y in rg)

    def centralizer_of_subgroup(self, H):
        parts = self._projections(H)
        cl = self.left.centralizer_of_subgroup(parts[0])
        cr = self.right.centralizer_of_subgroup(parts[1])
        if cl is None or cr is None:
            return None
        return Subgroup.product(self, cl, cr)

    def center_of_subgroup(self, H):
        parts = self._factors(H)
        if parts is None:
            return super().center_of_subgroup(H)
        zl = self.left.center_of_subgroup(parts[0])
        zr = self.right.center_of_subgroup(parts[1])
        return None if zl is None or zr is None else Subgroup.product(self, zl, zr)

    def fc_centralizer(self, H):
        parts = self._projections(H)
        li = self.left.fc_centralizer(parts[0])
        ri = self.right.fc_centralizer(parts[1])
        if li.subgroup is None or ri.subgroup is None:
            return FCInfo(None)
        central = None
        if li.central is not None and ri.central is not None:
            central = li.central and ri.central
        return FCInfo(Subgroup.product(self, li.subgroup, ri.subgroup), central=central)

    def is_normal(self, H):
        parts = self._factors(H)
        if parts is None:
            return super().is_normal(H)
        left, right = (is_normal(S) for S in parts)
        if left.fails or right.fails:
            # the factor's pair (s, h), lifted into G with e in the other slot
            el, er = self.left.identity(), self.right.identity()
            pair = (tuple((x, er) for x in left.witness) if left.fails
                    else tuple((el, x) for x in right.witness))
            return tb.fails(pair, "a factor subgroup is not normal in its factor")
        if left.holds and right.holds:
            return tb.holds("both factor subgroups are normal")
        return tb.unknown("factor normality undecided")

    def predicate(self, H, name):
        parts = self._factors(H)
        if parts is None:
            return super().predicate(H, name)
        # A x 1 is A: a trivial factor is neutral
        if parts[1].is_trivial_subgroup():
            return self.left.predicate(parts[0], name)
        if parts[0].is_trivial_subgroup():
            return self.right.predicate(parts[1], name)
        a, b = self.left.predicate(parts[0], name), self.right.predicate(parts[1], name)
        note = _COMBINE_NOTES[name]
        if a.fails:
            return a.with_notes(note)
        if b.fails:
            return b.with_notes(note)
        if a.holds and b.holds:
            return tb.holds(note)
        return tb.unknown(a.reason or b.reason or "undecided factor", note)

    def intermediate_subgroups(self, H, max_entries):
        if not isinstance(H, ProductSubgroup):
            return super().intermediate_subgroups(H, max_entries)
        # with one factor subgroup full, the intermediate subgroups are those
        # of the other factor inclusion
        sides = ((H.left, H.right,
                  lambda s: Subgroup.product(self, Subgroup.full(self.left), s)),
                 (H.right, H.left,
                  lambda s: Subgroup.product(self, s, Subgroup.full(self.right))))
        for full, other, lift in sides:
            if full.is_full():
                inner = other.parent.intermediate_subgroups(other, max_entries)
                if inner.status != "unknown":
                    return LatticeResult(inner.status,
                                         tuple(LatticeEntry(e.label, lift(e.subgroup),
                                                            e.index_in_g)
                                               for e in inner.entries), inner.note)
        return LatticeResult("unknown", (),
                             "intermediate subgroups of a product inclusion need not be "
                             "products of factor subgroups; outside the catalog")


@subgroup_kind
class ProductSubgroup(Subgroup):
    left: Subgroup
    right: Subgroup

    kind = "product"

    def describe_desc(self) -> str:
        return f"({self.left.describe_desc()}) x ({self.right.describe_desc()})"

    def _validate(self) -> None:
        parent = self.parent
        if not isinstance(parent, DirectProduct):
            raise GroupError("product subgroup needs a direct product parent")
        if self.left.parent is not parent.left or self.right.parent is not parent.right:
            raise GroupError("product subgroup factors must describe the parent factors")

    def _contains(self, x: Element) -> bool | None:
        lc = self.left.contains(x[0])
        rc = self.right.contains(x[1])
        if lc is None or rc is None:
            return None if (lc is not False and rc is not False) else False
        return lc and rc

    def generators(self) -> tuple[Element, ...]:
        el, er = self.parent.left.identity(), self.parent.right.identity()
        return (tuple((g, er) for g in self.left.generators())
                + tuple((el, g) for g in self.right.generators()))

    def enumerate_elements(self) -> list[Element] | None:
        le = self.left.enumerate_elements()
        re_ = self.right.enumerate_elements()
        if le is None or re_ is None:
            return None
        return [(a, b) for a in le for b in re_]

    def index(self) -> int | Infinite | None:
        li = self.left.index()
        ri = self.right.index()
        if li is None or ri is None:
            return None
        if li is INFINITE or ri is INFINITE:
            return INFINITE
        return li * ri

    def as_group(self) -> AsGroup | None:
        lg = self.left.as_group()
        rg = self.right.as_group()
        if lg is None or rg is None:
            return None
        if self.left.is_trivial_subgroup():
            el = self.parent.left.identity()
            return AsGroup(rg.group, lambda y: (el, rg.embed(y)))
        if self.right.is_trivial_subgroup():
            er = self.parent.right.identity()
            return AsGroup(lg.group, lambda y: (lg.embed(y), er))
        if isinstance(lg.group, FreeAbelian) and isinstance(rg.group, FreeAbelian):
            # Z^a x Z^b is Z^(a+b): the lattice routes then reach the product
            a = lg.group.rank
            return AsGroup(FreeAbelian(a + rg.group.rank),
                           lambda c: (lg.embed(c[:a]), rg.embed(c[a:])))

        def embed(pair):
            return (lg.embed(pair[0]), rg.embed(pair[1]))

        return AsGroup(DirectProduct(lg.group, rg.group), embed)

    def is_full(self) -> bool:
        return self.left.is_full() and self.right.is_full()

    def is_trivial_subgroup(self) -> bool:
        return self.left.is_trivial_subgroup() and self.right.is_trivial_subgroup()
