"""Direct products of two catalog groups; elements are pairs.

The structure queries split a subgroup that is a product of factor subgroups
and combine the factors' answers; any other subgroup gets the undecided
defaults of the Group base class.
"""

from __future__ import annotations

import random

from .. import tribool as tb
from .base import (FCInfo, Group, GroupError, LatticeEntry, LatticeResult, finite_class,
                   infinite_class, unknown_class)

# the rule that combines the factors' catalog predicates
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

    def random_element(self, rng: random.Random, size: int = 6):
        return (self.left.random_element(rng, size), self.right.random_element(rng, size))

    def describe(self) -> str:
        return f"direct product ({self.left.describe()}) x ({self.right.describe()})"

    # -- structure queries ------------------------------------------------
    def _factors(self, H):
        """(left, right) when H is a product of factor subgroups, counting a
        full or trivial H; None otherwise."""
        from .subgroups import FullSubgroup, ProductSubgroup, Subgroup, TrivialSubgroup
        if isinstance(H, ProductSubgroup):
            return H.left, H.right
        if isinstance(H, FullSubgroup):
            return Subgroup.full(self.left), Subgroup.full(self.right)
        if isinstance(H, TrivialSubgroup):
            return Subgroup.trivial(self.left), Subgroup.trivial(self.right)
        return None

    def h_conjugacy_class(self, g, H, cap, depth_cap):
        parts = self._factors(H)
        if parts is None:
            return super().h_conjugacy_class(g, H, cap, depth_cap)
        left = self.left.h_conjugacy_class(g[0], parts[0], cap, depth_cap)
        right = self.right.h_conjugacy_class(g[1], parts[1], cap, depth_cap)
        if left.infinite or right.infinite:
            side = "left" if left.infinite else "right"
            cert = left.certificate if left.infinite else right.certificate
            return infinite_class(f"{side} component class is infinite: {cert}")
        if left.unknown or right.unknown:
            return unknown_class(left.reason or right.reason)
        return finite_class(sorted(((a, b) for a in left.elements for b in right.elements),
                                   key=self.element_key))

    def centralizer_generators(self, H, g):
        parts = self._factors(H)
        if parts is None:
            return None
        lg = self.left.centralizer_generators(parts[0], g[0])
        rg = self.right.centralizer_generators(parts[1], g[1])
        if lg is None or rg is None:
            return None
        el, er = self.left.identity(), self.right.identity()
        return tuple((x, er) for x in lg) + tuple((el, y) for y in rg)

    def centralizer_of_subgroup(self, H):
        from .subgroups import Subgroup
        parts = self._factors(H)
        if parts is None:
            return None
        cl = self.left.centralizer_of_subgroup(parts[0])
        cr = self.right.centralizer_of_subgroup(parts[1])
        if cl is None or cr is None:
            return None
        return Subgroup.product(self, cl, cr)

    def fc_centralizer(self, H):
        from .subgroups import Subgroup
        parts = self._factors(H)
        if parts is None:
            return super().fc_centralizer(H)
        li = self.left.fc_centralizer(parts[0])
        ri = self.right.fc_centralizer(parts[1])
        if li.subgroup is None or ri.subgroup is None:
            return FCInfo(None, note=li.note or ri.note)
        central = None
        if li.central is not None and ri.central is not None:
            central = li.central and ri.central
        return FCInfo(Subgroup.product(self, li.subgroup, ri.subgroup), central=central,
                      note="componentwise")

    def is_normal(self, H):
        from .structure import is_normal
        parts = self._factors(H)
        if parts is None:
            return super().is_normal(H)
        left, right = (is_normal(S) for S in parts)
        if left.fails or right.fails:
            bad = left if left.fails else right
            return tb.fails(bad.witness, "a factor subgroup is not normal in its factor")
        if left.holds and right.holds:
            return tb.holds("both factor subgroups are normal")
        return tb.unknown("factor normality undecided")

    def fact(self, name):
        # A x 1 is A: a trivial factor is neutral
        if self.right.order == 1:
            return self.left.fact(name)
        if self.left.order == 1:
            return self.right.fact(name)
        a, b = self.left.fact(name), self.right.fact(name)
        note = _COMBINE_NOTES[name]
        if a.fails:
            return a.with_notes(note)
        if b.fails:
            return b.with_notes(note)
        if a.holds and b.holds:
            return tb.holds(note)
        return tb.unknown(a.reason or b.reason or "undecided factor", note)

    def intermediate_subgroups(self, H, max_entries):
        from .subgroups import ProductSubgroup, Subgroup
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
