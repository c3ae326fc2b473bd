"""Conjugacy, centralizer and structural queries over the group catalog.

Closed forms are used wherever the catalog admits them (free abelian groups,
the Heisenberg group via the linear form (h1,h2) -> h1*g2 - h2*g1, free groups
via cyclic centralizers, products componentwise); finite tables are enumerated;
everything else falls back to a capped conjugation search that returns an
honest Unknown at the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .. import tribool as tb
from ..intlinalg import integer_kernel
from ..tribool import TriBool
from .abelian import FreeAbelian
from .base import Element, Group, GroupError
from .finite import FiniteTable
from .free import FreeGroup
from .heisenberg import Heisenberg
from .product import DirectProduct
from .subgroups import (Classification, CoordinateZeroDesc, FreeCyclicDesc,
                        FullDesc, GeneratedDesc, HeisCongruenceDesc, ProductDesc,
                        Subgroup, TrivialDesc, finite_class, infinite_class,
                        unknown_class)

DEFAULT_ORBIT_CAP = 10_000
DEFAULT_DEPTH_CAP = 24


def _product_form(H: Subgroup) -> Subgroup:
    """Full/trivial subgroups of direct products, rewritten factorwise."""
    G = H.parent
    if isinstance(G, DirectProduct):
        if isinstance(H.desc, FullDesc):
            return Subgroup.product(G, Subgroup.full(G.left), Subgroup.full(G.right))
        if isinstance(H.desc, TrivialDesc):
            return Subgroup.product(G, Subgroup.trivial(G.left), Subgroup.trivial(G.right))
    return H


# ---------------------------------------------------------------------------
# H-conjugacy classes
# ---------------------------------------------------------------------------

def h_conjugacy_class(g: Element, H: Subgroup, cap: int = DEFAULT_ORBIT_CAP,
                      depth_cap: int = DEFAULT_DEPTH_CAP) -> Classification:
    G = H.parent
    G.check_element(g)
    H = _product_form(H)
    if g == G.identity():
        return finite_class([g])

    if isinstance(G, FiniteTable):
        orbit = sorted({G.conj(h, g) for h in H.enumerate_elements()})
        return finite_class(orbit)

    if isinstance(G, FreeAbelian):
        return finite_class([g])

    if isinstance(G, Heisenberg):
        gens = _generators_or_none(H)
        if gens is None:
            return _orbit_bfs(g, H, cap, depth_cap)
        # conjugation shifts only the third coordinate, by h1*g2 - h2*g1
        d = 0
        for h in gens:
            d = gcd(d, h[0] * g[1] - h[1] * g[0])
        if d == 0:
            return finite_class([g])
        return infinite_class(
            f"orbit is {{({g[0]}, {g[1]}, {g[2]} + {d}*t) : t in Z}}, infinite")

    if isinstance(G, FreeGroup):
        gens = _generators_or_none(H)
        if gens is None:
            return _orbit_bfs(g, H, cap, depth_cap)
        for h in gens:
            if not G.commutes(h, g):
                return infinite_class(
                    f"{G.element_str(h)} does not commute with {G.element_str(g)}; "
                    "iterated conjugates are pairwise distinct in a free group")
        return finite_class([g])

    if isinstance(G, DirectProduct) and isinstance(H.desc, ProductDesc):
        left = h_conjugacy_class(g[0], H.desc.left, cap, depth_cap)
        right = h_conjugacy_class(g[1], H.desc.right, cap, depth_cap)
        if left.infinite or right.infinite:
            side = "left" if left.infinite else "right"
            cert = left.certificate if left.infinite else right.certificate
            return infinite_class(f"{side} component class is infinite: {cert}")
        if left.unknown or right.unknown:
            return unknown_class(left.reason or right.reason)
        return finite_class(sorted(((a, b) for a in left.elements for b in right.elements),
                                   key=G.element_key))

    return _orbit_bfs(g, H, cap, depth_cap)


def _generators_or_none(H: Subgroup):
    try:
        return H.generators()
    except GroupError:
        return None


def _orbit_bfs(g: Element, H: Subgroup, cap: int, depth_cap: int) -> Classification:
    G = H.parent
    gens = _generators_or_none(H)
    if not gens:
        return finite_class([g]) if gens == () else unknown_class("subgroup has no usable generators")
    conjugators = list(gens) + [G.inv(h) for h in gens]
    seen = {g}
    frontier = [g]
    depth = 0
    while frontier and depth < depth_cap:
        depth += 1
        new = []
        for x in frontier:
            for h in conjugators:
                y = G.conj(h, x)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        return unknown_class(
                            f"conjugation orbit exceeded the search cap ({cap})")
                    new.append(y)
        frontier = new
    if frontier:
        return unknown_class(f"conjugation search reached depth cap ({depth_cap})")
    return finite_class(sorted(seen, key=G.element_key))


# ---------------------------------------------------------------------------
# centralizers
# ---------------------------------------------------------------------------

def centralizer_generators(H: Subgroup, g: Element) -> Optional[tuple]:
    """Finite generating set of C_H(g), or None when outside the catalog."""
    G = H.parent
    G.check_element(g)
    H = _product_form(H)

    if isinstance(G, FiniteTable):
        cents = [h for h in H.enumerate_elements() if G.commutes(h, g)]
        return Subgroup.finite_subset(G, cents).generators()

    if isinstance(G, FreeAbelian):
        return H.generators()

    if isinstance(G, Heisenberg):
        return _heisenberg_centralizer_gens(H, g)

    if isinstance(G, FreeGroup):
        if g == G.identity():
            return _generators_or_none(H)
        desc = H.desc
        if isinstance(desc, TrivialDesc):
            return ()
        if isinstance(desc, FullDesc):
            return (G.centralizer_root(g),)
        if isinstance(desc, FreeCyclicDesc):
            return (desc.word,) if G.commutes(desc.word, g) else ()
        return None

    if isinstance(G, DirectProduct) and isinstance(H.desc, ProductDesc):
        lg = centralizer_generators(H.desc.left, g[0])
        rg = centralizer_generators(H.desc.right, g[1])
        if lg is None or rg is None:
            return None
        el, er = G.left.identity(), G.right.identity()
        return tuple((x, er) for x in lg) + tuple((el, y) for y in rg)

    return None


def _heisenberg_centralizer_gens(H: Subgroup, g) -> Optional[tuple]:
    """C_H(g) inside the Heisenberg group: h commutes with g iff h1*g2 = h2*g1."""
    desc = H.desc
    if isinstance(desc, TrivialDesc):
        return ()
    if isinstance(desc, (FullDesc, CoordinateZeroDesc, HeisCongruenceDesc)):
        gens = H.generators()
        # parametrize H by its generator exponents; the commutation form is
        # linear in the (h1, h2) coordinates, which add under the product
        coeffs = [[h[0] * g[1] - h[1] * g[0] for h in gens]]
        kernel = integer_kernel(coeffs)
        G = H.parent
        out = []
        for vec in kernel:
            h = G.identity()
            for c, gen in zip(vec, gens):
                h = G.mul(h, G.power(gen, c))
            if h != G.identity():
                out.append(h)
        return tuple(out)
    return None


def centralizer_of_subgroup(G: Group, H: Subgroup) -> Optional[Subgroup]:
    """C_G(H) as a described subgroup, or None outside the catalog."""
    if H.parent is not G:
        raise GroupError("subgroup does not describe this group")
    H = _product_form(H)

    if isinstance(G, FiniteTable):
        elems = H.enumerate_elements()
        cents = [x for x in G.elements() if all(G.commutes(x, h) for h in elems)]
        return Subgroup.finite_subset(G, cents)

    if isinstance(G, FreeAbelian):
        return Subgroup.full(G)

    if isinstance(G, Heisenberg):
        gens = _generators_or_none(H)
        if gens is None:
            return None
        rows = [[h[1], -h[0]] for h in gens]  # h1*x2 - h2*x1 = 0 for all gens
        kernel = integer_kernel(rows) if any(any(r) for r in rows) else \
            [(1, 0), (0, 1)]
        from ..intlinalg import RowLattice
        lat = RowLattice(2, kernel)
        if lat.rank == 2 and lat.index_in_ambient() == 1:
            return Subgroup.full(G)
        if lat.rank == 0:
            return Subgroup.coordinate_zero(G, {0, 1})
        basis = lat.basis()
        if len(basis) == 1:
            v = basis[0]
            if v in ((1, 0), (-1, 0)):
                return Subgroup.coordinate_zero(G, {1})
            if v in ((0, 1), (0, -1)):
                return Subgroup.coordinate_zero(G, {0})
        return None  # a slanted line of centralizers: outside the catalog

    if isinstance(G, FreeGroup):
        desc = H.desc
        if isinstance(desc, TrivialDesc):
            return Subgroup.full(G)
        if isinstance(desc, FullDesc):
            return Subgroup.trivial(G)
        if isinstance(desc, FreeCyclicDesc):
            return Subgroup.generated(G, [G.centralizer_root(desc.word)])
        if isinstance(desc, GeneratedDesc):
            # normalization guarantees some pair of generators does not commute,
            # so the centralizer meets two distinct maximal cyclic subgroups
            return Subgroup.trivial(G)
        return None

    if isinstance(G, DirectProduct) and isinstance(H.desc, ProductDesc):
        cl = centralizer_of_subgroup(G.left, H.desc.left)
        cr = centralizer_of_subgroup(G.right, H.desc.right)
        if cl is None or cr is None:
            return None
        return Subgroup.product(G, cl, cr)

    return None


# ---------------------------------------------------------------------------
# FC-centralizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FCInfo:
    """FC_G(H) = elements with finite H-class, as far as the catalog knows it."""

    subgroup: Optional[Subgroup]      # None = unknown
    central: Optional[bool] = None    # subgroup known to lie in the center of G?
    note: str = ""

    @property
    def known(self) -> bool:
        return self.subgroup is not None

    @property
    def trivial(self) -> Optional[bool]:
        if self.subgroup is None:
            return None
        return self.subgroup.is_trivial_subgroup()

    def finite_elements(self) -> Optional[list]:
        if self.subgroup is None:
            return None
        return self.subgroup.enumerate_elements()


def fc_centralizer(G: Group, H: Subgroup) -> FCInfo:
    H = _product_form(H)
    if isinstance(G, FiniteTable):
        return FCInfo(Subgroup.full(G), central=G.is_abelian, note="finite group")

    if isinstance(G, FreeAbelian):
        return FCInfo(Subgroup.full(G), central=True, note="abelian group")

    if isinstance(G, Heisenberg):
        # a class is a singleton or infinite, so FC_G(H) = C_G(H)
        c = centralizer_of_subgroup(G, H)
        if c is None:
            return FCInfo(None, note="centralizer outside catalog")
        central = _subgroup_is_central(G, c)
        return FCInfo(c, central=central, note="Heisenberg classes are singletons or infinite")

    if isinstance(G, FreeGroup):
        desc = H.desc
        if isinstance(desc, TrivialDesc):
            return FCInfo(Subgroup.full(G), central=False)
        if isinstance(desc, (FullDesc, GeneratedDesc)):
            # a finite-index centralizer inside a noncyclic subgroup of a free
            # group would be cyclic of finite index, which is impossible
            return FCInfo(Subgroup.trivial(G), central=True,
                          note="noncyclic subgroups of free groups act with infinite orbits")
        if isinstance(desc, FreeCyclicDesc):
            root = G.centralizer_root(desc.word)
            return FCInfo(Subgroup.generated(G, [root]), central=False,
                          note="finite classes meet the maximal cyclic centralizer")
        return FCInfo(None)

    if isinstance(G, DirectProduct) and isinstance(H.desc, ProductDesc):
        li = fc_centralizer(G.left, H.desc.left)
        ri = fc_centralizer(G.right, H.desc.right)
        if li.subgroup is None or ri.subgroup is None:
            return FCInfo(None, note=li.note or ri.note)
        sub = Subgroup.product(G, li.subgroup, ri.subgroup)
        central = None
        if li.central is not None and ri.central is not None:
            central = li.central and ri.central
        return FCInfo(sub, central=central, note="componentwise")

    return FCInfo(None, note=f"no FC-centralizer rule for {G.name}")


def _subgroup_is_central(G: Group, S: Subgroup) -> Optional[bool]:
    gens = _generators_or_none(S)
    if gens is None:
        return None
    try:
        ggens = G.generators()
    except NotImplementedError:
        return None
    return all(G.commutes(s, t) for s in gens for t in ggens)


# ---------------------------------------------------------------------------
# normality and index
# ---------------------------------------------------------------------------

def is_normal(H: Subgroup) -> TriBool:
    G = H.parent
    desc = H.desc
    if H.is_full() or H.is_trivial_subgroup():
        return tb.holds("full and trivial subgroups are normal")
    if G.is_abelian:
        return tb.holds("parent group is abelian")
    if isinstance(desc, ProductDesc):
        left = is_normal(desc.left)
        right = is_normal(desc.right)
        if left.fails or right.fails:
            bad = left if left.fails else right
            return tb.fails(bad.witness, "a factor subgroup is not normal in its factor")
        if left.holds and right.holds:
            return tb.holds("both factor subgroups are normal")
        return tb.unknown("factor normality undecided")

    if isinstance(G, FiniteTable):
        elems = H.enumerate_elements()
        eset = set(elems)
        for s in G.elements():
            for h in elems:
                if G.conj(s, h) not in eset:
                    return tb.fails((s, h), "explicit conjugate escapes the subgroup")
        return tb.holds("checked all conjugations in the table")

    gens = _generators_or_none(H)
    if gens is None:
        return tb.unknown("subgroup has no generator list")
    try:
        ggens = G.generators()
    except NotImplementedError:
        return tb.unknown("parent group has no generator list")
    conjugators = list(ggens) + [G.inv(s) for s in ggens]
    for s in conjugators:
        for h in gens:
            c = H.contains(G.conj(s, h))
            if c is False:
                return tb.fails((s, h),
                                f"conjugate of {G.element_str(h)} by {G.element_str(s)} leaves the subgroup")
            if c is None:
                return tb.unknown("membership undecided during the conjugation check")
    return tb.holds("generator conjugates stay inside (both directions)")


# ---------------------------------------------------------------------------
# catalog predicates
# ---------------------------------------------------------------------------

def _tri_and(a: TriBool, b: TriBool, note: str) -> TriBool:
    if a.fails:
        return a.with_notes(note)
    if b.fails:
        return b.with_notes(note)
    if a.holds and b.holds:
        return tb.holds(note)
    return tb.unknown(a.reason or b.reason or "undecided factor", note)


def is_prime(G: Group) -> TriBool:
    """No nontrivial finite normal subgroup; equivalently a torsion-free FC-center."""
    if isinstance(G, FreeAbelian):
        return tb.holds("free abelian groups are torsion-free")
    if isinstance(G, Heisenberg):
        return tb.holds("FC-center = center = {(0,0,t)}, a copy of Z")
    if isinstance(G, FreeGroup):
        return tb.holds("free groups of rank >= 2 are icc")
    if isinstance(G, FiniteTable):
        if G.order == 1:
            return tb.holds("trivial group")
        return tb.fails(None, "a nontrivial finite group is a finite normal subgroup of itself")
    if isinstance(G, DirectProduct):
        return _tri_and(is_prime(G.left), is_prime(G.right),
                        "the FC-center of a product is the product of FC-centers")
    return tb.unknown(f"no primeness rule for {G.name}")


def is_fc_hypercentral(G: Group) -> TriBool:
    """No nontrivial icc quotient (contains abelian and virtually nilpotent groups)."""
    if isinstance(G, (FreeAbelian, Heisenberg)):
        return tb.holds("finitely generated nilpotent, hence of polynomial growth")
    if isinstance(G, FiniteTable):
        return tb.holds("finite groups are FC-hypercentral")
    if isinstance(G, FreeGroup):
        return tb.fails(None, "a free group of rank >= 2 is its own nontrivial icc quotient")
    if isinstance(G, DirectProduct):
        return _tri_and(is_fc_hypercentral(G.left), is_fc_hypercentral(G.right),
                        "products of FC-hypercentral groups are FC-hypercentral")
    return tb.unknown(f"no FC-hypercentrality rule for {G.name}")


def is_cstar_simple(G: Group) -> TriBool:
    """Simplicity of the (untwisted) reduced group C*-algebra, catalog facts only."""
    if isinstance(G, FreeGroup):
        return tb.holds("free groups of rank >= 2 are C*-simple (Powers)")
    if isinstance(G, FreeAbelian):
        if G.rank == 0:
            return tb.fails(None, "trivial group: reported not C*-simple by convention "
                                  "(no icc structure; the algebra is C)")
        return tb.fails(None, "abelian groups are not icc")
    if isinstance(G, Heisenberg):
        return tb.fails(None, "amenable with nontrivial center, not icc")
    if isinstance(G, FiniteTable):
        if G.order == 1:
            return tb.fails(None, "trivial group: reported not C*-simple by convention "
                                  "(no icc structure; the algebra is C)")
        return tb.fails(None, "nontrivial finite groups are not icc")
    if isinstance(G, DirectProduct):
        return _tri_and(is_cstar_simple(G.left), is_cstar_simple(G.right),
                        "a product is C*-simple iff both factors are")
    return tb.unknown(f"no C*-simplicity rule for {G.name}")


def subgroup_predicate(H: Subgroup, predicate) -> TriBool:
    """Apply a group predicate to a subgroup through its standalone form."""
    ag = H.as_group()
    if ag is None:
        return tb.unknown(f"subgroup {H.describe_desc()} has no standalone catalog form")
    return predicate(ag.group)
