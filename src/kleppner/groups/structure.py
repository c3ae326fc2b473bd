"""Conjugacy, centralizer and structural queries over the group catalog.

These functions are the front door; each group kind answers the centralizer
and normality queries in its own class.  Every H-class is read off FC_G(H),
the elements whose H-class is finite: the class of g is infinite when g lies
outside it, and otherwise the orbit of g under conjugation by H's generators
(``h_orbit``).  FC_G(H) is all of a finite table (finite.py), the product of
the factors' answers on the projections of H (product.py), and C_G(H) on
Z^n, the Heisenberg group and free groups, whose finite H-classes are
singletons (base.py).  The Group base class gives the undecided answers
elsewhere, the generator conjugation check for normality and the centre of
an abelian or finite subgroup; it also derives the catalog predicates.
"""

from __future__ import annotations

from typing import Optional

from .. import tribool as tb
from ..tribool import TriBool
from .base import Element, FCInfo, Group, GroupError, infinite_class, unknown_class
from .subgroups import Classification, Subgroup, finite_class


def h_conjugacy_class(g: Element, H: Subgroup) -> Classification:
    """{h g h^-1 : h in H}: infinite outside FC_G(H), the orbit of g inside."""
    G = H.parent
    G.check_element(g)
    if g == G.identity():
        return finite_class([g])
    fc = G.fc_centralizer(H)
    inside = fc.subgroup.contains(g) if fc.known else None
    if inside is None:
        return unknown_class(f"membership of {G.element_str(g)} in FC_G(H) undecided")
    if not inside:
        return infinite_class(f"{G.element_str(g)} lies outside FC_G(H) = "
                              f"{fc.subgroup.describe_desc()}")
    return finite_class(h_orbit(g, H))


def h_orbit(g: Element, H: Subgroup) -> tuple:
    """The orbit of g in FC_G(H) under conjugation by H's generators, sorted
    by element_key: it is finite, so each generator permutes it, its inverse
    is one of its powers, and the orbit is the H-class of g."""
    G = H.parent
    gens, orbit, frontier = H.generators(), {g}, [g]
    while frontier:
        x = frontier.pop()
        new = {G.conj(h, x) for h in gens} - orbit
        orbit |= new
        frontier += new
    return tuple(sorted(orbit, key=G.element_key))


def centralizer_generators(H: Subgroup, g: Element) -> Optional[tuple]:
    """Finite generating set of C_H(g), or None when outside the catalog."""
    H.parent.check_element(g)
    return H.parent.centralizer_generators(H, g)


def centralizer_of_subgroup(G: Group, H: Subgroup) -> Optional[Subgroup]:
    """C_G(H) as a described subgroup, or None outside the catalog."""
    if H.parent is not G:
        raise GroupError("subgroup does not describe this group")
    return G.centralizer_of_subgroup(H)


def fc_centralizer(G: Group, H: Subgroup) -> FCInfo:
    return G.fc_centralizer(H)


def is_normal(H: Subgroup) -> TriBool:
    if H.is_full() or H.is_trivial_subgroup():
        return tb.holds("full and trivial subgroups are normal")
    if H.parent.is_abelian:
        return tb.holds("parent group is abelian")
    return H.parent.is_normal(H)
