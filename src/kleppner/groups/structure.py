"""Conjugacy, centralizer and structural queries over the group catalog.

These functions are the front door; each group kind answers the queries in
its own class.  Finite tables enumerate (finite.py); free abelian groups have
singleton classes (abelian.py); the Heisenberg group works through the linear
form (h1,h2) -> h1*g2 - h2*g1 (heisenberg.py); free groups use cyclic
centralizers (free.py); direct products read their answers off the factor
projections of H (product.py).  The Group base class (base.py) gives the
undecided answers, an unknown class, None and an unknown FC-centralizer,
with no search, the generator conjugation check for normality and the
centre of an abelian or finite subgroup; it also derives the catalog
predicates.
"""

from __future__ import annotations

from typing import Optional

from .. import tribool as tb
from ..tribool import TriBool
from .base import Element, FCInfo, Group, GroupError
from .subgroups import Classification, Subgroup, finite_class


def h_conjugacy_class(g: Element, H: Subgroup) -> Classification:
    G = H.parent
    G.check_element(g)
    if g == G.identity():
        return finite_class([g])
    return G.h_conjugacy_class(g, H)


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


def is_prime(G: Group) -> TriBool:
    """No nontrivial finite normal subgroup; equivalently a torsion-free FC-center."""
    return G.predicate(Subgroup.full(G), "prime")


def is_fc_hypercentral(G: Group) -> TriBool:
    """No nontrivial icc quotient (contains abelian and virtually nilpotent groups)."""
    return G.predicate(Subgroup.full(G), "fc_hypercentral")


def is_cstar_simple(G: Group) -> TriBool:
    """Simplicity of the (untwisted) reduced group C*-algebra."""
    return G.predicate(Subgroup.full(G), "cstar_simple")
