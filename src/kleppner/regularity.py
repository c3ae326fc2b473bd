"""sigma-regularity, twisted centralizers, and the (relative) Kleppner condition.

The relative Kleppner decision runs a fixed, reported strategy chain:

  (a) finite table group: enumerate every H-class and test regularity, exact,
      on the cocycle's twist-obstruction masks (Cocycle.twist_obstructions:
      bit h of obs[g] is set when g and h commute with a nontrivial twist),
      so a class with least element g is regular iff obs[g] & hmask == 0;
  (b) the twisted centralizer: a nontrivial element of C_G^sigma(H) is a
      regular singleton class, for every H; when the catalog knows FC_G(H)
      and it centralizes H, every finite H-class is such a singleton, so a
      trivial C_G^sigma(H) decides that the condition holds;
  (x) the catalog enumerates a finite FC_G(H): decide its finitely many
      classes, with the enumerator of (a);
  (e) unknown, with the blocking reason.

Kleppner's condition for a restriction (H, sigma|_H) runs the same chain
inside G, on the classes of elements of H, with Z(H) = C_G(H) ∩ H for
C_G(H); no standalone group is built.

On a finite table strategy (a) and the enumerated twisted centralizer read
the same masks, built once per cocycle object, against H's mask, which the
table holds with H's classes.  is_sigma_regular asks about one element, so
it tests the generators of C_H(g) pair by pair and builds no mask.

Failure witnesses are explicit finite classes replayable through the kernels.
Enumerated witnesses are least under the group's element ordering; lattice
witnesses are least in the lattice's coordinates (README, "Decision
procedures").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Optional

from . import tribool as tb
from .cocycles import Cocycle, commutation_trivial
from .groups.base import Classification, Element, Group, GroupError
from .groups.structure import (centralizer_generators, centralizer_of_subgroup,
                               fc_centralizer, h_conjugacy_class)
from .groups.subgroups import Subgroup, finite_class
from .intlinalg import RowLattice, integer_kernel, kernel_mod
from .tribool import TriBool


# ---------------------------------------------------------------------------
# pointwise regularity
# ---------------------------------------------------------------------------

def is_sigma_regular(g: Element, H: Subgroup, sigma: Cocycle) -> TriBool:
    """Does sigma(g,h) = sigma(h,g) for every h in H commuting with g?

    Tested on generators of C_H(g); the commuting-pair product identities make
    the generator check sufficient.
    """
    G = H.parent
    if sigma.group is not G:
        raise GroupError("cocycle and subgroup live on different groups")
    G.check_element(g)
    gens = centralizer_generators(H, g)
    if gens is None:
        return tb.unknown(f"C_H(g) not computable for {H.describe_desc()}")
    for h in gens:
        if not commutation_trivial(sigma, g, h):
            return tb.fails(h, f"sigma({G.element_str(g)}, h) != sigma(h, {G.element_str(g)}) "
                               f"at h = {G.element_str(h)}")
    return tb.holds(f"checked {len(gens)} generators of the centralizer of g in H")


# ---------------------------------------------------------------------------
# the phase-linear solver
# ---------------------------------------------------------------------------

def solve_pairing_lattice(rows: list[list[list[int]]], den: int, dim: int) -> RowLattice:
    """All x in Z^dim with sum_j x_j * rows[i][j] / den integral, for every row i.

    Each rows[i][j] is an integer vector over den, the rational slot first and
    then one slot per symbol, as Cocycle.commutation_int gives it.  Each symbol slot
    of a row is an exact integer equation; the rational slots, taken mod den,
    are congruences modulo den on the integer kernel of those equations.
    """
    eqs = [eq for row in rows for eq in zip(*(v[1:] for v in row)) if any(eq)]
    base = integer_kernel(eqs, dim)
    cong = [[sum(b * (v[0] % den) for b, v in zip(vec, row)) for vec in base]
            for row in rows]
    # den // g is the least common denominator of the congruences
    g = gcd(den, *(x for r in cong for x in r))
    if g == den:
        return RowLattice(dim, base)
    tbasis = kernel_mod([[x // g for x in r] for r in cong], den // g)
    return RowLattice(dim, ([sum(c * vec[j] for c, vec in zip(t, base)) for j in range(dim)]
                            for t in tbasis))


def pairing_rows(sigma: Cocycle, hgens, xs) -> list[list[list[int]]]:
    """sigma.commutation_int(x, h), the integer form of
    commutation_phase(sigma, x, h) over sigma.den: one row per h in hgens and
    one entry per x in xs."""
    comm = sigma.commutation_int
    return [[comm(x, h) for x in xs] for h in hgens]


# ---------------------------------------------------------------------------
# twisted centralizer C_G^sigma(H)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaCentralizerResult:
    """C_G^sigma(H) = {g centralizing H with trivial twist against all of H}."""

    description: Optional[Subgroup]
    is_trivial: TriBool
    plain_centralizer: Optional[Subgroup] = None

    def __repr__(self) -> str:
        d = self.description.describe_desc() if self.description else "unknown"
        return f"SigmaCentralizerResult({d}, trivial={self.is_trivial.status})"


def sigma_centralizer(G: Group, H: Subgroup, sigma: Cocycle, *,
                      restricted: bool = False) -> SigmaCentralizerResult:
    """With restricted, the twisted centre of (H, sigma|_H): C_G(H) becomes
    Z(H) = C_G(H) ∩ H.  sigma must be a 2-cocycle; this function does not
    validate it."""
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")
    name = "Z(H)" if restricted else "C_G(H)"
    cent = G.center_of_subgroup(H) if restricted else centralizer_of_subgroup(G, H)
    if cent is None:
        return SigmaCentralizerResult(None, tb.unknown(f"{name} outside the catalog"))
    if cent.is_trivial_subgroup():
        return SigmaCentralizerResult(cent, tb.holds(f"already {name} = {{e}}"), cent)
    hgens = H.generators()

    if sigma.is_trivial_like() and not restricted:
        # every element is regular, so the twisted centralizer is C_G(H) itself;
        # restricted, the routes below take the witness least in Z(H)'s own
        # coordinates, as on H's standalone group
        gens = [g for g in cent.generators() if g != G.identity()]
        w = min(gens, key=G.element_key) if gens else None
        return SigmaCentralizerResult(cent, tb.fails(
            w, "cocycle is similar to trivial: twisted centralizer equals C_G(H), "
               "which is nontrivial"), cent)

    elems = cent.enumerate_elements()
    if elems is not None:
        if G.exact_kernel == "finite":
            # c centralizes H, so its twist is a character of H: H's mask decides
            obs, hmask = sigma.twist_obstructions, G.h_entry(H.enumerate_elements())[0]
            kept = [c for c in elems if not obs[c] & hmask]
        else:
            kept = [c for c in elems
                    if all(commutation_trivial(sigma, c, h) for h in hgens)]
        desc = Subgroup.finite_subset(G, kept)
        nontrivial = [c for c in kept if c != G.identity()]
        if nontrivial:
            w = min(nontrivial, key=G.element_key)
            return SigmaCentralizerResult(
                desc, tb.fails(w, f"{G.element_str(w)} centralizes H and is regular"), cent)
        return SigmaCentralizerResult(desc, tb.holds(f"enumerated {name}"), cent)

    lattice_data = G.centralizer_lattice(cent)
    if lattice_data is None:
        # last resort: a regular nontrivial generator of C_G(H) is a witness
        for g in sorted(cent.generators(), key=G.element_key):
            if g != G.identity() and all(commutation_trivial(sigma, g, h)
                                         for h in hgens):
                return SigmaCentralizerResult(None, tb.fails(
                    g, f"{G.element_str(g)} centralizes H and is regular"), cent)
        return SigmaCentralizerResult(None, tb.unknown(
            f"no exact twisted-centralizer route for {name} = {cent.describe_desc()}"), cent)
    dim, embed, always_regular = lattice_data
    for extra in always_regular:
        # elements regular for free (e.g. a central commutator direction)
        for h in hgens:
            if not commutation_trivial(sigma, extra, h):
                raise AssertionError("claimed-regular element fails the pairing")
    # the x in Z^dim whose image is regular against every generator of H; the
    # witness is the least always-regular element, else the least nonzero x
    rows = pairing_rows(sigma, hgens, [embed(_unit(dim, j)) for j in range(dim)])
    lat = solve_pairing_lattice(rows, sigma.den, dim)
    gens = [embed(v) for v in lat.basis()]
    w = min(always_regular, key=G.element_key, default=None)
    if w is None and gens:
        w = embed(lat.small_nonzero())
    if w is None:
        return SigmaCentralizerResult(Subgroup.trivial(G), tb.holds(
            "phase-linear system has only the zero solution"), cent)
    desc = Subgroup.generated(G, gens + list(always_regular))
    return SigmaCentralizerResult(desc, tb.fails(
        w, f"{G.element_str(w)} centralizes H and is regular"), cent)


def _unit(dim: int, j: int) -> tuple[int, ...]:
    return tuple(1 if k == j else 0 for k in range(dim))


# ---------------------------------------------------------------------------
# relative Kleppner condition
# ---------------------------------------------------------------------------

def _first_regular_class(G: Group, H: Subgroup, sigma: Cocycle,
                         elems) -> tuple[Optional[Classification], bool]:
    """The first regular nontrivial H-class of the finite H-invariant set elems
    (None: all of G, a finite table), classes taken in order of their least
    element so that a witness is least, and whether some class was undecided.
    An undecided class is skipped: a later regular class still refutes."""
    e = G.identity()
    helems = H.enumerate_elements()
    if G.exact_kernel == "finite":
        # a class is regular when its least element g has no commuting h in H
        # with a nontrivial twist: obs[g] & hmask == 0
        obs, (hmask, classes) = sigma.twist_obstructions, G.h_entry(helems)
        for orbit in classes:
            g = orbit[0]
            if g != e and (elems is None or g in elems) and not obs[g] & hmask:
                return finite_class(orbit), False
        return None, False
    # None marks a class the catalog cannot bound
    classes, seen = [], set()
    for s in sorted(elems, key=G.element_key):
        if s not in seen:
            cls = h_conjugacy_class(s, H)
            seen.update(cls.elements)
            if not cls.infinite:
                classes.append(cls.elements if cls.finite else None)
    undecided = False
    for orbit in classes:
        if orbit is None:
            undecided = True
        elif orbit[0] == e:
            continue
        elif helems is not None:
            # regular: trivial twist against every h in C_H(rep)
            rep = orbit[0]
            if all(commutation_trivial(sigma, rep, h) for h in helems if G.commutes(h, rep)):
                return finite_class(orbit), undecided
        else:
            reg = is_sigma_regular(orbit[0], H, sigma)
            if reg.holds:
                return finite_class(orbit), undecided
            undecided = undecided or reg.unknown
    return None, undecided


def relative_kleppner(G: Group, H: Subgroup, sigma: Cocycle, *,
                      restricted: bool = False) -> TriBool:
    """Is every nontrivial H-conjugacy class in G that is regular for sigma infinite?

    With restricted, only the classes of elements of H count, which is
    Kleppner's condition for (H, sigma|_H): each strategy reads Z(H) =
    C_G(H) ∩ H for C_G(H) and FC_G(H) ∩ H for FC_G(H).  sigma must be a
    2-cocycle; this function does not validate it.
    """
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")

    # (a) finite table: exact enumeration
    if G.exact_kernel == "finite":
        cls, _ = _first_regular_class(G, H, sigma,
                                      set(H.enumerate_elements()) if restricted else None)
        if cls is not None:
            return tb.fails(cls, "(a) finite enumeration: a nontrivial regular class exists")
        return tb.holds("(a) finite enumeration: every nontrivial H-class fails regularity")

    notes: list[str] = []

    # (b) the twisted centralizer.  A nontrivial w in C_G^sigma(H) centralizes
    # H, so its H-class is the regular singleton {w}, for every H.  When
    # FC_G(H) centralizes H, FC_G(H) = C_G(H) and every finite H-class is such
    # a singleton, so relative Kleppner holds iff C_G^sigma(H) is trivial;
    # restricted, FC_H(H) lies in Z(H) and C_H^sigma(H) decides the same way.
    fci = fc_centralizer(G, H)
    central = fci.known and all(G.commutes(f, h) for f in fci.subgroup.generators()
                                for h in H.generators())
    twisted = sigma_centralizer(G, H, sigma, restricted=restricted).is_trivial
    tc = "C_H^sigma(H)" if restricted else "C_G^sigma(H)"
    if twisted.fails:
        w = twisted.witness
        tag = "(b) FC_G(H) centralizes H: " if central else "(b) "
        return tb.fails(finite_class([w]), f"{tag}{tc} contains {G.element_str(w)}")
    if twisted.holds and central:
        return tb.holds(f"(b) FC_G(H) centralizes H and {tc} is trivial")
    if twisted.unknown:
        notes.append(f"(b) inconclusive: twisted centralizer {twisted.reason}")

    # (x) a finite FC_G(H): decide its finitely many classes.  Restricted,
    # FC_G(H) ∩ H is all of a finite H, and an undecided membership blocks holds
    elems, blocked = fci.finite_elements(), False
    if restricted:
        inside = H.enumerate_elements()
        if inside is None and elems is not None:
            member = [H.contains(f) for f in elems]
            blocked, inside = None in member, [f for f, m in zip(elems, member) if m]
        elems = inside
    if elems is None:
        notes.append("(x) skipped: FC-centralizer not enumerable")
    else:
        cls, undecided = _first_regular_class(G, H, sigma, elems)
        undecided = undecided or blocked
        if cls is not None:
            return tb.fails(cls, "(x) finite FC-centralizer: regular nontrivial class")
        if not undecided:
            return tb.holds("(x) finite FC-centralizer: no nontrivial class is regular")
        notes.append(f"(x) inconclusive: {'membership in H' if blocked else 'regularity'} "
                     "undecided inside FC_G(H)")

    return tb.unknown("; ".join(notes), "(e) undecided")


def kleppner(G: Group, sigma: Cocycle, H: Optional[Subgroup] = None) -> TriBool:
    """No nontrivial finite sigma-regular conjugacy class in G; given H, in
    (H, sigma|_H), with H's classes decided inside G.  sigma must be a
    2-cocycle; this function does not validate it."""
    if H is None or H.is_full():
        return relative_kleppner(G, Subgroup.full(G), sigma)
    return relative_kleppner(G, H, sigma, restricted=True)


# ---------------------------------------------------------------------------
# sigma-regular subgroups
# ---------------------------------------------------------------------------

def sigma_regular_subgroup(G: Group, H: Subgroup, sigma: Cocycle) -> TriBool:
    """Is every h in H that is regular w.r.t. H also regular w.r.t. G?

    Exact: a finite table checks every element of H; otherwise an abelian H
    with Kleppner's condition holds, and a generator of H, taken in
    element_key order, can refute.  Anything else is unknown.
    """
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")
    if H.is_full():
        return tb.holds("H = G: the two regularity notions coincide")
    if sigma.is_trivial_like():
        return tb.holds("cocycle is similar to trivial: every element is regular "
                        "w.r.t. every subgroup")
    full = Subgroup.full(G)
    finite = G.exact_kernel == "finite"
    gens = sorted(H.enumerate_elements() if finite else H.generators(), key=G.element_key)
    if not finite and all(G.commutes(a, b) for a, b in combinations(gens, 2)) \
            and kleppner(G, sigma, H).holds:
        return tb.holds("H abelian with Kleppner's condition: only e is regular "
                        "w.r.t. H, and e is regular w.r.t. G")
    for h in gens:
        if is_sigma_regular(h, H, sigma).holds and is_sigma_regular(h, full, sigma).fails:
            return tb.fails(h, f"{G.element_str(h)} is regular w.r.t. H but not w.r.t. G")
    if finite:
        return tb.holds("checked every element of H")
    return tb.unknown("no generator of H is regular w.r.t. H but not w.r.t. G, "
                      "and no closing rule applies")
