"""sigma-regularity, twisted centralizers, and the (relative) Kleppner condition.

The relative Kleppner decision runs a fixed, reported strategy chain:

  (a) finite table group: enumerate every H-class and test regularity, exact;
  (b) the catalog proves FC_G(H) trivial: holds;
  (c) H normal and prime (or the cocycle similar to trivial): reduce to
      [Kleppner for (H, sigma|_H)] and [triviality of the twisted centralizer];
  (d) free abelian group: solve the phase-linear system for the sublattice of
      regular elements, exact;
  (x) the catalog computes FC_G(H) exactly (finite set, or a central subgroup):
      decide the finitely/lattice-many candidate classes;
  (e) unknown, with the blocking reason.

Witnesses are minimal under each group's element ordering; failure witnesses
are returned as explicit finite classes replayable through the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from . import tribool as tb
from .cocycles import Cocycle, commutation_phase, transport
from .groups.abelian import FreeAbelian
from .groups.base import Element, Group, GroupError
from .groups.finite import FiniteTable
from .groups.heisenberg import Heisenberg
from .groups.structure import (centralizer_generators, centralizer_of_subgroup,
                               fc_centralizer, h_conjugacy_class, is_normal, is_prime,
                               subgroup_predicate)
from .groups.subgroups import Classification, Subgroup, finite_class
from .intlinalg import RowLattice, kernel_mod, rational_kernel_lattice
from .phases import Phase
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
        if not commutation_phase(sigma, g, h).is_one():
            return tb.fails(h, f"sigma({G.element_str(g)}, h) != sigma(h, {G.element_str(g)}) "
                               f"at h = {G.element_str(h)}")
    return tb.holds(f"checked {len(gens)} generators of the centralizer of g in H")


# ---------------------------------------------------------------------------
# the phase-linear solver
# ---------------------------------------------------------------------------

def solve_pairing_lattice(rows: list[list[Phase]], dim: int) -> RowLattice:
    """All x in Z^dim with sum_j x_j * rows[i][j] integral, for every row i.

    Symbol coefficients give exact rational-kernel equations; the leftover
    rational parts give congruences solved modulo their common denominator.
    """
    if dim == 0:
        return RowLattice(0)
    sym_rows: list[list[Fraction]] = []
    basis = None
    for row in rows:
        for p in row:
            basis = p.basis
            break
        if basis is not None:
            break
    if basis is not None:
        for row in rows:
            for s in basis.symbols:
                sym_rows.append([p.coeff(s) for p in row])
    kernel = rational_kernel_lattice(sym_rows, dim)
    base = kernel.basis()
    if not base:
        return kernel
    cong: list[list[Fraction]] = []
    for row in rows:
        cong.append([sum(Fraction(b[j]) * row[j].rational for j in range(dim))
                     for b in base])
    den = 1
    for r in cong:
        for x in r:
            den = den * x.denominator // gcd(den, x.denominator)
    if den == 1:
        return kernel
    nmat = [[int(x * den) for x in r] for r in cong]
    tbasis = kernel_mod(nmat, den)
    out = RowLattice(dim)
    for t in tbasis:
        out.add([sum(t[a] * base[a][j] for a in range(len(base))) for j in range(dim)])
    return out


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


def sigma_centralizer(G: Group, H: Subgroup, sigma: Cocycle) -> SigmaCentralizerResult:
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")
    cent = centralizer_of_subgroup(G, H)
    if cent is None:
        return SigmaCentralizerResult(None, tb.unknown("C_G(H) outside the catalog"))
    if cent.is_trivial_subgroup():
        return SigmaCentralizerResult(cent, tb.holds("already C_G(H) = {e}"), cent)
    try:
        hgens = H.generators()
    except GroupError:
        return SigmaCentralizerResult(None, tb.unknown("H has no generator list"), cent)

    if sigma.is_trivial_like():
        # every element is regular, so the twisted centralizer is C_G(H) itself
        gens = [g for g in cent.generators() if g != G.identity()]
        w = min(gens, key=G.element_key) if gens else None
        return SigmaCentralizerResult(cent, tb.fails(
            w, "cocycle is similar to trivial: twisted centralizer equals C_G(H), "
               "which is nontrivial"), cent)

    elems = cent.enumerate_elements()
    if elems is not None:
        kept = [c for c in elems
                if all(commutation_phase(sigma, c, h).is_one() for h in hgens)]
        desc = Subgroup.finite_subset(G, kept)
        nontrivial = [c for c in kept if c != G.identity()]
        if nontrivial:
            w = min(nontrivial, key=G.element_key)
            return SigmaCentralizerResult(
                desc, tb.fails(w, f"{G.element_str(w)} centralizes H and is regular"), cent)
        return SigmaCentralizerResult(desc, tb.holds("enumerated C_G(H)"), cent)

    lattice_data = _centralizer_lattice_setup(G, cent)
    if lattice_data is None:
        # last resort: a regular nontrivial generator of C_G(H) is a witness
        for g in sorted(cent.generators(), key=G.element_key):
            if g != G.identity() and all(commutation_phase(sigma, g, h).is_one()
                                         for h in hgens):
                return SigmaCentralizerResult(None, tb.fails(
                    g, f"{G.element_str(g)} centralizes H and is regular"), cent)
        return SigmaCentralizerResult(None, tb.unknown(
            f"no exact twisted-centralizer route for C_G(H) = {cent.describe_desc()}"), cent)
    dim, embed, always_regular = lattice_data
    rows = [[commutation_phase(sigma, embed(_unit(dim, j)), h) for j in range(dim)]
            for h in hgens]
    lat = solve_pairing_lattice(rows, dim)
    for extra in always_regular:
        # elements regular for free (e.g. a central commutator direction)
        for h in hgens:
            if not commutation_phase(sigma, extra, h).is_one():
                raise AssertionError("claimed-regular element fails the pairing")
    if lat.is_trivial() and not always_regular:
        return SigmaCentralizerResult(Subgroup.trivial(G), tb.holds(
            "phase-linear system has only the zero solution"), cent)
    gens = [embed(v) for v in lat.basis()] + list(always_regular)
    desc = Subgroup.generated(G, gens)
    if always_regular:
        w = min(always_regular, key=G.element_key)
    else:
        w = embed(lat.small_nonzero())
    return SigmaCentralizerResult(desc, tb.fails(
        w, f"{G.element_str(w)} centralizes H and is regular"), cent)


def _unit(dim: int, j: int) -> tuple[int, ...]:
    return tuple(1 if k == j else 0 for k in range(dim))


def _centralizer_lattice_setup(G: Group, cent: Subgroup):
    """(dim, embed, always_regular) when C_G(H) is a lattice the solver can walk."""
    asg = cent.as_group()
    if asg is not None and isinstance(asg.group, FreeAbelian):
        return asg.group.rank, asg.embed, ()
    if isinstance(G, Heisenberg) and cent.is_full():
        # C_G(H) = G happens only for central H; twist characters kill the
        # commutator direction (0,0,1), so solve over the abelianized coords
        def embed(v):
            return (v[0], v[1], 0)

        return 2, embed, ((0, 0, 1),)
    return None


# ---------------------------------------------------------------------------
# relative Kleppner condition
# ---------------------------------------------------------------------------

def _class_witness(w: Element, H: Subgroup, cap: int = 10_000) -> Classification:
    cls = h_conjugacy_class(w, H, cap=cap)
    if cls.finite:
        return cls
    return finite_class([w])  # fallback: at least return the element


def _finite_table_relative(G: FiniteTable, H: Subgroup, sigma: Cocycle) -> TriBool:
    helems = H.enumerate_elements()
    e = G.identity()
    # classes come in increasing order of their least element, so the first
    # regular one is the minimal witness
    for orbit in G.h_classes(helems):
        if orbit == [e]:
            continue
        rep = orbit[0]
        cent = [h for h in helems if G.commutes(h, rep)]
        if all(commutation_phase(sigma, rep, h).is_one() for h in cent):
            return tb.fails(finite_class(orbit),
                            "(a) finite enumeration: a nontrivial regular class exists")
    return tb.holds("(a) finite enumeration: every nontrivial H-class fails regularity")


def relative_kleppner(G: Group, H: Subgroup, sigma: Cocycle,
                      cap: int = 10_000) -> TriBool:
    """Is every nontrivial H-conjugacy class in G that is regular for sigma infinite?"""
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")

    # (a) finite table: exact enumeration
    if isinstance(G, FiniteTable):
        return _finite_table_relative(G, H, sigma)

    notes: list[str] = []

    # (b) catalog-trivial FC-centralizer
    fci = fc_centralizer(G, H)
    if fci.known and fci.trivial:
        return tb.holds("(b) FC_G(H) is trivial: " + (fci.note or "no finite classes at all"))

    # (c) normal prime subgroup reduction
    if not H.is_full():
        step_c = _strategy_normal_prime(G, H, sigma, notes, cap)
        if step_c is not None:
            return step_c

    # (d) abelian ambient group: exact phase-linear system
    if isinstance(G, FreeAbelian):
        return _strategy_abelian(G, H, sigma)

    # (x) catalog-described FC-centralizer
    if fci.known:
        step_x = _strategy_fc_catalog(G, H, sigma, fci, notes, cap)
        if step_x is not None:
            return step_x

    reason = "; ".join(notes) if notes else f"no decision strategy applies to {G.name}"
    return tb.unknown(reason, "(e) undecided")


def _strategy_normal_prime(G, H, sigma, notes, cap: int = 10_000) -> Optional[TriBool]:
    nrm = is_normal(H)
    if not nrm.holds:
        notes.append(f"(c) skipped: normality of H {nrm.status}")
        return None
    trivial_like = sigma.is_trivial_like()
    if not trivial_like:
        prime = subgroup_predicate(H, is_prime)
        if not prime.holds:
            notes.append(f"(c) skipped: primeness of H {prime.status}")
            return None
        reason_tag = "(c) H normal and prime"
    else:
        reason_tag = "(c) H normal, cocycle similar to trivial"
    tr = transport(sigma, H)
    if tr is None:
        notes.append("(c) skipped: sigma does not restrict to a catalog form of H")
        return None
    restricted, asg = tr
    sc = sigma_centralizer(G, H, sigma)
    if sc.is_trivial.fails:
        w = sc.is_trivial.witness
        return tb.fails(_class_witness(w, H, cap),
                        f"{reason_tag}: C_G^sigma(H) contains {G.element_str(w)}")
    inner = relative_kleppner(asg.group, Subgroup.full(asg.group), restricted, cap)
    if inner.fails:
        return tb.fails(asg.lift(inner.witness, G),
                        f"{reason_tag}: Kleppner fails for (H, sigma|_H)")
    if inner.holds and sc.is_trivial.holds:
        return tb.holds(f"{reason_tag}: (H, sigma|_H) satisfies Kleppner's condition "
                        "and C_G^sigma(H) is trivial")
    notes.append(f"(c) inconclusive: inner Kleppner {inner.status}, "
                 f"twisted centralizer {sc.is_trivial.status}")
    return None


def _strategy_abelian(G: FreeAbelian, H: Subgroup, sigma) -> TriBool:
    try:
        hgens = H.generators()
    except GroupError:
        return tb.unknown("(d) H has no generator list")
    dim = G.rank
    rows = [[commutation_phase(sigma, _unit(dim, j), h) for j in range(dim)]
            for h in hgens]
    lat = solve_pairing_lattice(rows, dim)
    if lat.is_trivial():
        return tb.holds("(d) abelian system: only 0 is regular for sigma against H")
    w = lat.small_nonzero(key=G.element_key)
    return tb.fails(finite_class([w]),
                    f"(d) abelian system: {G.element_str(w)} is a nontrivial regular "
                    "singleton class")


def _strategy_fc_catalog(G, H, sigma, fci, notes, cap: int = 10_000) -> Optional[TriBool]:
    elems = fci.finite_elements()
    if elems is not None:
        e = G.identity()
        undecided = []
        for s in sorted(elems, key=G.element_key):
            if s == e:
                continue
            cls = h_conjugacy_class(s, H, cap=cap)
            if cls.infinite:
                continue
            if cls.unknown:
                undecided.append(s)
                continue
            reg = is_sigma_regular(cls.elements[0], H, sigma)
            if reg.holds:
                return tb.fails(cls, "(x) finite FC-centralizer: regular nontrivial class")
            if reg.unknown:
                undecided.append(s)
        if undecided:
            notes.append("(x) inconclusive: regularity undecided inside FC_G(H)")
            return None
        return tb.holds("(x) finite FC-centralizer: no nontrivial class is regular")

    if fci.central is True:
        asg = fci.subgroup.as_group()
        try:
            hgens = H.generators()
        except GroupError:
            notes.append("(x) skipped: H has no generator list")
            return None
        if asg is not None and isinstance(asg.group, FreeAbelian):
            dim = asg.group.rank
            rows = [[commutation_phase(sigma, asg.embed(_unit(dim, j)), h) for j in range(dim)]
                    for h in hgens]
            lat = solve_pairing_lattice(rows, dim)
            if lat.is_trivial():
                return tb.holds("(x) central FC-centralizer: only e is regular")
            w = asg.embed(lat.small_nonzero())
            return tb.fails(_class_witness(w, H, cap),
                            "(x) central FC-centralizer: nontrivial regular element")
        notes.append("(x) skipped: central FC-centralizer has no lattice form")
        return None

    notes.append("(x) skipped: FC-centralizer not enumerable")
    return None


def kleppner(G: Group, sigma: Cocycle, cap: int = 10_000) -> TriBool:
    """No nontrivial finite sigma-regular conjugacy class in G."""
    return relative_kleppner(G, Subgroup.full(G), sigma, cap)


def relative_icc(G: Group, H: Subgroup, cap: int = 10_000) -> TriBool:
    """Every nontrivial H-conjugacy class in G is infinite (trivial-cocycle case)."""
    from .cocycles import TrivialCocycle
    return relative_kleppner(G, H, TrivialCocycle(G), cap)


# ---------------------------------------------------------------------------
# sigma-regular subgroups
# ---------------------------------------------------------------------------

# the counterexample search walks words of length at most SEARCH_LEN in the
# generators of H and stops after SEARCH_CAP distinct elements
SEARCH_LEN = 4
SEARCH_CAP = 300


def sigma_regular_subgroup(G: Group, H: Subgroup, sigma: Cocycle) -> TriBool:
    """Is every h in H that is regular w.r.t. H also regular w.r.t. G?"""
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")
    if H.is_full():
        return tb.holds("H = G: the two regularity notions coincide")
    full = Subgroup.full(G)

    if isinstance(G, FiniteTable):
        for h in sorted(H.enumerate_elements(), key=G.element_key):
            r_h = is_sigma_regular(h, H, sigma)
            r_g = is_sigma_regular(h, full, sigma)
            if r_h.holds and r_g.fails:
                return tb.fails(h, f"{G.element_str(h)} is regular w.r.t. H but not w.r.t. G")
        return tb.holds("checked every element of H")

    tr = transport(sigma, H)
    if tr is not None and tr[1].group.is_abelian:
        restricted, asg = tr
        inner = relative_kleppner(asg.group, Subgroup.full(asg.group), restricted)
        if inner.holds:
            return tb.holds("H abelian with Kleppner's condition: only e is regular "
                            "w.r.t. H, and e is regular w.r.t. G")

    # bounded counterexample search over short words in the generators of H
    try:
        gens = H.generators()
    except GroupError:
        return tb.unknown("H has no generator list to search")
    seen = {G.identity()}
    frontier = [G.identity()]
    steps = list(gens) + [G.inv(g) for g in gens]
    for _ in range(SEARCH_LEN):
        new = []
        for x in frontier:
            for s in steps:
                y = G.mul(x, s)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
                    if len(seen) > SEARCH_CAP:
                        new = []
                        frontier = []
                        break
            else:
                continue
            break
        frontier = new
    for h in sorted(seen, key=G.element_key):
        if h == G.identity():
            continue
        r_h = is_sigma_regular(h, H, sigma)
        r_g = is_sigma_regular(h, full, sigma)
        if r_h.holds and r_g.fails:
            return tb.fails(h, f"{G.element_str(h)} is regular w.r.t. H but not w.r.t. G")
    return tb.unknown(f"no counterexample among {len(seen)} short elements of H; "
                      "no closing rule applies")
