"""Inference rules over kernel facts: twisted simplicity, irreducibility of the
inclusion, and the intermediate-subgroup lattice.

A decided verdict carries the one rule that decided it, whose premises are
plain kernel facts, so any conclusion can be replayed.  Rule priority: exact
kernel decisions (finite tables, free abelian groups) first, then the twisted-
centralizer criteria, the relative-Kleppner criteria, and the general
normal-subgroup criterion last; the first rule with all premises decided
wins, and anything undecided stays inconclusive rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Any, Iterable, Optional

from .cocycles import Cocycle
from .groups.base import Group, GroupError, LatticeResult
from .groups.structure import is_normal
from .groups.subgroups import Subgroup
from .regularity import kleppner, relative_kleppner, sigma_centralizer
from .tribool import TriBool

HOLDS, FAILS, INCONCLUSIVE = "holds", "fails", "inconclusive"


@dataclass(frozen=True)
class RuleStep:
    rule: str
    statement: str
    premises: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Verdict:
    conclusion: str
    chain: tuple[RuleStep, ...]
    witness: Any = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def holds(self) -> bool:
        return self.conclusion == HOLDS

    @property
    def fails(self) -> bool:
        return self.conclusion == FAILS

    @property
    def inconclusive(self) -> bool:
        return self.conclusion == INCONCLUSIVE

    def __repr__(self) -> str:
        rules = " -> ".join(step.rule for step in self.chain)
        return f"Verdict({self.conclusion}; {rules})"


# rule key -> the statement the rule applies, as reported in every verdict
_RULES = {
    "kleppner-center": "for FC-hypercentral groups, twisted simplicity is equivalent to "
                       "Kleppner's condition",
    "untwisted-cstar-simple": "a C*-simple group stays C*-simple under every two-cocycle",
    "kleppner-necessary": "Kleppner's condition is necessary for twisted simplicity",
    "normality-gate": "the normal-subgroup criteria do not apply",
    **dict.fromkeys(("finite-exact-kleppner", "abelian-exact-kleppner"),
                    "H is FC-hypercentral, so the inclusion is irreducible-with-simple-"
                    "intermediates exactly when the relative Kleppner condition holds; "
                    "decided by exact kernel computation"),
    "csimple-twisted-centralizer": "for C*-simple normal H, the inclusion is irreducible "
                                   "iff the twisted centralizer of H is trivial",
    "prime-fch-twisted-centralizer": "for prime FC-hypercentral normal H: irreducible iff "
                                     "(H, sigma|_H) satisfies Kleppner and the twisted "
                                     "centralizer is trivial",
    "prime-twisted-centralizer": "for prime normal H: irreducible iff (H, sigma|_H) is "
                                 "C*-simple and the twisted centralizer is trivial",
    "fch-or-csimple-relative-kleppner": "for FC-hypercentral or C*-simple normal H, the "
                                        "inclusion is irreducible iff the relative Kleppner "
                                        "condition holds",
    "simple-plus-relative-kleppner": "for normal H the inclusion is irreducible iff "
                                     "(H, sigma|_H) is C*-simple and the relative Kleppner "
                                     "condition holds",
}


def _verdict(conclusion: str, rule: str, premises: Iterable[tuple[str, str]],
             witness: Any = None, notes: Iterable[str] = ()) -> Verdict:
    """A verdict decided by one rule, whose premises are (fact, outcome) pairs."""
    return Verdict(conclusion, (RuleStep(rule, _RULES[rule], tuple(premises)),),
                   witness, tuple(notes))


# ---------------------------------------------------------------------------
# twisted simplicity
# ---------------------------------------------------------------------------

def twisted_simplicity(G: Group, sigma: Cocycle, H: Optional[Subgroup] = None) -> Verdict:
    """Simplicity of the twisted group algebra of (G, sigma), or given H of
    (H, sigma|_H), by catalog rules; witnesses are elements of G.  sigma must
    be a 2-cocycle; this function does not validate it."""
    if sigma.group is not G or (H is not None and H.parent is not G):
        raise GroupError("group, subgroup and cocycle must be aligned")
    if H is None:
        H = Subgroup.full(G)
    notes: list[str] = []
    k: Optional[TriBool] = None

    fch = G.predicate(H, "fc_hypercentral")
    if fch.holds:
        k = kleppner(G, sigma, H)
        if k.decided:
            return _verdict(HOLDS if k.holds else FAILS, "kleppner-center",
                            [("FC-hypercentral", fch.status), ("kleppner", k.status)],
                            k.witness, k.notes)
        notes.append("Kleppner's condition undecided despite FC-hypercentrality")

    cs = G.predicate(H, "cstar_simple")
    if cs.holds:
        return _verdict(HOLDS, "untwisted-cstar-simple", [("C*-simple", cs.status)],
                        notes=cs.notes)

    if k is None:
        k = kleppner(G, sigma, H)
    if k.fails:
        return _verdict(FAILS, "kleppner-necessary", [("kleppner", k.status)], k.witness, k.notes)

    notes.append(f"missing premises: FC-hypercentral={fch.status}, "
                 f"C*-simple={cs.status}, kleppner={k.status}")
    if k.unknown:
        notes.append(f"kleppner unknown: {k.reason}")
    return Verdict(INCONCLUSIVE, (), notes=tuple(notes))


# ---------------------------------------------------------------------------
# irreducibility of the inclusion
# ---------------------------------------------------------------------------

def cstar_irreducible(G: Group, H: Subgroup, sigma: Cocycle) -> Verdict:
    """Is every intermediate algebra of the twisted inclusion simple?

    Only decided for normal H; for non-normal subgroups the criteria used
    here genuinely break down, so the engine refuses instead of guessing.
    sigma must be a 2-cocycle; this function does not validate it.
    """
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")
    nrm = is_normal(H)
    if not nrm.holds:
        return _verdict(INCONCLUSIVE, "normality-gate", [("H normal in G", nrm.status)],
                        notes=["the characterization can fail for non-normal subgroups, "
                               "so no verdict is emitted without normality"])

    notes: list[str] = []
    rk = cache(lambda: relative_kleppner(G, H, sigma))
    sc = cache(lambda: sigma_centralizer(G, H, sigma).is_trivial)
    ts = cache(lambda: twisted_simplicity(G, sigma, H))

    fch_h = G.predicate(H, "fc_hypercentral")
    cs_h = G.predicate(H, "cstar_simple")
    prime_h = G.predicate(H, "prime")
    fch_fact = ("H FC-hypercentral", fch_h.status)
    cs_fact = ("H C*-simple", cs_h.status)
    prime_fact = ("H prime", prime_h.status)
    fch_dixmier = ("the inclusion also has the relative Dixmier property "
                   "(unique trace available for FC-hypercentral H)")

    # 1. exact kernel decisions
    if G.exact_kernel and fch_h.holds:
        r = rk()
        if r.decided:
            return _verdict(HOLDS if r.holds else FAILS, f"{G.exact_kernel}-exact-kleppner",
                            [fch_fact, ("relative-kleppner", r.status)], r.witness,
                            r.notes + ((fch_dixmier,) if r.holds else ()))

    # 2. C*-simple H: twisted centralizer criterion
    if cs_h.holds:
        s = sc()
        premises = [cs_fact, ("twisted centralizer trivial", s.status)]
        if s.holds:
            return _verdict(HOLDS, "csimple-twisted-centralizer", premises,
                            notes=["the inclusion also has the relative Dixmier property "
                                   "(C*-simple subgroups carry a unique trace)"])
        if s.fails:
            return _verdict(FAILS, "csimple-twisted-centralizer", premises, s.witness, s.notes)
        notes.append("twisted centralizer undecided for C*-simple H")

    # 3. prime + FC-hypercentral H: Kleppner for H plus twisted centralizer
    if prime_h.holds and fch_h.holds:
        s = sc()
        rule, trivial_fact = "prime-fch-twisted-centralizer", ("twisted centralizer trivial",
                                                                s.status)
        if s.fails:
            return _verdict(FAILS, rule, [prime_fact, fch_fact, trivial_fact], s.witness,
                            notes + list(s.notes))
        inner = kleppner(G, sigma, H)
        if inner.decided:
            inner_fact = ("kleppner for (H, sigma|_H)", inner.status)
            if inner.fails:
                return _verdict(FAILS, rule, [prime_fact, fch_fact, inner_fact], inner.witness,
                                notes + list(inner.notes))
            if s.holds:
                return _verdict(HOLDS, rule, [prime_fact, fch_fact, inner_fact, trivial_fact],
                                notes=notes + [fch_dixmier])

    # 4. prime H: twisted simplicity of H plus twisted centralizer.  It only
    # fails: a C*-simple (H, sigma|_H) leaves the holds case to rule 2 or 3
    if prime_h.holds:
        s = sc()
        rule, trivial_fact = "prime-twisted-centralizer", ("twisted centralizer trivial",
                                                            s.status)
        if s.fails:
            return _verdict(FAILS, rule, [prime_fact, trivial_fact], s.witness, notes)
        t = ts()
        simple_fact = ("(H, sigma|_H) C*-simple", t.conclusion)
        if t.fails:
            return _verdict(FAILS, rule, [prime_fact, simple_fact], t.witness, notes)

    # 5. FC-hypercentral or C*-simple H: relative Kleppner alone decides
    if fch_h.holds or cs_h.holds:
        r = rk()
        if r.decided:
            dixmier = ["the inclusion also has the relative Dixmier property"] if r.holds else []
            return _verdict(HOLDS if r.holds else FAILS, "fch-or-csimple-relative-kleppner",
                            [fch_fact, cs_fact, ("relative-kleppner", r.status)], r.witness,
                            notes + list(r.notes) + dixmier)

    # 6. general normal case: twisted simplicity of H plus relative Kleppner.
    # It only fails: a C*-simple (H, sigma|_H) leaves the holds case to rule 5
    t, r = ts(), rk()
    premises = [("(H, sigma|_H) C*-simple", t.conclusion), ("relative-kleppner", r.status)]
    if t.fails or r.fails:
        return _verdict(FAILS, "simple-plus-relative-kleppner", premises,
                        (t if t.fails else r).witness, notes)

    notes.append(f"missing premises: (H,sigma|_H) C*-simple={t.conclusion}, "
                 f"relative-kleppner={r.status}, H prime={prime_h.status}, "
                 f"H FC-hypercentral={fch_h.status}, H C*-simple={cs_h.status}")
    return Verdict(INCONCLUSIVE, (), notes=tuple(notes))


# ---------------------------------------------------------------------------
# the intermediate lattice
# ---------------------------------------------------------------------------

def intermediate_lattice(G: Group, H: Subgroup, sigma: Cocycle,
                         max_entries: int = 8,
                         verdict: Optional[Verdict] = None) -> LatticeResult:
    """Intermediate twisted algebras of the inclusion, via intermediate subgroups.

    Requires an irreducible inclusion (the correspondence is bijective there);
    finite quotients are enumerated completely, a recognized Z-graded quotient
    is emitted as a truncated family, everything else is unknown.  sigma must
    be a 2-cocycle; this function does not validate it.
    """
    if verdict is None:
        verdict = cstar_irreducible(G, H, sigma)
    if not verdict.holds:
        return LatticeResult("unknown", (),
                             f"lattice correspondence needs an irreducible inclusion "
                             f"(verdict: {verdict.conclusion})")
    return G.intermediate_subgroups(H, max_entries)
