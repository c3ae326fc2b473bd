"""Inference rules over kernel facts: twisted simplicity, irreducibility of the
inclusion, and the intermediate-subgroup lattice.

Every verdict carries a chain of applied rules whose premises are plain kernel
facts, so any conclusion can be replayed.  Rule priority: exact kernel
decisions (finite tables, free abelian groups) first, then the twisted-
centralizer criteria, the lifting rule, the relative-Kleppner criteria, and
the general normal-subgroup criterion last; the first rule with all premises
decided wins, and anything undecided stays inconclusive rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from . import tribool as tb
from .cocycles import Cocycle, TrivialCocycle, transport
from .groups.base import Group, GroupError, LatticeResult
from .groups.structure import (is_cstar_simple, is_fc_hypercentral, is_normal, is_prime,
                               subgroup_predicate)
from .groups.subgroups import Subgroup
from .regularity import SigmaCentralizerResult, kleppner, relative_kleppner, sigma_centralizer
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
    "untwisted-irreducible-lifts": "an irreducible untwisted normal inclusion stays "
                                   "irreducible under every two-cocycle",
    "fch-or-csimple-relative-kleppner": "for FC-hypercentral or C*-simple normal H, the "
                                        "inclusion is irreducible iff the relative Kleppner "
                                        "condition holds",
    "simple-plus-relative-kleppner": "for normal H the inclusion is irreducible iff "
                                     "(H, sigma|_H) is C*-simple and the relative Kleppner "
                                     "condition holds",
}


def _step(rule: str, *premises: tuple[str, str]) -> RuleStep:
    return RuleStep(rule, _RULES[rule], tuple(premises))


def _tri_str(t: TriBool) -> str:
    return t.status


# ---------------------------------------------------------------------------
# twisted simplicity
# ---------------------------------------------------------------------------

def twisted_simplicity(G: Group, sigma: Cocycle) -> Verdict:
    """Simplicity of the twisted group algebra of (G, sigma), by catalog rules."""
    if sigma.group is not G:
        raise GroupError("cocycle must live on the group")
    chain: list[RuleStep] = []
    notes: list[str] = []
    k: Optional[TriBool] = None

    fch = is_fc_hypercentral(G)
    if fch.holds:
        k = kleppner(G, sigma)
        step = _step("kleppner-center",
                     ("FC-hypercentral", _tri_str(fch)), ("kleppner", _tri_str(k)))
        if k.decided:
            chain.append(step)
            concl = HOLDS if k.holds else FAILS
            return Verdict(concl, tuple(chain), witness=k.witness, notes=tuple(k.notes))
        notes.append("Kleppner's condition undecided despite FC-hypercentrality")

    cs = is_cstar_simple(G)
    if cs.holds:
        chain.append(_step("untwisted-cstar-simple", ("C*-simple", _tri_str(cs))))
        return Verdict(HOLDS, tuple(chain), notes=tuple(cs.notes))

    if k is None:
        k = kleppner(G, sigma)
    if k.fails:
        chain.append(_step("kleppner-necessary", ("kleppner", _tri_str(k))))
        return Verdict(FAILS, tuple(chain), witness=k.witness, notes=tuple(k.notes))

    notes.append(f"missing premises: FC-hypercentral={fch.status}, "
                 f"C*-simple={cs.status}, kleppner={k.status}")
    return Verdict(INCONCLUSIVE, tuple(chain), notes=tuple(notes))


def twisted_simplicity_subgroup(H: Subgroup, sigma: Cocycle) -> Verdict:
    """twisted_simplicity of (H, sigma|_H) through the standalone form of H.

    Witnesses are lifted back into the ambient group.
    """
    tr = transport(sigma, H)
    if tr is None:
        return Verdict(INCONCLUSIVE, (),
                       notes=(f"{H.describe_desc()} has no standalone catalog form",))
    restricted, asg = tr
    v = twisted_simplicity(asg.group, restricted)
    if v.witness is None or asg.group is H.parent:
        return v
    return Verdict(v.conclusion, v.chain, asg.lift(v.witness, H.parent), v.notes)


# ---------------------------------------------------------------------------
# irreducibility of the inclusion
# ---------------------------------------------------------------------------

def cstar_irreducible(G: Group, H: Subgroup, sigma: Cocycle) -> Verdict:
    """Is every intermediate algebra of the twisted inclusion simple?

    Only decided for normal H; for non-normal subgroups the criteria used
    here genuinely break down, so the engine refuses instead of guessing.
    """
    if H.parent is not G or sigma.group is not G:
        raise GroupError("group, subgroup and cocycle must be aligned")
    nrm = is_normal(H)
    if not nrm.holds:
        return Verdict(INCONCLUSIVE,
                       (_step("normality-gate", ("H normal in G", _tri_str(nrm))),),
                       notes=("the characterization can fail for non-normal subgroups, "
                              "so no verdict is emitted without normality",))

    chain: list[RuleStep] = []
    notes: list[str] = []
    lazy: dict[str, Any] = {}

    def rk() -> TriBool:
        if "rk" not in lazy:
            lazy["rk"] = relative_kleppner(G, H, sigma)
        return lazy["rk"]

    def sc() -> SigmaCentralizerResult:
        if "sc" not in lazy:
            lazy["sc"] = sigma_centralizer(G, H, sigma)
        return lazy["sc"]

    fch_h = subgroup_predicate(H, is_fc_hypercentral)
    cs_h = subgroup_predicate(H, is_cstar_simple)
    prime_h = subgroup_predicate(H, is_prime)

    # 1. exact kernel decisions
    if G.exact_kernel and fch_h.holds:
        r = rk()
        if r.decided:
            chain.append(_step(f"{G.exact_kernel}-exact-kleppner",
                               ("H FC-hypercentral", _tri_str(fch_h)),
                               ("relative-kleppner", _tri_str(r))))
            notes.extend(r.notes)
            if r.holds:
                notes.append("the inclusion also has the relative Dixmier property "
                             "(unique trace available for FC-hypercentral H)")
            return Verdict(HOLDS if r.holds else FAILS, tuple(chain), witness=r.witness,
                           notes=tuple(notes))

    # 2. C*-simple H: twisted centralizer criterion
    if cs_h.holds:
        s = sc()
        if s.is_trivial.decided:
            chain.append(_step("csimple-twisted-centralizer",
                               ("H C*-simple", _tri_str(cs_h)),
                               ("twisted centralizer trivial", _tri_str(s.is_trivial))))
            if s.is_trivial.holds:
                notes.append("the inclusion also has the relative Dixmier property "
                             "(C*-simple subgroups carry a unique trace)")
                return Verdict(HOLDS, tuple(chain), notes=tuple(notes))
            return Verdict(FAILS, tuple(chain), witness=s.is_trivial.witness,
                           notes=tuple(notes) + tuple(s.is_trivial.notes))
        notes.append("twisted centralizer undecided for C*-simple H")

    # 3. prime + FC-hypercentral H: Kleppner for H plus twisted centralizer
    if prime_h.holds and fch_h.holds:
        s = sc()
        inner = _inner_kleppner(H, sigma)
        if s.is_trivial.fails:
            chain.append(_step("prime-fch-twisted-centralizer",
                               ("H prime", _tri_str(prime_h)),
                               ("H FC-hypercentral", _tri_str(fch_h)),
                               ("twisted centralizer trivial", _tri_str(s.is_trivial))))
            return Verdict(FAILS, tuple(chain), witness=s.is_trivial.witness,
                           notes=tuple(notes) + tuple(s.is_trivial.notes))
        if inner is not None and inner.fails:
            chain.append(_step("prime-fch-twisted-centralizer",
                               ("H prime", _tri_str(prime_h)),
                               ("H FC-hypercentral", _tri_str(fch_h)),
                               ("kleppner for (H, sigma|_H)", _tri_str(inner))))
            return Verdict(FAILS, tuple(chain), witness=inner.witness,
                           notes=tuple(notes) + tuple(inner.notes))
        if inner is not None and inner.holds and s.is_trivial.holds:
            chain.append(_step("prime-fch-twisted-centralizer",
                               ("H prime", _tri_str(prime_h)),
                               ("H FC-hypercentral", _tri_str(fch_h)),
                               ("kleppner for (H, sigma|_H)", _tri_str(inner)),
                               ("twisted centralizer trivial", _tri_str(s.is_trivial))))
            notes.append("the inclusion also has the relative Dixmier property "
                         "(unique trace available for FC-hypercentral H)")
            return Verdict(HOLDS, tuple(chain), notes=tuple(notes))

    # 4. prime H: twisted simplicity of H plus twisted centralizer
    if prime_h.holds:
        s = sc()
        ts = twisted_simplicity_subgroup(H, sigma)
        if s.is_trivial.fails:
            chain.append(_step("prime-twisted-centralizer",
                               ("H prime", _tri_str(prime_h)),
                               ("twisted centralizer trivial", _tri_str(s.is_trivial))))
            return Verdict(FAILS, tuple(chain), witness=s.is_trivial.witness, notes=tuple(notes))
        if ts.fails:
            chain.append(_step("prime-twisted-centralizer",
                               ("H prime", _tri_str(prime_h)),
                               ("(H, sigma|_H) C*-simple", ts.conclusion)))
            return Verdict(FAILS, tuple(chain), witness=ts.witness, notes=tuple(notes))
        if ts.holds and s.is_trivial.holds:
            chain.append(_step("prime-twisted-centralizer",
                               ("H prime", _tri_str(prime_h)),
                               ("(H, sigma|_H) C*-simple", ts.conclusion),
                               ("twisted centralizer trivial", _tri_str(s.is_trivial))))
            return Verdict(HOLDS, tuple(chain), notes=tuple(notes))

    # 5. lift of an untwisted irreducible inclusion
    if not sigma.is_trivial_like():
        untw = cstar_irreducible(G, H, TrivialCocycle(G))
        if untw.holds:
            chain.append(_step("untwisted-irreducible-lifts",
                               ("untwisted inclusion irreducible", untw.conclusion)))
            return Verdict(HOLDS, tuple(chain), notes=tuple(notes))

    # 6. FC-hypercentral or C*-simple H: relative Kleppner alone decides
    if fch_h.holds or cs_h.holds:
        r = rk()
        if r.decided:
            chain.append(_step("fch-or-csimple-relative-kleppner",
                               ("H FC-hypercentral", _tri_str(fch_h)),
                               ("H C*-simple", _tri_str(cs_h)),
                               ("relative-kleppner", _tri_str(r))))
            notes.extend(r.notes)
            if r.holds:
                notes.append("the inclusion also has the relative Dixmier property")
            return Verdict(HOLDS if r.holds else FAILS, tuple(chain), witness=r.witness,
                           notes=tuple(notes))

    # 7. general normal case: twisted simplicity of H plus relative Kleppner
    ts = twisted_simplicity_subgroup(H, sigma)
    r = rk()
    if ts.fails or r.fails:
        src = ts if ts.fails else r
        chain.append(_step("simple-plus-relative-kleppner",
                           ("(H, sigma|_H) C*-simple", ts.conclusion),
                           ("relative-kleppner", _tri_str(r))))
        return Verdict(FAILS, tuple(chain), witness=src.witness, notes=tuple(notes))
    if ts.holds and r.holds:
        chain.append(_step("simple-plus-relative-kleppner",
                           ("(H, sigma|_H) C*-simple", ts.conclusion),
                           ("relative-kleppner", _tri_str(r))))
        return Verdict(HOLDS, tuple(chain), notes=tuple(notes))

    notes.append(f"missing premises: (H,sigma|_H) C*-simple={ts.conclusion}, "
                 f"relative-kleppner={r.status}, H prime={prime_h.status}, "
                 f"H FC-hypercentral={fch_h.status}, H C*-simple={cs_h.status}")
    return Verdict(INCONCLUSIVE, tuple(chain), notes=tuple(notes))


def _inner_kleppner(H: Subgroup, sigma: Cocycle) -> Optional[TriBool]:
    tr = transport(sigma, H)
    if tr is None:
        return None
    restricted, asg = tr
    inner = kleppner(asg.group, restricted)
    if inner.fails:
        return tb.fails(asg.lift(inner.witness, H.parent), *inner.notes)
    return inner


# ---------------------------------------------------------------------------
# the intermediate lattice
# ---------------------------------------------------------------------------

def intermediate_lattice(G: Group, H: Subgroup, sigma: Cocycle,
                         max_entries: int = 8,
                         verdict: Optional[Verdict] = None) -> LatticeResult:
    """Intermediate twisted algebras of the inclusion, via intermediate subgroups.

    Requires an irreducible inclusion (the correspondence is bijective there);
    finite quotients are enumerated completely, a recognized Z-graded quotient
    is emitted as a truncated family, everything else is unknown.
    """
    if verdict is None:
        verdict = cstar_irreducible(G, H, sigma)
    if not verdict.holds:
        return LatticeResult("unknown", (),
                             f"lattice correspondence needs an irreducible inclusion "
                             f"(verdict: {verdict.conclusion})")
    return G.intermediate_subgroups(H, max_entries)
