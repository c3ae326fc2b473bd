"""Every exit of cstar_irreducible and twisted_simplicity (of G, and of a
subgroup H in place) that a catalog input reaches, pinned: the full report
dict (conclusion, rule, premises, witness and notes) of one instance per exit
must equal the one recorded in golden/verdict_exits.json."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from kleppner.cocycles import (F2Z2Cocycle, HeisenbergCocycle, PhaseTableCocycle,
                               ProductCocycle, TrivialCocycle, rotation_cocycle)
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             finite_class, from_name)
from kleppner.phases import IrrationalBasis, Phase
from kleppner.regularity import is_sigma_regular
from kleppner.report import _verdict_dict
from kleppner.verdicts import cstar_irreducible, twisted_simplicity

GOLDEN = Path(__file__).resolve().parent / "golden" / "verdict_exits.json"

B = IrrationalBasis(["gamma", "theta"])
GAMMA, THETA = B.symbol("gamma"), B.symbol("theta")
HALF = Phase(Fraction(1, 2))
Z2 = FreeAbelian(2)
HEIS = Heisenberg()
F2 = FreeGroup(2)
F2Z = DirectProduct(F2, FreeAbelian(1))
K4 = from_name("Z_2 x Z_2")
# sigma(x, y) = x2 * y1 / 2: the class of Z_2 x Z_2 with a full matrix algebra
K4_TABLE = [[Phase(Fraction((x % 2) * (y // 2), 2)) for y in range(4)] for x in range(4)]


def _normality_gate():
    s3 = from_name("S_3")
    order2 = next(s for s in s3.all_subgroups() if len(s) == 2)
    return s3, Subgroup.finite_subset(s3, order2), TrivialCocycle(s3)


def _f2_in_f2z2(cocycle):
    G = DirectProduct(F2, from_name("Z_2"))
    return G, Subgroup.product(G, Subgroup.full(F2), Subgroup.trivial(G.right)), cocycle(G)


def _f2z2_full(cocycle):
    # F_2 x Z_2 is neither prime, FC-hypercentral nor C*-simple, so only the
    # general normal-subgroup rule applies to H = G
    G = DirectProduct(F2, from_name("Z_2"))
    return G, Subgroup.full(G), cocycle(G)


def _k4_times_one(full: bool):
    # Z_2 x Z_2 behind a trivial factor: no exact kernel, so the relative
    # Kleppner rule decides through the twisted centralizer (strategy (b))
    G = DirectProduct(K4, from_name("Z_1"))
    H = Subgroup.full(G) if full else Subgroup.product(
        G, Subgroup.finite_subset(K4, [0, 1]), Subgroup.full(G.right))
    return G, H, ProductCocycle(G, PhaseTableCocycle(K4, K4_TABLE), TrivialCocycle(G.right))


def _trivially_twisted(G):
    return G, TrivialCocycle(G)


def _heis_times_s3():
    # gamma twists the central (0, 0, 1) against (1, 0, 0), so the twisted
    # center is trivial; but FC_G(G) = Z(Heis) x S_3 is infinite and does not
    # centralize G, so Kleppner's condition stays undecided
    G = DirectProduct(HEIS, from_name("S_3"))
    return G, ProductCocycle(G, HeisenbergCocycle(HEIS, GAMMA, THETA), TrivialCocycle(G.right))


def _trivially_twisted_full(G):
    return G, Subgroup.full(G), TrivialCocycle(G)


CSTAR = {
    "normality-gate": _normality_gate,
    "finite-exact-kleppner holds": lambda: (K4, Subgroup.full(K4),
                                            PhaseTableCocycle(K4, K4_TABLE)),
    "finite-exact-kleppner fails": lambda: _trivially_twisted_full(K4),
    "abelian-exact-kleppner holds": lambda: (Z2, Subgroup.sublattice(Z2, [(1, 0), (0, 2)]),
                                             rotation_cocycle(Z2, THETA)),
    "abelian-exact-kleppner fails": lambda: (Z2, Subgroup.sublattice(Z2, [(1, 0), (0, 2)]),
                                             rotation_cocycle(Z2, HALF)),
    "csimple-twisted-centralizer holds": lambda: (F2, Subgroup.full(F2), TrivialCocycle(F2)),
    "csimple-twisted-centralizer holds twisted": lambda: _f2_in_f2z2(lambda G: F2Z2Cocycle(G, 1)),
    "csimple-twisted-centralizer fails": lambda: _f2_in_f2z2(TrivialCocycle),
    "prime-fch-twisted-centralizer fails": lambda: _trivially_twisted_full(HEIS),
    "prime-fch-twisted-centralizer holds": lambda: (
        HEIS, Subgroup.coordinate_zero(HEIS, {0}), HeisenbergCocycle(HEIS, GAMMA, THETA)),
    "prime-twisted-centralizer fails": lambda: _trivially_twisted_full(F2Z),
    "fch-or-csimple-relative-kleppner holds": lambda: _k4_times_one(True),
    "fch-or-csimple-relative-kleppner fails": lambda: _k4_times_one(False),
    "simple-plus-relative-kleppner fails": lambda: _f2z2_full(TrivialCocycle),
    "inconclusive": lambda: _f2z2_full(lambda G: F2Z2Cocycle(G, 1)),
}

TWISTED = {
    "kleppner-center holds": lambda: (Z2, rotation_cocycle(Z2, THETA)),
    "kleppner-center fails": lambda: (Z2, TrivialCocycle(Z2)),
    "untwisted-cstar-simple": lambda: (F2, TrivialCocycle(F2)),
    "kleppner-necessary": lambda: _trivially_twisted(F2Z),
    "inconclusive": _heis_times_s3,
}

def _congruence_times_s3():
    # as for Heis x S_3 above: Z(H) = <(0, 0, 1)> x {e} has a trivial twisted
    # part, but FC_G(H) does not centralize H and is not finite
    G, sigma = _heis_times_s3()
    return G, Subgroup.product(G, Subgroup.heis_congruence(HEIS, 2), Subgroup.full(G.right)), sigma


SUBGROUP = {
    # the witness of H = {(0, b, c)} is an element of Heis, not a vector of Z^2
    "kleppner-center fails": lambda: (HEIS, Subgroup.coordinate_zero(HEIS, {0}),
                                      HeisenbergCocycle(HEIS, GAMMA, B.rational(Fraction(1, 3)))),
    "inconclusive": _congruence_times_s3,
}


def _cstar(build):
    G, H, sigma = build()
    return G, cstar_irreducible(G, H, sigma)


def _twisted(build):
    G, sigma = build()
    return G, twisted_simplicity(G, sigma)


def _subgroup(build):
    G, H, sigma = build()
    return G, twisted_simplicity(G, sigma, H)


# golden key -> thunk returning (G, verdict)
CASES = {
    **{f"cstar_irreducible: {k}": (lambda b=b: _cstar(b)) for k, b in CSTAR.items()},
    **{f"twisted_simplicity: {k}": (lambda b=b: _twisted(b)) for k, b in TWISTED.items()},
    **{f"twisted_simplicity(G, sigma, H): {k}": (lambda b=b: _subgroup(b))
       for k, b in SUBGROUP.items()},
}
EXPECTED = json.loads(GOLDEN.read_text())


def test_golden_names_every_pinned_instance():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_exit_matches_golden(name):
    G, verdict = CASES[name]()
    assert _verdict_dict(G, verdict) == EXPECTED[name]
    rules = [step.rule for step in verdict.chain]
    exit_name = name.split(": ", 1)[1]
    if exit_name == "inconclusive":
        assert verdict.inconclusive and rules == []
    else:
        assert rules == [exit_name.split()[0]]


def test_former_congruence_instances_are_decided():
    # {(a1, a2, a3) : 2 | a1} pinned the two exits above until its catalog
    # predicates were derived: it is prime and FC-hypercentral
    H = Subgroup.heis_congruence(HEIS, 2)
    trivial = TrivialCocycle(HEIS)
    v = cstar_irreducible(HEIS, H, trivial)
    assert v.fails and [step.rule for step in v.chain] == ["prime-fch-twisted-centralizer"]
    assert v.witness == (0, 0, 1) and is_sigma_regular(v.witness, H, trivial).holds
    # H's basis does not commute, so H has no standalone form; (H, sigma|_H) is
    # decided inside G, where Z(H) = <(0, 0, 1)>
    v = twisted_simplicity(HEIS, trivial, H)
    assert v.fails and [step.rule for step in v.chain] == ["kleppner-center"]
    assert v.witness == finite_class([(0, 0, 1)])
    # Kleppner's condition for (H, sigma|_H) is decided inside G, so rule 3
    # decides before relative Kleppner is asked
    v = cstar_irreducible(HEIS, H, HeisenbergCocycle(HEIS, B.rational(0), THETA))
    assert v.holds and [step.rule for step in v.chain] == ["prime-fch-twisted-centralizer"]
