import importlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from test_acceptance import sweep_group_names

from kleppner.cocycles import (F2Z2Cocycle, HeisenbergCocycle, SeededBeta, TrivialCocycle,
                               rotation_cocycle, similarity_transform, three_torus_cocycle,
                               transport)
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             centralizer_of_subgroup, from_name)
from kleppner.oracle import center_dim, relative_commutant_dim
from kleppner.phases import IrrationalBasis, Phase, parse_phase
from kleppner.groups.subgroups import INFINITE, Classification
from kleppner.randomized import random_table_cocycle
from kleppner.regularity import is_sigma_regular, kleppner
from kleppner.verdicts import cstar_irreducible, intermediate_lattice, twisted_simplicity

B = IrrationalBasis(["theta"])
TH = B.symbol("theta")
Z2 = FreeAbelian(2)
HEIS = Heisenberg()
F2 = FreeGroup(2)
F2Z2 = DirectProduct(F2, from_name("Z_2"))
F2Z = DirectProduct(F2, FreeAbelian(1))
HF = Subgroup.product(F2Z2, Subgroup.full(F2), Subgroup.trivial(F2Z2.right))


def test_twisted_simplicity_rules():
    v1 = twisted_simplicity(Z2, rotation_cocycle(Z2, TH))
    assert v1.holds and v1.chain[0].rule == "kleppner-center"
    v2 = twisted_simplicity(F2, TrivialCocycle(F2))
    assert v2.holds and v2.chain[0].rule == "untwisted-cstar-simple"
    v3 = twisted_simplicity(Z2, TrivialCocycle(Z2))
    assert v3.fails and v3.chain[0].rule == "kleppner-center"
    # necessity rule fires when the other premises are missing
    v4 = twisted_simplicity(F2Z2, TrivialCocycle(F2Z2))
    assert v4.fails and v4.chain[-1].rule in ("kleppner-center", "kleppner-necessary")


def test_torus_verdicts():
    sig = rotation_cocycle(Z2, TH)
    for (p, q) in [(1, 2), (2, 3), (3, 5)]:
        H = Subgroup.sublattice(Z2, [(p, 0), (0, q)])
        v = cstar_irreducible(Z2, H, sig)
        assert v.holds
    half = rotation_cocycle(Z2, Phase(Fraction(1, 2)))
    v2 = cstar_irreducible(Z2, Subgroup.sublattice(Z2, [(1, 0), (0, 2)]), half)
    assert v2.fails


def test_three_torus_verdicts():
    z3 = FreeAbelian(3)
    H = Subgroup.sublattice(z3, [(1, 0, 0), (0, 1, 0)])
    b3 = IrrationalBasis(["t1", "t2", "t3"])
    independent = three_torus_cocycle(z3, [b3.symbol("t1"), b3.symbol("t2"), b3.symbol("t3")])
    assert cstar_irreducible(z3, H, independent).holds

    b2 = IrrationalBasis(["t1", "t2"])
    rational3 = three_torus_cocycle(z3, [b2.symbol("t1"), b2.symbol("t2"),
                                         b2.rational(Fraction(1, 2))])
    v = cstar_irreducible(z3, H, rational3)
    assert v.fails

    b1 = IrrationalBasis(["t3"])
    t3 = b1.symbol("t3")
    dependent = three_torus_cocycle(
        z3, [parse_phase("1/3 + (2)t3", b1), parse_phase("1/2 + t3", b1), t3])
    assert cstar_irreducible(z3, H, dependent).fails


def test_heisenberg_verdicts():
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    bh = IrrationalBasis(["gamma", "theta"])
    formal = HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.symbol("theta"))
    v = cstar_irreducible(HEIS, hsub, formal)
    assert v.holds and v.chain[0].rule == "prime-fch-twisted-centralizer"
    # gamma formal but theta rational still fails
    mixed = HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.rational(Fraction(1, 3)))
    v2 = cstar_irreducible(HEIS, hsub, mixed)
    assert v2.fails
    w = v2.witness
    assert w != (0, 0, 0) and w[0] == 0 and w[1] % 3 == 0 and w[2] % 3 == 0


def test_f2z2_verdicts():
    for j in (1, 2, 3):
        v = cstar_irreducible(F2Z2, HF, F2Z2Cocycle(F2Z2, j))
        assert v.holds and v.chain[0].rule == "csimple-twisted-centralizer"
    vt = cstar_irreducible(F2Z2, HF, TrivialCocycle(F2Z2))
    assert vt.fails and vt.witness == (F2.identity(), 1)


# (G, H) with the trivial cocycle on which each rule decides the verdict
LATE_RULES = {
    "prime-twisted-centralizer": (F2Z, Subgroup.full(F2Z)),
    "fch-or-csimple-relative-kleppner":
        (F2Z2, Subgroup.product(F2Z2, Subgroup.trivial(F2), Subgroup.full(F2Z2.right))),
    "simple-plus-relative-kleppner": (F2Z2, Subgroup.full(F2Z2)),
}


@pytest.mark.parametrize("rule", list(LATE_RULES))
def test_late_verdict_rules_fail_with_regular_witness(rule):
    G, H = LATE_RULES[rule]
    sigma = TrivialCocycle(G)
    v = cstar_irreducible(G, H, sigma)
    assert v.fails and v.chain[-1].rule == rule
    w = v.witness
    elems = w.elements if isinstance(w, Classification) else (w,)
    assert elems
    for g in elems:
        assert g != G.identity() and is_sigma_regular(g, H, sigma).holds


def test_nonnormal_refusal():
    s3 = from_name("S_3")
    order2 = next(s for s in s3.all_subgroups() if len(s) == 2)
    H = Subgroup.finite_subset(s3, order2)
    v = cstar_irreducible(s3, H, TrivialCocycle(s3))
    assert v.inconclusive
    assert v.chain[0].rule == "normality-gate"


def test_untwisted_criterion_invariant():
    # with the trivial cocycle: verdict holds iff H is C*-simple and C_G(H) trivial
    f2xf2 = DirectProduct(F2, FreeGroup(2))
    cases = [
        (F2Z2, HF),
        (HEIS, Subgroup.coordinate_zero(HEIS, {0})),
        (Z2, Subgroup.sublattice(Z2, [(2, 0), (0, 2)])),
        (f2xf2, Subgroup.product(f2xf2, Subgroup.full(F2),
                                 Subgroup.trivial(f2xf2.right))),
    ]
    for G, H in cases:
        v = cstar_irreducible(G, H, TrivialCocycle(G))
        if v.inconclusive:
            continue
        cs = G.predicate(H, "cstar_simple")
        cent = centralizer_of_subgroup(G, H)
        expected = cs.holds and cent is not None and cent.is_trivial_subgroup()
        assert v.holds == expected


def test_f2xf2_diagonal_style_product_fails():
    # G = F2 x F2, H = F2 x {e}: G is C*-simple but the inclusion is not
    # irreducible (the other factor centralizes H)
    g2 = DirectProduct(F2, FreeGroup(2))
    h = Subgroup.product(g2, Subgroup.full(F2), Subgroup.trivial(g2.right))
    v = cstar_irreducible(g2, h, TrivialCocycle(g2))
    assert v.fails


def test_lattice_counts():
    sig = rotation_cocycle(Z2, TH)
    h13 = Subgroup.sublattice(Z2, [(1, 0), (0, 3)])
    lat = intermediate_lattice(Z2, h13, sig)
    assert lat.complete and lat.count == 2  # p = 1, q prime: no strict intermediates

    h22 = Subgroup.sublattice(Z2, [(2, 0), (0, 2)])
    lat22 = intermediate_lattice(Z2, h22, sig)
    assert lat22.complete and lat22.count == 5  # subgroups of Z_2 x Z_2

    h12 = Subgroup.sublattice(Z2, [(1, 0), (0, 2)])
    assert intermediate_lattice(Z2, h12, sig).count == 2


def test_lattice_entries_contain_h_and_g():
    sig = rotation_cocycle(Z2, TH)
    h22 = Subgroup.sublattice(Z2, [(2, 0), (0, 2)])
    lat = intermediate_lattice(Z2, h22, sig)
    indices = sorted(e.index_in_g for e in lat.entries)
    assert indices == [1, 2, 2, 2, 4]
    for e in lat.entries:
        # every intermediate contains H
        assert e.subgroup.contains((2, 0)) and e.subgroup.contains((0, 2))


def test_heisenberg_lattice_prefix():
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    bh = IrrationalBasis(["gamma", "theta"])
    sig = HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.symbol("theta"))
    lat = intermediate_lattice(HEIS, hsub, sig, max_entries=5)
    labels = [e.label for e in lat.entries]
    assert labels == ["Gamma_0 (= H)", "Gamma_1 (= G)", "Gamma_2", "Gamma_3",
                      "Gamma_4", "Gamma_5"]
    assert lat.entries[1].subgroup.is_full()
    assert lat.entries[3].subgroup.contains((3, 1, -2))
    assert lat.entries[3].subgroup.contains((0, 5, 7))
    assert not lat.entries[3].subgroup.contains((1, 0, 0))
    # every Gamma_n contains H
    for e in lat.entries[2:]:
        assert e.subgroup.contains((0, 1, 0)) and e.subgroup.contains((0, 0, 1))


def test_heisenberg_congruence_lattice_through_the_verdict():
    h4 = Subgroup.heis_congruence(HEIS, 4)
    bh = IrrationalBasis(["gamma", "theta"])
    sig = HeisenbergCocycle(HEIS, bh.rational(0), bh.symbol("theta"))
    lat = intermediate_lattice(HEIS, h4, sig)
    assert lat.complete and [e.label for e in lat.entries] == \
        ["Gamma_4 (= H)", "Gamma_2", "Gamma_1 (= G)"]


def test_lattice_refused_without_irreducibility():
    half = rotation_cocycle(Z2, Phase(Fraction(1, 2)))
    h = Subgroup.sublattice(Z2, [(1, 0), (0, 2)])
    lat = intermediate_lattice(Z2, h, half)
    assert lat.status == "unknown"


def test_finite_lattice_and_oracle_consistency():
    rng = random.Random(9)
    g = from_name("Z_2 x Z_4")
    sig = random_table_cocycle(g, rng)
    for hset in g.all_subgroups():
        H = Subgroup.finite_subset(g, hset)
        v = cstar_irreducible(g, H, sig)
        # finite case: verdict holds iff relative commutant is trivial and the
        # subgroup algebra has trivial center
        dim = relative_commutant_dim(g, H, sig).dimension
        sub = H.as_group()
        from kleppner.cocycles import PullbackCocycle
        restr = PullbackCocycle(sig, sub.group, sub.embed)
        cdim = center_dim(sub.group, restr)
        assert v.holds == (dim == 1 and cdim == 1)
        if v.holds:
            lat = intermediate_lattice(g, H, sig)
            assert lat.complete
            for e in lat.entries:
                assert set(hset) <= set(e.subgroup.elements)


def test_verdict_chain_premises_replay():
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    bh = IrrationalBasis(["gamma", "theta"])
    sig = HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.symbol("theta"))
    v = cstar_irreducible(HEIS, hsub, sig)
    prem = dict()
    for step in v.chain:
        prem.update(dict(step.premises))
    assert prem["H prime"] == HEIS.predicate(hsub, "prime").status
    assert prem["H FC-hypercentral"] == HEIS.predicate(hsub, "fc_hypercentral").status
    from kleppner.regularity import sigma_centralizer
    assert prem["twisted centralizer trivial"] == sigma_centralizer(HEIS, hsub, sig).is_trivial.status


def test_verdict_similarity_invariance_smoke():
    sig = rotation_cocycle(Z2, TH)
    H = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    base = cstar_irreducible(Z2, H, sig)
    for seed in range(3):
        tw = similarity_transform(sig, SeededBeta(Z2, seed, 8))
        v = cstar_irreducible(Z2, H, tw)
        assert v.conclusion == base.conclusion


def test_chain_lattice_indices():
    # H = Gamma_0 has infinite index, and G / Gamma_k is Z_k
    z3 = FreeAbelian(3)
    h = Subgroup.sublattice(z3, [(1, 0, 0), (0, 1, 0)])
    b3 = IrrationalBasis(["t1", "t2", "t3"])
    sig = three_torus_cocycle(z3, [b3.symbol("t1"), b3.symbol("t2"), b3.symbol("t3")])
    bh = IrrationalBasis(["gamma", "theta"])
    chains = [(intermediate_lattice(z3, h, sig, max_entries=6), 6),
              (intermediate_lattice(HEIS, Subgroup.coordinate_zero(HEIS, {0}),
                                    HeisenbergCocycle(HEIS, bh.symbol("gamma"),
                                                      bh.symbol("theta")), max_entries=5), 5)]
    for lat, top in chains:
        assert lat.status == "truncated"
        assert [e.index_in_g for e in lat.entries] == [INFINITE] + list(range(1, top + 1))
        for e in lat.entries:
            assert e.index_in_g == e.subgroup.index()


def test_readme_rule_table_matches_rules():
    from kleppner.verdicts import _RULES
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("\n### Verdicts\n"):readme.index("\n### The finite oracle\n")]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        # cells split on unescaped pipes; a statement writes | as \|
        key, statement = (c.strip() for c in re.split(r"(?<!\\)\|", line.strip("|")))
        for rule in re.findall(r"`([^`]+)`", key):
            rows[rule] = statement.replace("\\|", "|")
    assert rows == _RULES


# ---------------------------------------------------------------------------
# (H, sigma|_H) decided in place, against H's standalone group
# ---------------------------------------------------------------------------

def _lift(witness, asg, G):
    """A witness found on H's standalone group, carried into G: a finite class
    becomes its embedded elements in G's order, an element its image."""
    if isinstance(witness, Classification):
        if witness.finite:
            return Classification("finite", tuple(sorted(map(asg.embed, witness.elements),
                                                         key=G.element_key)))
        return witness
    return None if witness is None else asg.embed(witness)


def _restriction_instances(workloads):
    """(G, H, sigma): Z^2 and Z^3 sublattices of every kind the decide
    workload draws, Heisenberg coordinate, echelon and congruence subgroups,
    product subgroups of F_2 x Z_2, and every subgroup of the swept finite
    tables under the trivial and seeded table cocycles."""
    rng = random.Random(29)
    for r in (2, 3):
        for nsym in (0, 1, 2):
            for kind in range(3):
                for _ in range(3):
                    G, H, sigma = workloads._zr(rng, r, nsym, kind)
                    yield G, H, sigma
                    yield G, workloads._sublattice(rng, G, kind), TrivialCocycle(G)
    bh = IrrationalBasis(["gamma", "theta"])
    heis_cocycles = [TrivialCocycle(HEIS)] + [
        HeisenbergCocycle(HEIS, bh.rational(Fraction(a, 6)) + bh.symbol("gamma", s),
                          bh.rational(Fraction(b, 4)) + bh.symbol("theta", t))
        for a, b, s, t in ((0, 0, 1, 1), (1, 2, 0, 0), (3, 1, 0, 1), (2, 3, 1, 0))]
    heis_subs = [Subgroup.coordinate_zero(HEIS, z) for z in ({0}, {1}, {0, 1}, {1, 2}, {0, 2})]
    heis_subs += [Subgroup.generated(HEIS, gens) for gens in (
        [(2, 1, 0), (0, 0, 3)], [(1, 1, 5)], [(0, 2, 1), (0, 0, 4)], [(3, 0, 0), (0, 0, 2)])]
    heis_subs += [Subgroup.heis_congruence(HEIS, m) for m in (2, 3)]
    for H in heis_subs:
        for sigma in heis_cocycles:
            yield HEIS, H, sigma
    a, b = F2.parse_element("a"), F2.parse_element("b")
    left = [Subgroup.full(F2), Subgroup.trivial(F2), Subgroup.generated(F2, [a]),
            Subgroup.generated(F2, [F2.mul(a, b)])]
    for L in left:
        for R in (Subgroup.full(F2Z2.right), Subgroup.trivial(F2Z2.right)):
            H = Subgroup.product(F2Z2, L, R)
            for sigma in [TrivialCocycle(F2Z2)] + [F2Z2Cocycle(F2Z2, j) for j in (1, 2, 3)]:
                yield F2Z2, H, sigma
    for name in sweep_group_names():
        G = from_name(name)
        for sigma in (TrivialCocycle(G), random_table_cocycle(G, rng),
                      random_table_cocycle(G, rng)):
            for hset in G.all_subgroups():
                yield G, Subgroup.finite_subset(G, hset), sigma


def test_kleppner_in_place_agrees_with_standalone_groups(monkeypatch):
    # wherever H's standalone group decides (H, sigma|_H), the answer in G is
    # the same, with the standalone witness embedded
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    decided = 0
    for G, H, sigma in _restriction_instances(importlib.import_module("workloads")):
        tr = transport(sigma, H)
        if tr is None:  # no standalone form
            continue
        restricted, asg = tr
        want_k = kleppner(asg.group, restricted)
        got_k = kleppner(G, sigma, H)
        if want_k.decided:
            decided += 1
            assert (got_k.status, got_k.witness) == \
                (want_k.status, _lift(want_k.witness, asg, G)), (H, sigma)
        want = twisted_simplicity(asg.group, restricted)
        got = twisted_simplicity(G, sigma, H)
        if not want.inconclusive:
            decided += 1
            assert (got.conclusion, got.chain, got.witness) == \
                (want.conclusion, want.chain, _lift(want.witness, asg, G)), (H, sigma)
    assert decided >= 1200
