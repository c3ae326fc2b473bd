import random
from fractions import Fraction

import pytest

from kleppner.cocycles import (F2Z2Cocycle, HeisenbergCocycle, SeededBeta, TrivialCocycle,
                               rotation_cocycle, similarity_transform, three_torus_cocycle)
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             centralizer_of_subgroup, from_name, is_cstar_simple,
                             subgroup_predicate)
from kleppner.oracle import center_dim, relative_commutant_dim
from kleppner.phases import IrrationalBasis, Phase
from kleppner.groups.subgroups import Classification
from kleppner.randomized import random_table_cocycle
from kleppner.regularity import is_sigma_regular
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
    dependent = three_torus_cocycle(z3, [b1.parse("1/3 + (2)t3"), b1.parse("1/2 + t3"), t3])
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
        cs = subgroup_predicate(H, is_cstar_simple)
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
                assert set(hset) <= set(e.subgroup.desc.elements)


def test_verdict_chain_premises_replay():
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    bh = IrrationalBasis(["gamma", "theta"])
    sig = HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.symbol("theta"))
    v = cstar_irreducible(HEIS, hsub, sig)
    prem = dict()
    for step in v.chain:
        prem.update(dict(step.premises))
    from kleppner.groups import is_fc_hypercentral, is_prime, subgroup_predicate
    assert prem["H prime"] == subgroup_predicate(hsub, is_prime).status
    assert prem["H FC-hypercentral"] == subgroup_predicate(hsub, is_fc_hypercentral).status
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
