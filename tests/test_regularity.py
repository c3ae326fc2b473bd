import random
import time
from fractions import Fraction

from kleppner.cocycles import (F2Z2Cocycle, HeisenbergCocycle, PhaseTableCocycle,
                               ProductCocycle, SeededBeta, TrivialCocycle, commutation_phase,
                               rotation_cocycle, similarity_transform, three_torus_cocycle)
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             from_name, h_conjugacy_class)
from kleppner.phases import IrrationalBasis, Phase
from kleppner.randomized import random_table_cocycle
from kleppner.regularity import (is_sigma_regular, kleppner, relative_icc,
                                 relative_kleppner, sigma_centralizer,
                                 sigma_regular_subgroup, solve_pairing_lattice)

B = IrrationalBasis(["theta"])
TH = B.symbol("theta")
Z2 = FreeAbelian(2)
HEIS = Heisenberg()
F2 = FreeGroup(2)
F2Z2 = DirectProduct(F2, from_name("Z_2"))
HF = Subgroup.product(F2Z2, Subgroup.full(F2), Subgroup.trivial(F2Z2.right))


def heis_cocycle(gamma, theta):
    return HeisenbergCocycle(HEIS, gamma, theta)


# ---------------------------------------------------------------------------
# pointwise regularity
# ---------------------------------------------------------------------------

def test_regular_examples_torus():
    sig = rotation_cocycle(Z2, TH)
    hpq = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    r = is_sigma_regular((1, 4), hpq, sig)
    assert r.fails and r.witness in ((2, 0), (0, 3))
    assert is_sigma_regular((0, 0), hpq, sig).holds


def test_trivial_cocycle_everything_regular():
    rng = random.Random(0)
    hpq = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    triv = TrivialCocycle(Z2)
    for _ in range(30):
        assert is_sigma_regular(Z2.random_element(rng), hpq, triv).holds


def test_f2z2_central_element_not_regular():
    for j in (1, 2, 3):
        r = is_sigma_regular((F2.identity(), 1), HF, F2Z2Cocycle(F2Z2, j))
        assert r.fails


def test_heisenberg_rational_regular_element():
    sig = heis_cocycle(Phase(0), Phase(Fraction(1, 2)))
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    assert is_sigma_regular((0, 2, 0), hsub, sig).holds
    assert is_sigma_regular((0, 1, 0), hsub, sig).fails


def test_regularity_is_a_class_property():
    # sampled: every member of a finite class answers the same
    s4 = from_name("S_4")
    rng = random.Random(1)
    sig = random_table_cocycle(s4, rng)
    subs = s4.all_subgroups()
    for _ in range(20):
        H = Subgroup.finite_subset(s4, rng.choice(subs))
        g = s4.random_element(rng)
        cls = h_conjugacy_class(g, H)
        answers = {is_sigma_regular(x, H, sig).status for x in cls.elements}
        assert len(answers) == 1


# ---------------------------------------------------------------------------
# twisted centralizers
# ---------------------------------------------------------------------------

def test_sigma_centralizer_examples():
    for j in (1, 2, 3):
        res = sigma_centralizer(F2Z2, HF, F2Z2Cocycle(F2Z2, j))
        assert res.is_trivial.holds
        assert res.description.enumerate_elements() == [(F2.identity(), 0)]

    bh = IrrationalBasis(["theta"])
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    res2 = sigma_centralizer(HEIS, hsub, heis_cocycle(bh.zero(), bh.symbol("theta")))
    assert res2.is_trivial.holds

    # trivial sigma: twisted centralizer = plain centralizer
    res3 = sigma_centralizer(HEIS, hsub, TrivialCocycle(HEIS))
    assert res3.is_trivial.fails
    assert res3.plain_centralizer.describe_desc() == hsub.describe_desc()

    res4 = sigma_centralizer(F2Z2, HF, TrivialCocycle(F2Z2))
    assert res4.is_trivial.fails and res4.is_trivial.witness == (F2.identity(), 1)


def test_sigma_centralizer_heisenberg_rational():
    sig = heis_cocycle(Phase(0), Phase(Fraction(1, 2)))
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    res = sigma_centralizer(HEIS, hsub, sig)
    assert res.is_trivial.fails
    sub = res.description
    # S^sigma(H) = {(0, 2a, 2b)}: even pairs in the last two coordinates
    assert sub.contains((0, 2, 0)) and sub.contains((0, 0, 2)) and sub.contains((0, -4, 6))
    gens = sub.generators()
    assert all(g[0] == 0 and g[1] % 2 == 0 and g[2] % 2 == 0 for g in gens)


def test_listed_twisted_centralizer_generators_verify():
    # SigmaCentralizerResult invariant: listed generators have singleton classes
    # and trivial twist against the generators of H
    sig = heis_cocycle(Phase(0), Phase(Fraction(1, 3)))
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    res = sigma_centralizer(HEIS, hsub, sig)
    for g in res.description.generators():
        assert h_conjugacy_class(g, hsub).size == 1
        for h in hsub.generators():
            assert commutation_phase(sig, g, h).is_one()


# ---------------------------------------------------------------------------
# relative Kleppner / Kleppner / relative icc
# ---------------------------------------------------------------------------

def test_relative_kleppner_torus_examples():
    sig = rotation_cocycle(Z2, TH)
    for (p, q) in [(1, 2), (2, 3), (3, 5)]:
        H = Subgroup.sublattice(Z2, [(p, 0), (0, q)])
        assert relative_kleppner(Z2, H, sig).holds


def test_relative_kleppner_heisenberg():
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    bh = IrrationalBasis(["gamma", "theta"])
    formal = heis_cocycle(bh.symbol("gamma"), bh.symbol("theta"))
    assert relative_kleppner(HEIS, hsub, formal).holds
    rational = heis_cocycle(Phase(0), Phase(Fraction(1, 2)))
    r = relative_kleppner(HEIS, hsub, rational)
    assert r.fails
    witness = r.witness.elements[0]
    # the witness is a nontrivial element of S^sigma(H)
    assert witness != (0, 0, 0) and witness[0] == 0
    assert witness[1] % 2 == 0 and witness[2] % 2 == 0


def test_relative_kleppner_trivial_sigma_abelian():
    r = relative_kleppner(Z2, Subgroup.full(Z2), TrivialCocycle(Z2))
    assert r.fails and r.witness.elements == ((0, 1),)


def test_kleppner_examples():
    assert kleppner(Z2, rotation_cocycle(Z2, TH)).holds
    assert kleppner(Z2, rotation_cocycle(Z2, Phase(Fraction(1, 2)))).fails
    assert kleppner(Z2, TrivialCocycle(Z2)).fails
    z22 = from_name("Z_2 x Z_2")
    tbl = [[Phase(Fraction((g % 2) * (h // 2), 2)) for h in range(4)] for g in range(4)]
    assert kleppner(z22, PhaseTableCocycle(z22, tbl)).holds
    for j in (1, 2, 3):
        assert kleppner(F2Z2, F2Z2Cocycle(F2Z2, j)).holds
    assert kleppner(F2Z2, TrivialCocycle(F2Z2)).fails
    assert kleppner(F2, TrivialCocycle(F2)).holds  # icc


def test_products_of_lattices_take_the_lattice_route():
    # the FC-centralizer of Z^2 x Z^2 (of Heis x Heis: center x center) is a
    # product of lattices, which is one lattice
    for G, witness in ((DirectProduct(Z2, Z2), ((0, 0), (0, 1))),
                       (DirectProduct(HEIS, HEIS), ((0, 0, 0), (0, 0, 1)))):
        sigma = TrivialCocycle(G)
        r = kleppner(G, sigma)
        assert r.fails and r.witness.elements == (witness,)
        assert is_sigma_regular(witness, Subgroup.full(G), sigma).holds
    torus = DirectProduct(Z2, Z2)
    rot = rotation_cocycle(Z2, TH)
    assert kleppner(torus, ProductCocycle(torus, rot, rot)).holds


def test_relative_icc_examples():
    r = relative_icc(F2Z2, HF)
    assert r.fails and r.witness.elements == ((F2.identity(), 1),)
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    r2 = relative_icc(HEIS, hsub)
    assert r2.fails
    # trivial H inside a nontrivial group: every class is a singleton
    r3 = relative_icc(Z2, Subgroup.trivial(Z2))
    assert r3.fails
    # free group relative to itself: icc
    assert relative_icc(F2, Subgroup.full(F2)).holds


def test_relative_implies_absolute_on_decided_instances():
    # relative Kleppner holds => Kleppner for G and for (H, sigma|_H)
    from kleppner.cocycles import transport
    cases = [
        (Z2, Subgroup.sublattice(Z2, [(2, 0), (0, 3)]), rotation_cocycle(Z2, TH)),
        (HEIS, Subgroup.coordinate_zero(HEIS, {0}),
         heis_cocycle(IrrationalBasis(["g", "t"]).symbol("g"),
                      IrrationalBasis(["g", "t"]).symbol("t"))),
        (F2Z2, HF, F2Z2Cocycle(F2Z2, 2)),
    ]
    for G, H, sig in cases:
        rel = relative_kleppner(G, H, sig)
        assert rel.holds
        assert kleppner(G, sig).holds
        restricted, asg = transport(sig, H)
        assert kleppner(asg.group, restricted).holds


def test_finite_strategy_agrees_with_structure():
    # exhaustive finite check against an independent direct loop
    rng = random.Random(12)
    for name in ("Z_6", "D_4", "S_3"):
        G = from_name(name)
        sig = random_table_cocycle(G, rng)
        for hset in G.all_subgroups():
            H = Subgroup.finite_subset(G, hset)
            r = relative_kleppner(G, H, sig)
            # direct reimplementation
            helems = list(hset)
            bad = []
            for g in G.elements():
                if g == G.identity():
                    continue
                cls = {G.conj(h, g) for h in helems}
                cent = [h for h in helems if G.commutes(h, g)]
                if all(commutation_phase(sig, g, h).is_one() for h in cent):
                    bad.append(g)
            assert r.fails == bool(bad)


def test_similarity_invariance_smoke():
    sig = rotation_cocycle(Z2, TH)
    H = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    base = relative_kleppner(Z2, H, sig)
    for seed in range(5):
        tw = similarity_transform(sig, SeededBeta(Z2, seed, 8))
        got = relative_kleppner(Z2, H, tw)
        assert got.status == base.status


def test_solve_pairing_lattice_edge_cases():
    lat = solve_pairing_lattice([], 3)
    assert lat.rank == 3  # no constraints
    lat0 = solve_pairing_lattice([[Phase(0, {"theta": 1}, B), Phase(0)]], 2)
    assert lat0.rank == 1 and lat0.contains((0, 5))


# ---------------------------------------------------------------------------
# sigma-regular subgroups
# ---------------------------------------------------------------------------

def test_sigma_regular_subgroup_examples():
    hpq = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    assert sigma_regular_subgroup(Z2, hpq, rotation_cocycle(Z2, TH)).holds
    for j in (1, 2, 3):
        r = sigma_regular_subgroup(F2Z2, HF, F2Z2Cocycle(F2Z2, j))
        assert r.fails
        w = r.witness
        assert w[1] == 0 and w[0] != F2.identity()
        assert is_sigma_regular(w, HF, F2Z2Cocycle(F2Z2, j)).holds
        assert is_sigma_regular(w, Subgroup.full(F2Z2), F2Z2Cocycle(F2Z2, j)).fails
    z4 = from_name("Z_4")
    sub = Subgroup.finite_subset(z4, [0, 2])
    assert sigma_regular_subgroup(z4, sub, TrivialCocycle(z4)).holds


# ---------------------------------------------------------------------------
# closure lemmas on a finite smoke instance
# ---------------------------------------------------------------------------

def test_closure_lemmas_smoke():
    rng = random.Random(77)
    G = from_name("D_4")
    sig = random_table_cocycle(G, rng)
    for hset in G.all_subgroups():
        H = Subgroup.finite_subset(G, hset)
        helems = list(hset)
        fc = set()
        for g in G.elements():
            cent = [h for h in helems if G.commutes(h, g)]
            if all(commutation_phase(sig, g, h).is_one() for h in cent):
                fc.add(g)
        assert G.identity() in fc
        for g in fc:
            assert G.inv(g) in fc  # inverse closure
        for g in fc:
            for k in fc:
                p = G.mul(g, k)
                acc = p
                found = False
                for _ in range(G.order):
                    if acc in fc:
                        found = True
                        break
                    acc = G.mul(acc, p)
                assert found  # some power of gk is regular again


def test_generated_subgroup_still_decided_via_central_fc():
    # <(1,0,0), (0,1,0)> has undecidable membership, but its FC-centralizer
    # is the center, so strategy (x) still decides the question exactly
    crooked = Subgroup.generated(HEIS, [(1, 0, 0), (0, 1, 0)])
    bh = IrrationalBasis(["t"])
    sig = heis_cocycle(bh.zero(), bh.symbol("t"))
    r = relative_kleppner(HEIS, crooked, sig)
    assert r.holds and any("(x)" in n for n in r.notes)


def test_unknown_paths_are_honest():
    # a slanted cyclic subgroup: no centralizer description, no FC rule,
    # membership undecided; the engine reports unknown instead of guessing
    slanted = Subgroup.generated(HEIS, [(1, 1, 0)])
    bh = IrrationalBasis(["t"])
    sig = heis_cocycle(bh.zero(), bh.symbol("t"))
    r = relative_kleppner(HEIS, slanted, sig)
    assert r.unknown and r.reason


def test_sigma_regular_subgroup_full_group():
    assert sigma_regular_subgroup(Z2, Subgroup.full(Z2), rotation_cocycle(Z2, TH)).holds


def test_sigma_regular_subgroup_unknown_honest():
    # noncyclic generated subgroup of F_2 with a trivial-like cocycle:
    # the bounded search finds nothing and no closing rule applies
    sub = Subgroup.generated(F2, [F2.parse_element("a^2"), F2.parse_element("b^2")])
    r = sigma_regular_subgroup(F2, sub, TrivialCocycle(F2))
    assert r.unknown


def test_pointwise_regularity_similarity_invariant():
    # regularity of sampled elements is unchanged by similarity transforms
    rng = random.Random(321)
    hpq = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    base = rotation_cocycle(Z2, Phase(Fraction(1, 3)))
    tw = similarity_transform(base, SeededBeta(Z2, 7, 8))
    for _ in range(60):
        g = Z2.random_element(rng)
        assert is_sigma_regular(g, hpq, base).status == is_sigma_regular(g, hpq, tw).status

    hsub = Subgroup.coordinate_zero(HEIS, {0})
    hbase = heis_cocycle(Phase(Fraction(1, 4)), Phase(Fraction(1, 2)))
    htw = similarity_transform(hbase, SeededBeta(HEIS, 8, 12))
    for _ in range(60):
        g = HEIS.random_element(rng, 4)
        assert is_sigma_regular(g, hsub, hbase).status == is_sigma_regular(g, hsub, htw).status


def test_kleppner_on_a_large_lattice_is_fast():
    # the least regular element is found by branch and bound, not a box search
    G = FreeAbelian(10)
    t0 = time.perf_counter()
    k = kleppner(G, TrivialCocycle(G))
    assert time.perf_counter() - t0 < 1.0
    assert k.fails and k.witness.elements == ((0,) * 9 + (1,),)
