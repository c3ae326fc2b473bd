import inspect
import random
import re
import time
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

from references import commutation_phase

from kleppner import regularity
from kleppner.cocycles import (BicharacterCocycle, F2Z2Cocycle, HeisenbergCocycle,
                               PhaseTableCocycle, ProductCocycle, SeededBeta, TrivialCocycle,
                               rotation_cocycle, similarity_transform, three_torus_cocycle)
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             centralizer_of_subgroup, fc_centralizer, from_name,
                             h_conjugacy_class)
from kleppner.phases import IrrationalBasis, Phase
from kleppner.randomized import random_table_cocycle
from kleppner.intlinalg import RowLattice, echelon_contains, integer_kernel, kernel_mod
from kleppner.regularity import (is_sigma_regular, kleppner, pairing_rows,
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
    """Relative icc is relative Kleppner with the trivial cocycle."""
    def relative_icc(G, H):
        return relative_kleppner(G, H, TrivialCocycle(G))

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


def _replays(G, H, sigma, w):
    """w is a nontrivial element that is regular for sigma against H."""
    return w != G.identity() and is_sigma_regular(w, H, sigma).holds


def test_b_refutes_and_x_decides_when_fc_does_not_centralize_h():
    # (b): FC_G(H) = G does not centralize H = {0} x S_3 in Z x S_3, but
    # C_G^sigma(H) = Z x {e} is nontrivial, and its element is a singleton class
    s3 = from_name("S_3")
    zs3 = DirectProduct(FreeAbelian(1), s3)
    H = Subgroup.product(zs3, Subgroup.trivial(zs3.left), Subgroup.full(s3))
    r = relative_kleppner(zs3, H, TrivialCocycle(zs3))
    assert r.fails and r.notes[0].startswith("(b)")
    assert r.witness.elements == (((1,), s3.identity()),)
    assert _replays(zs3, H, TrivialCocycle(zs3), r.witness.elements[0])
    # (x), finite branch: the FC-centralizer of Z_1 x S_3 is finite and
    # nonabelian, so a regular class can have three elements
    one_s3 = DirectProduct(from_name("Z_1"), s3)
    full = Subgroup.full(one_s3)
    r = relative_kleppner(one_s3, full, TrivialCocycle(one_s3))
    assert r.fails and r.notes[0].startswith("(x)") and r.witness.size == 3
    assert all(_replays(one_s3, full, TrivialCocycle(one_s3), w) for w in r.witness.elements)


def test_b_refutes_through_the_twisted_centralizer_for_every_h():
    # neither instance has an FC-centralizer that centralizes H, so only the
    # nontrivial twisted centralizer decides them
    s3 = from_name("S_3")
    t = next(x for x in s3.elements() if s3.element_str(x) == "(0 2 1)")
    zs3 = DirectProduct(FreeAbelian(1), s3)
    # H = {0} x <(0 2 1)> is not normal: (0 2 1) centralizes H
    H = Subgroup.product(zs3, Subgroup.trivial(zs3.left), Subgroup.finite_subset(s3, [0, t]))
    r = relative_kleppner(zs3, H, TrivialCocycle(zs3))
    assert r.fails and r.notes == ("(b) C_G^sigma(H) contains ((0), (0 2 1))",)
    assert r.witness.elements == (((0,), t),)
    assert _replays(zs3, H, TrivialCocycle(zs3), r.witness.elements[0])
    # Kleppner for Heis x S_3: the central (0, 0, 1) is regular
    hs3 = DirectProduct(HEIS, s3)
    r = kleppner(hs3, TrivialCocycle(hs3))
    assert r.fails and r.notes[0].startswith("(b)")
    assert r.witness.elements == (((0, 0, 1), s3.identity()),)
    assert _replays(hs3, Subgroup.full(hs3), TrivialCocycle(hs3), r.witness.elements[0])


def test_b_decides_non_normal_subgroups():
    # <a^2> is not normal in F_2; its FC-centralizer <a> centralizes it
    a, a2 = F2.parse_element("a"), F2.parse_element("a^2")
    for H, sigma, witness in (
            (Subgroup.generated(F2, [a2]), TrivialCocycle(F2), a),
            (Subgroup.generated(HEIS, [(1, 0, 0)]), TrivialCocycle(HEIS), (0, 0, 1))):
        G = H.parent
        r = relative_kleppner(G, H, sigma)
        assert r.fails and r.notes[0].startswith("(b)")
        assert r.witness.elements == (witness,)
        assert _replays(G, H, sigma, witness)
    # a noncyclic subgroup of F_2 has a trivial FC-centralizer
    noncyclic = Subgroup.generated(F2, [a2, F2.parse_element("b^2")])
    r = relative_kleppner(F2, noncyclic, TrivialCocycle(F2))
    assert r.holds and r.notes[0].startswith("(b)")


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
    lat = solve_pairing_lattice([], 1, 3)
    assert lat.rank == 3  # no constraints
    # the pairings theta and 0, over den 1 and the basis (theta,)
    lat0 = solve_pairing_lattice([[[0, 1], [0, 0]]], 1, 2)
    assert lat0.rank == 1 and echelon_contains(lat0.rows, (0, 5))


def _pairs_vanish(rows, den, x):
    """Whether sum_j x_j * rows[i][j] / den is an integer for every row i:
    each symbol slot exactly 0, the rational slot 0 modulo den."""
    for row in rows:
        total = [sum(c * v[k] for c, v in zip(x, row)) for k in range(len(row[0]))]
        if total[0] % den or any(total[1:]):
            return False
    return True


def test_solve_pairing_lattice_against_brute_force():
    # x/2 - y/3 as a symbol coefficient, over den 6: x/2 = y/3 on the lattice of (2, 3)
    lat = solve_pairing_lattice([[[0, 3], [0, -2]]], 6, 2)
    assert lat.rank == 1 and echelon_contains(lat.rows, (2, 3)) and not echelon_contains(lat.rows, (1, 1))
    cases = [([[[0, 3], [0, -2]]], 6, 2)]
    rng = random.Random(3)
    for _ in range(300):
        dim, nsym, den = rng.randint(1, 3), rng.randint(0, 2), rng.randint(1, 12)
        rows = [[[rng.randint(-2 * den, 2 * den)]
                 + [rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(nsym)]
                 for _ in range(dim)] for _ in range(rng.randint(0, 3))]
        cases.append((rows, den, dim))
    for rows, den, dim in cases:
        lat = solve_pairing_lattice(rows, den, dim)
        for x in product(range(-4, 5), repeat=dim):
            assert echelon_contains(lat.rows, x) == _pairs_vanish(rows, den, x), (rows, den, x)
        # the rational slots are read modulo den, down to the basis
        shifted = [[[v[0] + den * rng.randint(-3, 3)] + v[1:] for v in row] for row in rows]
        assert solve_pairing_lattice(shifted, den, dim).basis() == lat.basis()


def _fraction_solver(rows, dim):
    """The phase-linear solver on Fractions, the reference for
    solve_pairing_lattice: rows of Phases, each symbol equation cleared of its
    own denominators, the congruences of their common denominator."""
    if dim == 0:
        return RowLattice(0)
    eqs = []
    for row in rows:
        for sym in row[0].basis.symbols:
            coeffs = [dict(p.coeffs).get(sym, 0) for p in row]
            d = lcm(*(c.denominator for c in coeffs))
            if any(coeffs):
                eqs.append([int(c * d) for c in coeffs])
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    kernel = RowLattice(dim, integer_kernel(eqs) if eqs else units)
    base = kernel.basis()
    cong = [[sum(b * p.rational for b, p in zip(vec, row)) for vec in base] for row in rows]
    d = lcm(*(x.denominator for r in cong for x in r))
    if d == 1:
        return kernel
    return RowLattice(dim, ([sum(c * vec[j] for c, vec in zip(t, base)) for j in range(dim)]
                            for t in kernel_mod([[int(x * d) for x in r] for r in cong], d)))


def _lattice_instances(rng):
    """Z^2..Z^5 bicharacters with 0-2 symbols on random sublattices, and
    Heisenberg cocycles on each catalog subgroup kind."""
    for r in (2, 3, 4, 5):
        for nsym in (0, 1, 2):
            basis = IrrationalBasis([f"t{i}" for i in range(nsym)])
            G = FreeAbelian(r)
            m = [[Phase(Fraction(rng.randrange(6), rng.choice((2, 3, 4, 6))),
                        {s: rng.choice((0, -1, 1, 2)) for s in basis.symbols}, basis)
                  for _ in range(r)] for _ in range(r)]
            cols = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(rng.randint(1, r))]
            for H in (Subgroup.full(G), Subgroup.sublattice(G, cols)):
                yield G, H, BicharacterCocycle(G, m)
    basis = IrrationalBasis(["gamma", "theta"])
    for _ in range(3):
        gamma, theta = (basis.rational(Fraction(rng.randrange(6), 6))
                        + basis.symbol(s, rng.choice((0, 1, -2))) for s in basis.symbols)
        for H in (Subgroup.coordinate_zero(HEIS, {0}), Subgroup.coordinate_zero(HEIS, {1}),
                  Subgroup.coordinate_zero(HEIS, {0, 1}), Subgroup.heis_congruence(HEIS, 3),
                  Subgroup.full(HEIS)):
            yield HEIS, H, heis_cocycle(gamma, theta)


def test_integer_solver_matches_the_fraction_solver(monkeypatch):
    calls = []

    def recording(sigma, hgens, xs):
        calls.append((sigma, list(hgens), list(xs)))
        return pairing_rows(sigma, hgens, xs)

    monkeypatch.setattr(regularity, "pairing_rows", recording)
    rng = random.Random(11)
    for G, H, sigma in _lattice_instances(rng):
        twin = similarity_transform(sigma, SeededBeta(G, rng.randrange(10**6),
                                                      rng.choice((4, 6, 8, 12)), sigma.basis))
        for s in (sigma, twin):
            relative_kleppner(G, H, s)
            sigma_centralizer(G, H, s)
    assert len({len(xs) for _, _, xs in calls}) >= 4
    for sigma, hgens, xs in calls:
        rows = pairing_rows(sigma, hgens, xs)
        phases = [[commutation_phase(sigma, x, h) for x in xs] for h in hgens]
        syms = sigma.basis.symbols
        for row, prow in zip(rows, phases):
            for v, p in zip(row, prow):
                assert p == Phase(Fraction(v[0], sigma.den),
                                  {s: Fraction(c, sigma.den) for s, c in zip(syms, v[1:])},
                                  sigma.basis)
        # equal bases, not only equal lattices
        got = solve_pairing_lattice(rows, sigma.den, len(xs)).basis()
        assert got == _fraction_solver(phases, len(xs)).basis()


def _ball(G, H):
    """Elements of a small ball in G that commute with every generator of H."""
    if isinstance(G, FreeAbelian):
        box = product(range(-2, 3), repeat=G.rank)
    elif isinstance(G, Heisenberg):
        box = product(range(-3, 4), repeat=3)
    else:
        box = ((G.left.identity(), k) for k in (0, 1))
    return [x for x in box if all(G.commutes(x, h) for h in H.generators())]


def test_strategy_b_against_a_ball_of_the_centralizer():
    """Every (b) answer on the decide shapes, checked without the lattice
    solver: a failure's witness replays, and on a holds no nontrivial element
    of C_G(H) in a ball is regular by is_sigma_regular (which tests C_H(g)'s
    generators)."""
    rng = random.Random(23)
    shapes = list(_lattice_instances(rng))
    for j in range(4):
        sigma = F2Z2Cocycle(F2Z2, j) if j else TrivialCocycle(F2Z2)
        shapes += [(F2Z2, HF, sigma), (F2Z2, Subgroup.full(F2Z2), sigma)]
    seen = set()
    for G, H, sigma in shapes:
        twin = similarity_transform(sigma, SeededBeta(G, rng.randrange(10**6),
                                                      rng.choice((4, 6, 8, 12)), sigma.basis))
        for s in (sigma, twin):
            r = relative_kleppner(G, H, s)
            if not r.notes[0].startswith("(b)"):
                continue
            seen.add((type(G).__name__, r.status))
            if r.fails:
                w, = r.witness.elements
                assert all(G.commutes(w, h) for h in H.generators())
                assert _replays(G, H, s, w), (G.name, H.describe_desc(), w)
            else:
                regular = [x for x in _ball(G, H)
                           if x != G.identity() and is_sigma_regular(x, H, s).holds]
                assert not regular, (G.name, H.describe_desc(), s.describe(), regular[:3])
    assert {(k, st) for k in ("FreeAbelian", "Heisenberg", "DirectProduct")
            for st in ("holds", "fails")} <= seen


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
    # is the center, which centralizes H, so strategy (b) still decides the
    # question exactly
    crooked = Subgroup.generated(HEIS, [(1, 0, 0), (0, 1, 0)])
    bh = IrrationalBasis(["t"])
    sig = heis_cocycle(bh.zero(), bh.symbol("t"))
    r = relative_kleppner(HEIS, crooked, sig)
    assert r.holds and r.notes[0].startswith("(b)")


def test_unknown_paths_are_honest():
    # a slanted cyclic subgroup has the echelon centralizer <(1,1,0), (0,0,1)>,
    # so its own generator is a regular singleton class, and it replays
    slanted = Subgroup.generated(HEIS, [(1, 1, 0)])
    bh = IrrationalBasis(["t"])
    sig = heis_cocycle(bh.zero(), bh.symbol("t"))
    r = relative_kleppner(HEIS, slanted, sig)
    assert r.fails and r.witness.elements == ((1, 1, 0),)
    assert is_sigma_regular((1, 1, 0), slanted, sig).holds
    # a diagonal subgroup of Heisenberg x Z is central: its centralizer is
    # read off the projections, and the least generator of it is a regular
    # singleton class, which replays
    z1 = FreeAbelian(1)
    hz = DirectProduct(HEIS, z1)
    diagonal = Subgroup.generated(hz, [((0, 0, 1), (1,))])
    sig = ProductCocycle(hz, sig, TrivialCocycle(z1))
    r = relative_kleppner(hz, diagonal, sig)
    w = ((0, 0, 0), (1,))
    assert r.fails and r.witness.elements == (w,)
    assert h_conjugacy_class(w, diagonal).elements == (w,)
    assert is_sigma_regular(w, diagonal, sig).holds
    # Z^2 x (Z_2 x Z_2): the central FC-centralizer has no lattice form and
    # no generator of it is regular, so (b) falls through undecided
    k4 = from_name("Z_2 x Z_2")
    tbl = [[Phase(Fraction((g % 2) * (h // 2), 2)) for h in range(4)] for g in range(4)]
    G = DirectProduct(Z2, k4)
    sig = ProductCocycle(G, rotation_cocycle(Z2, TH), PhaseTableCocycle(k4, tbl))
    r = relative_kleppner(G, Subgroup.full(G), sig)
    assert r.unknown and r.reason.startswith("(b) inconclusive")
    # <(a, 1), (b, 0)> in F_2 x Z_2: FC_G(H) = {e} x Z_2, but whether (e, 1)
    # lies in H is undecided, so Kleppner for (H, sigma|_H) cannot hold
    H = Subgroup.generated(F2Z2, [(F2.parse_element("a"), 1), (F2.parse_element("b"), 0)])
    assert H.contains((F2.identity(), 1)) is None
    r = kleppner(F2Z2, TrivialCocycle(F2Z2), H)
    assert r.unknown
    assert r.reason.endswith("(x) inconclusive: membership in H undecided inside FC_G(H)")


def _diagonal_instances(rng):
    """Seeded subgroups of Heisenberg x Z and F_2 x Z_2 generated by one or
    two elements with both components nontrivial, each with its cocycles."""
    z1 = FreeAbelian(1)
    hz = DirectProduct(HEIS, z1)
    heis_sigmas = [ProductCocycle(hz, heis_cocycle(gamma, theta), TrivialCocycle(z1))
                   for gamma, theta in ((B.zero(), TH), (Phase(Fraction(1, 2)), Phase(0)),
                                        (Phase(Fraction(1, 3)), Phase(Fraction(1, 4))))]
    f2z2_sigmas = [F2Z2Cocycle(F2Z2, j) for j in (1, 2, 3)] + [TrivialCocycle(F2Z2)]
    out = []
    for G, sigmas, size in ((hz, heis_sigmas, 2), (F2Z2, f2z2_sigmas, 3)):
        e = G.identity()
        for _ in range(14):
            gens = []
            while len(gens) < rng.choice((1, 2)):
                x = G.random_element(rng, size)
                if x[0] != e[0] and x[1] != e[1]:
                    gens.append(x)
            out.append((G, Subgroup.generated(G, gens), sigmas))
    return out


def test_diagonal_subgroups_of_products_against_brute_force():
    # an element of a word ball lies in C_G(H) exactly when it commutes with
    # H's generators, and in FC_G(H) exactly when its H-class is finite;
    # every fails witness of relative Kleppner replays
    rng = random.Random(2203)
    seen = {"fails": 0, "holds": 0, "unknown": 0}
    for G, H, sigmas in _diagonal_instances(rng):
        steps = G.generators() + tuple(G.inv(s) for s in G.generators())
        ball = {G.mul(a, b) for a in steps for b in steps} | set(steps)
        ball |= {G.random_element(rng, 3) for _ in range(20)}
        cent = centralizer_of_subgroup(G, H)
        fc = fc_centralizer(G, H)
        for x in sorted(ball, key=G.element_key):
            assert cent.contains(x) is all(G.commutes(x, h) for h in H.generators()), (H, x)
            assert fc.subgroup.contains(x) is h_conjugacy_class(x, H).finite, (H, x)
        for sig in sigmas:
            r = relative_kleppner(G, H, sig)
            seen[r.status] += 1
            if r.fails:
                rep = r.witness.elements[0]
                assert h_conjugacy_class(rep, H) == r.witness
                assert is_sigma_regular(rep, H, sig).holds
    assert seen["fails"] and seen["holds"]


def test_sigma_regular_subgroup_full_group():
    assert sigma_regular_subgroup(Z2, Subgroup.full(Z2), rotation_cocycle(Z2, TH)).holds


def test_sigma_regular_subgroup_unknown_honest():
    # a trivial-like cocycle makes every element regular w.r.t. every
    # subgroup, so <a^2, b^2> in F_2 is regular exactly
    squares = Subgroup.generated(F2, [F2.parse_element("a^2"), F2.parse_element("b^2")])
    assert sigma_regular_subgroup(F2, squares, TrivialCocycle(F2)).holds
    # under sigma_1, <a^2, b^2> x {0} is nonabelian: neither generator
    # refutes and no closing rule applies
    sub = Subgroup.product(F2Z2, squares, Subgroup.trivial(F2Z2.right))
    r = sigma_regular_subgroup(F2Z2, sub, F2Z2Cocycle(F2Z2, 1))
    assert r.unknown
    assert r.reason == ("no generator of H is regular w.r.t. H but not w.r.t. G, "
                        "and no closing rule applies")


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


def test_kleppner_of_nonabelian_heisenberg_subgroups_in_place():
    # these subgroups have no standalone form; Kleppner for (H, sigma|_H) is
    # decided inside G, where a finite H-class of an element of H is a
    # singleton of Z(H) = <(0, 0, d3)>: a fails witness is a regular element of
    # it, and a holds survives a ball check of H's central elements
    b = IrrationalBasis(["gamma"])
    sigmas = [TrivialCocycle(HEIS)] + [
        heis_cocycle(b.rational(Fraction(p, 6)) + b.symbol("gamma", s), b.rational(Fraction(q, 4)))
        for p, q, s in ((0, 1, 1), (1, 0, 0), (2, 3, 0), (3, 2, 0), (0, 0, 0))]
    ball = [x for x in product(range(-6, 7), repeat=3) if any(x)]
    outcomes = set()
    for gens in ([(2, 0, 0), (0, 1, 0)], [(1, 1, 0), (0, 3, 0)],
                 [(2, 1, 1), (0, 2, 1), (0, 0, 6)], [(3, 0, 1), (0, 2, 0)]):
        H = Subgroup.generated(HEIS, gens)
        assert H.as_group() is None
        central = [x for x in ball if H.contains(x)
                   and all(HEIS.commutes(x, h) for h in H.generators())]
        for sigma in sigmas:
            r = kleppner(HEIS, sigma, H)
            outcomes.add(r.status)
            if r.fails:
                (w,) = r.witness.elements
                assert H.contains(w) and all(HEIS.commutes(w, h) for h in H.generators())
                assert is_sigma_regular(w, H, sigma).holds, (gens, sigma)
            else:
                assert r.holds, (gens, sigma)
                assert not any(is_sigma_regular(x, H, sigma).holds for x in central)
    assert outcomes == {"holds", "fails"}


def test_kleppner_on_a_large_lattice_is_fast():
    # the least regular element is found by branch and bound, not a box search
    G = FreeAbelian(10)
    t0 = time.perf_counter()
    k = kleppner(G, TrivialCocycle(G))
    assert time.perf_counter() - t0 < 1.0
    assert k.fails and k.witness.elements == ((0,) * 9 + (1,),)


def test_readme_strategy_bullets_name_the_emitted_labels():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("\n## Decision procedures\n"):readme.index("\n### Verdicts\n")]
    bullets = re.findall(r"^\* \*\*\((\w)\)\*\*", section, re.M)
    # every label relative_kleppner can write opens one of its note literals
    written = set(re.findall(r'"\((\w)\) ', inspect.getsource(relative_kleppner)))
    s3 = from_name("S_3")
    k4 = from_name("Z_2 x Z_2")
    one_s3 = DirectProduct(from_name("Z_1"), s3)
    heis_s3 = DirectProduct(HEIS, s3)
    emitted = set()
    for G, sigma in ((k4, TrivialCocycle(k4)), (F2, TrivialCocycle(F2)),
                     (one_s3, TrivialCocycle(one_s3)),
                     (heis_s3, ProductCocycle(heis_s3, heis_cocycle(TH, TH),
                                              TrivialCocycle(s3)))):
        r = kleppner(G, sigma)
        for note in r.notes + tuple(r.reason.split("; ")):
            emitted.update(re.findall(r"^\((\w)\) ", note))
    assert bullets == ["a", "b", "x", "e"]
    assert set(bullets) == written == emitted
