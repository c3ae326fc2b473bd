"""Acceptance suite: one test per criterion, each ending in a printed
"ACCEPTANCE n (<name>): PASS/FAIL" line (visible with pytest -s / on failure).

Criterion 1 drives a full sweep over every builtin finite group of order at
most 16, all of its subgroups, and 50 validated random root-of-unity cocycles
per group; criteria 2 and 5 ride the same sweep.
"""

import random
import time
import zlib
from fractions import Fraction

import pytest
from references import predicates, random_beta_table

from kleppner.cocycles import (F2Z2Cocycle, HeisenbergCocycle, ProductCocycle,
                               SeededBeta, TrivialCocycle, ValidationBudget,
                               check_twist_identities, rotation_cocycle, similarity_transform,
                               three_torus_cocycle, transport, validate_cocycle)
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             from_name)
from kleppner.oracle import build_regular_rep, relative_commutant_dim
from kleppner.phases import IrrationalBasis, Phase, parse_phase
from kleppner.randomized import random_table_cocycle
from kleppner.regularity import (is_sigma_regular, kleppner, relative_kleppner,
                                 sigma_centralizer)
from kleppner.verdicts import cstar_irreducible, intermediate_lattice

COCYCLES_PER_GROUP = 50


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def sweep_group_names() -> list[str]:
    names = [f"Z_{n}" for n in range(1, 17)]
    names += [f"Z_{m} x Z_{n}" for m in range(2, 5) for n in range(m, 9) if m * n <= 16]
    names += ["D_4", "Q8", "S_3"]
    return names


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    stats = {
        "groups": 0,
        "cocycles": 0,
        "instances": 0,
        "kleppner_center_mismatches": [],
        "relative_engine_mismatches": [],
        "verdict_oracle_mismatches": [],
        "closure_violations": [],
    }
    for name in sweep_group_names():
        G = from_name(name)
        stats["groups"] += 1
        n = G.order
        e = G.identity()
        full = Subgroup.full(G)
        subs = []
        for s in G.all_subgroups():
            H = Subgroup.finite_subset(G, s)
            subs.append((H, sorted(s)))
        rng = random.Random(zlib.crc32(name.encode()))
        for trial in range(COCYCLES_PER_GROUP):
            sigma = random_table_cocycle(G, rng)
            assert validate_cocycle(sigma).passed
            stats["cocycles"] += 1
            rep = build_regular_rep(G, sigma, verify_pairs=False)
            val = rep.int_values
            mul = G.table
            center = relative_commutant_dim(G, full, sigma, rep=rep).dimension
            k = kleppner(G, sigma)
            if k.holds != (center == 1):
                stats["kleppner_center_mismatches"].append((name, k.status, center))
            for H, helems in subs:
                stats["instances"] += 1
                # criterion 1: both routes, asserted equal inside
                dim = relative_commutant_dim(G, H, sigma, rep=rep).dimension
                # engine (strategy a) against the oracle dimension
                rel = relative_kleppner(G, H, sigma)
                if rel.holds != (dim == 1):
                    stats["relative_engine_mismatches"].append((name, rel.status, dim))
                if dim == 1 and center != 1:
                    stats["relative_engine_mismatches"].append(
                        (name, "relative holds but center is not trivial", center))
                if trial % 10 == 0:
                    # verdict against both oracle dimensions on a subsample
                    from kleppner.cocycles import transport
                    from kleppner.oracle import center_dim as _cdim
                    v = cstar_irreducible(G, H, sigma)
                    restricted, asg = transport(sigma, H)
                    cdim_h = _cdim(asg.group, restricted)
                    if v.holds != (dim == 1 and cdim_h == 1):
                        stats["verdict_oracle_mismatches"].append(
                            (name, v.conclusion, dim, cdim_h))
                # criterion 5: closure of the regular part under inverses and powers
                fc = []
                for g in range(n):
                    ok = True
                    for h in helems:
                        if mul[h][g] == mul[g][h] and val[g][h] != val[h][g]:
                            ok = False
                            break
                    if ok:
                        fc.append(g)
                fcset = set(fc)
                if e not in fcset:
                    stats["closure_violations"].append((name, "identity missing"))
                for g in fc:
                    if G.inv(g) not in fcset:
                        stats["closure_violations"].append((name, "inverse", g))
                for g in fc:
                    row = mul[g]
                    for kk in fc:
                        p = row[kk]
                        acc = p
                        for _ in range(n):
                            if acc in fcset:
                                break
                            acc = mul[acc][p]
                        else:
                            stats["closure_violations"].append((name, "power", g, kk))
    stats["elapsed"] = time.perf_counter() - t0
    return stats


def test_criterion_1_oracle_equivalence(sweep):
    # every relative_commutant_dim call above raises on route disagreement,
    # so reaching this point means exact equality throughout
    ok = (sweep["groups"] == len(sweep_group_names())
          and sweep["cocycles"] == sweep["groups"] * COCYCLES_PER_GROUP
          and sweep["instances"] > 0
          and sweep["elapsed"] < 300.0)
    print(f"\n  sweep: {sweep['groups']} groups, {sweep['cocycles']} cocycles, "
          f"{sweep['instances']} (G,H,sigma) instances, {sweep['elapsed']:.1f}s")
    _report(1, "oracle route A = route B over the full sweep", ok)


def test_criterion_2_kleppner_iff_trivial_center(sweep):
    bad = sweep["kleppner_center_mismatches"]
    if bad:
        print("mismatches:", bad[:5])
    _report(2, "Kleppner's condition iff center dimension 1", not bad)


def test_engine_oracle_cross_validation(sweep):
    # the decision engine's relative Kleppner answer equals "dimension 1" on
    # every sweep instance, and the irreducibility verdict matches both
    # oracle dimensions on the subsample
    assert not sweep["relative_engine_mismatches"], sweep["relative_engine_mismatches"][:5]
    assert not sweep["verdict_oracle_mismatches"], sweep["verdict_oracle_mismatches"][:5]


def test_criterion_5_closure_lemmas(sweep):
    bad = sweep["closure_violations"]
    if bad:
        print("violations:", bad[:5])
    _report(5, "inverse and power closure of the regular part", not bad)


# ---------------------------------------------------------------------------
# criterion 3: the worked examples
# ---------------------------------------------------------------------------

def test_criterion_3a_two_torus():
    B = IrrationalBasis(["theta"])
    z2 = FreeAbelian(2)
    sig = rotation_cocycle(z2, B.symbol("theta"))
    ok = True
    for (p, q) in [(1, 2), (2, 3), (3, 5)]:
        H = Subgroup.sublattice(z2, [(p, 0), (0, q)])
        ok &= relative_kleppner(z2, H, sig).holds
        ok &= cstar_irreducible(z2, H, sig).holds
    h13 = Subgroup.sublattice(z2, [(1, 0), (0, 3)])
    lat = intermediate_lattice(z2, h13, sig)
    ok &= lat.complete and lat.count == 2
    _report(3, "a: rotation algebra inclusions", ok)


def test_criterion_3b_three_torus():
    z3 = FreeAbelian(3)
    H = Subgroup.sublattice(z3, [(1, 0, 0), (0, 1, 0)])
    b3 = IrrationalBasis(["t1", "t2", "t3"])
    independent = three_torus_cocycle(z3, [b3.symbol("t1"), b3.symbol("t2"), b3.symbol("t3")])
    ok = cstar_irreducible(z3, H, independent).holds

    b2 = IrrationalBasis(["t1", "t2"])
    theta3_rational = three_torus_cocycle(
        z3, [b2.symbol("t1"), b2.symbol("t2"), b2.rational(Fraction(1, 2))])
    ok &= cstar_irreducible(z3, H, theta3_rational).fails

    b1 = IrrationalBasis(["t3"])
    dependent = three_torus_cocycle(
        z3, [parse_phase("1/3 + (2)t3", b1), parse_phase("1/2 + t3", b1), b1.symbol("t3")])
    ok &= cstar_irreducible(z3, H, dependent).fails
    _report(3, "b: three-torus inclusion", ok)


def test_criterion_3c_heisenberg():
    heis = Heisenberg()
    hsub = Subgroup.coordinate_zero(heis, {0})
    bh = IrrationalBasis(["gamma", "theta"])
    ok = True

    # verdict holds iff theta is formal
    formal_both = HeisenbergCocycle(heis, bh.symbol("gamma"), bh.symbol("theta"))
    ok &= cstar_irreducible(heis, hsub, formal_both).holds
    formal_theta = HeisenbergCocycle(heis, bh.rational(Fraction(1, 5)), bh.symbol("theta"))
    ok &= cstar_irreducible(heis, hsub, formal_theta).holds
    rational_theta = HeisenbergCocycle(heis, bh.symbol("gamma"), bh.rational(Fraction(1, 2)))
    ok &= cstar_irreducible(heis, hsub, rational_theta).fails
    trivial_theta = HeisenbergCocycle(heis, bh.symbol("gamma"), bh.zero())
    ok &= cstar_irreducible(heis, hsub, trivial_theta).fails

    # the failure witness at theta = 1/2 lies in S^sigma(H)
    half = HeisenbergCocycle(heis, Phase(0), Phase(Fraction(1, 2)))
    v = cstar_irreducible(heis, hsub, half)
    w = v.witness
    ok &= v.fails and w != (0, 0, 0)
    ok &= hsub.contains(w) and is_sigma_regular(w, hsub, half).holds

    # lattice prefix Gamma_0 .. Gamma_5
    lat = intermediate_lattice(heis, hsub, formal_both, max_entries=5)
    labels = [e.label for e in lat.entries]
    ok &= labels == ["Gamma_0 (= H)", "Gamma_1 (= G)", "Gamma_2", "Gamma_3",
                     "Gamma_4", "Gamma_5"]
    _report(3, "c: Heisenberg inclusion", ok)


def test_criterion_3d_f2z2():
    f2 = FreeGroup(2)
    g = DirectProduct(f2, from_name("Z_2"))
    H = Subgroup.product(g, Subgroup.full(f2), Subgroup.trivial(g.right))
    ok = True
    for j in (1, 2, 3):
        sig = F2Z2Cocycle(g, j)
        sc = sigma_centralizer(g, H, sig)
        ok &= sc.is_trivial.holds
        ok &= cstar_irreducible(g, H, sig).holds
    v = cstar_irreducible(g, H, TrivialCocycle(g))
    ok &= v.fails and v.witness == (f2.identity(), 1)
    _report(3, "d: free-group times order-two inclusion", ok)


# ---------------------------------------------------------------------------
# criterion 4: identity property suite
# ---------------------------------------------------------------------------

SIGMA_J_SAMPLES = 1200


def _sigma_j_reference(j, g, h):
    """2 * sigma_j(g, h) by the formula of the F_2 x Z_2 examples: 1 when g's
    Z_2 part is 1 and h's word has an odd exponent sum over a (j = 1), b
    (j = 2) or both letters (j = 3), else 0."""
    letters = {1: (0,), 2: (1,), 3: (0, 1)}[j]
    return g[1] * (sum(exp for letter, exp in h[0] if letter in letters) % 2)


def _sigma_j_sampled_failures(sigma, samples, seed):
    """The cocycle identity of sigma_j on seeded triples of F_2 x Z_2 words,
    summed here from the engine's int_value, with each value checked against
    _sigma_j_reference: (describe, what failed, triple) for each failure."""
    G = sigma.group
    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        g, h, k = (G.random_element(rng, 8) for _ in range(3))
        args = [(g, h), (G.mul(g, h), k), (g, G.mul(h, k)), (h, k)]
        values = [sigma.int_value(x, y) for x, y in args]
        if values != [[_sigma_j_reference(sigma.j, x, y)] for x, y in args]:
            failures.append((sigma.describe(), "formula", (g, h, k)))
        elif (values[0][0] + values[1][0] - values[2][0] - values[3][0]) % sigma.den:
            failures.append((sigma.describe(), "cocycle identity", (g, h, k)))
    return failures


def test_criterion_4_identity_suite():
    b = IrrationalBasis(["theta"])
    bh = IrrationalBasis(["gamma", "theta"])
    b3 = IrrationalBasis(["t1", "t2", "t3"])
    z2 = FreeAbelian(2)
    z3 = FreeAbelian(3)
    heis = Heisenberg()
    f2 = FreeGroup(2)
    f2z2 = DirectProduct(f2, from_name("Z_2"))
    z4 = from_name("Z_4")
    prod = DirectProduct(z2, z4)
    rng = random.Random(99)
    z22 = from_name("Z_2 x Z_2")
    hsub = Subgroup.coordinate_zero(heis, {0})

    rot = rotation_cocycle(z2, b.symbol("theta"))
    heis_formal = HeisenbergCocycle(heis, bh.symbol("gamma"), bh.symbol("theta"))
    variants = [
        (TrivialCocycle(f2), 700),
        (rot, 700),
        (rotation_cocycle(z2, Phase(Fraction(3, 7))), 700),
        (three_torus_cocycle(z3, [b3.symbol("t1"), b3.symbol("t2"), b3.symbol("t3")]), 700),
        (heis_formal, 700),
        (HeisenbergCocycle(heis, Phase(Fraction(1, 3)), Phase(Fraction(1, 2))), 700),
        (F2Z2Cocycle(f2z2, 1), 0),                      # pullback: 64 triples
        (F2Z2Cocycle(f2z2, 2), 0),
        (F2Z2Cocycle(f2z2, 3), 0),
        (random_table_cocycle(z22, rng), 0),            # generators: 2 rows, 32 triples
        (random_table_cocycle(from_name("D_4"), rng), 0),  # generators: 2 rows, 128 triples
        (ProductCocycle(prod, rot, TrivialCocycle(z4)), 700),
        (similarity_transform(rot, SeededBeta(z2, 5, 8)), 700),
        (similarity_transform(heis_formal, SeededBeta(heis, 6, 12)), 700),
        (transport(heis_formal, hsub)[0], 700),
    ]
    # tuples of the sampled, exhaustive, generators and pullback modes and of
    # the sigma_j formula check, and points of the exact polynomial grid,
    # counted apart
    counts = {"tuples": 0, "grid": 0}
    failures = []
    for j in (1, 2, 3):
        failures += _sigma_j_sampled_failures(F2Z2Cocycle(f2z2, j), SIGMA_J_SAMPLES, 17 + j)
        counts["tuples"] += SIGMA_J_SAMPLES
    for sigma, samples in variants:
        budget = ValidationBudget(samples=samples or 2000, seed=17)
        vres = validate_cocycle(sigma, budget)
        ires = check_twist_identities(sigma, budget)
        counts["grid" if vres.mode == "polynomial" else "tuples"] += vres.triples + ires.triples
        if not vres.passed:
            failures.append((sigma.describe(), "cocycle identity", vres.witness))
        if not ires.passed:
            failures.append((sigma.describe(), ires.detail, ires.witness))
    total_tuples = counts["tuples"] + counts["grid"]
    print(f"\n  identity suite: {counts['tuples']} sampled, exhaustive, generators or "
          f"pullback tuples and {counts['grid']} polynomial grid points across "
          f"{len(variants)} variants")
    ok = not failures and total_tuples >= 10_000
    if failures:
        print("failures:", failures[:3])
    _report(4, "cocycle and twist identities on sampled tuples and polynomial grids", ok)


# ---------------------------------------------------------------------------
# criterion 6: similarity invariance
# ---------------------------------------------------------------------------

def _tri_fingerprint(t):
    return (t.status, t.witness)


def test_criterion_6_similarity_invariance():
    ok = True

    # free abelian rank 2 with the rotation cocycle
    b = IrrationalBasis(["theta"])
    z2 = FreeAbelian(2)
    h23 = Subgroup.sublattice(z2, [(2, 0), (0, 3)])
    for base in (rotation_cocycle(z2, b.symbol("theta")),
                 rotation_cocycle(z2, Phase(Fraction(1, 2)))):
        ref = (_tri_fingerprint(kleppner(z2, base)),
               _tri_fingerprint(relative_kleppner(z2, h23, base)),
               _tri_fingerprint(sigma_centralizer(z2, h23, base).is_trivial),
               cstar_irreducible(z2, h23, base).conclusion,
               cstar_irreducible(z2, h23, base).witness)
        for seed in range(50):
            tw = similarity_transform(base, SeededBeta(z2, seed, 8))
            got = (_tri_fingerprint(kleppner(z2, tw)),
                   _tri_fingerprint(relative_kleppner(z2, h23, tw)),
                   _tri_fingerprint(sigma_centralizer(z2, h23, tw).is_trivial),
                   cstar_irreducible(z2, h23, tw).conclusion,
                   cstar_irreducible(z2, h23, tw).witness)
            ok &= got == ref

    # Heisenberg, sampled beta on the infinite group
    heis = Heisenberg()
    hsub = Subgroup.coordinate_zero(heis, {0})
    bh = IrrationalBasis(["gamma", "theta"])
    for base in (HeisenbergCocycle(heis, bh.symbol("gamma"), bh.symbol("theta")),
                 HeisenbergCocycle(heis, Phase(0), Phase(Fraction(1, 2)))):
        ref = (_tri_fingerprint(kleppner(heis, base)),
               _tri_fingerprint(relative_kleppner(heis, hsub, base)),
               _tri_fingerprint(sigma_centralizer(heis, hsub, base).is_trivial),
               cstar_irreducible(heis, hsub, base).conclusion,
               cstar_irreducible(heis, hsub, base).witness)
        for seed in range(50):
            tw = similarity_transform(base, SeededBeta(heis, seed, 12))
            got = (_tri_fingerprint(kleppner(heis, tw)),
                   _tri_fingerprint(relative_kleppner(heis, hsub, tw)),
                   _tri_fingerprint(sigma_centralizer(heis, hsub, tw).is_trivial),
                   cstar_irreducible(heis, hsub, tw).conclusion,
                   cstar_irreducible(heis, hsub, tw).witness)
            ok &= got == ref

    # cyclic tables with random coboundaries
    rng = random.Random(4242)
    for name in ("Z_6", "Z_8"):
        G = from_name(name)
        base = random_table_cocycle(G, rng)
        full = Subgroup.full(G)
        half = Subgroup.finite_subset(
            G, G.closure({G.mul(1, 1)}))  # the subgroup generated by a square
        ref = (_tri_fingerprint(kleppner(G, base)),
               _tri_fingerprint(relative_kleppner(G, half, base)),
               cstar_irreducible(G, half, base).conclusion,
               cstar_irreducible(G, half, base).witness,
               relative_commutant_dim(G, full, base).dimension)
        for _ in range(50):
            beta = random_beta_table(G, rng)
            tw = similarity_transform(base, beta)
            got = (_tri_fingerprint(kleppner(G, tw)),
                   _tri_fingerprint(relative_kleppner(G, half, tw)),
                   cstar_irreducible(G, half, tw).conclusion,
                   cstar_irreducible(G, half, tw).witness,
                   relative_commutant_dim(G, full, tw).dimension)
            ok &= got == ref

    _report(6, "all verdicts invariant under similarity transforms", ok)


# ---------------------------------------------------------------------------
# criterion 7: structure predicates
# ---------------------------------------------------------------------------

def test_criterion_7_predicate_table():
    ok = True
    # the documented catalog table (README): (prime, FC-hypercentral, C*-simple)
    f2, f3 = FreeGroup(2), FreeGroup(3)
    expectations = [
        (FreeAbelian(1), "holds", "holds", "fails"),
        (FreeAbelian(2), "holds", "holds", "fails"),
        (FreeAbelian(5), "holds", "holds", "fails"),
        (Heisenberg(), "holds", "holds", "fails"),
        (f2, "holds", "fails", "holds"),
        (f3, "holds", "fails", "holds"),
        (DirectProduct(f2, f3), "holds", "fails", "holds"),
        (DirectProduct(f2, from_name("Z_2")), "fails", "fails", "fails"),
        (DirectProduct(FreeAbelian(1), Heisenberg()), "holds", "holds", "fails"),
    ]
    for g, p, f, c in expectations:
        ok &= predicates(g) == (p, f, c)
    for name in sweep_group_names() + ["S_4", "D_8"]:
        g = from_name(name)
        ok &= predicates(g) == ("holds" if g.order == 1 else "fails", "holds", "fails")
    _report(7, "primeness and structure predicate catalog", ok)
