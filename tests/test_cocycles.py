import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from references import TableBeta, commutation_phase, conj_twist, random_beta_table
from test_acceptance import sweep_group_names

import kleppner.cocycles as cocycles_mod
import kleppner.oracle as oracle_mod
from kleppner.cocycles import (BicharacterCocycle, Cocycle, CocycleError, F2Z2Cocycle, HeisenbergCocycle,
                               PhaseTableCocycle, ProductCocycle, PullbackCocycle, SeededBeta,
                               SimilarityCocycle, TrivialCocycle, ValidationBudget,
                               ValidationResult, _simplex, _triples, check_twist_identities,
                               commutation_trivial, rotation_cocycle, similarity_transform,
                               three_torus_cocycle, transport, validate_cocycle)
from kleppner.config import parse_config
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             from_name)
from kleppner.oracle import OracleError, build_regular_rep
from kleppner.phases import IrrationalBasis, Phase
from kleppner.randomized import random_table_cocycle

B = IrrationalBasis(["theta"])
TH = B.symbol("theta")
Z2 = FreeAbelian(2)
HEIS = Heisenberg()
F2 = FreeGroup(2)
F2Z2 = DirectProduct(F2, from_name("Z_2"))


def anticommute_table(group):
    # sigma((a,b),(a',b')) = (-1)^(b a') on Z_2 x Z_2 (element index 2a+b)
    tbl = [[Phase(Fraction((g % 2) * (h // 2), 2)) for h in range(4)] for g in range(4)]
    return PhaseTableCocycle(group, tbl)


def all_shipped_variants():
    z22 = from_name("Z_2 x Z_2")
    b3 = IrrationalBasis(["t1", "t2", "t3"])
    bh = IrrationalBasis(["gamma", "theta"])
    z3 = FreeAbelian(3)
    z4 = from_name("Z_4")
    prod = DirectProduct(Z2, z4)
    rot = rotation_cocycle(Z2, TH)
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    pullback, _asg = transport(rot, Subgroup.sublattice(Z2, [(2, 0), (0, 3)]))
    return [
        TrivialCocycle(F2),
        rot,
        three_torus_cocycle(z3, [b3.symbol("t1"), b3.symbol("t2"), b3.symbol("t3")]),
        HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.symbol("theta")),
        HeisenbergCocycle(HEIS, Phase(Fraction(1, 3)), Phase(Fraction(1, 2))),
        F2Z2Cocycle(F2Z2, 1),
        F2Z2Cocycle(F2Z2, 2),
        F2Z2Cocycle(F2Z2, 3),
        anticommute_table(z22),
        ProductCocycle(prod, rot, TrivialCocycle(z4)),
        similarity_transform(rot, SeededBeta(Z2, seed=4, denominator=8)),
        transport(HeisenbergCocycle(HEIS, bh.zero(), bh.symbol("theta")), hsub)[0],
        pullback,
    ]


def corrupted_z22():
    z22 = from_name("Z_2 x Z_2")
    rows = [list(r) for r in anticommute_table(z22).table]
    rows[1][2] = rows[1][2] + Phase(Fraction(1, 3))  # corrupt one entry
    return z22, PhaseTableCocycle(z22, rows)


def corrupted_sigma_j(j):
    """The Z_2 x Z_2 table of corrupted_z22 pulled back along sigma_j's map."""
    sigma_j = F2Z2Cocycle(F2Z2, j)
    return PullbackCocycle(corrupted_z22()[1], F2Z2, sigma_j.embed, section=sigma_j.section)


def test_eval_examples():
    rot = rotation_cocycle(Z2, TH)
    assert rot((1, 0), (0, 1)) == Phase(0, {"theta": Fraction(1, 2)}, B)
    assert rot((0, 0), (5, -3)).is_one()
    assert rot((5, -3), (0, 0)).is_one()
    s1 = F2Z2Cocycle(F2Z2, 1)
    x = (F2.parse_element("b^3ab"), 1)
    a = (F2.gen("a"), 0)
    assert s1(x, a) == Phase(Fraction(1, 2))  # statistic of 'a' is odd
    assert s1(a, x).is_one()


def test_heisenberg_formula_restricts_to_theta_only():
    bh = IrrationalBasis(["gamma", "theta"])
    sig = HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.symbol("theta"))
    p = sig((0, 2, 3), (0, 5, 7))
    assert p == Phase(0, {"theta": 14}, bh)  # theta * a2 * b3, no gamma part


def test_validation_passes_for_all_variants():
    for sigma in all_shipped_variants():
        res = validate_cocycle(sigma, ValidationBudget(samples=250, seed=1))
        assert res.passed, (sigma.describe(), res.witness)


def test_validation_catches_corruption():
    z22, bad = corrupted_z22()
    res = validate_cocycle(bad)
    assert not res.passed
    assert res.witness is not None
    g, h, k = res.witness
    lhs = bad.value(g, h) + bad.value(z22.mul(g, h), k)
    rhs = bad.value(g, z22.mul(h, k)) + bad.value(h, k)
    assert lhs != rhs  # the witness replays


class CubicForm(Cocycle):
    """sigma(g, h) = g_1 h_1^2 / 3 on Z^2: normalized, but the cocycle identity
    is off by -2 g_1 h_1 k_1 / 3, so it fails whenever 3 divides none of them."""

    kind = "cubic form"
    den = 3

    def __init__(self) -> None:
        self.group = Z2
        self.basis = B

    def int_value(self, g, h) -> list[int]:
        return [g[0] * h[0] * h[0], 0]


class Shifted(CubicForm):
    """The constant 1/2: not even normalized."""

    den = 2

    def int_value(self, g, h) -> list[int]:
        return [1, 0]


def test_generic_validation_catches_non_cocycle():
    sigma = CubicForm()
    res = validate_cocycle(sigma, ValidationBudget(samples=200, seed=2))
    assert not res.passed and res.mode == "sampled" and res.detail == "cocycle identity fails"
    g, h, k = res.witness
    lhs = sigma.value(g, h) + sigma.value(Z2.mul(g, h), k)
    rhs = sigma.value(g, Z2.mul(h, k)) + sigma.value(h, k)
    assert lhs != rhs  # the witness replays
    assert not check_twist_identities(sigma, ValidationBudget(samples=200, seed=2)).passed


def test_generic_validation_catches_unnormalized():
    res = validate_cocycle(Shifted(), ValidationBudget(samples=20, seed=0))
    assert not res.passed and res.detail == "normalization fails"
    assert res.witness[1:] == (Z2.identity(), Z2.identity())


# normalized non-cocycle tables, one per reachable failure of the twist
# identities: {index: exponent} entries on top of the zero table
TWIST_FAILURES = [
    ("Z_4", {(2, 3): Fraction(2, 3)}, "left-product identity fails"),
    ("Z_2 x Z_2", {(1, 3): Fraction(2, 3), (3, 2): Fraction(2, 3)},
     "right-product identity fails"),
    ("Z_3", {(2, 1): Fraction(2, 3)}, "power right-product identity fails"),
]


def twist_failure_table(name, entries):
    G = from_name(name)
    rows = [[Phase(entries.get((g, h), 0)) for h in G.elements()] for g in G.elements()]
    return PhaseTableCocycle(G, rows)


@pytest.mark.parametrize("name, entries, detail", TWIST_FAILURES)
def test_twist_identities_catch_non_cocycles(name, entries, detail):
    sigma = twist_failure_table(name, entries)
    assert not validate_cocycle(sigma).passed
    res = check_twist_identities(sigma)
    assert not res.passed and res.detail == detail and len(res.witness) == 3


def test_normalization_enforced_at_construction():
    z2t = from_name("Z_2")
    with pytest.raises(CocycleError):
        PhaseTableCocycle(z2t, [[Phase(Fraction(1, 2)), Phase(0)], [Phase(0), Phase(0)]])


def test_conj_twist_examples():
    rot = rotation_cocycle(Z2, TH)
    # commuting pair: sigma(h,g) - sigma(g,h) since hgh^-1 = g
    assert conj_twist(rot, (0, 1), (1, 0)) == Phase(0, {"theta": -1}, B)
    rng = random.Random(2)
    for sigma in all_shipped_variants():
        g = sigma.group.random_element(rng, 4)
        e = sigma.group.identity()
        assert conj_twist(sigma, e, g).is_one()
        assert conj_twist(sigma, g, e).is_one()


def test_twist_identities_all_variants():
    for sigma in all_shipped_variants():
        res = check_twist_identities(sigma, ValidationBudget(samples=150, seed=3))
        assert res.passed, (sigma.describe(), res.witness, res.detail)


def test_similarity_zero_beta_is_pointwise_identity():
    rot = rotation_cocycle(Z2, TH)
    same = similarity_transform(rot, SeededBeta(Z2, 4, denominator=1))
    rng = random.Random(4)
    for _ in range(50):
        g, h = Z2.random_element(rng), Z2.random_element(rng)
        assert same(g, h) == rot(g, h)


def test_similarity_requires_normalized_beta():
    rot = rotation_cocycle(Z2, TH)
    with pytest.raises(CocycleError):
        similarity_transform(rot, TableBeta(Z2, {Z2.identity(): Phase(Fraction(1, 2))}))


def test_similarity_preserves_commutation_phase():
    rng = random.Random(5)
    rot = rotation_cocycle(Z2, TH)
    twisted = similarity_transform(rot, SeededBeta(Z2, seed=9, denominator=12))
    for _ in range(100):
        g, h = Z2.random_element(rng), Z2.random_element(rng)
        assert commutation_phase(rot, g, h) == commutation_phase(twisted, g, h)


def test_similarity_of_similarity_validates():
    rot = rotation_cocycle(Z2, TH)
    stacked = similarity_transform(similarity_transform(rot, SeededBeta(Z2, 1, 4)),
                                   SeededBeta(Z2, 2, 8))
    assert validate_cocycle(stacked, ValidationBudget(samples=150, seed=6)).passed


def test_transport_matches_pointwise():
    rot = rotation_cocycle(Z2, TH)
    hpq = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    restricted, asg = transport(rot, hpq)
    rng = random.Random(7)
    for _ in range(60):
        x = asg.group.random_element(rng)
        y = asg.group.random_element(rng)
        assert restricted(x, y) == rot(asg.embed(x), asg.embed(y))


# -- sigma_j as the pullback of a Z_2 x Z_2 table ------------------------------

@pytest.mark.parametrize("j", [1, 2, 3])
def test_sigma_j_map_is_a_homomorphism_with_a_section(j):
    """phi_j(gh) = phi_j(g) phi_j(h) on seeded word pairs, phi_j reads the
    exponent sum of sigma_j's formula, and phi_j(section(a)) = a for every a
    of Z_2 x Z_2, where (s, k) has index 2s + k."""
    sigma = F2Z2Cocycle(F2Z2, j)
    phi, A = sigma.embed, sigma.base.group
    rng = random.Random(j)
    for _ in range(500):
        g, h = F2Z2.random_element(rng, 8), F2Z2.random_element(rng, 8)
        assert phi(F2Z2.mul(g, h)) == A.mul(phi(g), phi(h)), (g, h)
        assert phi(g) == 2 * exponent_sum(g[0], j) + g[1], g
    for a in A.elements():
        x = sigma.section(a)
        assert F2Z2.contains(x) and phi(x) == a


@pytest.mark.parametrize("j", [1, 2, 3])
def test_pullback_mode_catches_a_wrong_table_entry(j):
    """The sign table with one entry changed, pulled back along phi_j, fails
    in mode pullback at a triple of F_2 x Z_2 whose residual is not 0."""
    sigma = corrupted_sigma_j(j)
    res = validate_cocycle(sigma)
    assert not res.passed and res.mode == "pullback" and res.detail == "cocycle identity fails"
    g, h, k = res.witness
    assert all(F2Z2.contains(x) for x in res.witness)
    residual = (sigma.value(g, h) + sigma.value(F2Z2.mul(g, h), k)
                - sigma.value(g, F2Z2.mul(h, k)) - sigma.value(h, k))
    assert not residual.is_one()
    ident = check_twist_identities(sigma)
    assert not ident.passed and ident.mode == "pullback"


# -- the integer forms against the phases they were built from ---------------

FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=12)
B2 = IrrationalBasis(["t1", "t2"])


@settings(deadline=None)
@given(st.data())
def test_bicharacter_value_matches_naive_sum(data):
    n = data.draw(st.integers(1, 4))
    phase = st.builds(lambda r, c1, c2: Phase(r, {"t1": c1, "t2": c2}, B2), FRACS, FRACS, FRACS)
    matrix = data.draw(st.lists(st.lists(phase, min_size=n, max_size=n), min_size=n, max_size=n))
    vec = st.tuples(*[st.integers(-20, 20)] * n)
    x, y = data.draw(vec), data.draw(vec)
    sigma = BicharacterCocycle(FreeAbelian(n), matrix)
    naive = B2.zero()
    for j in range(n):
        for k in range(n):
            naive = naive + matrix[j][k] * (x[j] * y[k])
    assert sigma.value(x, y) == naive


def _table_by_fractions(G, seed):
    """random_table_cocycle's values computed on Fractions, drawing from the rng
    in the same order: the bicharacter entries, then the coboundary."""
    rng = random.Random(seed)
    n = G.order
    values = [[Fraction(0)] * n for _ in range(n)]
    if G.ab_coords is not None:
        coords, moduli = G.ab_coords
        k = len(moduli)
        bichar = [[Fraction(0)] * k for _ in range(k)]
        for j in range(k):
            for l in range(k):
                g_ = gcd(moduli[j], moduli[l])
                if g_ > 1:
                    bichar[j][l] = Fraction(rng.randrange(g_), g_)
        for g in range(n):
            for h in range(n):
                values[g][h] = sum((coords[g][j] * coords[h][l] * bichar[j][l]
                                    for j in range(k) for l in range(k)), Fraction(0))
    beta = random_beta_table(G, rng)
    return [[Phase(values[g][h] + beta(g).rational + beta(h).rational
                   - beta(G.mul(g, h)).rational) for h in range(n)] for g in range(n)]


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["Z_6", "Z_2 x Z_2", "Z_2 x Z_4", "S_3", "D_4", "Q8"]),
       st.integers(0, 10 ** 6))
def test_table_integer_form_agrees_with_table(name, seed):
    G = from_name(name)
    sigma = random_table_cocycle(G, random.Random(seed))
    assert [list(row) for row in sigma.table] == _table_by_fractions(G, seed)
    dens = [p.rational.denominator for row in sigma.table for p in row]
    assert sigma.den == lcm(*dens)
    for row, ints in zip(sigma.table, sigma.ints):
        for p, v in zip(row, ints):
            assert 0 <= v < sigma.den and Fraction(v, sigma.den) == p.rational


def _normalized_int_table(G, rng, den, factor):
    """A normalized, not necessarily cocycle, integer table whose entries are
    multiples of factor, some negative and some beyond den."""
    e = G.identity()
    return [[0 if e in (g, h) else factor * rng.randrange(-den, 2 * den)
             for h in G.elements()] for g in G.elements()]


@pytest.mark.parametrize("name", ["Z_1", "Z_6", "Z_2 x Z_2", "S_3", "D_4", "Q8", "S_4"])
def test_integer_and_phase_constructors_agree(name):
    G = from_name(name)
    rng = random.Random(name)
    # (den, factor): a factor > 1 shares it with den, so den must be reduced
    for den, factor in [(1, 1), (12, 1), (12, 2), (12, 6), (8, 4), (30, 15), (7, 0), (5, 5)]:
        ints = _normalized_int_table(G, rng, den, factor)
        by_ints = PhaseTableCocycle.from_ints(G, den, ints)
        by_phases = PhaseTableCocycle(G, [[Phase(Fraction(v, den)) for v in row] for row in ints])
        exact = [[Fraction(v, den) % 1 for v in row] for row in ints]
        want_den = lcm(*(f.denominator for row in exact for f in row))
        for sigma in (by_ints, by_phases):
            assert sigma.den == want_den
            assert sigma.ints == tuple(tuple(int(f * want_den) for f in row) for row in exact)
            assert sigma.is_trivial_like() == (want_den == 1)
        assert by_ints.table == by_phases.table
        for g in G.elements():
            for h in G.elements():
                assert by_ints.value(g, h) == by_phases.value(g, h) == Phase(exact[g][h])
                assert by_ints.int_value(g, h) == by_phases.int_value(g, h)
    # an entry off the identity row or column is refused by both, in the same words
    e = G.identity()
    for g, h in [(e, G.order - 1), (G.order - 1, e)]:
        ints = _normalized_int_table(G, rng, 4, 1)
        ints[g][h] = 1
        with pytest.raises(CocycleError) as by_ints:
            PhaseTableCocycle.from_ints(G, 4, ints)
        with pytest.raises(CocycleError) as by_phases:
            PhaseTableCocycle(G, [[Phase(Fraction(v, 4)) for v in row] for row in ints])
        assert str(by_ints.value) == str(by_phases.value) == (
            "phase table is not normalized at the identity")


@pytest.mark.parametrize("name", ["Z_6", "Z_2 x Z_2", "S_3", "D_4", "Q8"])
def test_validation_and_projective_relation_fail_at_one_triple(name):
    """Exhaustive table validation and the projective relation of the regular
    representation check one identity in one (g, h, k) order: on normalized
    non-cocycle tables the validator's witness (g, h, k) and the pair (g, h)
    that build_regular_rep reports agree, and ``checks`` counts the triples
    up to the witness."""
    G = from_name(name)
    n = G.order
    rng = random.Random(name)
    failures = 0
    for den in (2, 3, 12):
        for _ in range(10):
            sigma = PhaseTableCocycle.from_ints(G, den, _normalized_int_table(G, rng, den, 1))
            result = validate_cocycle(sigma)
            if result.passed:
                build_regular_rep(G, sigma, verify_pairs=True)
                continue
            failures += 1
            g, h, k = result.witness
            assert result.checks == result.triples == (g * n + h) * n + k + 1
            with pytest.raises(OracleError, match=rf"^projective relation fails at \({g},{h}\)$"):
                build_regular_rep(G, sigma, verify_pairs=True)
    assert failures


def generating_rows(G):
    """A generating set of the finite group G, found here apart from the
    engine: each element, in order, that the earlier picks do not generate;
    the identity alone when G is trivial.  In a finite group the positive
    words in the picks are the subgroup they generate."""
    e, picked, reached = G.identity(), [], {G.identity()}
    for x in G.elements():
        if x not in reached:
            picked.append(x)
            reached, frontier = {e}, [e]
            while frontier:
                y = frontier.pop()
                for s in picked:
                    z = G.mul(y, s)
                    if z not in reached:
                        reached.add(z)
                        frontier.append(z)
    return picked or [e]


def full_table_scan(sigma):
    """The first (g, h, k) over all of G in order at which the integer table
    breaks the cocycle identity, with its 1-based position; (None, n^3) when
    none does."""
    G, t, den = sigma.group, sigma.ints, sigma.den
    for pos, (g, h, k) in enumerate(itertools.product(G.elements(), repeat=3), 1):
        if (t[g][h] + t[G.mul(g, h)][k] - t[g][G.mul(h, k)] - t[h][k]) % den:
            return (g, h, k), pos
    return None, G.order ** 3


def perturbed_tables(G, rng, count):
    """(kind, table): random cocycles on G, each left as drawn, with one entry
    changed, with a whole row outside the generating set changed, or with
    every row x outside a proper subgroup K shifted by a(Kx), a function of
    the right coset.  On the last kind the identity still holds on the rows of
    K, so only a row outside K can catch it."""
    e, n, gens = G.identity(), G.order, G.generators()
    others = [g for g in G.elements() if g != e]
    free_rows = [g for g in others if g not in gens]
    proper = [s for s in G.all_subgroups() if len(s) < n]
    for i in range(count):
        base = random_table_cocycle(G, rng)
        den = 12 * base.den  # room for perturbations the drawn denominator misses
        rows = [[12 * v for v in row] for row in base.ints]
        kind = ("drawn", "entry", "row", "coset")[i % 4]
        if kind == "entry":
            rows[rng.choice(others)][rng.choice(others)] += rng.randrange(1, den)
        elif kind == "row":
            g = rng.choice(free_rows)
            rows[g] = [v + rng.randrange(den) if h != e else v for h, v in enumerate(rows[g])]
        elif kind == "coset":
            K = rng.choice(proper)
            shift = {}
            for x in G.elements():
                if x not in K:
                    coset = frozenset(G.mul(k, x) for k in K)
                    a = shift.setdefault(coset, rng.randrange(den))
                    rows[x] = [v + a if h != e else v for h, v in enumerate(rows[x])]
        yield kind, PhaseTableCocycle.from_ints(G, den, rows)


@pytest.mark.parametrize("name", ["S_3", "D_4", "Q8", "Z_2 x Z_4", "S_4", "D_8", "Z_3 x Z_3"])
def test_generator_rows_decide_the_projective_relation(name):
    """build_regular_rep and validate_cocycle check the rows of the
    generating set only, and refuse a table exactly when the full scan finds
    a failing triple: validate_cocycle passes it in mode "generators" on
    |S| n^2 triples, and reports a failure with the full scan's witness,
    count and mode."""
    G = from_name(name)
    n = G.order
    on_rows = len(generating_rows(G)) * n * n
    outcomes = set()
    for kind, sigma in perturbed_tables(G, random.Random(name), 200):
        witness, pos = full_table_scan(sigma)
        outcomes.add((kind, witness is None))
        if witness is None:
            expected = ValidationResult(True, None, on_rows, "generators", "", on_rows)
            build_regular_rep(G, sigma)
        else:
            expected = ValidationResult(False, witness, pos, "exhaustive",
                                        "cocycle identity fails", pos)
            with pytest.raises(OracleError, match=r"^projective relation fails at "):
                build_regular_rep(G, sigma)
        assert validate_cocycle(sigma) == expected, (kind, sigma.ints)
    # each perturbation broke some table, and the drawn ones all pass
    assert {("drawn", True), ("entry", False), ("row", False), ("coset", False)} <= outcomes
    assert ("drawn", False) not in outcomes


def test_trivial_group_table_checks_the_identity_row():
    """Z_1 has no generators, so its table is validated on the identity's
    row: one triple, not zero."""
    z1 = from_name("Z_1")
    sigma = PhaseTableCocycle(z1, [[Phase(Fraction(0))]])
    assert z1.generators() == ()
    expected = ValidationResult(True, None, 1, "generators", "", 1)
    assert validate_cocycle(sigma) == reference_validate(sigma, ValidationBudget()) == expected


def test_table_above_64_elements_passes_on_generator_rows():
    """A table is validated exactly whatever its order: the zero table on
    Z_72, above the 64 elements of exhaustive checking, passes in mode
    "generators" on the 72^2 triples of its one generator's row."""
    z72 = from_name("Z_72")
    sigma = PhaseTableCocycle.from_ints(z72, 1, [[0] * 72 for _ in range(72)])
    expected = ValidationResult(True, None, 5184, "generators", "", 5184)
    assert validate_cocycle(sigma) == reference_validate(sigma, ValidationBudget()) == expected


def test_corrupted_table_above_64_elements_fails_with_first_triple():
    """One entry of 1/2 at (5, 7) in the zero table on Z_72: the generator
    row refuses it, and the rescan reports the first failing triple over all
    of Z_72 in mode "exhaustive", not a sampled one."""
    z72 = from_name("Z_72")
    ints = [[0] * 72 for _ in range(72)]
    ints[5][7] = 1
    sigma = PhaseTableCocycle.from_ints(z72, 2, ints)
    witness, pos = full_table_scan(sigma)
    assert witness == (1, 4, 7)
    expected = ValidationResult(False, witness, pos, "exhaustive", "cocycle identity fails", pos)
    assert validate_cocycle(sigma) == reference_validate(sigma, ValidationBudget()) == expected


def test_commutation_trivial_matches_commutation_phase():
    """The integer test of sigma(g,h) = sigma(h,g) against the Phase one, on
    sampled pairs of every shipped variant (plus commuting pairs, so both
    answers occur) and on all pairs of drawn tables on S_4 and D_8."""
    rng = random.Random(21)
    seen = set()
    for sigma in all_shipped_variants():
        G = sigma.group
        for _ in range(40):
            g = G.random_element(rng, 4)
            h = G.random_element(rng, 4)
            for x, y in [(g, h), (g, G.mul(g, g)), (g, G.inv(g)), (g, G.identity())]:
                same = commutation_trivial(sigma, x, y)
                assert same == commutation_phase(sigma, x, y).is_one()
                seen.add(same)
    for name in ("S_4", "D_8"):
        G = from_name(name)
        for seed in range(3):
            sigma = random_table_cocycle(G, random.Random(seed))
            for g in G.elements():
                for h in G.elements():
                    same = commutation_trivial(sigma, g, h)
                    assert same == commutation_phase(sigma, g, h).is_one()
                    seen.add(same)
    assert seen == {True, False}


class CountingBeta(SeededBeta):
    """A SeededBeta that counts its evaluations."""

    calls = 0

    def int_value(self, g) -> list[int]:
        self.calls += 1
        return super().int_value(g)


def _nonabelian_proper_subgroup(G):
    """The first proper subgroup of G generated by two non-commuting elements."""
    for x in G.elements():
        for y in G.elements():
            if not G.commutes(x, y):
                H = Subgroup.generated(G, [x, y])
                if len(H.enumerate_elements()) < G.order:
                    return H
    return None


def commutation_cases():
    """(sigma, betas): every shipped variant, Heisenberg and F_2 x Z_2 cocycles,
    drawn tables on S_3, S_4 and D_8, pullbacks of these to subgroups, and
    SeededBeta twins of each (several denominators, and over the cocycle's
    symbol basis when it has one); betas lists the counting betas in sigma."""
    bh = IrrationalBasis(["gamma", "theta"])
    z2 = from_name("Z_2")
    bases = all_shipped_variants() + [
        HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.rational(Fraction(1, 3))),
        ProductCocycle(DirectProduct(HEIS, z2),
                       HeisenbergCocycle(HEIS, Phase(Fraction(1, 4)), Phase(Fraction(1, 6))),
                       TrivialCocycle(z2)),
    ]
    heis = HeisenbergCocycle(HEIS, Phase(Fraction(1, 3)), Phase(Fraction(1, 2)))
    bases.append(transport(heis, Subgroup.coordinate_zero(HEIS, {0}))[0])
    for name in ("S_3", "S_4", "D_8"):
        G = from_name(name)
        for seed in range(2):
            table = random_table_cocycle(G, random.Random(seed))
            bases.append(table)
            H = _nonabelian_proper_subgroup(G)
            if H is not None:
                bases.append(transport(table, H)[0])
    cases = [(sigma, []) for sigma in bases]
    for i, sigma in enumerate(bases):
        G = sigma.group
        betas = [CountingBeta(G, seed=i, denominator=den) for den in (3, 8)]
        if sigma.basis.symbols:
            betas.append(CountingBeta(G, seed=i, denominator=12, basis=sigma.basis))
        cases += [(similarity_transform(sigma, beta), [beta]) for beta in betas]
        # a twin of a twin, and a pullback of a twin to a nonabelian subgroup
        twin = cases[-1][0]
        outer = CountingBeta(G, seed=i + 100, denominator=5)
        cases.append((similarity_transform(twin, outer), betas[-1:] + [outer]))
        if isinstance(sigma, PhaseTableCocycle):
            H = _nonabelian_proper_subgroup(G)
            if H is not None:
                cases.append((transport(twin, H)[0], betas[-1:]))
    return cases


def _pairs(sigma, rng):
    """Every pair of a finite group; otherwise sampled pairs, each with some
    pairs that commute."""
    G = sigma.group
    if G.is_finite:
        return [(g, h) for g in G.elements() for h in G.elements()]
    out = []
    for _ in range(30):
        g = G.random_element(rng, 4)
        h = G.random_element(rng, 4)
        out += [(g, h), (h, g), (g, G.mul(g, g)), (g, G.inv(g)), (g, G.identity())]
    return out


def test_commutation_int_matches_int_values_and_phase():
    """commutation_int(g, h) is int_value(g, h) - int_value(h, g), read as a
    Phase it is commutation_phase, and a twin evaluates beta exactly on the
    pairs that do not commute."""
    rng = random.Random(33)
    commuting = set()
    beta_runs = 0
    for sigma, betas in commutation_cases():
        G = sigma.group
        symbols = sigma.basis.symbols
        for g, h in _pairs(sigma, rng):
            before = sum(b.calls for b in betas)
            c = sigma.commutation_int(g, h)
            ran = sum(b.calls for b in betas) - before
            u, v = sigma.int_value(g, h), sigma.int_value(h, g)
            assert c == [a - b for a, b in zip(u, v)], (sigma.describe(), g, h)
            phase = Phase(Fraction(c[0], sigma.den),
                          {s: Fraction(x, sigma.den) for s, x in zip(symbols, c[1:])},
                          sigma.basis)
            assert phase == commutation_phase(sigma, g, h), (sigma.describe(), g, h)
            commutes = G.commutes(g, h)
            commuting.add(commutes)
            assert (ran == 0) == (commutes or not betas), (sigma.describe(), g, h)
            beta_runs += ran
    assert commuting == {True, False} and beta_runs > 0


# -- the integer validators against their Phase-arithmetic reference ---------

def reference_triples(sigma, budget):
    """The triples and mode of both validators, enumerated here apart from
    the engine's: the simplex grid of a polynomial kind, the section's image
    of a pullback onto a finite group, every triple of a domain of at most
    64 elements, else budget.samples seeded triples of words of length 8."""
    if sigma.degree is None:
        if isinstance(sigma, PullbackCocycle) and sigma.section is not None:
            image = [sigma.section(a) for a in sigma.base.group.elements()]
            return itertools.product(image, repeat=3), "pullback"
        G = sigma.group
        if G.is_finite and len(G.elements()) <= 64:
            return itertools.product(G.elements(), repeat=3), "exhaustive"
        rng, draw = random.Random(budget.seed), G.random_element
        return ([draw(rng, 8) for _ in range(3)] for _ in range(budget.samples)), "sampled"
    m = len(sigma.group.identity())
    points = (p for p in itertools.product(range(sigma.degree + 1), repeat=3 * m)
              if sum(p) <= sigma.degree)
    return ((p[:m], p[m:2 * m], p[2 * m:]) for p in points), "polynomial"


def reference_validate(sigma, budget):
    """validate_cocycle on Phase values and Phase arithmetic.  A phase table,
    of any order, passes in mode "generators" when the identity holds on the
    rows of generating_rows, and is otherwise checked on every triple in
    order, in mode "exhaustive"; every other kind is checked on the triples
    of reference_triples in order."""
    G = sigma.group
    e = G.identity()
    if isinstance(sigma, PhaseTableCocycle):
        rows, elems = generating_rows(G), list(G.elements())
        if all(sigma.value(g, h) + sigma.value(G.mul(g, h), k)
               == sigma.value(g, G.mul(h, k)) + sigma.value(h, k)
               for g in rows for h in elems for k in elems):
            checks = len(rows) * len(elems) ** 2
            return ValidationResult(True, None, checks, "generators", "", checks)
        triples_in, mode = itertools.product(elems, repeat=3), "exhaustive"
    else:
        triples_in, mode = reference_triples(sigma, budget)
    checks = triples = 0
    seen_norm = set()
    for g, h, k in triples_in:
        triples += 1
        for x in (g, h, k):
            if x not in seen_norm:
                seen_norm.add(x)
                if not sigma.value(x, e).is_one() or not sigma.value(e, x).is_one():
                    return ValidationResult(False, (x, e, e), checks, mode,
                                            "normalization fails", triples)
        lhs = sigma.value(g, h) + sigma.value(G.mul(g, h), k)
        rhs = sigma.value(g, G.mul(h, k)) + sigma.value(h, k)
        checks += 1
        if lhs != rhs:
            return ValidationResult(False, (g, h, k), checks, mode,
                                    "cocycle identity fails", triples)
    return ValidationResult(True, None, checks, mode, "", triples)


def reference_twist_identities(sigma, budget):
    """check_twist_identities on Phase values, each twist taken separately."""
    G = sigma.group

    def tw(h, g):
        return sigma.value(h, g) - sigma.value(G.conj(h, g), h)

    triples_in, mode = reference_triples(sigma, budget)
    checks = triples = 0
    for r, s, t in triples_in:
        triples += 1
        checks += 1
        if tw(G.mul(r, s), t) != tw(r, G.conj(s, t)) + tw(s, t):
            return ValidationResult(False, (r, s, t), checks, mode,
                                    "left-product identity fails", triples)
        rhs2 = (-sigma.value(s, t) + sigma.value(G.conj(r, s), G.conj(r, t))
                + tw(r, s) + tw(r, t))
        checks += 1
        if tw(r, G.mul(s, t)) != rhs2:
            return ValidationResult(False, (r, s, t), checks, mode,
                                    "right-product identity fails", triples)
        if G.commutes(r, s):
            s2 = G.mul(s, s)
            checks += 1
            if tw(r, G.mul(s, s2)) != tw(r, s) + tw(r, s2):
                return ValidationResult(False, (r, s, s2), checks, mode,
                                        "power right-product identity fails", triples)
    return ValidationResult(True, None, checks, mode, "", triples)


def valid_cases():
    """The shipped variants plus stacked and mixed-basis wrappers."""
    rot = rotation_cocycle(Z2, TH)
    bh = IrrationalBasis(["gamma", "theta"])
    heis = HeisenbergCocycle(HEIS, bh.rational(Fraction(1, 4)), bh.symbol("theta"))
    z22 = from_name("Z_2 x Z_2")
    return all_shipped_variants() + [
        similarity_transform(similarity_transform(rot, SeededBeta(Z2, 1, 4)),
                             SeededBeta(Z2, 2, 8)),
        similarity_transform(heis, SeededBeta(HEIS, 3, 12, bh)),
        similarity_transform(anticommute_table(z22), random_beta_table(z22, random.Random(8))),
        ProductCocycle(DirectProduct(F2, HEIS), TrivialCocycle(F2), heis),
    ]


def reference_cases():
    return valid_cases() + [CubicForm(), Shifted(), corrupted_z22()[1], corrupted_sigma_j(3)] + [
        twist_failure_table(name, entries) for name, entries, _ in TWIST_FAILURES] + [
        c for c, _detail in polynomial_mutants()]


def test_validators_match_phase_reference():
    budget = ValidationBudget(samples=150, seed=11)
    for sigma in reference_cases():
        assert validate_cocycle(sigma, budget) == reference_validate(sigma, budget), \
            sigma.describe()
        assert check_twist_identities(sigma, budget) == reference_twist_identities(sigma, budget), \
            sigma.describe()


# -- each validator call evaluates a pair once and keeps nothing --------------

def counting(cls, *args):
    """An instance of a subclass of cls whose int_value records each pair it
    is asked for in ``pairs``."""

    class Counting(cls):
        def int_value(self, g, h):
            self.pairs.append((g, h))
            return super().int_value(g, h)

    sigma = Counting(*args)
    sigma.pairs = []
    return sigma


def validated_pairs(sigma, budget):
    """The pairs validate_cocycle touches on a passing sigma: (x, e) and
    (e, x) for each element x of a triple, and the four terms of the
    cocycle identity."""
    G, e = sigma.group, sigma.group.identity()
    out = set()
    for g, h, k in reference_triples(sigma, budget)[0]:
        out.update(p for x in (g, h, k) for p in ((x, e), (e, x)))
        out.update([(g, h), (G.mul(g, h), k), (g, G.mul(h, k)), (h, k)])
    return out


def twisted_pairs(sigma, budget):
    """The pairs check_twist_identities touches on a passing sigma: every
    term of identity_terms at (r, s, t), and the power identity's terms at
    (r, s, s^2) when r and s commute."""
    G = sigma.group
    terms = identity_terms(G).values()
    out = set()
    for r, s, t in reference_triples(sigma, budget)[0]:
        out.update(args(r, s, t) for args in terms)
        if G.commutes(r, s):
            s2 = G.mul(s, s)
            s3 = G.mul(s, s2)
            out.update([(r, s3), (s3, r), (s2, r), (r, s2)])
    return out


def test_each_validator_call_evaluates_each_pair_once():
    """In each mode other than a table's, each validator asks int_value once
    per distinct pair it touches, and a second call asks again for every
    one: nothing is kept between calls."""
    bh = IrrationalBasis(["gamma", "theta"])
    z22 = from_name("Z_2 x Z_2")
    heis = HeisenbergCocycle(HEIS, bh.rational(Fraction(1, 4)), bh.symbol("theta"))
    cases = [
        (counting(HeisenbergCocycle, HEIS, bh.symbol("gamma"), bh.symbol("theta")), "polynomial"),
        (counting(F2Z2Cocycle, F2Z2, 1), "pullback"),
        (counting(SimilarityCocycle, anticommute_table(z22),
                  random_beta_table(z22, random.Random(8))), "exhaustive"),
        (counting(ProductCocycle, DirectProduct(F2, HEIS), TrivialCocycle(F2), heis), "sampled"),
    ]
    budget = ValidationBudget(samples=150, seed=11)
    for sigma, mode in cases:
        for validator, pairs in ((validate_cocycle, validated_pairs),
                                 (check_twist_identities, twisted_pairs)):
            expected = pairs(sigma, budget)
            calls = []
            for _ in range(2):
                sigma.pairs = []
                res = validator(sigma, budget)
                assert res.passed and res.mode == mode, (sigma.describe(), validator.__name__)
                assert len(sigma.pairs) == len(set(sigma.pairs)), (mode, validator.__name__)
                assert set(sigma.pairs) == expected, (mode, validator.__name__)
                calls.append(sigma.pairs)
            assert calls[0] == calls[1], (mode, validator.__name__)


def exponent_sum(word, j):
    """sigma_j's statistic of a reduced F_2 word: its exponent sum over a
    (j = 1), b (j = 2) or both letters (j = 3), mod 2."""
    letters = {1: (0,), 2: (1,), 3: (0, 1)}[j]
    return sum(exp for letter, exp in word if letter in letters) % 2


def phase_formula(sigma, g, h):
    """sigma(g, h) by each kind's formula in Phase arithmetic."""
    if isinstance(sigma, HeisenbergCocycle):
        (a1, a2, _a3), (_b1, b2, b3) = g, h
        return (sigma.gamma * (b3 * a1 + b2 * (a1 * (a1 - 1) // 2))
                + sigma.theta * (a2 * (b3 + a1 * b2) + a1 * (b2 * (b2 - 1) // 2)))
    if isinstance(sigma, F2Z2Cocycle):
        return Phase(Fraction(g[1] * exponent_sum(h[0], sigma.j), 2))
    if isinstance(sigma, ProductCocycle):
        return (phase_formula(sigma.left, g[0], h[0]).with_basis(sigma.basis)
                + phase_formula(sigma.right, g[1], h[1]).with_basis(sigma.basis))
    if isinstance(sigma, SimilarityCocycle):
        b = sigma.beta
        coboundary = (b(g).with_basis(sigma.basis) + b(h).with_basis(sigma.basis)
                      - b(sigma.group.mul(g, h)).with_basis(sigma.basis))
        return coboundary + phase_formula(sigma.base, g, h)
    if isinstance(sigma, PullbackCocycle):
        return phase_formula(sigma.base, sigma.embed(g), sigma.embed(h))
    if isinstance(sigma, BicharacterCocycle):
        return sum((p * (g[j] * h[k]) for j, row in enumerate(sigma.matrix)
                    for k, p in enumerate(row)), sigma.basis.zero())
    if isinstance(sigma, TrivialCocycle):
        return sigma.basis.zero()
    return sigma.table[g][h]


def test_integer_forms_match_phase_formulas():
    rng = random.Random(12)
    for sigma in valid_cases():
        for _ in range(40):
            g, h = sigma.group.random_element(rng, 5), sigma.group.random_element(rng, 5)
            assert sigma.value(g, h) == phase_formula(sigma, g, h), sigma.describe()


# -- exact validation of polynomial kinds on the simplex grid ----------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def polynomial_variants():
    """Every shipped cocycle with a stated degree: the fixtures' cocycles, the
    shipped variants and a mixed rational/symbol bicharacter on Z^3."""
    fixtures = [parse_config(p.read_text(), name=p.stem).cocycle
                for p in sorted(FIXTURES.glob("*.tomlish"))]
    b3 = IrrationalBasis(["t1", "t2", "t3"])
    t1, t2, t3 = (b3.symbol(n) for n in ("t1", "t2", "t3"))
    mixed = BicharacterCocycle(FreeAbelian(3), [
        [b3.rational(Fraction(1, 3)), t1 * 2, -t2],
        [t3 + b3.rational(Fraction(1, 5)), b3.zero(), b3.rational(Fraction(-2, 7))],
        [t1 - t3, t2 * Fraction(3, 4), t3]])
    bh = IrrationalBasis(["gamma", "theta"])
    out = [c for c in fixtures + all_shipped_variants() if c.degree is not None] + [
        mixed,
        rotation_cocycle(Z2, Phase(Fraction(3, 7))),
        HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.rational(Fraction(1, 3))),
    ]
    assert {type(c) for c in out} == {BicharacterCocycle, HeisenbergCocycle}
    assert len([c for c in fixtures if c.degree is not None]) == 5
    return out


def identity_terms(G):
    """Each int_value term of the cocycle identity and of the left- and
    right-product twist identities: its two arguments as a function of the
    triple.  sigma itself is the cocycle identity's sigma(g, h); the twist
    identities' sigma(r, s) and sigma(s, t) are its sigma(g, h), sigma(h, k)."""
    mul, conj = G.mul, G.conj
    return {
        "sigma(g, h)": lambda g, h, k: (g, h),
        "sigma(gh, k)": lambda g, h, k: (mul(g, h), k),
        "sigma(g, hk)": lambda g, h, k: (g, mul(h, k)),
        "sigma(h, k)": lambda g, h, k: (h, k),
        # left product, on (r, s, t)
        "sigma(rs, t)": lambda r, s, t: (mul(r, s), t),
        "sigma(rs t (rs)^-1, r)": lambda r, s, t: (conj(mul(r, s), t), r),
        "sigma(s t s^-1, s)": lambda r, s, t: (conj(s, t), s),
        "sigma(rs t (rs)^-1, rs)": lambda r, s, t: (conj(mul(r, s), t), mul(r, s)),
        "sigma(r, s t s^-1)": lambda r, s, t: (r, conj(s, t)),
        # right product
        "sigma(r, st)": lambda r, s, t: (r, mul(s, t)),
        "sigma(r st r^-1, r)": lambda r, s, t: (conj(r, mul(s, t)), r),
        "sigma(r s r^-1, r)": lambda r, s, t: (conj(r, s), r),
        "sigma(r t r^-1, r)": lambda r, s, t: (conj(r, t), r),
        "sigma(r s r^-1, r t r^-1)": lambda r, s, t: (conj(r, s), conj(r, t)),
        "sigma(r, t)": lambda r, s, t: (r, t),
    }


def degree_violation(sigma, rng, lines=40):
    """The first (term, base point, direction) along whose line some order
    d+1 finite difference of an identity term is not 0, in exact integers
    (not mod den), d = sigma.degree; None when every one vanishes."""
    d = sigma.degree
    m = len(sigma.group.identity())
    terms = identity_terms(sigma.group)
    # three consecutive order d+1 differences per line
    weights = [(-1) ** (d + 1 - i) * comb(d + 1, i) for i in range(d + 2)]
    for _ in range(lines):
        x0 = [rng.randint(-6, 6) for _ in range(3 * m)]
        v = [rng.randint(-3, 3) for _ in range(3 * m)]
        points = [[a + i * b for a, b in zip(x0, v)] for i in range(d + 4)]
        triples = [(tuple(p[:m]), tuple(p[m:2 * m]), tuple(p[2 * m:])) for p in points]
        for name, args in terms.items():
            values = [sigma.int_value(*args(*t)) for t in triples]
            for start in range(3):
                window = values[start:start + d + 2]
                diff = [sum(w * y[slot] for w, y in zip(weights, window))
                        for slot in range(len(values[0]))]
                if any(diff):
                    return name, x0, v
    return None


def test_stated_degrees_bound_every_identity_term():
    rng = random.Random(16)
    for sigma in polynomial_variants():
        assert degree_violation(sigma, rng) is None, sigma.describe()


class UnderstatedHeisenberg(HeisenbergCocycle):
    degree = 2


class UnderstatedBicharacter(BicharacterCocycle):
    degree = 1


def test_an_understated_degree_fails_the_degree_test():
    """The Heisenberg terms have degree exactly 3 and the bicharacter ones
    exactly 2: one less is caught along random lines."""
    bh = IrrationalBasis(["gamma", "theta"])
    heis = UnderstatedHeisenberg(HEIS, bh.symbol("gamma"), bh.symbol("theta"))
    rot = rotation_cocycle(Z2, TH)
    low_rot = UnderstatedBicharacter(Z2, rot.matrix)
    for sigma in (heis, low_rot):
        assert degree_violation(sigma, random.Random(17)) is not None, sigma.describe()


def test_polynomial_grid_sizes_and_budget_independence():
    """C(3m + d, d) points: 28 on Z^2, 55 on Z^3, 220 on the Heisenberg
    group, whatever the budget and seed."""
    b3 = IrrationalBasis(["t1", "t2", "t3"])
    bh = IrrationalBasis(["gamma", "theta"])
    cases = [(rotation_cocycle(Z2, TH), 28),
             (three_torus_cocycle(FreeAbelian(3), [b3.symbol(n) for n in ("t1", "t2", "t3")]), 55),
             (HeisenbergCocycle(HEIS, bh.symbol("gamma"), bh.symbol("theta")), 220)]
    for sigma, points in cases:
        mode, grid = _triples(sigma, ValidationBudget())
        assert mode == "polynomial" and len(list(grid)) == points
        results = {(validate_cocycle(sigma, b), check_twist_identities(sigma, b))
                   for b in (ValidationBudget(), ValidationBudget(samples=7, seed=99))}
        assert len(results) == 1
        (v, i), = results
        assert v.passed and v.mode == "polynomial" and v.checks == v.triples == points
        assert i.passed and i.mode == "polynomial" and i.triples == points


def product_and_filter(n, d):
    """[p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d].
    Above six coordinates it is formed from two such halves: product is
    lexicographic, so the filtered product of the halves is the same list,
    without the (d + 1)^n tuples of one product."""
    if n <= 6:
        return [p for p in itertools.product(range(d + 1), repeat=n) if sum(p) <= d]
    left, right = product_and_filter(n // 2, d), product_and_filter(n - n // 2, d)
    return [p + q for p, q in itertools.product(left, right) if sum(p) + sum(q) <= d]


def test_simplex_grid_is_the_filtered_product_in_order():
    """The grid of _triples is, element for element and in order, the
    product of range(d + 1) filtered by coordinate sum, for n = 3m with
    m = 1..4 and d <= 4; the two-halves form of the product equals the
    direct one on n = 9, d = 3."""
    halves = product_and_filter(9, 3)
    assert halves == [p for p in itertools.product(range(4), repeat=9) if sum(p) <= 3]
    for m in range(1, 5):
        for d in range(5):
            grid = _simplex(3 * m, d)
            assert grid == product_and_filter(3 * m, d), (m, d)
            assert len(grid) == comb(3 * m + d, d)


class CubicPolynomial(CubicForm):
    """CubicForm with its true degree stated: a polynomial non-cocycle."""

    degree = 3


class DroppedBinomial(HeisenbergCocycle):
    """The Heisenberg formula without its gamma * b2 * C(a1) term: the
    cocycle identity is then off by gamma * g1 * h1 * k2."""

    def int_value(self, a, b) -> list[int]:
        a1, a2, _a3 = a
        _b1, b2, b3 = b
        theta_mult = a2 * (b3 + a1 * b2) + a1 * (b2 * (b2 - 1) // 2)
        return [b3 * a1 * g + theta_mult * t for g, t in self._pairs]


class WrongCoefficient(HeisenbergCocycle):
    """The Heisenberg formula with theta * a2 * a1 * b2 doubled."""

    def int_value(self, a, b) -> list[int]:
        a1, a2, _a3 = a
        _b1, b2, b3 = b
        gamma_mult = b3 * a1 + b2 * (a1 * (a1 - 1) // 2)
        theta_mult = a2 * (b3 + 2 * a1 * b2) + a1 * (b2 * (b2 - 1) // 2)
        return [gamma_mult * g + theta_mult * t for g, t in self._pairs]


def polynomial_mutants():
    """(sigma, first grid failure): broken polynomial kinds with a stated degree."""
    bh = IrrationalBasis(["gamma", "theta"])
    return [
        (CubicPolynomial(), ((1, 0), (1, 0), (1, 0))),
        (DroppedBinomial(HEIS, bh.symbol("gamma"), bh.symbol("theta")),
         ((1, 0, 0), (1, 0, 0), (0, 1, 0))),
        (DroppedBinomial(HEIS, Phase(Fraction(1, 3)), Phase(Fraction(1, 2))),
         ((1, 0, 0), (1, 0, 0), (0, 1, 0))),
        (WrongCoefficient(HEIS, bh.symbol("gamma"), bh.symbol("theta")),
         ((0, 1, 0), (1, 0, 0), (0, 1, 0))),
    ]


def test_polynomial_mode_catches_broken_formulas():
    """Each mutant keeps its stated degree and fails at the first grid point
    where its residual is not 0; the witness replays in Phase arithmetic, and
    the twist identities fail too."""
    for sigma, witness in polynomial_mutants():
        G = sigma.group
        assert degree_violation(sigma, random.Random(18)) is None, sigma.describe()
        res = validate_cocycle(sigma)
        assert not res.passed and res.mode == "polynomial", sigma.describe()
        assert res.detail == "cocycle identity fails" and res.witness == witness
        g, h, k = res.witness
        lhs = sigma.value(g, h) + sigma.value(G.mul(g, h), k)
        rhs = sigma.value(g, G.mul(h, k)) + sigma.value(h, k)
        assert lhs != rhs  # the witness replays
        ident = check_twist_identities(sigma)
        assert not ident.passed and ident.mode == "polynomial"


# ---------------------------------------------------------------------------
# facts computed once per finite table cocycle
# ---------------------------------------------------------------------------

def pairwise_obstructions(sigma):
    """Bit h of entry g set when g and h commute in the table and
    commutation_trivial(sigma, g, h) is False, pair by pair."""
    G = sigma.group
    return tuple(sum(1 << h for h in G.elements()
                     if G.mul(g, h) == G.mul(h, g) and not commutation_trivial(sigma, g, h))
                 for g in G.elements())


def test_twist_obstructions_match_pairwise_commutation():
    """Cocycle.twist_obstructions, and the oracle's own
    RegularRep.obstructions, equal the pairwise test on every sweep group:
    seeded table draws, a similarity transform of one, the trivial cocycle on
    the same group object, and the pullback of a draw to each subgroup's
    standalone table."""
    rng = random.Random(30)
    nonzero = 0
    for name in sweep_group_names() + ["S_4", "D_8"]:
        G = from_name(name)
        table = random_table_cocycle(G, rng)
        family = [table, random_table_cocycle(G, rng), TrivialCocycle(G),
                  SimilarityCocycle(table, random_beta_table(G, rng))]
        for s in G.all_subgroups():
            pulled, _asg = transport(table, Subgroup.finite_subset(G, s))
            family.append(pulled)
        for sigma in family:
            obs = pairwise_obstructions(sigma)
            assert sigma.twist_obstructions == obs, (name, sigma.describe())
            nonzero += any(obs)
        assert build_regular_rep(G, table).obstructions == pairwise_obstructions(table)
        assert not any(TrivialCocycle(G).twist_obstructions)
    assert nonzero > 10


def test_each_cocycle_object_holds_its_own_masks():
    """Two cocycles on one group object read different masks: the anticommuting
    table on Z_2 x Z_2 has every pair of distinct nonidentity elements
    obstructed, the trivial cocycle none, and a second object equal to the first
    computes its own."""
    G = from_name("Z_2 x Z_2")
    ints = [[(x % 2) * (y // 2) for y in range(4)] for x in range(4)]
    twisted = PhaseTableCocycle.from_ints(G, 2, ints)
    assert twisted.twist_obstructions == (0b0000, 0b1100, 0b1010, 0b0110)
    assert TrivialCocycle(G).twist_obstructions == (0, 0, 0, 0)
    again = PhaseTableCocycle.from_ints(G, 2, ints)
    assert "twist_obstructions" not in vars(again)
    assert again.twist_obstructions == twisted.twist_obstructions


@pytest.fixture
def counted_scans(monkeypatch):
    """The cocycles whose rows _table_identity_failure scans, one entry per
    call, read wherever the engine calls it from."""
    scan, calls = cocycles_mod._table_identity_failure, []

    def counted(sigma, rows):
        calls.append(sigma)
        return scan(sigma, rows)

    monkeypatch.setattr(cocycles_mod, "_table_identity_failure", counted)
    monkeypatch.setattr(oracle_mod, "_table_identity_failure", counted)
    return calls


@pytest.mark.parametrize("name", ["Z_1", "Z_6", "S_3", "Q8", "Z_3 x Z_3", "S_4"])
def test_validation_and_representation_share_one_scan(name, counted_scans):
    """validate_cocycle and build_regular_rep(verify_pairs=False), in either
    order and repeated, scan a table's generator rows once between them."""
    G = from_name(name)
    rng = random.Random(name)
    for first in ("validate", "build"):
        sigma = random_table_cocycle(G, rng)
        if first == "build":
            build_regular_rep(G, sigma)
        assert validate_cocycle(sigma).passed
        build_regular_rep(G, sigma)
        build_regular_rep(G, sigma)
        assert counted_scans == [sigma]
        counted_scans.clear()
    # a cocycle that is not a table gets a table of its own, scanned once
    build_regular_rep(G, TrivialCocycle(G))
    assert len(counted_scans) == 1
    # verify_pairs=True still scans every row
    sigma = random_table_cocycle(G, rng)
    build_regular_rep(G, sigma)
    build_regular_rep(G, sigma, verify_pairs=True)
    assert counted_scans[1:] == [sigma, sigma]


def broken_on_a_generator_row(G, rng):
    """The integer rows of a random cocycle on G with one entry of the row of
    G's first generator moved, and the denominator it is over."""
    base = random_table_cocycle(G, rng)
    den = 2 * base.den
    rows = [[2 * v for v in row] for row in base.ints]
    g, e = G.generators()[0], G.identity()
    rows[g][rng.choice([h for h in G.elements() if h not in (e, g)])] += 1
    return den, rows


@pytest.mark.parametrize("name", ["Z_3", "Z_2 x Z_4", "S_3", "Q8", "D_8"])
def test_a_broken_generator_row_is_refused_on_every_path(name):
    """A table that breaks the cocycle identity on a generator row is refused
    by build_regular_rep with no validation before it, after a failed
    validation, and before one; validation fails on it in every case."""
    G = from_name(name)
    rng = random.Random(name)
    for _ in range(5):
        den, rows = broken_on_a_generator_row(G, rng)
        probe = PhaseTableCocycle.from_ints(G, den, rows)
        assert cocycles_mod._table_identity_failure(probe, G.generators()[:1]) is not None
        for order in ((), ("validate",), ("build", "validate")):
            sigma = PhaseTableCocycle.from_ints(G, den, rows)
            if order[:1] == ("validate",):
                assert not validate_cocycle(sigma).passed
            with pytest.raises(OracleError, match=r"^projective relation fails at "):
                build_regular_rep(G, sigma)
            if order[1:] == ("validate",):
                assert not validate_cocycle(sigma).passed
            with pytest.raises(OracleError, match=r"^projective relation fails at "):
                build_regular_rep(G, sigma)
