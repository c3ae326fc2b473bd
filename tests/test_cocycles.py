import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from kleppner.cocycles import (BicharacterCocycle, Cocycle, CocycleError, F2Z2Cocycle, HeisenbergCocycle,
                               PhaseTableCocycle, ProductCocycle, RestrictionCocycle,
                               SeededBeta, TableBeta, TrivialCocycle, ValidationBudget,
                               check_twist_identities, commutation_phase, conj_twist,
                               rotation_cocycle, similarity_transform, three_torus_cocycle,
                               transport, validate_cocycle)
from kleppner.groups import (DirectProduct, FreeAbelian, FreeGroup, Heisenberg, Subgroup,
                             from_name)
from kleppner.phases import IrrationalBasis, Phase
from kleppner.randomized import random_beta_table, random_table_cocycle

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
        RestrictionCocycle(HeisenbergCocycle(HEIS, bh.zero(), bh.symbol("theta")), hsub),
    ]


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
    z22 = from_name("Z_2 x Z_2")
    good = anticommute_table(z22)
    rows = [list(r) for r in good.table]
    rows[1][2] = rows[1][2] + Phase(Fraction(1, 3))  # corrupt one entry
    bad = PhaseTableCocycle(z22, rows)
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

    def __init__(self) -> None:
        self.group = Z2
        self.basis = B

    def value(self, g, h) -> Phase:
        return Phase(Fraction(g[0] * h[0] * h[0], 3), {}, B)


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
    class Shifted(CubicForm):
        def value(self, g, h) -> Phase:
            return Phase(Fraction(1, 2), {}, B)

    res = validate_cocycle(Shifted(), ValidationBudget(samples=20, seed=0))
    assert not res.passed and res.detail == "normalization fails"
    assert res.witness[1:] == (Z2.identity(), Z2.identity())


# normalized non-cocycle tables, one per reachable failure of the twist
# identities: {index: exponent} entries on top of the zero table
@pytest.mark.parametrize("name, entries, detail", [
    ("Z_4", {(2, 3): Fraction(2, 3)}, "left-product identity fails"),
    ("Z_2 x Z_2", {(1, 3): Fraction(2, 3), (3, 2): Fraction(2, 3)},
     "right-product identity fails"),
    ("Z_3", {(2, 1): Fraction(2, 3)}, "power right-product identity fails"),
])
def test_twist_identities_catch_non_cocycles(name, entries, detail):
    G = from_name(name)
    rows = [[Phase(entries.get((g, h), 0)) for h in G.elements()] for g in G.elements()]
    sigma = PhaseTableCocycle(G, rows)
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
        g = sigma.random_domain_element(rng, 4)
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


def test_restriction_membership_errors():
    bh = IrrationalBasis(["gamma", "theta"])
    hsub = Subgroup.coordinate_zero(HEIS, {0})
    restr = RestrictionCocycle(HeisenbergCocycle(HEIS, bh.zero(), bh.symbol("theta")), hsub)
    assert restr((0, 1, 0), (0, 0, 1)) == Phase(0, {"theta": 1}, bh)
    with pytest.raises(CocycleError):
        restr((1, 0, 0), (0, 0, 1))


def test_transport_matches_pointwise():
    rot = rotation_cocycle(Z2, TH)
    hpq = Subgroup.sublattice(Z2, [(2, 0), (0, 3)])
    restricted, asg = transport(rot, hpq)
    rng = random.Random(7)
    for _ in range(60):
        x = asg.group.random_element(rng)
        y = asg.group.random_element(rng)
        assert restricted(x, y) == rot(asg.embed(x), asg.embed(y))


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
