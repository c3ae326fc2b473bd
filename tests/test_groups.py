import random
import re
from pathlib import Path

import pytest

from kleppner.groups import (DirectProduct, FiniteTable, FreeAbelian, FreeGroup, GroupError,
                             Heisenberg, INFINITE, Subgroup, centralizer_generators,
                             centralizer_of_subgroup, fc_centralizer, from_name,
                             h_conjugacy_class, is_cstar_simple, is_fc_hypercentral,
                             is_normal, is_prime)
from kleppner.groups.free import reduce_by_stack
from kleppner.groups.subgroups import GeneratedSubgroup

ALL_BUILTIN_NAMES = ["Z_1", "Z_2", "Z_6", "Z_12", "Z_2 x Z_2", "Z_3 x Z_4",
                     "D_4", "D_3", "Q8", "S_3", "S_4"]


@pytest.mark.parametrize("name", ALL_BUILTIN_NAMES)
def test_group_axioms_random(name):
    g = from_name(name)
    rng = random.Random(7)
    e = g.identity()
    for _ in range(120):
        a, b, c = (g.random_element(rng) for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(a, g.inv(a)) == e
        assert g.mul(e, a) == a == g.mul(a, e)


@pytest.mark.parametrize("group", [FreeAbelian(3), Heisenberg(), FreeGroup(2),
                                   DirectProduct(FreeGroup(2), from_name("Z_2"))])
def test_infinite_group_axioms_random(group):
    rng = random.Random(13)
    e = group.identity()
    for _ in range(150):
        a, b, c = (group.random_element(rng, 5) for _ in range(3))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, group.inv(a)) == e
        assert group.commutes(a, b) == (group.mul(a, b) == group.mul(b, a))


def test_builtin_orders_and_subgroup_counts():
    assert from_name("Z_12").order == 12
    assert from_name("D_4").order == 8
    assert from_name("Q8").order == 8
    assert from_name("S_4").order == 24
    assert len(from_name("Z_12").all_subgroups()) == 6
    assert len(from_name("Q8").all_subgroups()) == 6
    assert len(from_name("D_4").all_subgroups()) == 10
    assert len(from_name("S_3").all_subgroups()) == 6
    assert len(from_name("Z_2 x Z_2").all_subgroups()) == 5


def test_table_validation_rejects_garbage():
    with pytest.raises(GroupError):
        from_name("Z_0")
    with pytest.raises(GroupError):
        # not associative: a Latin square that is not a group table
        from kleppner.groups.finite import FiniteTable
        FiniteTable([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])


def test_heisenberg_product_and_inverse():
    h = Heisenberg()
    assert h.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert h.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 0)
    rng = random.Random(3)
    for _ in range(100):
        a = h.random_element(rng)
        assert h.mul(a, h.inv(a)) == (0, 0, 0)
        assert h.mul(h.inv(a), a) == (0, 0, 0)


def test_free_group_reduction_vs_stack():
    f = FreeGroup(2)
    rng = random.Random(17)
    for _ in range(300):
        a = f.random_element(rng, 8)
        b = f.random_element(rng, 8)
        prod = f.mul(a, b)
        assert prod == reduce_by_stack(f, f.flatten(a) + f.flatten(b))
        assert f.contains(prod)
    # full cancellation: (a b a^-1)(a b^-1) = a
    assert f.mul(f.parse_element("aba^-1"), f.parse_element("ab^-1")) == f.gen("a")
    # partial cancellation: (a b a b^-1 a^-1)(a b^-1) = a b a b^-2
    got = f.mul(f.parse_element("abab^-1a^-1"), f.parse_element("ab^-1"))
    assert f.element_str(got) == "abab^-2"
    assert got == reduce_by_stack(f, f.flatten(f.parse_element("abab^-1a^-1"))
                                  + f.flatten(f.parse_element("ab^-1")))


def test_free_group_roots_and_commuting():
    f = FreeGroup(2)
    w = f.parse_element("abab")
    root, n = f.primitive_root(w)
    assert f.element_str(root) == "ab" and n == 2
    conj = f.mul(f.mul(f.gen("a"), w), f.inv(f.gen("a")))
    root2, n2 = f.primitive_root(conj)
    assert n2 == 2 and f.power(root2, 2) == conj
    assert f.commutes(w, f.power(w, 3))
    assert not f.commutes(f.gen("a"), f.gen("b"))
    assert f.power_of(f.power(root, 5), root) == 5
    assert f.power_of(f.gen("a"), root) is None


def test_h_conjugacy_classes():
    heis = Heisenberg()
    hsub = Subgroup.coordinate_zero(heis, {0})
    assert h_conjugacy_class((1, 0, 0), hsub).infinite
    assert h_conjugacy_class((0, 5, -2), hsub).elements == ((0, 5, -2),)

    z2 = FreeAbelian(2)
    assert h_conjugacy_class((3, 5), Subgroup.full(z2)).elements == ((3, 5),)

    s3 = from_name("S_3")
    transposition = next(g for g in s3.elements()
                         if s3.mul(g, g) == s3.identity() and g != s3.identity())
    cls = h_conjugacy_class(transposition, Subgroup.full(s3))
    assert cls.finite and len(cls.elements) == 3

    f = FreeGroup(2)
    full_f = Subgroup.full(f)
    assert h_conjugacy_class(f.gen("a"), full_f).infinite
    cyc = Subgroup.generated(f, [f.parse_element("a^2")])
    assert h_conjugacy_class(f.gen("a"), cyc).finite  # a commutes with a^2


def test_class_closure_and_size_invariants():
    s4 = from_name("S_4")
    rng = random.Random(5)
    subs = s4.all_subgroups()
    for _ in range(25):
        hset = rng.choice(subs)
        H = Subgroup.finite_subset(s4, hset)
        g = s4.random_element(rng)
        cls = h_conjugacy_class(g, H)
        assert cls.finite
        members = set(cls.elements)
        for h in H.generators():
            assert {s4.conj(h, x) for x in members} <= members
        cent = [h for h in hset if s4.commutes(h, g)]
        assert len(members) * len(cent) == len(hset)  # |g^H| = [H : C_H(g)]


def test_centralizer_generators_catalog():
    z2 = FreeAbelian(2)
    hpq = Subgroup.sublattice(z2, [(2, 0), (0, 3)])
    assert set(centralizer_generators(hpq, (7, -1))) == {(2, 0), (0, 3)}

    heis = Heisenberg()
    hsub = Subgroup.coordinate_zero(heis, {0})
    gens = centralizer_generators(hsub, (0, 1, 0))
    assert set(gens) == {(0, 1, 0), (0, 0, 1)}
    gens2 = centralizer_generators(hsub, (1, 0, 0))
    assert set(gens2) == {(0, 0, 1)}

    z22 = from_name("Z_2 x Z_2")
    gens3 = centralizer_generators(Subgroup.full(z22), 1)
    closure = z22.closure(set(gens3))
    assert len(closure) == 4

    f = FreeGroup(2)
    gens4 = centralizer_generators(Subgroup.full(f), f.parse_element("abab"))
    assert gens4 == (f.parse_element("ab"),)


def test_centralizer_of_subgroup_catalog():
    heis = Heisenberg()
    hsub = Subgroup.coordinate_zero(heis, {0})
    c = centralizer_of_subgroup(heis, hsub)
    assert c.describe_desc() == hsub.describe_desc()
    center = centralizer_of_subgroup(heis, Subgroup.full(heis))
    assert center.describe_desc() == "{(0, 0, a3)}"

    f = FreeGroup(2)
    g = DirectProduct(f, from_name("Z_2"))
    hf = Subgroup.product(g, Subgroup.full(f), Subgroup.trivial(g.right))
    cg = centralizer_of_subgroup(g, hf)
    assert cg.enumerate_elements() == [(f.identity(), 0), (f.identity(), 1)]

    zn = FreeAbelian(3)
    assert centralizer_of_subgroup(zn, Subgroup.sublattice(zn, [(1, 1, 1)])).is_full()


def test_fc_centralizer_catalog():
    heis = Heisenberg()
    fci = fc_centralizer(heis, Subgroup.full(heis))
    assert fci.subgroup.describe_desc() == "{(0, 0, a3)}"
    assert fci.central is True

    f = FreeGroup(2)
    assert fc_centralizer(f, Subgroup.full(f)).trivial
    cyc = Subgroup.generated(f, [f.parse_element("a^2")])
    fci2 = fc_centralizer(f, cyc)
    assert fci2.subgroup.describe_desc() == "cyclic subgroup <a>"


def test_is_normal():
    z2 = FreeAbelian(2)
    assert is_normal(Subgroup.sublattice(z2, [(2, 0), (0, 3)])).holds
    heis = Heisenberg()
    assert is_normal(Subgroup.coordinate_zero(heis, {0})).holds
    assert is_normal(Subgroup.coordinate_zero(heis, {1, 2})).fails  # {(a1,0,0)}
    s3 = from_name("S_3")
    order2 = next(s for s in s3.all_subgroups() if len(s) == 2)
    assert is_normal(Subgroup.finite_subset(s3, order2)).fails
    order3 = next(s for s in s3.all_subgroups() if len(s) == 3)
    assert is_normal(Subgroup.finite_subset(s3, order3)).holds
    f = FreeGroup(2)
    assert is_normal(Subgroup.generated(f, [f.gen("a")])).fails


def test_is_normal_implies_membership_of_conjugates():
    heis = Heisenberg()
    hsub = Subgroup.coordinate_zero(heis, {0})
    rng = random.Random(9)
    for _ in range(100):
        g = heis.random_element(rng)
        h = (0, rng.randint(-5, 5), rng.randint(-5, 5))
        assert hsub.contains(heis.conj(g, h))


def test_index():
    z2 = FreeAbelian(2)
    assert Subgroup.sublattice(z2, [(2, 0), (0, 3)]).index() == 6
    assert Subgroup.sublattice(z2, [(1, 1)]).index() is INFINITE
    heis = Heisenberg()
    assert Subgroup.coordinate_zero(heis, {0}).index() is INFINITE
    z22 = from_name("Z_2 x Z_2")
    half = Subgroup.finite_subset(z22, [0, 2])
    assert half.index() == 2
    assert Subgroup.heis_congruence(heis, 5).index() == 5
    plane = Subgroup.generated(heis, [(0, 2, 0), (0, 0, 3)])
    assert plane.index() is INFINITE
    z1 = FreeAbelian(1)
    assert Subgroup.product(DirectProduct(heis, z1), plane,
                            Subgroup.full(z1)).index() is INFINITE


def test_sublattice_refuses_non_integer_entries():
    z2 = FreeAbelian(2)
    for columns in ([(1.5, 0)], [(2, 0), (0, 1.0)], [("1", 0)]):
        with pytest.raises(GroupError, match="non-integer entry"):
            Subgroup.sublattice(z2, columns)


def test_subgroup_description_contracts():
    z3, heis, f2 = FreeAbelian(3), Heisenberg(), FreeGroup(2)
    d4 = from_name("D_4")
    hz = DirectProduct(heis, FreeAbelian(1))
    subgroups = [  # one of each description kind
        Subgroup.full(d4),
        Subgroup.trivial(heis),
        Subgroup.finite_subset(d4, d4.closure({1})),
        Subgroup.sublattice(z3, [(2, 0, 0), (0, 3, 1)]),
        Subgroup.coordinate_zero(heis, {1, 2}),
        Subgroup.heis_congruence(heis, 3),
        Subgroup.generated(heis, [(0, 2, 0), (0, 0, 3)]),
        Subgroup.product(hz, Subgroup.coordinate_zero(heis, {0}), Subgroup.full(hz.right)),
        Subgroup.generated(f2, [f2.gen("a"), f2.gen("b")]),
        Subgroup.generated(f2, [f2.parse_element("ab")]),
    ]
    assert {type(H) for H in subgroups} == set(Subgroup.__subclasses__())
    for H in subgroups:
        gens = H.generators()
        for g in gens:
            assert H.contains(g) is True, H
        elems = H.enumerate_elements()
        if elems is not None:
            assert all(H.contains(x) for x in elems), H
        idx = H.index()
        assert idx is None or idx is INFINITE or type(idx) is int, H
        if H.is_full():
            assert idx == 1, H
        ag = H.as_group()
        if ag is not None:
            for s in ag.group.generators():
                assert H.contains(ag.embed(s)) is True, H


def test_predicate_catalog():
    # the documented predicate table for the group catalog
    f2, f3 = FreeGroup(2), FreeGroup(3)
    z2, heis = FreeAbelian(2), Heisenberg()
    z4, q8 = from_name("Z_4"), from_name("Q8")
    trivial = from_name("Z_1")
    f2xf2 = DirectProduct(f2, FreeGroup(2))
    f2xz2 = DirectProduct(f2, from_name("Z_2"))

    assert is_prime(z2).holds and is_fc_hypercentral(z2).holds and is_cstar_simple(z2).fails
    assert is_prime(heis).holds and is_fc_hypercentral(heis).holds and is_cstar_simple(heis).fails
    assert is_prime(f2).holds and is_fc_hypercentral(f2).fails and is_cstar_simple(f2).holds
    assert is_prime(f3).holds and is_cstar_simple(f3).holds
    assert is_prime(z4).fails and is_fc_hypercentral(z4).holds and is_cstar_simple(z4).fails
    assert is_prime(q8).fails
    assert is_prime(trivial).holds and is_cstar_simple(trivial).fails
    assert is_prime(f2xf2).holds and is_cstar_simple(f2xf2).holds
    assert is_prime(f2xz2).fails and is_cstar_simple(f2xz2).fails
    assert is_fc_hypercentral(f2xz2).fails


def test_trivial_factor_is_neutral():
    f2 = FreeGroup(2)
    for one in (FreeAbelian(0), FiniteTable([[0]])):
        # the one-element group: full and trivial are the same subgroup
        assert Subgroup.full(one).is_trivial_subgroup() and Subgroup.trivial(one).is_full()
        for pred in (is_prime, is_fc_hypercentral, is_cstar_simple):
            assert pred(DirectProduct(f2, one)).status == pred(f2).status
            assert pred(DirectProduct(one, f2)).status == pred(f2).status
            assert pred(DirectProduct(one, one)).status == pred(one).status
    assert is_cstar_simple(DirectProduct(f2, from_name("Z_1"))) == is_cstar_simple(f2)


# DirectProduct(A, B) against the same group flattened into one table
PRODUCT_PAIRS = [("S_3", "Z_2"), ("Q8", "Z_2"), ("D_4", "Z_3"), ("Z_2", "S_3"), ("S_3", "S_3")]


def _flattened(P: DirectProduct) -> tuple[FiniteTable, dict]:
    elems = P.elements()
    index = {x: i for i, x in enumerate(elems)}
    return FiniteTable([[index[P.mul(a, b)] for b in elems] for a in elems]), index


@pytest.mark.parametrize("names", PRODUCT_PAIRS, ids=" x ".join)
def test_product_structure_matches_flattened_table(names):
    A, B = (from_name(n) for n in names)
    P = DirectProduct(A, B)
    T, index = _flattened(P)

    def image(elems):
        return sorted(index[x] for x in elems)

    def closure(gens):
        return sorted(T.closure(set(gens)))

    for pred in (is_prime, is_fc_hypercentral, is_cstar_simple):
        assert pred(P).status == pred(T).status
    for left in A.all_subgroups():
        for right in B.all_subgroups():
            H = Subgroup.product(P, Subgroup.finite_subset(A, left),
                                 Subgroup.finite_subset(B, right))
            HT = Subgroup.finite_subset(T, image(H.enumerate_elements()))
            assert is_normal(H).status == is_normal(HT).status
            assert (image(centralizer_of_subgroup(P, H).enumerate_elements())
                    == centralizer_of_subgroup(T, HT).enumerate_elements())
            fc, fct = fc_centralizer(P, H), fc_centralizer(T, HT)
            assert image(fc.finite_elements()) == fct.finite_elements()
            assert fc.central == fct.central
            for g in P.elements():
                assert (image(h_conjugacy_class(g, H).elements)
                        == list(h_conjugacy_class(index[g], HT).elements))
                assert (closure(index[x] for x in centralizer_generators(H, g))
                        == closure(centralizer_generators(HT, index[g])))


# README row label -> groups of that kind
README_ROWS = {
    "trivial group": [from_name("Z_1"), FreeAbelian(0)],
    "`FiniteTable`, order > 1": [from_name("Z_4"), from_name("S_3"), from_name("Q8")],
    "`FreeAbelian(n)`, n >= 1": [FreeAbelian(1), FreeAbelian(3)],
    "`Heisenberg`": [Heisenberg()],
    "`FreeGroup(k)`, k >= 2": [FreeGroup(2), FreeGroup(3)],
}


def test_readme_predicate_table_matches_class_data():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    header = "| group | prime | FC-hypercentral | C*-simple |"
    lines = readme[readme.index(header):].splitlines()[2:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0]] = [re.match(r"\w+", c).group() for c in cells[1:]]
    preds = (is_prime, is_fc_hypercentral, is_cstar_simple)
    assert set(rows) == set(README_ROWS) | {"`DirectProduct(A, B)`"}
    for label, groups in README_ROWS.items():
        for G in groups:
            assert [pred(G).status for pred in preds] == rows[label], (label, G)
    assert rows["`DirectProduct(A, B)`"] == ["both"] * 3
    leaves = [G for groups in README_ROWS.values() for G in groups if G.order != 1]
    for A in leaves:
        for B in leaves:
            for pred in preds:
                a, b, ab = pred(A), pred(B), pred(DirectProduct(A, B))
                want = "fails" if a.fails or b.fails else "holds"
                assert ab.status == want, (pred.__name__, A, B)


def test_subgroup_as_group_round_trip():
    z3 = FreeAbelian(3)
    sub = Subgroup.sublattice(z3, [(2, 0, 0), (0, 3, 0)])
    ag = sub.as_group()
    assert ag.group.rank == 2
    x = ag.embed((4, -5))
    assert x == (8, -15, 0) and sub.contains(x)

    f = FreeGroup(2)
    cyc = Subgroup.generated(f, [f.parse_element("ab"), f.parse_element("abab")])
    assert cyc.kind == "cyclic"  # normalized: generators commute
    agc = cyc.as_group()
    assert agc.embed((3,)) == f.parse_element("ababab")


def test_finite_subset_validation():
    z4 = from_name("Z_4")
    with pytest.raises(GroupError):
        Subgroup.finite_subset(z4, [0, 1])  # not closed
    sub = Subgroup.finite_subset(z4, [0, 2])
    assert sub.contains(2) and not sub.contains(1)
    with pytest.raises(GroupError):
        GeneratedSubgroup(z4, (1,))  # table subgroups are stored by their elements


def test_coordinate_zero_validation():
    heis = Heisenberg()
    with pytest.raises(GroupError):
        Subgroup.coordinate_zero(heis, {2})  # {(a1,a2,0)} is not closed
    Subgroup.coordinate_zero(heis, {0, 2})
    Subgroup.coordinate_zero(heis, {1, 2})


def test_coordinate_subgroups_are_plane_lattices():
    # a coordinate subgroup and the lattice its unit vectors generate are one subgroup
    heis = Heisenberg()
    for zero, pattern in (({0}, "{(0, a2, a3)}"), ({1}, "{(a1, 0, a3)}"),
                          ({0, 1}, "{(0, 0, a3)}"), ({0, 2}, "{(0, a2, 0)}"),
                          ({1, 2}, "{(a1, 0, 0)}")):
        units = [g for i, g in enumerate(heis.generators()) if i not in zero]
        coord, gen = Subgroup.coordinate_zero(heis, zero), Subgroup.generated(heis, units)
        assert coord == gen and coord.kind == "heisenberg-plane-lattice"
        assert coord.describe_desc() == gen.describe_desc() == pattern
    assert Subgroup.coordinate_zero(heis, set()) == Subgroup.full(heis)
    assert Subgroup.coordinate_zero(heis, {0, 1, 2}) == Subgroup.trivial(heis)
    with pytest.raises(GroupError):
        Subgroup.coordinate_zero(FreeAbelian(3), {0})
    with pytest.raises(GroupError):
        Subgroup.coordinate_zero(heis, {3})
    # one basis per plane lattice, whatever the generators
    assert Subgroup.generated(heis, [(0, 1, 1), (0, 0, 1)]) == Subgroup.coordinate_zero(heis, {0})
    assert Subgroup.generated(heis, [(3, 0, 5), (0, 0, 2)]).rows == ((3, 1), (0, 2))
    # a plane lattice off the coordinate vectors keeps its generators
    assert Subgroup.generated(heis, [(0, 2, 0), (0, 0, 3)]).describe_desc() == \
        "plane sublattice generated by (0, 2, 0), (0, 0, 3)"


def test_generated_plane_gets_the_coordinate_answers():
    heis = Heisenberg()
    generated = Subgroup.generated(heis, [(0, 1, 0), (0, 0, 1)])
    for H in (Subgroup.coordinate_zero(heis, {0}), generated):
        chain = heis.intermediate_subgroups(H, 4)
        assert chain.status == "truncated"
        assert [e.label for e in chain.entries] == ["Gamma_0 (= H)", "Gamma_1 (= G)",
                                                    "Gamma_2", "Gamma_3", "Gamma_4"]
        assert chain.entries[2].subgroup == Subgroup.heis_congruence(heis, 2)
        assert centralizer_generators(H, (0, 1, 0)) == ((0, 1, 0), (0, 0, 1))


def test_free_subgroups_are_read_off_their_generators():
    f = FreeGroup(2)
    a = f.gen("a")
    # commuting generators: a cyclic subgroup, whatever kind describes it
    H = GeneratedSubgroup(f, (a, f.power(a, 2)))
    assert centralizer_of_subgroup(f, H) == Subgroup.generated(f, [a])
    assert fc_centralizer(f, H).subgroup == Subgroup.generated(f, [a])
    assert centralizer_generators(H, a) == H.generators()
    assert centralizer_generators(H, f.gen("b")) == ()


def test_free_abelian_intermediate_subgroups_read_the_lattice():
    z1, z2 = FreeAbelian(1), FreeAbelian(2)
    # {0} in Z: the quotient is Z, so the chain Gamma_n = nZ, whatever the form of {0}
    for H in (Subgroup.trivial(z1), Subgroup.sublattice(z1, [])):
        chain = z1.intermediate_subgroups(H, 3)
        assert chain.status == "truncated"
        assert [e.index_in_g for e in chain.entries][1:] == [1, 2, 3]
    assert z2.intermediate_subgroups(Subgroup.trivial(z2), 3).status == "unknown"
    # an index-1 sublattice is the full group
    whole = z2.intermediate_subgroups(Subgroup.sublattice(z2, [(1, 1), (0, 1)]), 3)
    assert [e.subgroup for e in whole.entries] == [Subgroup.full(z2)]


def test_heisenberg_generated_subgroups_use_closed_form():
    # the gcd formula decides classes for any generated subgroup of Heisenberg
    heis = Heisenberg()
    crooked = Subgroup.generated(heis, [(1, 0, 0), (0, 1, 0)])
    assert crooked.kind == "generated"
    central = h_conjugacy_class((0, 0, 5), crooked)
    assert central.finite and central.elements == ((0, 0, 5),)
    assert h_conjugacy_class((1, 0, 0), crooked).infinite


def test_orbit_bfs_fallback_paths():
    # a generated diagonal-style subgroup of a product drives the capped search
    f = FreeGroup(2)
    g = DirectProduct(f, from_name("Z_2"))
    diag = Subgroup.generated(g, [(f.gen("a"), 1)])
    assert diag.kind == "generated"
    fixed = h_conjugacy_class((f.identity(), 1), diag)
    assert fixed.finite and len(fixed.elements) == 1
    runaway = h_conjugacy_class((f.gen("b"), 0), diag)
    assert runaway.unknown
    assert "cap" in runaway.reason


def test_generated_heisenberg_plane_membership():
    heis = Heisenberg()
    plane = Subgroup.generated(heis, [(0, 2, 0), (0, 0, 2)])
    assert plane.kind == "heisenberg-plane-lattice"
    assert plane.contains((0, 4, -2))
    assert plane.contains((0, 0, 0))
    assert not plane.contains((0, 1, 0))
    assert not plane.contains((1, 2, 2))
    ag = plane.as_group()
    assert ag.group.rank == 2
    assert plane.contains(ag.embed((3, -1)))


def test_generated_subgroup_membership_and_normality():
    heis, f2 = Heisenberg(), FreeGroup(2)
    a, b = f2.gen("a"), f2.gen("b")
    for G, gens in ((heis, [(1, 0, 0), (0, 1, 0)]), (f2, [a, b])):
        H = Subgroup.generated(G, gens)
        assert H.kind == "generated"
        assert H.contains(G.identity()) is True
        for g in gens:
            assert H.contains(g) is True and H.contains(G.inv(g)) is True
        # the commutator of the generators is a member too
        x, y = gens
        assert H.contains(G.mul(G.mul(x, y), G.mul(G.inv(x), G.inv(y)))) is True
        assert H.is_full() and H.index() == 1
        assert is_normal(H).holds
    # a proper generated subgroup: other elements stay undecided, never guessed
    ab = Subgroup.generated(f2, [f2.parse_element("ab"), f2.parse_element("ba")])
    assert ab.kind == "generated"
    assert ab.contains(f2.parse_element("abba")) is None
    assert not ab.is_full() and ab.index() is None
