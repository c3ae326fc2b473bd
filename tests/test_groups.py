import importlib
import itertools
import random
import re
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from references import PREDICATES, predicates
from test_acceptance import sweep_group_names

from kleppner.groups import (DirectProduct, FiniteTable, FreeAbelian, FreeGroup, GroupError,
                             Heisenberg, INFINITE, Subgroup, centralizer_generators,
                             centralizer_of_subgroup, fc_centralizer, from_name,
                             h_conjugacy_class, is_normal)
from kleppner.groups.abelian import QUOTIENT_CAP
from kleppner.groups.base import Group
from kleppner.cocycles import HeisenbergCocycle, commutation_trivial
from kleppner.groups.subgroups import GeneratedSubgroup
from kleppner.phases import IrrationalBasis
from kleppner.regularity import is_sigma_regular, relative_kleppner, sigma_centralizer
from kleppner.verdicts import cstar_irreducible, intermediate_lattice

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


def reduce_by_stack(group: FreeGroup, tokens: list[int]):
    """Independent reducer over signed letters, for cross-checking mul()."""
    stack: list[int] = []
    for tok in tokens:
        if stack and stack[-1] == -tok:
            stack.pop()
        else:
            stack.append(tok)
    return group.from_flat(stack)


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


def test_heisenberg_centralizer_of_a_central_subgroup_is_full():
    # no generator, or only central ones, constrains nothing: the kernel of
    # the commutation form is all of Z^2
    heis = Heisenberg()
    for gens in ((), ((0, 0, 1),), ((0, 0, 3), (0, 0, -2))):
        H = Subgroup.generated(heis, gens)
        assert centralizer_of_subgroup(heis, H).is_full(), gens


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

    # (prime, FC-hypercentral, C*-simple)
    assert predicates(z2) == ("holds", "holds", "fails")
    assert predicates(heis) == ("holds", "holds", "fails")
    assert predicates(f2) == ("holds", "fails", "holds")
    assert predicates(f3, ("prime", "cstar_simple")) == ("holds", "holds")
    assert predicates(z4) == ("fails", "holds", "fails")
    assert predicates(q8, ("prime",)) == ("fails",)
    assert predicates(trivial, ("prime", "cstar_simple")) == ("holds", "fails")
    assert predicates(f2xf2, ("prime", "cstar_simple")) == ("holds", "holds")
    assert predicates(f2xz2) == ("fails", "fails", "fails")


def test_trivial_factor_is_neutral():
    f2 = FreeGroup(2)
    for one in (FreeAbelian(0), FiniteTable([[0]])):
        # the one-element group: full and trivial are the same subgroup
        assert Subgroup.full(one).is_trivial_subgroup() and Subgroup.trivial(one).is_full()
        assert predicates(DirectProduct(f2, one)) == predicates(f2)
        assert predicates(DirectProduct(one, f2)) == predicates(f2)
        assert predicates(DirectProduct(one, one)) == predicates(one)
    f2z1 = DirectProduct(f2, from_name("Z_1"))
    assert (f2z1.predicate(Subgroup.full(f2z1), "cstar_simple")
            == f2.predicate(Subgroup.full(f2), "cstar_simple"))


# DirectProduct(A, B) against the same group flattened into one table
PRODUCT_PAIRS = [("S_3", "Z_2"), ("Q8", "Z_2"), ("D_4", "Z_3"), ("Z_2", "S_3"), ("S_3", "S_3"),
                 ("Z_2", "Z_2")]


def _flattened(P: DirectProduct) -> tuple[FiniteTable, dict]:
    elems = P.elements()
    index = {x: i for i, x in enumerate(elems)}
    return FiniteTable([[index[P.mul(a, b)] for b in elems] for a in elems]), index


def reference_all_subgroups(G: FiniteTable) -> list[frozenset[int]]:
    """Every subgroup of G by extending each one found by every element
    outside it, one closure per element: the loop FiniteTable.all_subgroups
    ran before it took one element per coset."""
    found = {frozenset([G.identity()])}
    frontier = list(found)
    while frontier:
        s = frontier.pop()
        for x in G.elements():
            if x not in s:
                bigger = frozenset(G.closure(s | {x}))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def test_all_subgroups_matches_the_element_by_element_reference():
    # the sweep groups and S_3 x S_3 flattened into one table (60 subgroups)
    groups = [from_name(name) for name in sweep_group_names() + ["S_4", "D_8"]]
    groups.append(_flattened(DirectProduct(from_name("S_3"), from_name("S_3")))[0])
    for G in groups:
        assert G.all_subgroups() == reference_all_subgroups(G), G.name
    assert len(groups[-1].all_subgroups()) == 60


def test_table_closure_check_accepts_exactly_the_subgroups():
    """Every subset holding e, on four small tables: finite_subset accepts
    it exactly when all_subgroups lists it, and refuses it otherwise with
    one GroupError, the one the generic loop of Group.check_closed raises
    on the same set (so the inverse test still comes before the products)."""
    refused = 0
    for name in ("Z_4", "Z_2 x Z_2", "S_3", "D_4"):
        G = from_name(name)
        subgroups = set(G.all_subgroups())
        others = [x for x in G.elements() if x != G.identity()]
        for k in range(len(others) + 1):
            for rest in itertools.combinations(others, k):
                elems = frozenset(rest) | {G.identity()}
                if elems in subgroups:
                    assert set(Subgroup.finite_subset(G, elems).enumerate_elements()) == elems
                    continue
                with pytest.raises(GroupError) as generic:
                    Group.check_closed(G, set(elems))
                with pytest.raises(GroupError) as table:
                    Subgroup.finite_subset(G, elems)
                assert str(table.value) == str(generic.value)
                refused += 1
    assert refused == (2 ** 3 - 3) + (2 ** 3 - 5) + (2 ** 5 - 6) + (2 ** 7 - 10)


@pytest.mark.parametrize("names", PRODUCT_PAIRS, ids=" x ".join)
def test_product_structure_matches_flattened_table(names):
    # every subgroup of the flattened table, diagonal ones included, is
    # described on the product by its elements, and a product of factor
    # subgroups also as a ProductSubgroup
    A, B = (from_name(n) for n in names)
    P = DirectProduct(A, B)
    T, index = _flattened(P)
    elems = P.elements()

    def image(elems):
        return sorted(index[x] for x in elems)

    def closure(gens):
        return sorted(T.closure(set(gens)))

    assert predicates(P) == predicates(T)
    for s in T.all_subgroups():
        HT = Subgroup.finite_subset(T, s)
        H = Subgroup.finite_subset(P, [elems[i] for i in s])
        left, right = ({x[k] for x in H.elements} for k in (0, 1))
        described = [H]
        if len(left) * len(right) == len(s):
            described.append(Subgroup.product(P, Subgroup.finite_subset(A, left),
                                              Subgroup.finite_subset(B, right)))
        fct = fc_centralizer(T, HT)
        for H in described:
            assert is_normal(H).status == is_normal(HT).status
            assert (image(centralizer_of_subgroup(P, H).enumerate_elements())
                    == centralizer_of_subgroup(T, HT).enumerate_elements())
            fc = fc_centralizer(P, H)
            assert image(fc.finite_elements()) == fct.finite_elements()
            assert fc.central == fct.central
            for g in elems:
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
    assert set(rows) == set(README_ROWS) | {"`DirectProduct(A, B)`"}
    for label, groups in README_ROWS.items():
        for G in groups:
            assert list(predicates(G)) == rows[label], (label, G)
    assert rows["`DirectProduct(A, B)`"] == ["both"] * 3
    leaves = [G for groups in README_ROWS.values() for G in groups if G.order != 1]
    for A in leaves:
        for B in leaves:
            for name, a, b, ab in zip(PREDICATES, predicates(A), predicates(B),
                                      predicates(DirectProduct(A, B))):
                want = "fails" if "fails" in (a, b) else "holds"
                assert ab == want, (name, A, B)


ROOT = Path(__file__).resolve().parent.parent


def _decide_subgroups(workloads, seed):
    """The subgroups that the decide workload of perfbench names or computes
    at this seed: H, the full and trivial subgroups, C_G(H), FC_G(H), the
    twisted centralizer and the intermediate subgroups."""
    for item in workloads.Decide(ROOT, seed).items:
        G, H, sigma = item.G, item.H, item.sigma
        yield from (H, Subgroup.full(G), Subgroup.trivial(G), centralizer_of_subgroup(G, H),
                    fc_centralizer(G, H).subgroup,
                    sigma_centralizer(G, H, sigma).description)
        yield from (e.subgroup for e in G.intermediate_subgroups(H, 6).entries)


def _exit_subgroups():
    """H, the full and the trivial subgroup of every pinned verdict exit."""
    from test_verdict_exits import CSTAR, SUBGROUP, TWISTED
    for build in list(CSTAR.values()) + list(SUBGROUP.values()) + list(TWISTED.values()):
        G, *rest = build()
        yield from (Subgroup.full(G), Subgroup.trivial(G))
        if isinstance(rest[0], Subgroup):
            yield rest[0]


def test_predicates_agree_with_standalone_groups(monkeypatch):
    # every subgroup of the sweep groups, the decide subgroups at seed 1, the
    # verdict-exit instances, and a nonabelian finite subgroup of F_2 x S_3
    # (decided by its shape, as F_2 x S_3 inherits no class)
    subs = [Subgroup.finite_subset(G, s) for name in sweep_group_names() + ["S_4", "D_8"]
            for G in [from_name(name)] for s in G.all_subgroups()]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    subs += _decide_subgroups(importlib.import_module("workloads"), 1)
    subs += _exit_subgroups()
    f2s3 = DirectProduct(FreeGroup(2), from_name("S_3"))
    subs.append(Subgroup.finite_subset(f2s3, [((), k) for k in f2s3.right.elements()]))
    decided = 0
    for H in subs:
        ag = None if H is None else H.as_group()
        if ag is None:
            continue
        for name, want in zip(PREDICATES, predicates(ag.group)):
            if want in ("holds", "fails"):
                decided += 1
                assert H.parent.predicate(H, name).status == want, (H, name)
    assert decided >= 2000


def test_predicates_of_subgroups_without_standalone_form():
    heis, f2 = Heisenberg(), FreeGroup(2)
    heis_z = DirectProduct(heis, FreeAbelian(1))
    amenable = [Subgroup.heis_congruence(heis, n) for n in range(2, 6)]
    # off both coordinate planes, and not abelian
    amenable.append(Subgroup.generated(heis, [(1, 1, 0), (1, -1, 0)]))
    amenable.append(Subgroup.generated(heis_z, [((1, 0, 0), (1,)), ((0, 1, 0), (1,))]))
    free = Subgroup.generated(f2, [f2.parse_element("a^2"), f2.parse_element("b^2")])
    for H, want in [(H, ("holds", "holds", "fails")) for H in amenable] + [
            (free, ("holds", "fails", "holds"))]:
        assert H.as_group() is None, H
        assert tuple(H.parent.predicate(H, name).status for name in PREDICATES) == want
    assert f2.predicate(free, "cstar_simple").notes == (
        "free groups of rank >= 2 are C*-simple (Powers)",)


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


def test_check_element_names_the_value_passed_in():
    """A non-element is one GroupError naming the value given, on a table
    whose element names are indexed by element: not an IndexError, a
    TypeError or the name of another element."""
    z4 = from_name("Z_4")
    for bad in (99, "a", -1):
        with pytest.raises(GroupError, match=f"^{re.escape(repr(bad))} is not an element of Z_4$"):
            z4.check_element(bad)
    # every element is checked before a table row is read at it
    with pytest.raises(GroupError, match="^9 is not an element of Z_4$"):
        Subgroup.finite_subset(z4, [0, 9])
    with pytest.raises(GroupError, match="^9 is not an element of Z_4$"):
        Group.check_closed(z4, {0, 9})


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
        assert coord == gen and coord.kind == "heisenberg-echelon"
        assert coord.describe_desc() == gen.describe_desc() == pattern
    assert Subgroup.coordinate_zero(heis, set()) == Subgroup.full(heis)
    assert Subgroup.coordinate_zero(heis, {0, 1, 2}) == Subgroup.trivial(heis)
    with pytest.raises(GroupError):
        Subgroup.coordinate_zero(FreeAbelian(3), {0})
    with pytest.raises(GroupError):
        Subgroup.coordinate_zero(heis, {3})
    # one basis per plane lattice, whatever the generators
    assert Subgroup.generated(heis, [(0, 1, 1), (0, 0, 1)]) == Subgroup.coordinate_zero(heis, {0})
    assert Subgroup.generated(heis, [(3, 0, 5), (0, 0, 2)]).basis == ((3, 0, 1), (0, 0, 2))
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


def test_congruence_lattice_is_the_divisors_of_the_modulus():
    """{n | a1} is normal with quotient Z_n, so the subgroups between it and
    G match the subgroups of Z_n: one {d | a1} of index d for each d | n."""
    heis = Heisenberg()
    for n in range(2, 13):
        H = Subgroup.heis_congruence(heis, n)
        lattice = heis.intermediate_subgroups(H, 12)
        assert lattice.status == "ok"
        quotient = [n // len(s) for s in from_name(f"Z_{n}").all_subgroups()]
        assert [e.index_in_g for e in lattice.entries] == sorted(quotient, reverse=True)
        first, last = lattice.entries[0], lattice.entries[-1]
        assert (first.label, first.subgroup) == (f"Gamma_{n} (= H)", H)
        assert last.label == "Gamma_1 (= G)" and last.subgroup.is_full()
        for e in lattice.entries:
            d = e.index_in_g
            assert e.subgroup.index() == d
            # the entry contains H and holds exactly the elements with d | a1
            assert all(e.subgroup.contains(x) for x in H.generators())
            assert [e.subgroup.contains((a, 1, -2)) for a in range(13)] == \
                [a % d == 0 for a in range(13)]
    # a finite quotient is listed completely, whatever max_entries is
    complete = heis.intermediate_subgroups(Subgroup.heis_congruence(heis, 12), 4)
    assert complete.status == "ok"
    assert [e.index_in_g for e in complete.entries] == [12, 6, 4, 3, 2, 1]
    assert heis.intermediate_subgroups(Subgroup.heis_congruence(heis, 10 ** 13), 8).status \
        == "unknown"


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


def test_free_abelian_finite_quotient_above_the_cap_is_unknown():
    """A cyclic quotient lists its divisors whatever its order: Z^2 / <(1,0),
    (0,m)> is Z_m, with 7 subgroups at m = 64 and 8 at m = 128.  A noncyclic
    quotient is listed up to the cap: Z_2 x Z_32 (order 64) completely, and
    Z_2 x Z_64 (order 128) is unknown, at once, with the order and the cap
    in its note."""
    z2 = FreeAbelian(2)
    assert QUOTIENT_CAP == 64
    for m, want in ((64, [64, 32, 16, 8, 4, 2, 1]), (128, [128, 64, 32, 16, 8, 4, 2, 1])):
        cyclic = z2.intermediate_subgroups(Subgroup.sublattice(z2, [(1, 0), (0, m)]), 1)
        assert cyclic.status == "ok"
        assert [e.index_in_g for e in cyclic.entries] == want
    at_cap = z2.intermediate_subgroups(Subgroup.sublattice(z2, [(2, 0), (0, 32)]), 1)
    assert at_cap.status == "ok"
    assert len(at_cap.entries) == len(from_name("Z_2 x Z_32").all_subgroups())
    t0 = time.perf_counter()
    above = z2.intermediate_subgroups(Subgroup.sublattice(z2, [(2, 0), (0, 64)]), 1000)
    assert time.perf_counter() - t0 < 0.1
    assert above.status == "unknown" and not above.entries
    assert "order 128" in above.note and f"cap {QUOTIENT_CAP}" in above.note


def test_heisenberg_generated_subgroups_use_closed_form():
    # the gcd formula decides classes for any generated subgroup of Heisenberg
    heis = Heisenberg()
    crooked = Subgroup.generated(heis, [(1, 0, 0), (0, 1, 0)])
    assert crooked.kind == "full"  # their commutator is (0, 0, 1)
    central = h_conjugacy_class((0, 0, 5), crooked)
    assert central.finite and central.elements == ((0, 0, 5),)
    assert h_conjugacy_class((1, 0, 0), crooked).infinite


def test_orbit_bfs_fallback_paths():
    # a generated diagonal subgroup of a product: its classes are read off the
    # classes of its projections <a> in F_2 and Z_2, with no search
    f = FreeGroup(2)
    g = DirectProduct(f, from_name("Z_2"))
    diag = Subgroup.generated(g, [(f.gen("a"), 1)])
    assert diag.kind == "generated"
    fixed = h_conjugacy_class((f.identity(), 1), diag)
    assert fixed.finite and fixed.elements == ((f.identity(), 1),)
    runaway = h_conjugacy_class((f.gen("b"), 0), diag)
    assert runaway.infinite
    assert runaway.certificate.startswith("left component class is infinite")


def test_generated_heisenberg_plane_membership():
    heis = Heisenberg()
    plane = Subgroup.generated(heis, [(0, 2, 0), (0, 0, 2)])
    assert plane.kind == "heisenberg-echelon"
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
    # the Heisenberg generators give the full group, by its echelon basis
    for G, gens, kind in ((heis, [(1, 0, 0), (0, 1, 0)], "full"), (f2, [a, b], "generated")):
        H = Subgroup.generated(G, gens)
        assert H.kind == kind
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


def test_finite_generating_sets_are_found_once(monkeypatch):
    """FiniteTable.generators() and FiniteSubset.generators() equal
    generating_subset of the elements, generate the subgroup, and are not
    recomputed on a second call."""
    closures = []
    closure = FiniteTable.closure

    def counted(self, seed):
        closures.append(seed)
        return closure(self, seed)

    monkeypatch.setattr(FiniteTable, "closure", counted)
    for name in sweep_group_names() + ["S_4", "D_8"]:
        G = from_name(name)
        subs = [Subgroup.full(G)] + [Subgroup.finite_subset(G, s) for s in G.all_subgroups()]
        for H in subs:
            elems = H.enumerate_elements()
            gens = H.generators()
            assert gens == G.generating_subset(elems)
            assert G.closure(gens) == set(elems)
            before = len(closures)
            assert H.generators() == gens
            assert len(closures) == before


# ---------------------------------------------------------------------------
# one normal form per Heisenberg subgroup, however it is spelled
# ---------------------------------------------------------------------------

HEIS = Heisenberg()


def _random_echelon(rng: random.Random, sort: str) -> tuple:
    """A reduced echelon basis drawn directly under the conventions of the
    normal form: b1 = (d1, e, f), b2 = (0, d2, g), b3 = (0, 0, d3), positive
    pivots, 0 <= e < d2 and 0 <= f, g < d3 where b2, b3 are present, and
    [b1, b2] = (0, 0, d1*d2) inside <b3>."""
    def pivot():
        return rng.randint(1, 4)

    def third(d3):
        return rng.randrange(d3) if d3 else rng.randint(-4, 4)

    d3 = rng.choice((0, pivot()))
    b3 = ((0, 0, d3),) if d3 else ()
    if sort == "plane":  # a lattice in {(0, a2, a3)} or in {(a1, 0, a3)}
        d = pivot()
        return (((0, d, third(d3)) if rng.random() < 0.5 else (d, 0, third(d3))),) + b3
    if sort == "slanted":  # <(d1, e, f)> with e != 0, and maybe a central part
        return ((pivot(), rng.choice((-3, -2, -1, 1, 2, 3)), third(d3)),) + b3
    d1, d2 = pivot() + 1, pivot()  # finite index above 1
    d3 = rng.choice([d for d in range(1, d1 * d2 + 1) if d1 * d2 % d == 0])
    return ((d1, rng.randrange(d2), rng.randrange(d3)), (0, d2, rng.randrange(d3)),
            (0, 0, d3))


def _named_subgroups() -> list[tuple[str, tuple]]:
    """(label, basis): every {m | a1} for m = 2..6 and the coordinate
    subgroups, labelled by their descriptions, and 20 seeded subgroups of
    each sort, labelled by the sort; each by its reduced echelon basis."""
    out = [(f"{{(a1, a2, a3) : {m} | a1}}", ((m, 0, 0), (0, 1, 0), (0, 0, 1)))
           for m in range(2, 7)]
    out += [("{(0, a2, a3)}", ((0, 1, 0), (0, 0, 1))), ("{(a1, 0, a3)}", ((1, 0, 0), (0, 0, 1))),
            ("{(0, 0, a3)}", ((0, 0, 1),)), ("{(a1, 0, 0)}", ((1, 0, 0),))]
    rng = random.Random(24)
    for sort in ("plane", "finite-index", "slanted"):
        out += [(sort, _random_echelon(rng, sort)) for _ in range(20)]
    return out


def _spellings(rng: random.Random, basis: tuple, count: int = 3) -> list[list]:
    """count generating sets of <basis>: shuffled, with generators multiplied
    by others (Nielsen moves), inverted, and a redundant word added.  Two
    one-letter moves (one after splitting a cyclic generator g into g^a, g^b)
    keep every basis element within 4 letters of the set."""
    out = []
    for _ in range(count):
        gens, moves = list(basis), 2
        if len(gens) == 1:
            a, b = rng.choice(((2, 3), (3, 2), (-2, 3), (3, -2), (1, 4), (-1, 5)))
            gens, moves = [HEIS.power(gens[0], a), HEIS.power(gens[0], b)], 1
        for _ in range(moves):
            i, j = rng.sample(range(len(gens)), 2)
            s = HEIS.power(gens[j], rng.choice((-1, 1)))
            gens[i] = HEIS.mul(gens[i], s) if rng.random() < 0.5 else HEIS.mul(s, gens[i])
        gens.append(HEIS.mul(rng.choice(gens), rng.choice(gens)))
        gens = [g if rng.random() < 0.5 else HEIS.inv(g) for g in gens]
        rng.shuffle(gens)
        out.append(gens)
    return out


def _sifts_to_identity(basis: tuple, x: tuple) -> bool:
    """x lies in <basis>: divide out the pivots of the echelon basis in turn,
    with the Heisenberg product written out here."""
    for b in basis:
        i = next(k for k in range(3) if b[k])
        if x[i] % b[i]:
            return False
        q = x[i] // b[i]
        # b^-q x, where b^n = (n*b1, n*b2, n*b3 + C(n, 2)*b1*b2)
        p = (-q * b[0], -q * b[1], -q * b[2] + q * (q + 1) // 2 * b[0] * b[1])
        x = (p[0] + x[0], p[1] + x[1], p[2] + x[2] + p[0] * x[1])
    return x == (0, 0, 0)


def _reaches(gens: list, targets, radius: int = 2) -> bool:
    """Every target is a word of at most 2*radius letters in gens and their
    inverses: meet in the middle on the ball of radius `radius`."""
    steps = gens + [HEIS.inv(g) for g in gens]
    ball = {HEIS.identity()}
    for _ in range(radius):
        ball |= {HEIS.mul(x, s) for x in ball for s in steps}
    return all(any(HEIS.mul(HEIS.inv(x), t) in ball for x in ball) for t in targets)


def _cocycles() -> list:
    basis = IrrationalBasis(["theta"])
    rational = IrrationalBasis([])
    return [HeisenbergCocycle(HEIS, basis.rational(0), basis.symbol("theta")),
            HeisenbergCocycle(HEIS, rational.rational(Fraction(1, 3)),
                              rational.rational(Fraction(1, 2)))]


def _answers(G, H, sigmas) -> tuple:
    """What the engine says of H: description, index, normality, and per
    cocycle the verdict (conclusion, rules, witness) and the lattice."""
    verdicts = [cstar_irreducible(G, H, s) for s in sigmas]
    return (H.describe_desc(), H.index(), is_normal(H).status,
            [(v.conclusion, [step.rule for step in v.chain], v.witness) for v in verdicts],
            [intermediate_lattice(G, H, s, verdict=v) for s, v in zip(sigmas, verdicts)])


def test_every_spelling_of_a_heisenberg_subgroup_gets_one_answer():
    """Each generating set of a subgroup gives its reduced echelon basis, so
    the same description, index, normality, verdict and lattice.  That each
    set generates the subgroup is certified here without the engine: every
    given generator sifts to the identity through the basis, and a bounded
    word search in the given generators reaches every basis element."""
    rng = random.Random(7)
    sigmas = _cocycles()
    named = {f"{{(a1, a2, a3) : {m} | a1}}": Subgroup.heis_congruence(HEIS, m)
             for m in range(2, 7)}
    named.update({"{(0, a2, a3)}": Subgroup.coordinate_zero(HEIS, {0}),
                  "{(a1, 0, a3)}": Subgroup.coordinate_zero(HEIS, {1}),
                  "{(0, 0, a3)}": Subgroup.coordinate_zero(HEIS, {0, 1}),
                  "{(a1, 0, 0)}": Subgroup.coordinate_zero(HEIS, {1, 2})})
    for label, basis in _named_subgroups():
        ref = named.get(label, Subgroup.generated(HEIS, basis))
        assert ref.generators() == basis, label
        answers = None
        for gens in _spellings(rng, basis):
            assert all(_sifts_to_identity(basis, g) for g in gens), (label, gens)
            assert _reaches(gens, basis), (label, gens)
            H = Subgroup.generated(HEIS, gens)
            assert H == ref and H.generators() == basis, (label, gens)
            got = _answers(HEIS, H, sigmas)
            assert answers is None or got == answers, (label, gens)
            answers = got
        assert label not in named or answers[0] == label


def test_three_spellings_of_the_index_2_congruence_subgroup_hold():
    """{2 | a1} spelled by its basis, by a slanted generator or by the
    builder: holds with HeisenbergCocycle(0, theta), as a prime FC-hypercentral
    H whose restriction satisfies Kleppner's condition and whose twisted
    centralizer is trivial, with the divisors of 2 as its lattice."""
    sigma = _cocycles()[0]
    answers = []
    for H in (Subgroup.heis_congruence(HEIS, 2),
              Subgroup.generated(HEIS, [(2, 0, 0), (0, 1, 0), (0, 0, 1)]),
              Subgroup.generated(HEIS, [(2, 1, 0), (0, 1, 0), (0, 0, 1)])):
        v = cstar_irreducible(HEIS, H, sigma)
        lattice = intermediate_lattice(HEIS, H, sigma, verdict=v)
        assert H.describe_desc() == "{(a1, a2, a3) : 2 | a1}" and H.index() == 2
        assert v.holds and [step.rule for step in v.chain] == \
            ["prime-fch-twisted-centralizer"]
        assert lattice.status == "ok" and lattice.count == 2
        answers.append((v, lattice))
    assert answers[0] == answers[1] == answers[2]


def test_slanted_centralizers_are_in_the_catalog():
    """C_G(H) of every Heisenberg subgroup is an echelon subgroup, C_H(g) is
    always computed, every failure witness replays and every holds survives
    a ball check of the elements that centralize H."""
    slanted = Subgroup.generated(HEIS, [(1, 1, 0)])
    assert centralizer_of_subgroup(HEIS, slanted) == \
        Subgroup.generated(HEIS, [(1, 1, 0), (0, 0, 1)])
    rng = random.Random(11)
    ball = [x for x in itertools.product(range(-3, 4), repeat=3) if any(x)]
    outcomes = set()
    for label, basis in _named_subgroups():
        H = Subgroup.generated(HEIS, basis)
        for _ in range(5):
            g = HEIS.random_element(rng, 4)
            cent = centralizer_generators(H, g)
            assert cent is not None and all(HEIS.commutes(h, g) and H.contains(h) for h in cent)
        centralizing = [x for x in ball if all(HEIS.commutes(x, h) for h in basis)]
        for sigma in _cocycles():
            for name, r in (("relative kleppner", relative_kleppner(HEIS, H, sigma)),
                            ("twisted centralizer", sigma_centralizer(HEIS, H, sigma).is_trivial)):
                outcomes.add((name, r.status))
                if r.fails:
                    w = r.witness.elements if name == "relative kleppner" else (r.witness,)
                    assert all(is_sigma_regular(x, H, sigma).holds for x in w), (label, r)
                if r.holds:
                    # a centralizing x is a singleton class; it must not be regular
                    assert not any(all(commutation_trivial(sigma, x, h) for h in basis)
                                   for x in centralizing), (label, name)
    assert {("relative kleppner", "holds"), ("relative kleppner", "fails"),
            ("twisted centralizer", "holds"), ("twisted centralizer", "fails")} <= outcomes


# ---------------------------------------------------------------------------
# one reduced basis per sublattice of Z^n, and the intermediate-lattice rule
# checked against an enumeration of the quotient
# ---------------------------------------------------------------------------

def _det(a) -> int:
    """Determinant by Laplace expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * a[0][j] * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j in range(len(a)) if a[0][j])


def _adjugate(m) -> list:
    """adj(M), so adj(M) M = det(M) I: v lies in the row lattice of a
    nonsingular M exactly when v adj(M) = 0 mod det(M)."""
    n = len(m)
    return [[(-1) ** (i + j) * _det([r[:i] + r[i + 1:] for k, r in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def _full_rank_rows(rng: random.Random, n: int, most: int = 64) -> list:
    """n random rows of Z^n whose lattice has index between 1 and most."""
    while True:
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        if 1 <= abs(_det(rows)) <= most:
            return rows


def _closure(gens, d: int) -> frozenset:
    """The subgroup of (Z_d)^n that gens generate: 0 and every sum reached by
    adding generators, which in a finite group is closed under inverses."""
    zero = (0,) * len(gens[0])
    out, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple((a + b) % d for a, b in zip(x, g))
            if y not in out:
                out.add(y)
                todo.append(y)
    return frozenset(out)


def _subgroups_above(bottom: list, elements, d: int) -> set:
    """Every subgroup of (Z_d)^n between <bottom> and <elements>: <bottom>
    closed together with element after element until nothing new appears."""
    found, todo = {}, [tuple(bottom)]
    while todo:
        gens = todo.pop()
        s = _closure(gens, d)
        if s not in found:
            found[s] = gens
            todo += [gens + (x,) for x in elements if x not in s]
    return set(found)


def _finite_quotient_lattice(n: int, rows: list) -> set:
    """(index, K/H) for every K between H = <rows> (full rank) and Z^n: the
    class of v in Z^n/H is v adj(M) mod D, D = |det M|, and the quotient is
    generated by the unit vectors' classes, the rows of adj(M)."""
    adj, D = _adjugate(rows), abs(_det(rows))
    units = [tuple(x % D for x in row) for row in adj]
    return {(D // len(s), s) for s in _subgroups_above([(0,) * n], _closure(units, D), D)}


def _image_in_quotient(rows: list, gens) -> frozenset:
    """K/H inside Z^n/H, K = <gens>, in the coordinates of _finite_quotient_lattice."""
    adj, D, n = _adjugate(rows), abs(_det(rows)), len(rows)
    return _closure([(0,) * n] + [tuple(sum(v[i] * adj[i][j] for i in range(n)) % D
                                        for j in range(n)) for v in gens], D)


def test_generated_subgroup_refuses_a_normal_form_parent():
    """Z^n and the Heisenberg group keep each subgroup as its reduced
    echelon basis: a raw GeneratedSubgroup on them is refused, and
    Subgroup.generated gives the normal-form kind."""
    z2 = FreeAbelian(2)
    for G, gens, kind in ((HEIS, ((1, 0, 0), (0, 1, 0)), "full"),
                          (HEIS, ((2, 1, 0), (0, 1, 0)), "heisenberg-echelon"),
                          (z2, ((2, 1), (0, 3)), "sublattice")):
        with pytest.raises(GroupError, match="reduced echelon basis"):
            GeneratedSubgroup(G, gens)
        assert Subgroup.generated(G, gens).kind == kind
    assert Subgroup.sublattice(z2, [(1, -1), (0, 1)]).basis == ((1, 0), (0, 1))
    # <(1,0,0), (0,1,0)> is G, so the centralizer of (1,0,0) in it has the centre
    H = Subgroup.generated(HEIS, [(1, 0, 0), (0, 1, 0)])
    assert (0, 0, 1) in centralizer_generators(H, (1, 0, 0))


def test_free_abelian_lattice_matches_an_enumeration_of_the_quotient():
    """Seeded sublattices H of Z^1, Z^2 and Z^3: of index at most 64, where
    the (index, K/H) pairs of the lattice equal those that closing H with
    coset representatives finds; and of corank 1, where Gamma_d is the one
    K of index d above H when the quotient is Z, and the lattice is unknown
    when the quotient has torsion."""
    rng = random.Random(25)
    statuses = set()
    for n in (1, 2, 3):
        G = FreeAbelian(n)
        for _ in range(12):
            rows = _full_rank_rows(rng, n)
            H = Subgroup.sublattice(G, rows)
            lattice = G.intermediate_subgroups(H, 6)
            assert lattice.status == "ok", rows
            got = set()
            for e in lattice.entries:
                K = e.subgroup
                assert all(K.contains(tuple(r)) for r in rows) and e.index_in_g == K.index()
                got.add((e.index_in_g, _image_in_quotient(rows, K.generators())))
            assert got == _finite_quotient_lattice(n, rows), rows
            assert len(got) == len(lattice.entries)
            statuses.add(("finite", lattice.entries[0].label.startswith("Gamma")))
        for _ in range(12):
            while True:
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
                # the gcd of the maximal minors: 0 off corank 1, else the torsion order
                minors = [_det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
                torsion = abs(gcd(*minors))
                if torsion:
                    break
            H = Subgroup.sublattice(G, rows)
            lattice = G.intermediate_subgroups(H, 6)
            statuses.add(("corank 1", lattice.status))
            if torsion > 1:
                assert lattice.status == "unknown", rows
                continue
            assert lattice.status == "truncated", rows
            assert [e.label for e in lattice.entries[:2]] == ["Gamma_0 (= H)", "Gamma_1 (= G)"]
            for d, e in enumerate(lattice.entries):
                K = e.subgroup
                assert e.label.startswith(f"Gamma_{d}") and e.index_in_g == K.index()
                if d == 0:
                    assert K == H and K.index() is INFINITE
                    continue
                # the K of index d above H contain d Z^n: subgroups of (Z_d)^n
                units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
                index_d = [s for s in _subgroups_above([(0,) * n] + rows, units, d)
                           if len(s) * d == d ** n]
                assert index_d == [_closure([(0,) * n] + list(K.generators()), d)], (rows, d)
                assert K.index() == d and all(K.contains(tuple(d * x for x in u)) for u in units)
    assert statuses >= {("finite", True), ("finite", False), ("corank 1", "truncated"),
                        ("corank 1", "unknown")}


def test_heisenberg_lattice_is_the_plane_lattice_lifted():
    """Above a subgroup that contains the centre, every entry is the lift of
    the matching entry of Z^2 above H's image: same label and index, and it
    contains H and (0, 0, 1).  Pinned: <(1,1,0), (0,0,1)> has a chain,
    <(2,0,0), (0,2,0), (0,0,1)> (quotient Z_2 x Z_2) five entries, G one."""
    z2, rng = FreeAbelian(2), random.Random(26)
    drawn = [[(0, 0, 1)] + [HEIS.random_element(rng, 4) for _ in range(rng.randint(0, 3))]
             for _ in range(40)]
    statuses = set()
    for gens in drawn:
        H = Subgroup.generated(HEIS, gens)
        lattice = HEIS.intermediate_subgroups(H, 5)
        statuses.add(lattice.status)
        plane = z2.intermediate_subgroups(Subgroup.sublattice(z2, [g[:2] for g in gens]), 5)
        assert (lattice.status, lattice.note) == (plane.status, plane.note), gens
        assert len(lattice.entries) == len(plane.entries)
        for e, f in zip(lattice.entries, plane.entries):
            K = e.subgroup
            assert (e.label, e.index_in_g) == (f.label, f.index_in_g) == (e.label, K.index())
            assert all(K.contains(g) for g in gens) and K.contains((0, 0, 1))
            assert Subgroup.sublattice(z2, [k[:2] for k in K.generators()]) == \
                Subgroup.sublattice(z2, f.subgroup.generators())
    assert statuses == {"ok", "truncated", "unknown"}
    sigma = _cocycles()[0]
    pins = (([(1, 1, 0), (0, 0, 1)], "truncated", [INFINITE, 1, 2, 3, 4, 5]),
            ([(2, 0, 0), (0, 2, 0), (0, 0, 1)], "ok", [4, 2, 2, 2, 1]),
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], "ok", [1]))
    for gens, status, indices in pins:
        H = Subgroup.generated(HEIS, gens)
        lattice = intermediate_lattice(HEIS, H, sigma, max_entries=5)
        assert (lattice.status, [e.index_in_g for e in lattice.entries]) == (status, indices)
    assert [e.subgroup for e in HEIS.intermediate_subgroups(
        Subgroup.generated(HEIS, pins[1][0]), 5).entries][1] == Subgroup.heis_congruence(HEIS, 2)


def _random_spelling(rng: random.Random, rows: list) -> list:
    """Another spanning set of <rows>: unimodular row moves, sign flips, a
    redundant sum, shuffled."""
    gens = [list(r) for r in rows]
    for _ in range(4):
        i, j = rng.sample(range(len(gens)), 2)
        c = rng.choice((-2, -1, 1, 2))
        gens[i] = [a + c * b for a, b in zip(gens[i], gens[j])]
    gens.append([a + b for a, b in zip(rng.choice(gens), rng.choice(gens))])
    gens = [g if rng.random() < 0.5 else [-x for x in g] for g in gens]
    rng.shuffle(gens)
    return [tuple(g) for g in gens]


def test_every_spelling_of_a_sublattice_of_z3_gets_one_answer():
    """Seeded finite-index sublattices of Z^3: every random spanning set gives
    one Sublattice, one description, and the same verdict, witness and
    lattice under a formal and a rational three-torus cocycle.  That a set
    spans the lattice is certified here: each vector lies in it (by the
    adjugate) and the gcd of its 3x3 minors is the lattice's index."""
    from kleppner.cocycles import three_torus_cocycle
    z3, rng = FreeAbelian(3), random.Random(27)
    formal = IrrationalBasis(["t1", "t2", "t3"])
    rational = IrrationalBasis([])
    sigmas = [three_torus_cocycle(z3, [formal.symbol(t) for t in formal.symbols]),
              three_torus_cocycle(z3, [rational.rational(Fraction(1, k)) for k in (2, 3, 4)])]
    conclusions = set()
    for _ in range(20):
        rows = _full_rank_rows(rng, 3, 36)
        adj, D = _adjugate(rows), abs(_det(rows))
        ref = Subgroup.sublattice(z3, rows)
        answers = _answers(z3, ref, sigmas)
        conclusions |= {v[0] for v in answers[3]}
        for _ in range(3):
            gens = _random_spelling(rng, rows)
            assert all(sum(v[i] * adj[i][j] for i in range(3)) % D == 0
                       for v in gens for j in range(3)), (rows, gens)
            assert gcd(*(_det([list(g) for g in c])
                         for c in itertools.combinations(gens, 3))) == D, (rows, gens)
            H = Subgroup.sublattice(z3, gens)
            assert H == ref and H.describe_desc() == ref.describe_desc(), (rows, gens)
            assert _answers(z3, H, sigmas) == answers, (rows, gens)
    assert {"holds", "fails"} <= conclusions
