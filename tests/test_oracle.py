import random
import sys
from fractions import Fraction

import pytest
from test_acceptance import sweep_group_names

import kleppner.oracle as oracle_mod
import kleppner.phases as phases_mod
from kleppner.cocycles import PhaseTableCocycle, TrivialCocycle, conj_twist, transport
from kleppner.groups import Subgroup, from_name
from kleppner.oracle import (MonomialMatrix, OracleError, build_regular_rep, canonical_trace,
                             center_dim, relative_commutant_dim, span_trace)
from kleppner.phases import IrrationalBasis, Phase
from kleppner.randomized import random_table_cocycle
from kleppner.regularity import is_sigma_regular, kleppner, relative_kleppner, sigma_centralizer


def anticommute_z22():
    z22 = from_name("Z_2 x Z_2")
    tbl = [[Phase(Fraction((g % 2) * (h // 2), 2)) for h in range(4)] for g in range(4)]
    return z22, PhaseTableCocycle(z22, tbl)


def test_z2_trivial_gives_permutation_matrices():
    z2 = from_name("Z_2")
    rep = build_regular_rep(z2, TrivialCocycle(z2), verify_pairs=True)
    for g in z2.elements():
        m = rep.matrix(g)
        assert all(p.is_one() for p in m.phase_of_col)  # entries are plain ones
    assert rep.matrix(z2.identity()) == MonomialMatrix.identity(2)


def test_anticommutation_matrices():
    z22, sig = anticommute_z22()
    rep = build_regular_rep(z22, sig, verify_pairs=True)
    l10, l01 = rep.matrix(2), rep.matrix(1)  # indices: (1,0) -> 2, (0,1) -> 1
    assert (l10 @ l01) == (l01 @ l10).scaled(Phase(Fraction(1, 2)))
    for g in z22.elements():
        assert rep.matrix(g).is_unitary()


def test_projective_relation_entrywise():
    rng = random.Random(0)
    for name in ("Z_6", "D_4", "Q8"):
        g = from_name(name)
        sig = random_table_cocycle(g, rng)
        rep = build_regular_rep(g, sig, verify_pairs=True)
        for a in g.elements():
            for b in g.elements():
                lhs = rep.matrix(a) @ rep.matrix(b)
                rhs = rep.matrix(g.mul(a, b)).scaled(sig.value(a, b))
                assert lhs == rhs


def test_conjugation_matches_twist():
    # lam(h) lam(g) lam(h)* = twist(h,g) * lam(h g h^-1), entrywise
    rng = random.Random(1)
    for name in ("S_3", "D_4"):
        g = from_name(name)
        sig = random_table_cocycle(g, rng)
        rep = build_regular_rep(g, sig)
        for h in g.elements():
            for x in g.elements():
                lhs = rep.matrix(h) @ rep.matrix(x) @ rep.matrix(h).adjoint()
                tw = conj_twist(sig, h, x)
                assert lhs == rep.matrix(g.conj(h, x)).scaled(tw)


def test_relative_commutant_examples():
    z22, sig = anticommute_z22()
    r = relative_commutant_dim(z22, Subgroup.full(z22), sig, verify=True)
    assert r.dim_route_a == r.dim_route_b == 1

    z6 = from_name("Z_6")
    r2 = relative_commutant_dim(z6, Subgroup.full(z6), TrivialCocycle(z6), verify=True)
    assert r2.dimension == 6  # abelian, trivial cocycle: everything regular

    s3 = from_name("S_3")
    a3 = next(s for s in s3.all_subgroups() if len(s) == 3)
    r3 = relative_commutant_dim(s3, Subgroup.finite_subset(s3, a3),
                                TrivialCocycle(s3), verify=True)
    assert r3.dimension == 4
    assert len(r3.regular_classes) == 4


def test_center_dim_examples():
    z4 = from_name("Z_4")
    assert center_dim(z4, TrivialCocycle(z4)) == 4
    z22, sig = anticommute_z22()
    assert center_dim(z22, sig) == 1
    q8 = from_name("Q8")
    assert center_dim(q8, TrivialCocycle(q8)) == 5


def test_commutant_basis_satisfies_constraints():
    rng = random.Random(2)
    g = from_name("D_4")
    sig = random_table_cocycle(g, rng)
    subs = g.all_subgroups()
    for hset in subs:
        H = Subgroup.finite_subset(g, hset)
        # verify=True substitutes every basis element back into the equations
        relative_commutant_dim(g, H, sig, verify=True)


def test_commutant_builds_no_phase():
    # both routes, the rep and the full substitution work on integers over
    # den: no call to Phase.__init__ or phases._make on any subgroup
    rng = random.Random(12)
    phase_code = {Phase.__init__.__code__, phases_mod._make.__code__}
    built = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in phase_code:
            built.append(frame.f_code.co_name)

    for name in ("D_4", "Q8"):
        g = from_name(name)
        subs = [Subgroup.finite_subset(g, s) for s in g.all_subgroups()]
        for _ in range(3):
            sig = random_table_cocycle(g, rng)
            previous = sys.getprofile()
            sys.setprofile(watch)
            try:
                for H in subs:
                    relative_commutant_dim(g, H, sig, verify=True)
            finally:
                sys.setprofile(previous)
    assert built == []


def test_trace_examples():
    s3 = from_name("S_3")
    rep = build_regular_rep(s3, TrivialCocycle(s3))
    assert canonical_trace(rep, MonomialMatrix.identity(6)) == Phase(0)
    g = 3
    assert canonical_trace(rep, rep.matrix(g)) is None
    prod = rep.matrix(g) @ rep.matrix(g).adjoint()
    assert canonical_trace(rep, prod) == Phase(0)
    # span trace: the coefficient at the identity, exponents over rep.den
    assert span_trace(rep, {s3.identity(): 0, 2: 0}) == Phase(0)
    assert span_trace(rep, {2: 0}) is None
    z22, sig = anticommute_z22()
    rep2 = build_regular_rep(z22, sig)
    assert rep2.den == 2
    assert span_trace(rep2, {z22.identity(): 1, 3: 0}) == Phase(Fraction(1, 2))


def test_trace_equals_normalized_matrix_trace():
    # every diagonal entry of T in the span equals the (e,e) entry
    rng = random.Random(3)
    g = from_name("Q8")
    sig = random_table_cocycle(g, rng)
    rep = build_regular_rep(g, sig)
    basis = relative_commutant_dim(g, Subgroup.full(g), sig, rep=rep).basis
    e = g.identity()
    for f in basis:
        def t_entry(r, k):
            u = g.mul(r, g.inv(k))
            if u not in f:
                return None
            return (Fraction(f[u], rep.den) + sig.value(u, k).rational) % 1
        diag = [t_entry(x, x) for x in g.elements()]
        assert all(d == diag[e] for d in diag)


def test_route_agreement_random_sweep_smoke():
    rng = random.Random(4)
    for name in ("Z_8", "Z_2 x Z_4", "D_4", "Q8", "S_3"):
        g = from_name(name)
        subs = [Subgroup.finite_subset(g, s) for s in g.all_subgroups()]
        for _ in range(5):
            sig = random_table_cocycle(g, rng)
            rep = build_regular_rep(g, sig)
            for H in subs:
                r = relative_commutant_dim(g, H, sig, rep=rep)  # raises on mismatch
                assert r.dim_route_a == r.dim_route_b


def test_irrational_phase_rejected():
    z2 = from_name("Z_2")
    b = IrrationalBasis(["theta"])

    class Fake(TrivialCocycle):
        def int_value(self, g, h):
            return [0, 1] if (g, h) == (1, 1) else [0, 0]

    with pytest.raises(OracleError):
        build_regular_rep(z2, Fake(z2, b))


def test_order_cap():
    from kleppner.groups.finite import cyclic
    big = cyclic(65)
    with pytest.raises(OracleError):
        build_regular_rep(big, TrivialCocycle(big))


def test_projective_relation_failure_is_reported():
    # normalized but not a cocycle: sigma(1,1) = 1/3 alone on Z_3
    z3 = from_name("Z_3")
    tbl = [[Phase(Fraction(1, 3) if (g, h) == (1, 1) else 0) for h in range(3)]
           for g in range(3)]
    for verify_pairs in (True, False):
        with pytest.raises(OracleError, match=r"projective relation fails at \(1,1\)"):
            build_regular_rep(z3, PhaseTableCocycle(z3, tbl), verify_pairs=verify_pairs)


def test_corrupted_route_a_basis_fails_substitution(monkeypatch):
    # a coboundary on S_3 with den 2; the transposition class {1, 2, 5} is
    # one basis element of the center with every coefficient 0
    s3 = from_name("S_3")
    b = {g: Fraction(1, 2) if g == 3 else Fraction(0) for g in s3.elements()}
    sig = PhaseTableCocycle(s3, [[Phase(b[g] + b[h] - b[s3.mul(g, h)]) for h in s3.elements()]
                                 for g in s3.elements()])
    real_route_a = oracle_mod._route_a

    def corrupted_route_a(rep, hgens):
        closed = real_route_a(rep, hgens)
        orbit = next(o for o in closed if 1 in o)
        assert rep.den == 2 and {x: closed.pot[x] for x in orbit} == {1: 0, 2: 0, 5: 0}
        closed.pot[1] += 1  # the coefficient at 1 times exp(2*pi*i/2)
        return closed

    monkeypatch.setattr(oracle_mod, "_route_a", corrupted_route_a)
    with pytest.raises(OracleError, match="route A basis element fails substitution"):
        relative_commutant_dim(s3, Subgroup.full(s3), sig, verify=True)


def test_rep_of_another_cocycle_is_refused():
    z22, sig = anticommute_z22()
    untwisted = build_regular_rep(z22, TrivialCocycle(z22))
    with pytest.raises(OracleError, match="another group or cocycle"):
        relative_commutant_dim(z22, Subgroup.full(z22), sig, rep=untwisted)
    with pytest.raises(OracleError, match="another group or cocycle"):
        center_dim(z22, sig, rep=untwisted)
    assert center_dim(z22, sig, rep=build_regular_rep(z22, sig)) == 1


def test_subgroup_of_another_group_is_refused():
    z22, sig = anticommute_z22()
    z4 = from_name("Z_4")
    for H in (Subgroup.full(z4), Subgroup.finite_subset(z4, [2])):
        with pytest.raises(OracleError, match="H must be a subgroup of G"):
            relative_commutant_dim(z22, H, sig)


class _ScalingUnionFind:
    """Union-find with root-of-unity potentials, the exponents stored as
    integers modulo den: f(x) = zeta^(pot(x)/den) * f(root(x)).  Held here,
    apart from the engine, so that the n^2-equation reference shares no code
    with route A."""

    def __init__(self, n, den):
        self.parent = list(range(n))
        self.pot = [0] * n
        self.dead = [False] * n
        self.den = den

    def find(self, x):
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        acc = 0
        for y in reversed(path):
            acc = (acc + self.pot[y]) % self.den
            self.parent[y] = x
            self.pot[y] = acc
        return x

    def relate(self, u, v, delta):
        """Impose f(u) = zeta^(delta/den) * f(v)."""
        ru = self.find(u)
        pu = self.pot[u] if u != ru else 0
        rv = self.find(v)
        pv = self.pot[v] if v != rv else 0
        if ru == rv:
            if (pu - pv - delta) % self.den:
                self.dead[ru] = True
            return
        # attach rv under ru: f(rv) = zeta^((pu - delta - pv)/den) f(ru)
        self.parent[rv] = ru
        self.pot[rv] = (pu - delta - pv) % self.den
        if self.dead[rv]:
            self.dead[ru] = True

    def alive_components(self):
        comps = {}
        for x in range(len(self.parent)):
            r = self.find(x)
            comps.setdefault(r, []).append((x, self.pot[x] if x != r else 0))
        return {r: members for r, members in comps.items() if not self.dead[r]}


def _full_system_route_a(rep, hgens):
    """Route A on every entry (r, k): the n^2 equations per generator that
    column e alone decides.  A reference for the parity test only."""
    G = rep.group
    n, den, val, table, inv = G.order, rep.den, rep.int_values, G.table, G.inv_table
    uf = _ScalingUnionFind(n, den)
    for h in hgens:
        for k in range(n):
            mp = table[h][k]
            for r in range(n):
                m = table[inv[h]][r]
                u = table[m][inv[k]]
                v = table[r][inv[mp]]
                lhs = val[h][m] + val[u][k]
                rhs = val[v][mp] + val[h][k]
                uf.relate(u, v, (rhs - lhs) % den)
    return [dict(members) for members in uf.alive_components().values()]


def _normalized(basis, den):
    """Each basis element rescaled to exponent 0 at its least support
    element, as a set: every exponent difference within a support stays."""
    out = set()
    for f in basis:
        p0 = f[min(f)]
        out.add(frozenset((x, (p - p0) % den) for x, p in f.items()))
    return out


def _swept_groups():
    return [from_name(name) for name in sweep_group_names() + ["S_4", "D_8"]]


def test_column_e_route_matches_full_system():
    rng = random.Random(11)
    for g in _swept_groups():
        subs = [Subgroup.finite_subset(g, s) for s in g.all_subgroups()]
        for _ in range(3):
            sig = random_table_cocycle(g, rng)
            rep = build_regular_rep(g, sig)
            for H in subs:
                hgens = list(H.generators()) or [g.identity()]
                full = _full_system_route_a(rep, hgens)
                r = relative_commutant_dim(g, H, sig, verify=True, rep=rep)
                assert r.dimension == len(full)
                # the supports are disjoint, so the sets lose no element
                assert _normalized(r.basis, rep.den) == _normalized(full, rep.den)
                assert all(f[min(f)] == 0 for f in r.basis)


def test_route_a_supports_are_route_b_classes():
    """Each route A basis element is supported on exactly one regular
    H-class of route B, on every subgroup of the swept groups: the routes
    agree element by element, not only in count."""
    rng = random.Random(5)
    instances = 0
    for g in _swept_groups():
        subs = [Subgroup.finite_subset(g, s) for s in g.all_subgroups()]
        for _ in range(5):
            sig = random_table_cocycle(g, rng)
            rep = build_regular_rep(g, sig)
            for H in subs:
                r = relative_commutant_dim(g, H, sig, rep=rep)
                supports = [frozenset(f) for f in r.basis]
                assert len(set(supports)) == len(supports)
                assert set(supports) == {frozenset(c) for c in r.regular_classes}
                instances += 1
    assert instances == 990


def test_table_conjugation_matches_generic_formula():
    for g in _swept_groups():
        for s in g.elements():
            for x in g.elements():
                assert g.conj(s, x) == g.mul(g.mul(s, x), g.inv(s))
        for hset in g.all_subgroups():
            helems = Subgroup.finite_subset(g, hset).enumerate_elements()
            seen, expected = set(), []
            for x in g.elements():
                if x not in seen:
                    orbit = sorted({g.mul(g.mul(h, x), g.inv(h)) for h in helems})
                    seen.update(orbit)
                    expected.append(orbit)
            assert [list(c) for c in g.h_classes(helems)] == expected


def test_h_classes_are_held_on_the_table():
    """The classes of each subgroup equal those of a fresh table, a second
    call returns the same tuple, and every description of H shares it:
    route B, strategy (a) and kleppner's own Subgroup.full add no entry."""
    rng = random.Random(21)
    for name in sweep_group_names():
        g = from_name(name)
        subs = [Subgroup.finite_subset(g, s) for s in g.all_subgroups()]
        for H in subs:
            helems = H.enumerate_elements()
            held = g.h_classes(helems)
            assert held == from_name(name).h_classes(helems)
            assert isinstance(held, tuple) and all(isinstance(c, tuple) for c in held)
            assert g.h_classes(list(helems)) is held
        memo = dict(g._h_classes)
        assert len(memo) == len(subs)
        sig = random_table_cocycle(g, rng)
        rep = build_regular_rep(g, sig)
        # Subgroup.full lists the same elements as the finite_subset of all of G
        for H in subs + [Subgroup.full(g)]:
            relative_commutant_dim(g, H, sig, rep=rep)
            relative_kleppner(g, H, sig)
        kleppner(g, sig)
        assert g._h_classes.keys() == memo.keys()
        assert all(g._h_classes[k] is v for k, v in memo.items())


def test_h_entry_holds_the_mask_with_the_classes():
    """On every subgroup of the swept groups, with H's elements listed in
    two orders: the held mask is sum(1 << h), the held classes are the
    orbits computed from scratch with the group's own mul and inv, and
    route B, strategy (a) (plain and restricted) and the enumerated
    twisted centralizer answer as they did when each built its own mask."""
    rng = random.Random(41)
    for name in sweep_group_names():
        g = from_name(name)
        e = g.identity()
        sig = random_table_cocycle(g, rng)
        rep = build_regular_rep(g, sig)
        obs = sig.twist_obstructions
        for hset in g.all_subgroups():
            H = Subgroup.finite_subset(g, hset)
            helems = H.enumerate_elements()
            seen, scratch = set(), []
            for x in g.elements():
                if x not in seen:
                    orbit = tuple(sorted({g.mul(g.mul(h, x), g.inv(h)) for h in helems}))
                    seen.update(orbit)
                    scratch.append(orbit)
            mask = sum(1 << h for h in helems)
            for order in (helems, helems[::-1]):
                assert g.h_entry(order) == (mask, tuple(scratch))
                regular = [c for c in scratch if not rep.obstructions[c[0]] & mask]
                assert oracle_mod._route_b(rep, order) == (len(regular), regular)
            for elems in (None, set(helems)):
                first = next((c for c in scratch if c[0] != e
                              and (elems is None or c[0] in elems)
                              and not obs[c[0]] & mask), None)
                rel = relative_kleppner(g, H, sig, restricted=elems is not None)
                assert rel.holds == (first is None)
                assert first is None or rel.witness.elements == first
            gmask = sum(1 << h for h in H.generators())
            cent = [x for x in g.elements() if all(g.commutes(x, h) for h in helems)]
            kept = {c for c in cent if not obs[c] & gmask}
            got = sigma_centralizer(g, H, sig).description
            assert set(got.enumerate_elements()) == kept


def test_route_a_basis_is_the_same_for_any_generating_set():
    """Route A on H.generators(), on all of H and on the generators with
    their inverses: redundant generators close more cycles in each orbit,
    and the basis, already normalized at each least element, stays the
    same.  Each basis, materialized as dicts from the closed orbits and
    their exponents, is substituted into its own equations, as under
    verify=True."""
    rng = random.Random(23)
    for g in _swept_groups():
        sig = random_table_cocycle(g, rng)
        rep = build_regular_rep(g, sig)
        for hset in g.all_subgroups():
            H = Subgroup.finite_subset(g, hset)
            r = relative_commutant_dim(g, H, sig, verify=True, rep=rep)
            gens = list(H.generators()) or [g.identity()]
            for hgens in (list(H.enumerate_elements()), gens + [g.inv(h) for h in gens]):
                closed = oracle_mod._route_a(rep, hgens)
                basis = tuple({x: closed.pot[x] for x in orbit} for orbit in closed)
                assert all(oracle_mod._verify_solution(rep, hgens, f) for f in basis)
                assert basis == r.basis


def test_mask_readers_agree_with_route_a_on_every_subgroup():
    """Strategy (a) and the twisted centralizer read the cocycle's masks,
    route B reads the representation's own, is_sigma_regular reads none;
    on every subgroup of the swept groups, under two drawn tables and the
    trivial cocycle, they agree with route A, which reads no mask: route B
    counts route A's dimension, relative Kleppner holds iff it is 1, the
    twisted centralizer is the set of regular singleton classes, each
    class's least element is regular iff route B keeps the class, and
    Kleppner's condition for (H, sigma|_H) holds iff route A gives H's
    standalone table a one-dimensional centre."""
    rng = random.Random(33)
    checked = 0
    for g in _swept_groups():
        subs = [Subgroup.finite_subset(g, s) for s in g.all_subgroups()]
        for sig in (random_table_cocycle(g, rng), random_table_cocycle(g, rng),
                    TrivialCocycle(g)):
            rep = build_regular_rep(g, sig)
            dim_g = len(oracle_mod._route_a(rep, list(g.generators()) or [g.identity()]))
            assert kleppner(g, sig).holds == (dim_g == 1)
            for H in subs:
                dim = len(oracle_mod._route_a(rep, list(H.generators()) or [g.identity()]))
                count, regular = oracle_mod._route_b(rep, H.enumerate_elements())
                assert count == dim
                assert relative_kleppner(g, H, sig).holds == (dim == 1)
                regular_set = {c[0] for c in regular}
                for orbit in g.h_classes(H.enumerate_elements()):
                    assert is_sigma_regular(orbit[0], H, sig).holds == (orbit[0] in regular_set)
                kept = set(sigma_centralizer(g, H, sig).description.enumerate_elements())
                assert kept == {c[0] for c in regular if len(c) == 1}
                restricted, asg = transport(sig, H)
                rep_h = build_regular_rep(asg.group, restricted)
                dim_h = len(oracle_mod._route_a(rep_h, list(asg.group.generators())
                                                or [asg.group.identity()]))
                assert kleppner(g, sig, H).holds == (dim_h == 1)
                checked += 1
    assert checked == 3 * 198
