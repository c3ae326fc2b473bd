"""H-classes and strategy (x) pinned over fixed case lists.

Every H-class of the engine is read off FC_G(H): infinite outside it, the
orbit of g under H's generators inside it.  The sha256 below was recorded
with the per-kind class rules that came before that one rule, over the same
case lists: the canonical status and elements of every H-class, and the
full answers of relative Kleppner, Kleppner for (H, sigma|_H) and
C*-irreducibility on product instances that strategy (x) decides.  A change
of any class, status, witness, reason or note moves it.
"""

import hashlib
import random
from fractions import Fraction

from references import random_element, reference_orbit

from kleppner.cocycles import (HeisenbergCocycle, ProductCocycle, SeededBeta, TrivialCocycle,
                               similarity_transform)
from kleppner.groups import (Classification, DirectProduct, FreeAbelian, FreeGroup, Heisenberg,
                             Subgroup, from_name, h_conjugacy_class)
from kleppner.phases import IrrationalBasis, Phase
from kleppner.randomized import random_table_cocycle
from kleppner.regularity import kleppner, relative_kleppner
from kleppner.verdicts import cstar_irreducible

FINITE_NAMES = ("Z_6", "S_3", "D_4", "Q8", "S_4", "Z_2 x Z_4")
CLASS_PIN = "e7d959ed860b11474b5617e4fb4da538606c7925dbb066184902e19d3fa008f2"
X_PIN = "0be3fd7da8dc3d963758abd3eb30bb038ffe064d89cf21707e97c00124b13b2e"


def _free_subgroups(F, rng, count):
    """Seeded subgroups of the free group F: cyclic ones, spelled by one or
    two powers of a word, and ones generated by two random words."""
    out = []
    for i in range(count):
        w = random_element(F, rng, 4) or F.gen("a")
        if i % 3 == 0:
            out.append(Subgroup.generated(F, [w]))
        elif i % 3 == 1:
            out.append(Subgroup.generated(F, [F.power(w, 2), F.power(w, 3 + i % 2)]))
        else:
            out.append(Subgroup.generated(F, [w, random_element(F, rng, 3)]))
    return out


def _free_elements(F, H, rng, count):
    """Seeded words of F, with powers of H's first generator's primitive
    root among them, so that the cyclic subgroups get finite classes."""
    out = [F.identity()]
    gens = [h for h in H.generators() if h]
    root = F.primitive_root(gens[0])[0] if gens else F.gen("a")
    for k in range(count):
        out.append(F.power(root, k - count // 2) if k % 3 == 0 else random_element(F, rng, 5))
    return out


def class_cases():
    """(G, H, g) triples: every subgroup and element of six finite tables;
    seeded subgroups and elements of Z^3, the Heisenberg group and F_2; and
    products with a finite factor under product and diagonal generated
    subgroups."""
    for name in FINITE_NAMES:
        G = from_name(name)
        for s in G.all_subgroups():
            H = Subgroup.finite_subset(G, s)
            for g in G.elements():
                yield G, H, g
    rng = random.Random(41)
    z3 = FreeAbelian(3)
    for _ in range(20):
        H = Subgroup.sublattice(z3, [random_element(z3, rng, 3) for _ in range(rng.randint(1, 3))])
        for _ in range(8):
            yield z3, H, random_element(z3, rng, 4)
    heis = Heisenberg()
    for _ in range(40):
        H = Subgroup.generated(heis, [random_element(heis, rng, 3)
                                      for _ in range(rng.randint(1, 2))])
        # elements of C_G(H) too: multiples of a generator's plane part
        h = H.generators()[0] if H.generators() else (1, 0, 0)
        for k in range(10):
            yield heis, H, ((k * h[0], k * h[1], rng.randint(-5, 5)) if k % 2
                            else random_element(heis, rng, 4))
    f2 = FreeGroup(2)
    for H in _free_subgroups(f2, rng, 45):
        for g in _free_elements(f2, H, rng, 9):
            yield f2, H, g
    for left, right in ((f2, from_name("S_3")), (heis, from_name("Z_2")),
                        (FreeAbelian(2), from_name("D_4")), (from_name("Q8"), from_name("Z_6"))):
        P = DirectProduct(left, right)
        rsubs = [Subgroup.finite_subset(right, s) for s in right.all_subgroups()]
        lsubs = [Subgroup.full(left), Subgroup.trivial(left)]
        if left is f2:
            lsubs += _free_subgroups(f2, rng, 3)
        elif left is heis:
            lsubs.append(Subgroup.generated(heis, [(1, 0, 0), (0, 2, 1)]))
        elif isinstance(left, FreeAbelian):
            lsubs.append(Subgroup.sublattice(left, [(1, 2)]))
        else:
            lsubs += [Subgroup.finite_subset(left, s) for s in left.all_subgroups()[1:3]]
        subs = [Subgroup.product(P, a, b) for a in lsubs for b in rsubs[:4]]
        e = P.identity()
        for _ in range(6):
            gens = []
            while len(gens) < rng.choice((1, 2)):
                x = random_element(P, rng, 2)
                if x[0] != e[0] and x[1] != e[1]:
                    gens.append(x)
            subs.append(Subgroup.generated(P, gens))
        for H in subs:
            for _ in range(9):
                yield P, H, random_element(P, rng, 3)
            yield P, H, e
            yield P, H, (e[0], rng.choice(list(right.elements())))


def _canon_class(G, cls: Classification) -> str:
    if cls.finite:
        return "finite:" + ",".join(G.element_str(x) for x in cls.elements)
    return cls.status


def _canon_witness(G, w) -> str:
    if w is None:
        return "-"
    if isinstance(w, Classification):
        return _canon_class(G, w)
    return G.element_str(w)


def _canon_tribool(G, t) -> str:
    return "|".join([t.status, _canon_witness(G, t.witness), t.reason, *t.notes])


def _canon_verdict(G, v) -> str:
    steps = [f"{s.rule}:{s.statement}:{s.premises}" for s in v.chain]
    return "|".join([v.conclusion, *steps, _canon_witness(G, v.witness), *v.notes])


def x_cases():
    """(G, H, sigma) on F_2 x {S_3, D_4, Q8} and Heisenberg x S_3 under
    product cocycles: product subgroups whose F_2 factor is noncyclic, so
    that FC_G(H) is finite, and diagonal generated subgroups."""
    rng = random.Random(2203)
    f2, heis = FreeGroup(2), Heisenberg()
    basis = IrrationalBasis(["theta"])
    theta = basis.symbol("theta")
    a, b = f2.gen("a"), f2.gen("b")
    for left, name in ((f2, "S_3"), (f2, "D_4"), (f2, "Q8"), (heis, "S_3")):
        right = from_name(name)
        P = DirectProduct(left, right)
        if left is f2:
            lsubs = [Subgroup.full(f2), Subgroup.generated(f2, [a, f2.power(b, 2)]),
                     Subgroup.generated(f2, [f2.mul(a, b), f2.mul(b, a)])]
            lsigmas = [TrivialCocycle(f2, basis),
                       similarity_transform(TrivialCocycle(f2, basis), SeededBeta(f2, 5, 6))]
        else:
            lsubs = [Subgroup.full(heis), Subgroup.generated(heis, [(0, 0, 1)])]
            lsigmas = [HeisenbergCocycle(heis, basis.zero(), theta),
                       HeisenbergCocycle(heis, Phase(Fraction(1, 2)), Phase(Fraction(1, 3)))]
        rsubs = [Subgroup.finite_subset(right, s) for s in right.all_subgroups()]
        subs = [Subgroup.product(P, x, y) for x in lsubs for y in rsubs]
        e = P.identity()
        for _ in range(4):
            gens = [(a, rng.randrange(right.order)), (b, rng.randrange(right.order))] \
                if left is f2 else [(random_element(heis, rng, 2), rng.randrange(right.order))]
            subs.append(Subgroup.generated(P, [g for g in gens if g != e]))
        for _ in range(3):
            rsig = random_table_cocycle(right, rng)
            for lsig in lsigmas:
                sigma = ProductCocycle(P, lsig, rsig)
                for H in subs:
                    yield P, H, sigma


def _digest(lines) -> tuple[str, int]:
    h, n = hashlib.sha256(), 0
    for line in lines:
        h.update(line.encode() + b"\n")
        n += 1
    return h.hexdigest(), n


def test_h_classes_read_as_pinned():
    digest, n = _digest(f"{G.name}|{H.describe()}|{G.element_str(g)}|"
                        f"{_canon_class(G, h_conjugacy_class(g, H))}"
                        for G, H, g in class_cases())
    assert n >= 2000
    assert digest == CLASS_PIN


def test_h_classes_against_bounded_orbit_walk():
    # a finite class is the walk under H's generators and their inverses,
    # and the walk of an infinite class passes its cap
    seen = {"finite": 0, "infinite": 0}
    for G, H, g in class_cases():
        cls = h_conjugacy_class(g, H)
        seen[cls.status] += 1
        walk = reference_orbit(G, g, H)
        assert (cls.elements if cls.finite else None) == walk, (H, g)
    assert min(seen.values()) > 500, seen


def test_strategy_x_answers_read_as_pinned():
    lines, through_x = [], 0
    for G, H, sigma in x_cases():
        r, k = relative_kleppner(G, H, sigma), kleppner(G, sigma, H)
        through_x += sum(t.decided and t.notes[0].startswith("(x)") for t in (r, k))
        lines.append("|".join([G.name, H.describe(), sigma.describe(), _canon_tribool(G, r),
                               _canon_tribool(G, k),
                               _canon_verdict(G, cstar_irreducible(G, H, sigma))]))
    digest, n = _digest(lines)
    assert n >= 500 and through_x >= 300
    assert digest == X_PIN
