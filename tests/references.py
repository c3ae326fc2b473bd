"""Helpers several test files share.

The engine reads cocycles in integer form (``int_value``, ``commutation_int``)
and draws its coboundaries as integers (``randomized._draw_beta``); the Phase
helpers here build the same quantities as Phases, apart from the engine.
``predicates`` asks the catalog predicates of a whole group.
``reference_vector_key`` and ``reference_small_nonzero`` are the element order
and witness search of ``intlinalg`` as first written, a key per entry through
``int_key`` and a fresh key of the best vector at every leaf.
``reference_smith_form`` is the pivot-search Smith elimination that builds
both unimodular transforms; the engine keeps only the diagonal.
``random_element`` draws the seeded elements the tests sample with; the
engine itself draws none.  ``reference_orbit`` walks an H-class under H's
generators and their inverses up to a cap, apart from FC_G(H);
``reference_power_of`` finds the k with x = w^k in a free group by
multiplying w out, apart from primitive roots.  ``reference_twist_scan`` checks the
conjugation-twist identities on every triple of a cocycle's validation route
(``reference_triples``, wrappers read off their parts by
``reference_reduced``), in Phase arithmetic.
"""

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Sequence

from kleppner.cocycles import (Beta, Cocycle, CocycleError, ProductCocycle, PullbackCocycle,
                               SimilarityCocycle, TrivialCocycle, ValidationResult)
from kleppner.groups import (DirectProduct, FiniteTable, FreeAbelian, FreeGroup, Group,
                             Heisenberg, Subgroup)
from kleppner.intlinalg import RowLattice, _unit, int_key, xgcd
from kleppner.phases import EMPTY_BASIS, Phase, _make
from kleppner.randomized import _draw_beta

PREDICATES = ("prime", "fc_hypercentral", "cstar_simple")


def predicates(G: Group, names=PREDICATES) -> tuple[str, ...]:
    """The status of each named catalog predicate of G, asked of G as its
    own full subgroup."""
    return tuple(G.predicate(Subgroup.full(G), name).status for name in names)


def _difference(sigma: Cocycle, u: list[int], v: list[int]) -> Phase:
    """The phase of u - v, two integer values of sigma."""
    return _make(sigma.basis, sigma.den, [x - y for x, y in zip(u, v)])


def conj_twist(sigma: Cocycle, h, g) -> Phase:
    """Phase of conjugation: sigma(h,g) - sigma(h g h^-1, h)."""
    G = sigma.group
    return _difference(sigma, sigma.int_value(h, g), sigma.int_value(G.conj(h, g), h))


def commutation_phase(sigma: Cocycle, g, h) -> Phase:
    """sigma(g,h) - sigma(h,g); equals conj_twist(sigma, g, h) when g and h commute."""
    return _difference(sigma, sigma.int_value(g, h), sigma.int_value(h, g))


class TableBeta(Beta):
    """A beta given by its Phase values, one per element."""

    def __init__(self, group: Group, mapping: dict, label: str = "table") -> None:
        bases = {p.basis for p in mapping.values()} - {EMPTY_BASIS}
        if len(bases) > 1:
            raise CocycleError("beta values must share one basis")
        self.group = group
        self.label = label
        self.basis = bases.pop() if bases else EMPTY_BASIS
        self.den = lcm(*(p.den for p in mapping.values()))
        self.ints = {g: tuple(n * (self.den // p.den) for n in p.with_basis(self.basis).nums)
                     for g, p in mapping.items()}

    def int_value(self, g) -> list[int]:
        return list(self.ints[g])


def random_element(G: Group, rng: random.Random, size: int = 6):
    """A seeded element of G: an index of a finite table; coordinates in
    [-size, size] on Z^r and the Heisenberg group; a reduced word of length
    at most size, letter by letter, on a free group; a pair on a product."""
    if isinstance(G, FiniteTable):
        return rng.randrange(G.order)
    if isinstance(G, FreeAbelian):
        return tuple(rng.randint(-size, size) for _ in range(G.rank))
    if isinstance(G, Heisenberg):
        return (rng.randint(-size, size), rng.randint(-size, size), rng.randint(-size, size))
    if isinstance(G, DirectProduct):
        return (random_element(G.left, rng, size), random_element(G.right, rng, size))
    if isinstance(G, FreeGroup):
        tokens = [s * (i + 1) for i in range(G.rank) for s in (1, -1)]
        flat: list[int] = []
        for _ in range(rng.randrange(size + 1)):
            while True:
                tok = rng.choice(tokens)
                if not flat or flat[-1] != -tok:
                    break
            flat.append(tok)
        return G.from_flat(flat)
    raise TypeError(f"no seeded draw for {G.describe()}")


def reference_orbit(G: Group, g, H: Subgroup, cap: int = 64):
    """The H-class of g, walked under conjugation by H's generators and their
    inverses and sorted by element_key, when it closes within cap elements;
    None when the walk passes cap."""
    steps = [s for h in H.generators() for s in (h, G.inv(h))]
    orbit, frontier = {g}, [g]
    while frontier:
        x = frontier.pop()
        for s in steps:
            y = G.conj(s, x)
            if y not in orbit:
                if len(orbit) == cap:
                    return None
                orbit.add(y)
                frontier.append(y)
    return tuple(sorted(orbit, key=G.element_key))


def reference_power_of(F: FreeGroup, x, w):
    """k with x == w^k, if any (w nontrivial): w multiplied out up to |x| + 1
    times in each direction, since |w^k| >= k."""
    if not x:
        return 0
    bound = sum(abs(e) for _, e in x) + 1
    for step, sign in ((w, 1), (F.inv(w), -1)):
        acc = F.identity()
        for k in range(1, bound + 1):
            acc = F.mul(acc, step)
            if acc == x:
                return sign * k
    return None


def random_beta_table(G: FiniteTable, rng: random.Random) -> TableBeta:
    """The coboundary data random_table_cocycle draws, as a TableBeta: the
    same draws from the same rng."""
    mapping = {g: Phase(Fraction(m, d)) for g, (m, d) in enumerate(_draw_beta(G, rng))}
    return TableBeta(G, mapping, label="random table")


def reference_vector_key(v):
    """L1 norm first, then entrywise int_key."""
    return (sum(abs(c) for c in v), tuple(int_key(c) for c in v))


def reference_small_nonzero(lat: RowLattice):
    """The nonzero vector of lat least under reference_vector_key, None for
    the zero lattice: the same branch and bound over the echelon rows, keying
    both the leaf and the best vector at every leaf."""
    rows, r = lat.rows, len(lat.rows)
    if not r:
        return None
    piv = [next(k for k, x in enumerate(row) if x) for row in rows] + [lat.n]
    best = min((tuple(row) for row in rows), key=reference_vector_key)
    bound = sum(map(abs, best))

    def search(i, v, l1):
        nonlocal best, bound
        if i == r:
            if any(v) and reference_vector_key(v) < reference_vector_key(best):
                best, bound = tuple(v), l1
            return
        row, p, x = rows[i], rows[i][piv[i]], v[piv[i]]
        slack = bound - l1
        coeffs = range(-((slack + x) // p), (slack - x) // p + 1)
        for c in sorted(coeffs, key=int_key):
            w = [a + c * b for a, b in zip(v, row)]
            cost = l1 + sum(abs(w[k]) for k in range(piv[i], piv[i + 1]))
            if cost <= bound:
                search(i + 1, w, cost)

    search(0, [0] * lat.n, 0)
    return best


def _identity(n: int) -> list[list[int]]:
    return [_unit(n, i) for i in range(n)]


def reference_smith_form(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*A*V = D diagonal, U and V unimodular.

    Diagonal entries are nonnegative and form a divisibility chain.
    """
    d = [list(row) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = _identity(m)
    v = _identity(n)

    def row_combine(i1, i2, x, y, xa, ya):
        # rows i1,i2 <- (x*r1 + y*r2, xa*r1 + ya*r2) applied to d and u
        for mat in (d, u):
            r1, r2 = mat[i1], mat[i2]
            for k in range(len(r1)):
                r1[k], r2[k] = x * r1[k] + y * r2[k], xa * r1[k] + ya * r2[k]

    def col_combine(j1, j2, x, y, xa, ya):
        for mat in (d, v):
            for row in mat:
                row[j1], row[j2] = x * row[j1] + y * row[j2], xa * row[j1] + ya * row[j2]

    t = 0
    while t < min(m, n):
        # locate a pivot of minimal absolute value in the trailing block
        pos = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pos = (i, j)
        if pos is None:
            break
        i0, j0 = pos
        if i0 != t:
            d[t], d[i0] = d[i0], d[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for mat in (d, v):
                for row in mat:
                    row[t], row[j0] = row[j0], row[t]
        while True:
            # clear column t
            for i in range(t + 1, m):
                if d[i][t]:
                    if d[i][t] % d[t][t] == 0:
                        q = d[i][t] // d[t][t]
                        row_combine(t, i, 1, 0, -q, 1)
                    else:
                        x, y, g = xgcd(d[t][t], d[i][t])
                        aa, bb = d[t][t] // g, d[i][t] // g
                        row_combine(t, i, x, y, -bb, aa)
            # clear row t
            dirty = False
            for j in range(t + 1, n):
                if d[t][j]:
                    if d[t][j] % d[t][t] == 0:
                        q = d[t][j] // d[t][t]
                        col_combine(t, j, 1, 0, -q, 1)
                    else:
                        x, y, g = xgcd(d[t][t], d[t][j])
                        aa, bb = d[t][t] // g, d[t][j] // g
                        col_combine(t, j, x, y, -bb, aa)
                        dirty = True
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, m)):
                break
        # enforce divisibility of the remaining block by d[t][t]
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    row_combine(t, i, 1, 1, 0, 1)  # add row i to row t
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if d[t][t] < 0:
            for k in range(n):
                d[t][k] = -d[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1
    return u, d, v

def reference_triples(sigma):
    """The triples and mode of validate_cocycle on a kind checked on triples
    of its own, enumerated apart from the engine's: the simplex grid of
    a polynomial kind, the section's image of a pullback onto a finite
    group, every triple of a finite group."""
    if sigma.degree is None:
        if isinstance(sigma, PullbackCocycle) and sigma.section is not None:
            image = [sigma.section(a) for a in sigma.base.group.elements()]
            return itertools.product(image, repeat=3), "pullback"
        G = sigma.group
        assert G.is_finite, sigma.describe()
        return itertools.product(G.elements(), repeat=3), "exhaustive"
    m = len(sigma.group.identity())
    points = (p for p in itertools.product(range(sigma.degree + 1), repeat=3 * m)
              if sum(p) <= sigma.degree)
    return ((p[:m], p[m:2 * m], p[2 * m:]) for p in points), "polynomial"


def reference_reduced(sigma, reference):
    """reference(sigma) on a kind read off its parts, as the routes of
    cocycles._triples say: None on any other kind."""
    if isinstance(sigma, TrivialCocycle):
        return ValidationResult(True, None, 0, "trivial")
    if isinstance(sigma, SimilarityCocycle):
        return reference(sigma.base)
    if isinstance(sigma, ProductCocycle):
        G, left = sigma.group, reference(sigma.left)
        if not left.passed:
            witness = tuple((x, G.right.identity()) for x in left.witness)
            return ValidationResult(False, witness, left.checks, f"product({left.mode}, unchecked)",
                                    left.detail, left.triples)
        right = reference(sigma.right)
        witness = None if right.passed else tuple((G.left.identity(), x) for x in right.witness)
        return ValidationResult(right.passed, witness, left.checks + right.checks,
                                f"product({left.mode}, {right.mode})", right.detail,
                                left.triples + right.triples)
    if isinstance(sigma, PullbackCocycle) and sigma.section is None and not sigma.group.is_finite:
        base = reference(sigma.base)
        assert base.passed, sigma.describe()
        return base
    return None


def reference_twist_scan(sigma):
    """The twist identities on Phase values, each twist taken separately, on
    every triple of reference_triples (of a table too), with wrappers read
    off their parts: the full per-triple scan, whatever the cocycle
    identity says."""
    G = sigma.group

    def tw(h, g):
        return sigma.value(h, g) - sigma.value(G.conj(h, g), h)

    reduced = reference_reduced(sigma, reference_twist_scan)
    if reduced is not None:
        return reduced
    triples_in, mode = reference_triples(sigma)
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
