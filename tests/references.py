"""Helpers several test files share.

The engine reads cocycles in integer form (``int_value``, ``commutation_int``)
and draws its coboundaries as integers (``randomized._draw_beta``); the Phase
helpers here build the same quantities as Phases, apart from the engine.
``predicates`` asks the catalog predicates of a whole group.
``reference_vector_key`` and ``reference_small_nonzero`` are the element order
and witness search of ``intlinalg`` as first written, a key per entry through
``int_key`` and a fresh key of the best vector at every leaf.
"""

import random
from fractions import Fraction
from math import lcm

from kleppner.cocycles import Beta, Cocycle, CocycleError
from kleppner.groups import FiniteTable, Group, Subgroup
from kleppner.intlinalg import RowLattice, int_key
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
