"""Helpers several test files share.

The engine reads cocycles in integer form (``int_value``, ``commutation_int``)
and draws its coboundaries as integers (``randomized._draw_beta``); the Phase
helpers here build the same quantities as Phases, apart from the engine.
``predicates`` asks the catalog predicates of a whole group.
"""

import random
from fractions import Fraction
from math import lcm

from kleppner.cocycles import Beta, Cocycle, CocycleError
from kleppner.groups import FiniteTable, Group, Subgroup
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
