"""Seeded random instances: root-of-unity cocycles on finite tables and
coboundary data, for sweeps and invariance checks."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .cocycles import PhaseTableCocycle, TableBeta
from .groups.finite import FiniteTable
from .phases import EMPTY_BASIS, Phase, _make

DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)


def random_beta_table(G: FiniteTable, rng: random.Random) -> TableBeta:
    mapping = {}
    e = G.identity()
    for g in G.elements():
        if g == e:
            mapping[g] = Phase(0)
        else:
            d = rng.choice(DENOMINATORS)
            mapping[g] = Phase(Fraction(rng.randrange(d), d))
    return TableBeta(G, mapping, label="random table")


def random_table_cocycle(G: FiniteTable, rng: random.Random) -> PhaseTableCocycle:
    """A pullback of a random bicharacter along the abelianization coordinates,
    twisted by a random coboundary.  Always a valid normalized cocycle."""
    n = G.order
    bichar = {}  # (j, l) -> (numerator, denominator) of the bicharacter entry
    if G.ab_coords is not None:
        coords, moduli = G.ab_coords
        k = len(moduli)
        for j in range(k):
            for l in range(k):
                g_ = gcd(moduli[j], moduli[l])
                if g_ > 1:
                    bichar[j, l] = (rng.randrange(g_), g_)
    beta = random_beta_table(G, rng)

    # every value as an integer over one common denominator
    den = lcm(*(d for _, d in bichar.values()), beta.den)
    b = [beta.int_value(g)[0] * (den // beta.den) for g in G.elements()]
    terms = [(j, l, m * (den // d)) for (j, l), (m, d) in bichar.items() if m]
    table = []
    for g in range(n):
        row = []
        for h in range(n):
            acc = b[g] + b[h] - b[G.mul(g, h)]
            if terms:
                cg, ch = coords[g], coords[h]
                acc += sum(cg[j] * ch[l] * m for j, l, m in terms)
            row.append(_make(EMPTY_BASIS, den, [acc]))
        table.append(row)
    return PhaseTableCocycle(G, table)
