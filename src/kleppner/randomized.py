"""Seeded random instances: root-of-unity cocycles on finite tables, for
sweeps and invariance checks."""

from __future__ import annotations

import random
from math import gcd, lcm

from .cocycles import PhaseTableCocycle
from .groups.finite import FiniteTable

DENOMINATORS = (1, 2, 3, 4, 6, 8, 12)


def _draw_beta(G: FiniteTable, rng: random.Random) -> list[tuple[int, int]]:
    """A random beta as one (numerator, denominator) pair per element, with
    beta(e) = (0, 1)."""
    e = G.identity()
    out = [(0, 1)] * G.order
    for g in G.elements():
        if g != e:
            d = rng.choice(DENOMINATORS)
            out[g] = (rng.randrange(d), d)
    return out


def random_table_cocycle(G: FiniteTable, rng: random.Random) -> PhaseTableCocycle:
    """A pullback of a random bicharacter along the abelianization coordinates,
    twisted by a random coboundary.  Always a valid normalized cocycle.  Built
    as integers over one common denominator, with no Phase (``from_ints``)."""
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
    beta = _draw_beta(G, rng)

    # every value as an integer over one common denominator
    den = lcm(*(d for _, d in bichar.values()), *(d for _, d in beta))
    b = [m * (den // d) for m, d in beta]
    terms = [(j, l, m * (den // d)) for (j, l), (m, d) in bichar.items() if m]
    mul = G.table
    table = []
    for g in range(n):
        bg, mg = b[g], mul[g]
        row = [bg + b[h] - b[mg[h]] for h in range(n)]
        for j, l, m in terms:
            cgm = coords[g][j] * m
            if cgm:
                row = [x + cgm * coords[h][l] for h, x in enumerate(row)]
        table.append(row)
    return PhaseTableCocycle.from_ints(G, den, table)
