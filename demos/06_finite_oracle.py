"""The finite-dimensional oracle: regular projective representations.

On a finite group every claim has a brute-force check.  The twisted left
translations are monomial matrices with exact root-of-unity entries; the
relative commutant of a subgroup is computed two independent ways (exact
elimination over the span, and counting regular classes) and must agree.
"""

import random

from kleppner import (PhaseTableCocycle, Phase, Subgroup, TrivialCocycle, build_regular_rep,
                      canonical_trace, center_dim, from_name, kleppner,
                      relative_commutant_dim)
from kleppner.randomized import random_table_cocycle
from fractions import Fraction

print("-- the Klein four-group with the anticommutation cocycle")
z22 = from_name("Z_2 x Z_2")
table = [[Phase(Fraction((g % 2) * (h // 2), 2)) for h in range(4)] for g in range(4)]
sigma = PhaseTableCocycle(z22, table)
rep = build_regular_rep(z22, sigma, verify_pairs=True)
l10, l01 = rep.matrix(2), rep.matrix(1)
print(f"   lam(1,0) lam(0,1) = -lam(0,1) lam(1,0): "
      f"{(l10 @ l01) == (l01 @ l10).scaled(Phase(Fraction(1, 2)))}")
r = relative_commutant_dim(z22, Subgroup.full(z22), sigma, verify=True)
print(f"   center dimension: route A = {r.dim_route_a}, route B = {r.dim_route_b} "
      "(a full 2x2 matrix algebra)")
print(f"   engine agrees: kleppner = {kleppner(z22, sigma).status}")

print("-- canonical trace: the (e, e) matrix entry")
print(f"   tau(lam(e))           = exp(2*pi*i*{canonical_trace(rep, rep.matrix(0))})")
print(f"   tau(lam(g)), g != e   = {canonical_trace(rep, rep.matrix(3))}")
print(f"   tau(lam(g) lam(g)^*)  = exp(2*pi*i*"
      f"{canonical_trace(rep, rep.matrix(3) @ rep.matrix(3).adjoint())})")

print("-- untwisted centers count conjugacy classes")
for name in ("Z_4", "Q8", "S_3"):
    g = from_name(name)
    print(f"   center_dim({name}, trivial) = {center_dim(g, TrivialCocycle(g))}")

print("-- a seeded random sweep, both routes compared on every subgroup")
rng = random.Random(7)
for name in ("Z_6", "D_4", "Q8"):
    g = from_name(name)
    subs = [Subgroup.finite_subset(g, s) for s in g.all_subgroups()]
    checked = 0
    for _ in range(10):
        sig = random_table_cocycle(g, rng)
        rep = build_regular_rep(g, sig, verify_pairs=False)
        for h in subs:
            relative_commutant_dim(g, h, sig, rep=rep)  # raises on any mismatch
            checked += 1
    print(f"   {name}: {checked} (H, sigma) instances, routes agree")
