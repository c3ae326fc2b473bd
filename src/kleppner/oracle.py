"""Brute-force ground truth: the regular projective representation of a finite
group and exact commutant dimensions.

All matrices here are monomial with root-of-unity entries, so products never
leave that class and every computation is exact: an entry is either absent or
a rational Phase.  The relative commutant dimension is computed along two
independent routes, both on the cocycle's integer table over its common
denominator, and any disagreement raises:

  route A: solve T lam(h) = lam(h) T over T in the span of the lam(g) by
           exact elimination on column e, checked on all entries under
           verify=True; every equation relates the coefficients at x and
           h x h^-1 by a root of unity, so exact elimination is a walk over
           each orbit of conjugation by H's generators from its least
           element (a cycle whose phases do not cancel => zero); the
           dimension is the closed-orbit count, the basis built when read;
  route B: count the H-conjugacy classes that are regular for the cocycle,
           on masks the RegularRep builds once from its own integer table
           (bit h of mask g: g and h commute, lam(g) and lam(h) do not) and
           H's mask on the table; it shares no code with regularity.py.

build_regular_rep reads the table's one scan of its generator rows
(PhaseTableCocycle.generator_row_failure), which validate_cocycle also reads:
each table is scanned once, whichever asks first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .cocycles import Cocycle, CocycleError, PhaseTableCocycle, _table_identity_failure
from .groups.finite import FiniteTable
from .groups.subgroups import Subgroup
from .phases import EMPTY_BASIS, Phase, _make

ORDER_CAP = 64


class OracleError(ValueError):
    pass


class OracleMismatchError(OracleError):
    """The two routes disagree: an implementation bug, the oracle's whole point."""

    def __init__(self, dim_a: int, dim_b: int, context: str) -> None:
        super().__init__(f"route A dimension {dim_a} != route B count {dim_b} ({context})")
        self.dim_a = dim_a
        self.dim_b = dim_b


class MonomialMatrix:
    """One nonzero root-of-unity entry per row and column.

    Stored columnwise: column k holds its row index and the Phase of the
    entry there.
    """

    __slots__ = ("n", "row_of_col", "phase_of_col")

    def __init__(self, row_of_col: tuple[int, ...], phase_of_col: tuple[Phase, ...]) -> None:
        self.n = len(row_of_col)
        self.row_of_col = row_of_col
        self.phase_of_col = phase_of_col
        if sorted(row_of_col) != list(range(self.n)):
            raise OracleError("not a monomial matrix: rows collide")

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        mids = other.row_of_col
        return MonomialMatrix(tuple(self.row_of_col[m] for m in mids),
                              tuple(self.phase_of_col[m] + p
                                    for m, p in zip(mids, other.phase_of_col)))

    def adjoint(self) -> "MonomialMatrix":
        rows = [0] * self.n
        phases = [None] * self.n
        for k, r in enumerate(self.row_of_col):
            rows[r] = k
            phases[r] = -self.phase_of_col[k]
        return MonomialMatrix(tuple(rows), tuple(phases))

    def scaled(self, phase: Phase) -> "MonomialMatrix":
        return MonomialMatrix(self.row_of_col, tuple(p + phase for p in self.phase_of_col))

    def entry(self, r: int, k: int) -> Optional[Phase]:
        """The Phase of the (r, k) entry, None when the entry is zero."""
        return self.phase_of_col[k] if self.row_of_col[k] == r else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonomialMatrix) and self.row_of_col == other.row_of_col
                and self.phase_of_col == other.phase_of_col)

    def __hash__(self):
        return hash((self.row_of_col, self.phase_of_col))


@dataclass
class RegularRep:
    """lam(g) acting on functions on G: (lam(g) xi)(h) = sigma(g, g^-1 h) xi(g^-1 h).

    Held as the integer table of the cocycle (``PhaseTableCocycle.ints`` over
    ``den``): column k of lam(g) has its one entry in row g k, with phase
    exponent int_values[g][k] / den.  Both routes read the table; ``matrix``
    builds the MonomialMatrix on request.
    """

    group: FiniteTable
    sigma: Cocycle
    den: int
    int_values: tuple  # int_values[g][h] = den * phase exponent of sigma(g, h)

    def matrix(self, g: int) -> MonomialMatrix:
        return MonomialMatrix(self.group.table[g],
                              tuple(_make(EMPTY_BASIS, self.den, [v]) for v in self.int_values[g]))

    @cached_property
    def obstructions(self) -> tuple[int, ...]:
        """Route B's masks, read off the integer table: bit h of
        obstructions[g] is set when g h = h g and lam(g), lam(h) do not
        commute, i.e. int_values[g][h] != int_values[h][g] (both in [0, den)).
        Built once per representation, over the pairs h < g."""
        table, val = self.group.table, self.int_values
        obs = [0] * len(table)
        for g, (tg, vg) in enumerate(zip(table, val)):
            for h in range(g):
                if tg[h] == table[h][g] and vg[h] != val[h][g]:
                    obs[g] |= 1 << h
                    obs[h] |= 1 << g
        return tuple(obs)


def build_regular_rep(G: FiniteTable, sigma: Cocycle, verify_pairs: bool = False) -> RegularRep:
    if not isinstance(G, FiniteTable):
        raise OracleError("the oracle works on finite table groups")
    if sigma.group is not G:
        raise OracleError("cocycle and group must be aligned")
    n = G.order
    if n > ORDER_CAP:
        raise OracleError(f"order {n} exceeds the oracle cap {ORDER_CAP}")
    if isinstance(sigma, PhaseTableCocycle):
        table = sigma
    else:
        vals = [[sigma.int_value(g, k) for k in G.elements()] for g in G.elements()]
        for g, k in itertools.product(G.elements(), repeat=2):
            if any(vals[g][k][1:]):
                raise OracleError("the finite-dimensional oracle needs root-of-unity phases; "
                                  f"sigma({g},{k}) carries formal irrationals")
        try:
            table = PhaseTableCocycle.from_ints(G, sigma.den,
                                                [[v[0] for v in row] for row in vals])
        except CocycleError:
            raise OracleError("lam(e) is not the identity; cocycle is not normalized") from None
    # lam(g) lam(h) = sigma(g, h) lam(gh): both sides put column k in row g h k,
    # and their exponents agree exactly when the cocycle identity holds at (g, h, k);
    # the generator rows are scanned once per table, whichever reads them first
    bad = (_table_identity_failure(table, G.elements()) if verify_pairs
           else table.generator_row_failure)
    if bad is not None:
        raise OracleError(f"projective relation fails at ({bad[0]},{bad[1]})")
    return RegularRep(G, sigma, table.den, table.ints)


# ---------------------------------------------------------------------------
# route A: exact elimination on column e, checked on all entries under verify=True
# ---------------------------------------------------------------------------

class RouteA(list):
    """Route A's closed orbits by least element, each a list led by it, and
    ``pot``: pot[x] is x's coefficient exponent over ``rep.den``."""


def _route_a(rep: RegularRep, hgens: list[int]) -> RouteA:
    """Solve T lam(h) = lam(h) T on column e only: an exact basis of the
    relative commutant inside the span of the lam(g), one per closed orbit.

    T and lam(h) lie in the twisted group algebra, so T lam(h) - lam(h) T
    does too.  For a normalized sigma, lam(g) delta_e is a unit multiple of
    delta_g, so an element sum_g c_g lam(g) is zero exactly when its column
    at e is zero: the n equations with k = e are equivalent to all n^2, and
    the other columns repeat them.  ``_verify_solution`` still substitutes
    into all n^2 entries.

    The equation of h at row h x relates f(x) to f(y), y = h x h^-1:
    pot(y) = pot(x) - val[y][h] + val[h][x]: the column-e terms val[h][e]
    and val[x][e] are 0, as PhaseTableCocycle refuses a table that is not
    normalized.  So the unknowns split into the orbits of conjugation by H,
    and the walk solves each orbit from its least element, which gets
    exponent 0, stepping from every x by every generator: that is each of
    the n |hgens| equations once.  A step that reaches y with another
    exponent closes a cycle whose phases do not cancel, so f is zero on the
    orbit and it adds no basis element; the walk still visits the whole
    orbit, so that no later root starts inside it."""
    G = rep.group
    n, den, val = G.order, rep.den, rep.int_values
    table, inv = G.table, G.inv_table
    steps = [(h, table[h], inv[h], val[h]) for h in hgens]
    closed = RouteA()
    pot = closed.pot = [None] * n
    for root in range(n):
        if pot[root] is not None:
            continue
        pot[root] = 0
        orbit, alive = [root], True
        for x in orbit:
            px = pot[x]
            for h, th, hinv, vh in steps:
                y = table[th[x]][hinv]
                py = (px + vh[x] - val[y][h]) % den
                if pot[y] is None:
                    pot[y] = py
                    orbit.append(y)
                elif pot[y] != py:
                    alive = False
        if alive:
            closed.append(orbit)
    return closed


def _verify_solution(rep: RegularRep, hgens: list[int], f: dict[int, int]) -> bool:
    """Substitute T_f into the commutation equations, entry by entry, as
    exponents over den."""
    G = rep.group
    den, val, table, inv = rep.den, rep.int_values, G.table, G.inv_table

    def t_entry(r: int, k: int) -> Optional[int]:
        u = table[r][inv[k]]
        return f[u] + val[u][k] if u in f else None

    for h in hgens:
        for k in range(G.order):
            for r in range(G.order):
                m = table[inv[h]][r]
                left_t = t_entry(m, k)
                lhs = None if left_t is None else (val[h][m] + left_t) % den
                mp = table[h][k]
                right_t = t_entry(r, mp)
                rhs = None if right_t is None else (right_t + val[h][k]) % den
                if lhs != rhs:
                    return False
    return True


# ---------------------------------------------------------------------------
# route B: regular class counting
# ---------------------------------------------------------------------------

def _route_b(rep: RegularRep, helems: list[int]) -> tuple[int, list[tuple[int, ...]]]:
    """The H-classes whose least element g is regular: no h in H commutes
    with g while lam(g) and lam(h) fail to commute, read off rep's masks."""
    obs, (hmask, classes) = rep.obstructions, rep.group.h_entry(helems)
    regular = [orbit for orbit in classes if not obs[orbit[0]] & hmask]
    return len(regular), regular


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

@dataclass
class CommutantReport:
    """Route A's closed orbits and route B's regular classes; route A's
    ``basis`` is built from the orbits the first time it is read."""

    route_a: RouteA
    dim_route_b: int
    regular_classes: list[tuple[int, ...]]

    @cached_property
    def basis(self) -> tuple[dict[int, int], ...]:
        pot = self.route_a.pot
        return tuple({x: pot[x] for x in orbit} for orbit in self.route_a)

    @property
    def dim_route_a(self) -> int:
        return len(self.route_a)

    dimension = dim_route_a


def relative_commutant_dim(G: FiniteTable, H: Subgroup, sigma: Cocycle,
                           verify: bool = False,
                           rep: RegularRep | None = None) -> CommutantReport:
    """Dimension of {T in span lam(G) : T commutes with lam(H)}, both routes."""
    if H.parent is not G:
        raise OracleError("H must be a subgroup of G")
    if rep is None:
        rep = build_regular_rep(G, sigma, verify_pairs=False)
    elif rep.group is not G or rep.sigma is not sigma:
        raise OracleError("rep was built for another group or cocycle")
    hgens = list(H.generators()) or [G.identity()]
    count, regular = _route_b(rep, H.enumerate_elements())
    report = CommutantReport(_route_a(rep, hgens), count, regular)
    if verify and not all(_verify_solution(rep, hgens, f) for f in report.basis):
        raise OracleError("route A basis element fails substitution")
    if report.dim_route_a != count:
        raise OracleMismatchError(report.dim_route_a, count,
                                  f"G={G.name}, H={H.describe_desc()}, sigma={sigma.describe()}")
    return report


def center_dim(G: FiniteTable, sigma: Cocycle, rep: RegularRep | None = None) -> int:
    return relative_commutant_dim(G, Subgroup.full(G), sigma, rep=rep).dimension


def canonical_trace(rep: RegularRep, mat: MonomialMatrix) -> Optional[Phase]:
    """tau(T) = (T delta_e)(e), i.e. the (e, e) entry: a circle value or None for 0."""
    e = rep.group.identity()
    return mat.entry(e, e)
