"""Brute-force ground truth: the regular projective representation of a finite
group and exact commutant dimensions.

All matrices here are monomial with root-of-unity entries, so products never
leave that class and every computation is exact: an entry is either absent or
a rational Phase.  The relative commutant dimension is computed along two
independent routes, both on the cocycle's integer table over its common
denominator, and any disagreement raises:

  route A: solve T lam(h) = lam(h) T over T in the span of the lam(g) by
           exact elimination on column e, checked on all entries under
           verify=True; every entry equation relates exactly two
           coefficients with root-of-unity factors, so exact elimination is
           scaling propagation over components (contradiction => zero);
  route B: count the H-conjugacy classes that are regular for the cocycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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

    @staticmethod
    def identity(n: int) -> "MonomialMatrix":
        return MonomialMatrix(tuple(range(n)), (EMPTY_BASIS.zero(),) * n)

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

    def is_unitary(self) -> bool:
        prod = self @ self.adjoint()
        return prod == MonomialMatrix.identity(self.n)

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
    # and their exponents agree exactly when the cocycle identity holds at (g, h, k)
    bad = _table_identity_failure(table, G.elements() if verify_pairs else G.generators())
    if bad is not None:
        raise OracleError(f"projective relation fails at ({bad[0]},{bad[1]})")
    return RegularRep(G, sigma, table.den, table.ints)


# ---------------------------------------------------------------------------
# route A: exact elimination on column e, checked on all entries under verify=True
# ---------------------------------------------------------------------------

class _ScalingUnionFind:
    """Union-find with root-of-unity potentials, the exponents stored as
    integers modulo den: f(x) = zeta^(pot(x)/den) * f(root(x))."""

    def __init__(self, n: int, den: int) -> None:
        self.parent = list(range(n))
        self.pot = [0] * n
        self.dead = [False] * n
        self.den = den

    def find(self, x: int) -> int:
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

    def relate(self, u: int, v: int, delta: int) -> None:
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

    def alive_components(self) -> dict[int, list[tuple[int, int]]]:
        comps: dict[int, list[tuple[int, int]]] = {}
        for x in range(len(self.parent)):
            r = self.find(x)
            comps.setdefault(r, []).append((x, self.pot[x] if x != r else 0))
        return {r: members for r, members in comps.items() if not self.dead[r]}


def _route_a(rep: RegularRep, hgens: list[int]) -> tuple[dict[int, int], ...]:
    """Solve T lam(h) = lam(h) T on column e only: an exact basis of the
    relative commutant inside the span of the lam(g), each element the
    coefficient exponents {g: pot} over ``rep.den``.

    T and lam(h) lie in the twisted group algebra, so T lam(h) - lam(h) T
    does too.  For a normalized sigma, lam(g) delta_e is a unit multiple of
    delta_g, so an element sum_g c_g lam(g) is zero exactly when its column
    at e is zero: the n equations with k = e are equivalent to all n^2, and
    the other columns repeat them.  ``_verify_solution`` still substitutes
    into all n^2 entries.
    """
    G = rep.group
    n, den, val, e = G.order, rep.den, rep.int_values, G.identity()
    table, inv = G.table, G.inv_table
    uf = _ScalingUnionFind(n, den)
    for h in hgens:
        hinv = inv[h]
        row_m, vh = table[hinv], val[h]
        for r in range(n):
            # (lam(h) T)[r,e] = zeta^(vh[m] + val[m][e]) f(m) with m = h^-1 r;
            # (T lam(h))[r,e] = zeta^(val[v][h] + vh[e]) f(v) with v = r h^-1
            m, v = row_m[r], table[r][hinv]
            uf.relate(m, v, (val[v][h] + vh[e] - vh[m] - val[m][e]) % den)
    comps = uf.alive_components()
    # from a list, not a generator, as in PhaseTableCocycle._set_ints
    return tuple([dict(comps[root]) for root in sorted(comps)])


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
    G = rep.group
    val = rep.int_values
    table = G.table
    regular = []
    for orbit in G.h_classes(helems):
        g = orbit[0]
        ok = True
        for h in helems:
            if table[h][g] == table[g][h] and val[g][h] != val[h][g]:
                ok = False
                break
        if ok:
            regular.append(orbit)
    return len(regular), regular


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

@dataclass
class CommutantReport:
    """Route A's basis of the relative commutant (coefficient exponents
    {g: pot} over the rep's ``den``) and route B's regular classes."""

    basis: tuple[dict[int, int], ...]
    dim_route_b: int
    regular_classes: list[tuple[int, ...]]

    @property
    def dim_route_a(self) -> int:
        return len(self.basis)

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
    helems = H.enumerate_elements()
    hgens = list(H.generators()) or [G.identity()]
    basis = _route_a(rep, hgens)
    count, regular = _route_b(rep, helems)
    if verify and not all(_verify_solution(rep, hgens, f) for f in basis):
        raise OracleError("route A basis element fails substitution")
    if len(basis) != count:
        raise OracleMismatchError(len(basis), count,
                                  f"G={G.name}, H={H.describe_desc()}, sigma={sigma.describe()}")
    return CommutantReport(basis, count, regular)


def center_dim(G: FiniteTable, sigma: Cocycle, rep: RegularRep | None = None) -> int:
    return relative_commutant_dim(G, Subgroup.full(G), sigma, rep=rep).dimension


def canonical_trace(rep: RegularRep, mat: MonomialMatrix) -> Optional[Phase]:
    """tau(T) = (T delta_e)(e), i.e. the (e, e) entry: a circle value or None for 0."""
    e = rep.group.identity()
    return mat.entry(e, e)


def span_trace(rep: RegularRep, coeffs: dict[int, int]) -> Optional[Phase]:
    """tau of T = sum_g f(g) lam(g), f given as exponents over ``rep.den``
    (a route A basis element): the coefficient at the identity."""
    pot = coeffs.get(rep.group.identity())
    return None if pot is None else _make(EMPTY_BASIS, rep.den, [pot])
