"""Two-cocycles on catalog groups, written additively in phase exponents.

A cocycle assigns to each pair (g, h) a Phase p with sigma(g,h) = exp(2*pi*i*p);
the defining identities become additive.  All variants are total functions
given by formulas; tables live on finite table groups and reach others by pullback.
Each variant states its formula once, in integer form: ``int_value(g, h)`` is
``den`` times the exponent, as the integer vector of a Phase over ``basis``
(the rational slot first, then one slot per symbol).  ``value`` is derived from
it, and validation adds and subtracts these vectors instead of Phases.
``commutation_int(g, h)`` is the integer form of sigma(g, h) - sigma(h, g),
which regularity reads; kinds with a cheaper exact formula override it: a
bicharacter sums x_j y_k - y_j x_k once per pair j < k against the entries of
den * (B - B^T), and a similarity transform asks ``group.commutes(g, h)``
before it builds gh and hg.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .groups.base import Element, Group
from .groups.abelian import FreeAbelian
from .groups.finite import FiniteTable, cyclic_product
from .groups.free import FreeGroup
from .groups.heisenberg import Heisenberg
from .groups.product import DirectProduct
from .groups.subgroups import AsGroup, Subgroup
from .phases import EMPTY_BASIS, IrrationalBasis, Phase, _make


class CocycleError(ValueError):
    pass


class Cocycle:
    """Base class; subclasses implement int_value(g, h) over the common
    denominator ``den``."""

    group: Group
    basis: IrrationalBasis
    den: int = 1
    kind: str = "abstract"
    # a stated upper bound on the total degree, in the coordinates of the
    # arguments, of sigma and of every term of the cocycle identity; None
    # when sigma is not such a polynomial
    degree: Optional[int] = None

    def int_value(self, g: Element, h: Element) -> list[int]:
        """``den`` times the exponent of sigma(g, h): a new list of
        1 + len(basis.symbols) integers, the rational slot first."""
        raise NotImplementedError

    def value(self, g: Element, h: Element) -> Phase:
        return _make(self.basis, self.den, self.int_value(g, h))

    def commutation_int(self, g: Element, h: Element) -> list[int]:
        """``int_value(g, h) - int_value(h, g)``: ``den`` times the exponent
        of sigma(g, h) - sigma(h, g)."""
        return [a - b for a, b in zip(self.int_value(g, h), self.int_value(h, g))]

    def __call__(self, g: Element, h: Element) -> Phase:
        self.group.check_element(g)
        self.group.check_element(h)
        return self.value(g, h)

    def is_trivial_like(self) -> bool:
        """Syntactically a coboundary of the trivial cocycle (sufficient check only)."""
        return False

    @cached_property
    def twist_obstructions(self) -> tuple[int, ...]:
        """On a finite table group: obs[g] has bit h set when g h = h g and
        sigma(g, h) != sigma(h, g).  So g is regular with respect to a
        subgroup whose elements are the set bits of hmask exactly when
        obs[g] & hmask == 0.  Read off commutation_int once per pair h < g,
        both bits at once; the diagonal bits are 0.  A cocycle is immutable,
        so every query about it reads the same masks."""
        table = self.group.table
        den, comm = self.den, self.commutation_int
        symbolic = bool(self.basis.symbols)
        obs = [0] * len(table)
        for g, tg in enumerate(table):
            bits = 0
            for h in range(g):
                if tg[h] == table[h][g]:
                    v = comm(g, h)  # not _is_zero(den, v), inlined
                    if v[0] % den or symbolic and any(v[1:]):
                        bits |= 1 << h
                        obs[h] |= 1 << g
            obs[g] |= bits
        return tuple(obs)

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"<Cocycle {self.describe()} on {self.group.name}>"


class TrivialCocycle(Cocycle):
    kind = "trivial"

    def __init__(self, group: Group, basis: IrrationalBasis = EMPTY_BASIS) -> None:
        self.group = group
        self.basis = basis

    def int_value(self, g, h) -> list[int]:
        return [0] * (1 + len(self.basis.symbols))

    def is_trivial_like(self) -> bool:
        return True


class BicharacterCocycle(Cocycle):
    """sigma(x, y) = sum_jk x_j * B[j][k] * y_k on a free abelian group."""

    kind = "bicharacter"
    degree = 2  # sigma is bilinear and the group law linear

    def __init__(self, group: FreeAbelian, matrix: Sequence[Sequence[Phase]]) -> None:
        if not isinstance(group, FreeAbelian):
            raise CocycleError("bicharacter cocycles live on free abelian groups")
        n = group.rank
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise CocycleError(f"matrix must be {n}x{n}")
        basis = None
        for row in matrix:
            for p in row:
                if not isinstance(p, Phase):
                    raise CocycleError("matrix entries must be Phases")
                if basis is None:
                    basis = p.basis
                elif p.basis != basis:
                    raise CocycleError("matrix entries must share one basis")
        self.group = group
        self.basis = basis if basis is not None else EMPTY_BASIS
        self.matrix = tuple(tuple(row) for row in matrix)
        # the integer matrix den * B as its nonzero entries (j, k, slots), where
        # slots lists the nonzero (phase slot, multiplier) pairs of the entry;
        # pair_terms holds den * (B - B^T) on the pairs j < k in the same form,
        # since sigma(x, y) - sigma(y, x) = sum_{j<k} (B - B^T)_jk (x_j y_k - y_j x_k)
        self.den = lcm(*(p.den for row in self.matrix for p in row))
        ints = [[[m * (self.den // p.den) for m in p.nums] for p in row] for row in self.matrix]
        self.terms = tuple((j, k, slots) for j in range(n) for k in range(n)
                           if (slots := _slots(ints[j][k])))
        self.pair_terms = tuple(
            (j, k, slots) for j in range(n) for k in range(j + 1, n)
            if (slots := _slots([a - b for a, b in zip(ints[j][k], ints[k][j])])))

    def int_value(self, x, y) -> list[int]:
        out = [0] * (1 + len(self.basis.symbols))
        for j, k, slots in self.terms:
            xy = x[j] * y[k]
            if xy:
                for s, m in slots:
                    out[s] += m * xy
        return out

    def commutation_int(self, x, y) -> list[int]:
        out = [0] * (1 + len(self.basis.symbols))
        for j, k, slots in self.pair_terms:
            xy = x[j] * y[k] - y[j] * x[k]
            if xy:
                for s, m in slots:
                    out[s] += m * xy
        return out

    def is_trivial_like(self) -> bool:
        return all(p.is_one() for row in self.matrix for p in row)

    def describe(self) -> str:
        rows = "; ".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.matrix)
        return f"bicharacter [{rows}]"


def _slots(ints: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The nonzero (phase slot, multiplier) pairs of an integer phase vector."""
    return tuple((s, m) for s, m in enumerate(ints) if m)


def rotation_cocycle(group: FreeAbelian, theta: Phase) -> BicharacterCocycle:
    """The noncommutative-2-torus cocycle: exponent (theta/2)(x1*y2 - x2*y1)."""
    if group.rank != 2:
        raise CocycleError("rotation cocycle needs rank 2")
    half = theta * Fraction(1, 2)
    zero = Phase(0, {}, theta.basis)
    return BicharacterCocycle(group, [[zero, half], [-half, zero]])


def three_torus_cocycle(group: FreeAbelian, thetas: Sequence[Phase]) -> BicharacterCocycle:
    """Exponent (1/2) * Theta . (x cross y) on Z^3."""
    if group.rank != 3 or len(thetas) != 3:
        raise CocycleError("three-torus cocycle needs rank 3 and three parameters")
    t1, t2, t3 = thetas
    h = Fraction(1, 2)
    zero = Phase(0, {}, t1.basis)
    return BicharacterCocycle(group, [
        [zero, t3 * h, -(t2 * h)],
        [-(t3 * h), zero, t1 * h],
        [t2 * h, -(t1 * h), zero],
    ])


class HeisenbergCocycle(Cocycle):
    """Two-parameter cocycle on the Heisenberg group.

    Exponent: gamma*(b3*a1 + b2*C(a1)) + theta*(a2*(b3 + a1*b2) + a1*C(b2))
    with C(m) = m*(m-1)/2.  Restricted to {(0, a2, a3)} it depends only on theta.
    """

    kind = "heisenberg"
    # products and conjugates are linear in the first two coordinates and of
    # degree 2 in the third; sigma is cubic in a1, a2, b2 and reads b3 only
    # times a1 or a2, so every identity term keeps degree 3
    degree = 3

    def __init__(self, group: Heisenberg, gamma: Phase, theta: Phase) -> None:
        if not isinstance(group, Heisenberg):
            raise CocycleError("this cocycle lives on the Heisenberg group")
        if gamma.basis != theta.basis:
            raise CocycleError("gamma and theta must share one basis")
        self.group = group
        self.basis = gamma.basis
        self.gamma = gamma
        self.theta = theta
        # gamma and theta as integer vectors over one denominator
        self.den = lcm(gamma.den, theta.den)
        self._pairs = tuple(zip((n * (self.den // gamma.den) for n in gamma.nums),
                                (n * (self.den // theta.den) for n in theta.nums)))

    def int_value(self, a, b) -> list[int]:
        a1, a2, _a3 = a
        _b1, b2, b3 = b
        gamma_mult = b3 * a1 + b2 * (a1 * (a1 - 1) // 2)
        theta_mult = a2 * (b3 + a1 * b2) + a1 * (b2 * (b2 - 1) // 2)
        return [gamma_mult * g + theta_mult * t for g, t in self._pairs]

    def is_trivial_like(self) -> bool:
        return self.gamma.is_one() and self.theta.is_one()

    def describe(self) -> str:
        return f"heisenberg(gamma={self.gamma}, theta={self.theta})"


class PhaseTableCocycle(Cocycle):
    """Tabulated cocycle on a finite table group; rational phases only.

    Stored as integers only: ``ints[g][h]`` in [0, den) is ``den`` times the
    exponent of sigma(g, h), ``den`` the least common denominator.  The
    constructor converts a table of Phases to that form, ``from_ints`` takes
    it as is; ``table`` and ``value`` build their Phases on request.
    """

    kind = "table"

    def __init__(self, group: FiniteTable, table: Sequence[Sequence[Phase]]) -> None:
        for row in table:
            for p in row:
                if not isinstance(p, Phase) or any(p.nums[1:]):
                    raise CocycleError("phase table entries must be rational phases")
        den = lcm(*(p.den for row in table for p in row))
        self._set_ints(group, den, [[p.nums[0] * (den // p.den) for p in row] for row in table])

    @classmethod
    def from_ints(cls, group: FiniteTable, den: int,
                  ints: Sequence[Sequence[int]]) -> "PhaseTableCocycle":
        """The table sigma(g, h) = ints[g][h] / den, for any integers and den > 0."""
        sigma = cls.__new__(cls)
        sigma._set_ints(group, den, ints)
        return sigma

    def _set_ints(self, group: FiniteTable, den: int, ints: Sequence[Sequence[int]]) -> None:
        if not isinstance(group, FiniteTable):
            raise CocycleError("phase tables require a finite table group")
        n = group.order
        if len(ints) != n or any(len(row) != n for row in ints):
            raise CocycleError(f"phase table must be {n}x{n}")
        # den / gcd(den, *ints) is the lcm of the reduced entry denominators
        g = gcd(den, *(gcd(*row) for row in ints))
        den //= g
        # tuples built from lists: CPython builds a tuple from a generator by
        # resizing a 10-slot one, and the spare tuples pile up in its free lists
        rows = tuple([tuple([v // g % den for v in row]) for row in ints])
        e = group.identity()
        if any(rows[e]) or any(row[e] for row in rows):
            raise CocycleError("phase table is not normalized at the identity")
        self.group = group
        self.basis = EMPTY_BASIS
        self.den = den
        self.ints = rows

    @cached_property
    def table(self) -> tuple[tuple[Phase, ...], ...]:
        return tuple(tuple(_make(EMPTY_BASIS, self.den, [v]) for v in row) for row in self.ints)

    @property
    def generator_rows(self) -> tuple:
        """The rows that decide the cocycle identity: those of
        ``G.generators()``, or the identity's row on the trivial group."""
        G = self.group
        return G.generators() or (G.identity(),)

    @cached_property
    def generator_row_failure(self) -> tuple | None:
        """_table_identity_failure on generator_rows: None exactly when the
        table is a cocycle.  Scanned once per table; _validate_table_fast and
        build_regular_rep read it."""
        return _table_identity_failure(self, self.generator_rows)

    def int_value(self, g, h) -> list[int]:
        return [self.ints[g][h]]

    def commutation_int(self, g, h) -> list[int]:
        return [self.ints[g][h] - self.ints[h][g]]

    def is_trivial_like(self) -> bool:
        return not any(any(row) for row in self.ints)

    def describe(self) -> str:
        return f"phase table on {self.group.name}"


def _slot_map(src: IrrationalBasis, dst: IrrationalBasis, mult: int) -> tuple:
    """For each slot of an integer vector over ``src``, the slot of ``dst`` it
    lands in and the factor that brings it to the new denominator."""
    missing = [sym for sym in src.symbols if sym not in dst]
    if missing:
        raise CocycleError(f"symbols {missing} are not in the basis {dst.symbols}")
    return ((0, mult),) + tuple((dst.symbols.index(sym) + 1, mult) for sym in src.symbols)


class ProductCocycle(Cocycle):
    kind = "product"

    def __init__(self, group: DirectProduct, left: Cocycle, right: Cocycle) -> None:
        if not isinstance(group, DirectProduct):
            raise CocycleError("product cocycles live on direct products")
        if left.group is not group.left or right.group is not group.right:
            raise CocycleError("factor cocycles must live on the product factors")
        if left.basis != right.basis and EMPTY_BASIS not in (left.basis, right.basis):
            raise CocycleError("factor cocycles must share one basis")
        if not all(_is_zero(f.den, f.int_value(f.group.identity(), f.group.identity()))
                   for f in (left, right)):  # validation splits by factor on this
            raise CocycleError("factor cocycles must vanish at (e, e)")
        self.group = group
        self.basis = left.basis if left.basis != EMPTY_BASIS else right.basis
        self.left = left
        self.right = right
        self.den = lcm(left.den, right.den)
        self._left_slots = _slot_map(left.basis, self.basis, self.den // left.den)
        self._right_slots = _slot_map(right.basis, self.basis, self.den // right.den)

    def int_value(self, g, h) -> list[int]:
        out = [0] * (1 + len(self.basis.symbols))
        for (s, m), x in zip(self._left_slots, self.left.int_value(g[0], h[0])):
            out[s] += m * x
        for (s, m), x in zip(self._right_slots, self.right.int_value(g[1], h[1])):
            out[s] += m * x
        return out

    def is_trivial_like(self) -> bool:
        return self.left.is_trivial_like() and self.right.is_trivial_like()

    def describe(self) -> str:
        return f"({self.left.describe()}) x ({self.right.describe()})"


class Beta:
    """A map G -> phases with beta(e) = 0, used for similarity transforms.

    Subclasses implement int_value(g): ``den`` times the exponent of beta(g),
    a new list of 1 + len(basis.symbols) integers."""

    label = "beta"
    basis: IrrationalBasis
    den: int

    def int_value(self, g: Element) -> list[int]:
        raise NotImplementedError

    def __call__(self, g: Element) -> Phase:
        return _make(self.basis, self.den, self.int_value(g))


class SeededBeta(Beta):
    """Deterministic pseudo-random rational beta derived from the normal form."""

    def __init__(self, group: Group, seed: int, denominator: int = 8,
                 basis: IrrationalBasis = EMPTY_BASIS) -> None:
        if denominator < 1:
            raise CocycleError(f"beta denominator must be at least 1, got {denominator}")
        self.group = group
        self.seed = seed
        self.den = denominator
        self.basis = basis
        self.label = f"seeded(seed={seed}, den={denominator})"

    def int_value(self, g) -> list[int]:
        out = [0] * (1 + len(self.basis.symbols))
        if g != self.group.identity():
            token = f"{self.seed}|{self.group.element_str(g)}".encode()
            out[0] = int.from_bytes(hashlib.sha256(token).digest()[:4], "big") % self.den
        return out


class SimilarityCocycle(Cocycle):
    """sigma'(r, s) = beta(r) + beta(s) - beta(rs) + sigma(r, s)."""

    kind = "similarity"

    def __init__(self, base: Cocycle, beta: Beta) -> None:
        e = base.group.identity()
        be = beta(e)
        if not be.is_one():
            raise CocycleError("beta must send the identity to the trivial phase")
        self.base = base
        self.beta = beta
        self.group = base.group
        self.basis = base.basis
        self.den = lcm(base.den, beta.den)
        self._base_mult = self.den // base.den
        self._beta_slots = _slot_map(beta.basis, self.basis, self.den // beta.den)

    def int_value(self, g, h) -> list[int]:
        b = self.beta.int_value
        coboundary = zip(b(g), b(h), b(self.group.mul(g, h)))
        out = [self._base_mult * x for x in self.base.int_value(g, h)]
        for (s, m), (x, y, z) in zip(self._beta_slots, coboundary):
            out[s] += m * (x + y - z)
        return out

    def commutation_int(self, g, h) -> list[int]:
        """sigma'(g, h) - sigma'(h, g) = sigma(g, h) - sigma(h, g) + beta(hg) - beta(gh):
        the beta(g) and beta(h) terms cancel, and beta(hg) - beta(gh) is 0 when
        g and h commute, so gh, hg and beta are computed only on a pair that
        group.commutes says does not commute."""
        out = [self._base_mult * x for x in self.base.commutation_int(g, h)]
        if not self.group.commutes(g, h):
            b, mul = self.beta.int_value, self.group.mul
            for (s, m), x, y in zip(self._beta_slots, b(mul(h, g)), b(mul(g, h))):
                out[s] += m * (x - y)
        return out

    def is_trivial_like(self) -> bool:
        return self.base.is_trivial_like()

    def describe(self) -> str:
        return f"similarity[{self.beta.label}] of {self.base.describe()}"


def similarity_transform(sigma: Cocycle, beta: Beta) -> SimilarityCocycle:
    return SimilarityCocycle(sigma, beta)


class PullbackCocycle(Cocycle):
    """sigma composed with a homomorphism: injective in subgroup transport, onto
    sigma's finite group when given a ``section`` with embed(section(a)) = a."""

    kind = "pullback"

    def __init__(self, base: Cocycle, group: Group, embed: Callable[[Element], Element],
                 label: str = "", section: Optional[Callable[[Element], Element]] = None) -> None:
        self.base = base
        self.group = group
        self.embed = embed
        self.section = section
        self.basis = base.basis
        self.den = base.den
        self.label = label

    def int_value(self, g, h) -> list[int]:
        return self.base.int_value(self.embed(g), self.embed(h))

    def commutation_int(self, g, h) -> list[int]:
        return self.base.commutation_int(self.embed(g), self.embed(h))

    def is_trivial_like(self) -> bool:
        return self.base.is_trivial_like()

    def describe(self) -> str:
        suffix = f" along {self.label}" if self.label else ""
        return f"pullback of {self.base.describe()}{suffix}"


class F2Z2Cocycle(PullbackCocycle):
    """sigma_j: tau((s, k), (t, l)) = k*t/2 on Z_2 x Z_2 pulled back along phi_j(x, k) =
    (exponent sum of x over a, b or both for j = 1, 2, 3, mod 2, k); section (letter^s, k)."""

    kind = "f2z2"

    def __init__(self, group: DirectProduct, j: int) -> None:
        if (not isinstance(group, DirectProduct) or not isinstance(group.left, FreeGroup)
                or group.left.rank != 2 or not isinstance(group.right, FiniteTable)
                or group.right.order != 2):
            raise CocycleError("sigma_j lives on F_2 x Z_2")
        if j not in (1, 2, 3):
            raise CocycleError("j must be 1, 2 or 3")
        letters = ((0,), (1,), (0, 1))[j - 1]
        tau = PhaseTableCocycle.from_ints(  # (s, k) has index 2s + k
            cyclic_product(2, 2), 2, [[(a % 2) * (b // 2) for b in range(4)] for a in range(4)])
        super().__init__(tau, group,
                         lambda g: 2 * (sum(e for c, e in g[0] if c in letters) % 2) + g[1],
                         section=lambda a: (((letters[0], 1),) if a // 2 else (), a % 2))
        self.j = j

    def describe(self) -> str:
        return f"sigma_{self.j} on F_2 x Z_2"


def transport(sigma: Cocycle, H: Subgroup) -> Optional[tuple[Cocycle, AsGroup]]:
    """The restriction of sigma to H, as a cocycle on H's standalone group."""
    if H.parent is not sigma.group:
        raise CocycleError("subgroup must describe the cocycle's group")
    if H.is_full():
        ident = AsGroup(sigma.group, lambda x: x)
        return sigma, ident
    asg = H.as_group()
    if asg is None:
        return None
    return (PullbackCocycle(sigma, asg.group, asg.embed,
                            label=H.describe_desc()), asg)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def commutation_trivial(sigma: Cocycle, g: Element, h: Element) -> bool:
    """Whether sigma(g,h) = sigma(h,g): tested on sigma.commutation_int(g, h),
    with no Phase built."""
    return _is_zero(sigma.den, sigma.commutation_int(g, h))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationResult:
    passed: bool
    witness: tuple | None
    checks: int
    mode: str
    detail: str = ""
    triples: int = 0


def _simplex(n: int, d: int) -> list[tuple[int, ...]]:
    """The points of N^n with coordinate sum at most d, in lexicographic
    order, one coordinate at a time: by_bound[b] lists those with sum at
    most b, and the next level's is (a,) + p for a = 0..b, p in by_bound[b - a]."""
    by_bound = [[()]] * (d + 1)
    for _ in range(n):
        by_bound = [[(a,) + p for a in range(b + 1) for p in by_bound[b - a]]
                    for b in range(d + 1)]
    return by_bound[d]


def _triples(sigma: Cocycle):
    """(mode, triples) for sigma.  validate_cocycle takes one exact route per
    kind, stated here once.

    Read off sigma's parts by _reduced, before any triple:
    - ``trivial`` passes with 0 checks (mode "trivial"): every value is 0.
    - A similarity transform gets its base's result unchanged: the
      coboundary adds 0 to every identity residual term by term, and
      beta(e) = 0 (SimilarityCocycle enforces it) to normalization.
    - A product checks its left factor, then its right (mode
      "product(<left>, <right>)", checks and triples summed; "unchecked"
      for a right factor skipped once the left fails).  Each residual at
      ((a1, b1), (a2, b2), (a3, b3)) is the left one at the a's plus the
      right one at the b's, a residual at (e, e, e) cancels term by term, and
      both factors vanish at (e, e) (ProductCocycle enforces it).  So a
      factor's witness, with e in the other slot, is sigma's.
    - A pullback without a section (``transport`` builds one, along an
      injective homomorphism) on an infinite group gets its base's result
      when the base passes; otherwise CocycleError, since no route decides it.
    Checked on the triples returned here:
    - A polynomial kind (``sigma.degree`` is d, m coordinates per element)
      gets the alpha in N^{3m} with |alpha| <= d as (g, h, k) (mode
      "polynomial").  A residual R of degree at most d is sum_alpha c_alpha *
      binom(x, alpha), each c_alpha an integer combination of R's values on
      this grid and each binomial an integer at every integer x, so R
      vanishes on Z^{3m} exactly when it does here; the g-components cover
      {|x| <= d} for normalization.  The grid is made anew on each call.
    - A pullback along phi onto a finite group with a section gets the
      triples of the section's image (mode "pullback"): each term at
      (g, h, k) is the base's at (phi g, phi h, phi k).
    - Any other kind on a finite group gets every triple (mode "exhaustive").
    Any other kind on an infinite group is a CocycleError.  A phase table
    validates on its generator rows (_validate_table_fast), and a table
    they refuse gets every triple."""
    if sigma.degree is not None:
        m = len(sigma.group.identity())
        return "polynomial", [(p[:m], p[m:2 * m], p[2 * m:])
                              for p in _simplex(3 * m, sigma.degree)]
    if isinstance(sigma, PullbackCocycle) and sigma.section is not None:
        return "pullback", product(map(sigma.section, sigma.base.group.elements()), repeat=3)
    G = sigma.group
    if G.is_finite:
        return "exhaustive", product(G.elements(), repeat=3)
    raise CocycleError(f"no exact validation route for {sigma.describe()} on {G.describe()}")


def _reduced(sigma: Cocycle) -> ValidationResult | None:
    """validate_cocycle(sigma) read off the cocycles sigma is built from, by
    the routes of _triples; None when sigma is checked on triples of its own."""
    if isinstance(sigma, TrivialCocycle):
        return ValidationResult(True, None, 0, "trivial")
    if isinstance(sigma, SimilarityCocycle):
        return validate_cocycle(sigma.base)
    if isinstance(sigma, ProductCocycle):
        G, left = sigma.group, validate_cocycle(sigma.left)
        if not left.passed:
            e = G.right.identity()
            return replace(left, witness=tuple((x, e) for x in left.witness),
                           mode=f"product({left.mode}, unchecked)")
        right, e = validate_cocycle(sigma.right), G.left.identity()
        return replace(right, witness=right.witness and tuple((e, x) for x in right.witness),
                       checks=left.checks + right.checks, triples=left.triples + right.triples,
                       mode=f"product({left.mode}, {right.mode})")
    if isinstance(sigma, PullbackCocycle) and sigma.section is None and not sigma.group.is_finite:
        base = validate_cocycle(sigma.base)
        if not base.passed:
            raise CocycleError(f"{sigma.describe()}: its base fails ({base.detail}), and no "
                               "exact route decides the pullback itself")
        return base
    return None


def _table_identity_failure(sigma: "PhaseTableCocycle", rows) -> tuple | None:
    """The first (g, h, k), g taken from ``rows`` and h, k over the whole group
    in order, at which the integer table breaks the cocycle identity
    sigma(g, h) + sigma(gh, k) = sigma(g, hk) + sigma(h, k); None when it holds
    on all of them.  It is also the projective relation of the regular
    representation: lam(g) lam(h) delta_k = sigma(g, h) lam(gh) delta_k.

    The rows of a generating set S decide the identity on every row.  Write
    d(g, h, k) for the defect, the left side minus the right.  Expanding
    d(sg, h, k) - d(s, gh, k) + d(s, g, hk) - d(s, g, h) cancels to
    d(g, h, k) term by term, so if row s holds, row sg holds exactly when
    row g does.  Row e holds on a normalized table, which PhaseTableCocycle
    enforces, and every element of a finite group is a positive word in S.
    So PhaseTableCocycle.generator_row_failure scans only the generator
    rows, once per table."""
    den, t, mul = sigma.den, sigma.ints, sigma.group.table
    elems = range(sigma.group.order)
    for g in rows:
        tg, mg = t[g], mul[g]
        for h in elems:
            base, th, tgh, mh = tg[h], t[h], t[mg[h]], mul[h]
            for k in elems:
                if (base + tgh[k] - tg[mh[k]] - th[k]) % den:
                    return g, h, k
    return None


def _validate_table_fast(sigma: "PhaseTableCocycle") -> ValidationResult:
    """Table validation on integers modulo the common denominator, exact: a
    pass on the generator rows is mode "generators" with |S| n^2 checks; a
    table they refuse is rescanned on all rows in order (mode "exhaustive",
    the first failing triple, ``checks`` the triples up to it).
    Normalization needs no check: PhaseTableCocycle enforces it."""
    n = sigma.group.order
    if sigma.generator_row_failure is None:
        checks = len(sigma.generator_rows) * n * n
        return ValidationResult(True, None, checks, "generators", "", checks)
    witness = _table_identity_failure(sigma, range(n))
    g, h, k = witness
    checks = (g * n + h) * n + k + 1
    return ValidationResult(False, witness, checks, "exhaustive", "cocycle identity fails", checks)


def _is_zero(den: int, v: list[int]) -> bool:
    """Whether the integer value v over den is the zero phase: its rational
    slot is 0 mod den and it has no symbol part."""
    return v[0] % den == 0 and not any(v[1:])


def _vanishes(den: int, plus: list, minus: list) -> bool:
    """Whether sum(plus) - sum(minus), integer values over den, is the zero
    phase, summed slot by slot: the rational slot 0 mod den, the others 0."""
    for slot in range(len(plus[0])):
        r = 0
        for v in plus:
            r += v[slot]
        for v in minus:
            r -= v[slot]
        if r % den if slot == 0 else r:
            return False
    return True


class _CallValues(dict):
    """sigma.int_value keyed by (g, h), each pair evaluated on its first
    read.  Each validate_cocycle call makes its own and drops it on return, so
    a pair is evaluated once per call and nothing is kept after it."""

    def __init__(self, sigma: Cocycle) -> None:
        super().__init__()
        self._int_value = sigma.int_value

    def __missing__(self, pair: tuple) -> list[int]:
        value = self[pair] = self._int_value(*pair)
        return value


def validate_cocycle(sigma: Cocycle) -> ValidationResult:
    """Normalization plus the cocycle identity, by the route of _triples.
    On triples, sigma is read through a _CallValues: each distinct pair is
    evaluated once per call, and nothing is kept afterwards."""
    if isinstance(sigma, PhaseTableCocycle):
        return _validate_table_fast(sigma)
    reduced = _reduced(sigma)
    if reduced is not None:
        return reduced
    G = sigma.group
    e = G.identity()
    mode, points = _triples(sigma)
    den, val = sigma.den, _CallValues(sigma)
    checks = 0
    triples = 0
    seen_norm = set()
    for g, h, k in points:
        triples += 1
        for x in (g, h, k):
            if x not in seen_norm:
                seen_norm.add(x)
                if not _is_zero(den, val[x, e]) or not _is_zero(den, val[e, x]):
                    return ValidationResult(False, (x, e, e), checks, mode,
                                            "normalization fails", triples)
        checks += 1
        if not _vanishes(den, [val[g, h], val[G.mul(g, h), k]],
                         [val[g, G.mul(h, k)], val[h, k]]):
            return ValidationResult(False, (g, h, k), checks, mode,
                                    "cocycle identity fails", triples)
    return ValidationResult(True, None, checks, mode, "", triples)
