"""Two-cocycles on catalog groups, written additively in phase exponents.

A cocycle assigns to each pair (g, h) a Phase p with sigma(g,h) = exp(2*pi*i*p);
the defining identities become additive.  All variants are total functions
given by formulas; the only tabulated variant lives on finite table groups.

conj_twist(sigma, h, g) is the phase by which conjugation by h twists the
canonical unitary of g:  sigma(h,g) - sigma(h g h^-1, h).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .groups.base import Element, Group
from .groups.abelian import FreeAbelian
from .groups.finite import FiniteTable
from .groups.free import FreeGroup
from .groups.heisenberg import Heisenberg
from .groups.product import DirectProduct
from .groups.subgroups import AsGroup, Subgroup
from .phases import EMPTY_BASIS, IrrationalBasis, Phase, _make


class CocycleError(ValueError):
    pass


class Cocycle:
    """Base class; subclasses implement value(g, h) -> Phase."""

    group: Group
    basis: IrrationalBasis
    kind: str = "abstract"

    def value(self, g: Element, h: Element) -> Phase:
        raise NotImplementedError

    def __call__(self, g: Element, h: Element) -> Phase:
        self.group.check_element(g)
        self.group.check_element(h)
        return self.value(g, h)

    def zero(self) -> Phase:
        return Phase(0, {}, self.basis)

    def is_trivial_like(self) -> bool:
        """Syntactically a coboundary of the trivial cocycle (sufficient check only)."""
        return False

    # sampling domain: restrictions narrow this to their subgroup
    def random_domain_element(self, rng: random.Random, size: int = 6) -> Element:
        return self.group.random_element(rng, size)

    def domain_elements(self):
        """Finite enumeration of the domain, or None."""
        if self.group.is_finite:
            return list(self.group.elements())
        return None

    def describe(self) -> str:
        return self.kind

    def __repr__(self) -> str:
        return f"<Cocycle {self.describe()} on {self.group.name}>"


class TrivialCocycle(Cocycle):
    kind = "trivial"

    def __init__(self, group: Group, basis: IrrationalBasis = EMPTY_BASIS) -> None:
        self.group = group
        self.basis = basis

    def value(self, g, h) -> Phase:
        return self.zero()

    def is_trivial_like(self) -> bool:
        return True


class BicharacterCocycle(Cocycle):
    """sigma(x, y) = sum_jk x_j * B[j][k] * y_k on a free abelian group."""

    kind = "bicharacter"

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
        # per phase slot, the nonzero terms (j, k, m) of the integer matrix den * B
        self.den = lcm(*(p.den for row in self.matrix for p in row))
        self.forms = tuple(
            tuple((j, k, p.nums[s] * (self.den // p.den))
                  for j, row in enumerate(self.matrix) for k, p in enumerate(row) if p.nums[s])
            for s in range(1 + len(self.basis.symbols)))

    def value(self, x, y) -> Phase:
        return _make(self.basis, self.den,
                     [sum(m * x[j] * y[k] for j, k, m in form) for form in self.forms])

    def is_trivial_like(self) -> bool:
        return all(p.is_one() for row in self.matrix for p in row)

    def describe(self) -> str:
        rows = "; ".join("[" + ", ".join(str(p) for p in row) + "]" for row in self.matrix)
        return f"bicharacter [{rows}]"


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

    def __init__(self, group: Heisenberg, gamma: Phase, theta: Phase) -> None:
        if not isinstance(group, Heisenberg):
            raise CocycleError("this cocycle lives on the Heisenberg group")
        if gamma.basis != theta.basis:
            raise CocycleError("gamma and theta must share one basis")
        self.group = group
        self.basis = gamma.basis
        self.gamma = gamma
        self.theta = theta

    def value(self, a, b) -> Phase:
        a1, a2, _a3 = a
        _b1, b2, b3 = b
        gamma_mult = b3 * a1 + b2 * (a1 * (a1 - 1) // 2)
        theta_mult = a2 * (b3 + a1 * b2) + a1 * (b2 * (b2 - 1) // 2)
        return self.gamma * gamma_mult + self.theta * theta_mult

    def is_trivial_like(self) -> bool:
        return self.gamma.is_one() and self.theta.is_one()

    def describe(self) -> str:
        return f"heisenberg(gamma={self.gamma}, theta={self.theta})"


def _f2z2_statistic(word, j: int) -> int:
    """Exponent-sum statistic of a reduced F_2 word: 1 -> sum over a, 2 -> over b, 3 -> both."""
    s_a = sum(exp for letter, exp in word if letter == 0)
    s_b = sum(exp for letter, exp in word if letter == 1)
    return (s_a, s_b, s_a + s_b)[j - 1]


class F2Z2Cocycle(Cocycle):
    """sigma_j on F_2 x Z_2: value -1 iff the Z_2 part of the first argument is 1
    and the chosen exponent-sum statistic of the second argument's word is odd."""

    kind = "f2z2"

    def __init__(self, group: DirectProduct, j: int) -> None:
        if (not isinstance(group, DirectProduct) or not isinstance(group.left, FreeGroup)
                or group.left.rank != 2 or not isinstance(group.right, FiniteTable)
                or group.right.order != 2):
            raise CocycleError("sigma_j lives on F_2 x Z_2")
        if j not in (1, 2, 3):
            raise CocycleError("j must be 1, 2 or 3")
        self.group = group
        self.basis = EMPTY_BASIS
        self.j = j

    def value(self, g, h) -> Phase:
        (_x, k), (y, _l) = g, h
        if k == 1 and _f2z2_statistic(y, self.j) % 2 == 1:
            return Phase(Fraction(1, 2), {}, self.basis)
        return self.zero()

    def describe(self) -> str:
        return f"sigma_{self.j} on F_2 x Z_2"


class PhaseTableCocycle(Cocycle):
    """Tabulated cocycle on a finite table group; rational phases only.

    Besides the phases it holds their integer form: ``ints[g][h]`` is ``den``
    times the exponent of sigma(g, h), ``den`` the least common denominator.
    """

    kind = "table"

    def __init__(self, group: FiniteTable, table: Sequence[Sequence[Phase]]) -> None:
        if not isinstance(group, FiniteTable):
            raise CocycleError("phase tables require a finite table group")
        n = group.order
        if len(table) != n or any(len(row) != n for row in table):
            raise CocycleError(f"phase table must be {n}x{n}")
        for row in table:
            for p in row:
                if not isinstance(p, Phase) or any(p.nums[1:]):
                    raise CocycleError("phase table entries must be rational phases")
        e = group.identity()
        for g in range(n):
            if not table[e][g].is_one() or not table[g][e].is_one():
                raise CocycleError("phase table is not normalized at the identity")
        self.group = group
        self.basis = EMPTY_BASIS
        self.table = tuple(tuple(row) for row in table)
        self.den = lcm(*(p.den for row in self.table for p in row))
        self.ints = tuple(tuple(p.nums[0] * (self.den // p.den) for p in row)
                          for row in self.table)

    def value(self, g, h) -> Phase:
        return self.table[g][h]

    def is_trivial_like(self) -> bool:
        return all(p.is_one() for row in self.table for p in row)

    def describe(self) -> str:
        return f"phase table on {self.group.name}"


class ProductCocycle(Cocycle):
    kind = "product"

    def __init__(self, group: DirectProduct, left: Cocycle, right: Cocycle) -> None:
        if not isinstance(group, DirectProduct):
            raise CocycleError("product cocycles live on direct products")
        if left.group is not group.left or right.group is not group.right:
            raise CocycleError("factor cocycles must live on the product factors")
        if left.basis != right.basis and EMPTY_BASIS not in (left.basis, right.basis):
            raise CocycleError("factor cocycles must share one basis")
        self.group = group
        self.basis = left.basis if left.basis != EMPTY_BASIS else right.basis
        self.left = left
        self.right = right

    def value(self, g, h) -> Phase:
        lv = self.left.value(g[0], h[0]).with_basis(self.basis)
        rv = self.right.value(g[1], h[1]).with_basis(self.basis)
        return lv + rv

    def is_trivial_like(self) -> bool:
        return self.left.is_trivial_like() and self.right.is_trivial_like()

    def describe(self) -> str:
        return f"({self.left.describe()}) x ({self.right.describe()})"


class RestrictionCocycle(Cocycle):
    """Restriction to a subgroup; arguments must pass the membership test."""

    kind = "restriction"

    def __init__(self, base: Cocycle, subgroup: Subgroup) -> None:
        if subgroup.parent is not base.group:
            raise CocycleError("subgroup must describe the cocycle's group")
        self.base = base
        self.subgroup = subgroup
        self.group = base.group
        self.basis = base.basis

    def value(self, g, h) -> Phase:
        for x in (g, h):
            inside = self.subgroup.contains(x)
            if inside is False:
                raise CocycleError(
                    f"{self.group.element_str(x)} is outside {self.subgroup.describe_desc()}")
            if inside is None:
                raise CocycleError("membership undecided for restriction argument")
        return self.base.value(g, h)

    def is_trivial_like(self) -> bool:
        return self.base.is_trivial_like()

    def random_domain_element(self, rng: random.Random, size: int = 6) -> Element:
        asg = self.subgroup.as_group()
        if asg is not None:
            return asg.embed(asg.group.random_element(rng, size))
        gens = self.subgroup.generators()
        out = self.group.identity()
        steps = list(gens) + [self.group.inv(g) for g in gens]
        for _ in range(rng.randrange(size + 1)):
            out = self.group.mul(out, rng.choice(steps))
        return out

    def domain_elements(self):
        return self.subgroup.enumerate_elements()

    def describe(self) -> str:
        return f"restriction of {self.base.describe()} to {self.subgroup.describe_desc()}"


class Beta:
    """A map G -> phases with beta(e) = 0, used for similarity transforms."""

    label = "beta"

    def __call__(self, g: Element) -> Phase:
        raise NotImplementedError


class TableBeta(Beta):
    def __init__(self, group: Group, mapping: dict, label: str = "table") -> None:
        self.group = group
        self.mapping = dict(mapping)
        self.label = label

    def __call__(self, g) -> Phase:
        return self.mapping[g]


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

    def __call__(self, g) -> Phase:
        if g == self.group.identity():
            return Phase(0, {}, self.basis)
        token = f"{self.seed}|{self.group.element_str(g)}".encode()
        k = int.from_bytes(hashlib.sha256(token).digest()[:4], "big") % self.den
        return Phase(Fraction(k, self.den), {}, self.basis)


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

    def value(self, g, h) -> Phase:
        b = self.beta
        prod = self.group.mul(g, h)
        coboundary = (b(g).with_basis(self.basis) + b(h).with_basis(self.basis)
                      - b(prod).with_basis(self.basis))
        return coboundary + self.base.value(g, h)

    def is_trivial_like(self) -> bool:
        return self.base.is_trivial_like()

    def describe(self) -> str:
        return f"similarity[{self.beta.label}] of {self.base.describe()}"


def similarity_transform(sigma: Cocycle, beta: Beta) -> SimilarityCocycle:
    return SimilarityCocycle(sigma, beta)


class PullbackCocycle(Cocycle):
    """sigma composed with an injective homomorphism (internal: subgroup transport)."""

    kind = "pullback"

    def __init__(self, base: Cocycle, group: Group, embed: Callable[[Element], Element],
                 label: str = "") -> None:
        self.base = base
        self.group = group
        self.embed = embed
        self.basis = base.basis
        self.label = label

    def value(self, g, h) -> Phase:
        return self.base.value(self.embed(g), self.embed(h))

    def is_trivial_like(self) -> bool:
        return self.base.is_trivial_like()

    def describe(self) -> str:
        suffix = f" along {self.label}" if self.label else ""
        return f"pullback of {self.base.describe()}{suffix}"


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

def conj_twist(sigma: Cocycle, h: Element, g: Element) -> Phase:
    """Phase of conjugation: sigma(h,g) - sigma(h g h^-1, h)."""
    G = sigma.group
    return sigma.value(h, g) - sigma.value(G.conj(h, g), h)


def commutation_phase(sigma: Cocycle, g: Element, h: Element) -> Phase:
    """sigma(g,h) - sigma(h,g); equals conj_twist(sigma, g, h) when g and h commute."""
    return sigma.value(g, h) - sigma.value(h, g)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# domains of at most EXHAUSTIVE_LIMIT elements are checked on every triple;
# larger ones on sampled words of length at most WORD_SIZE
EXHAUSTIVE_LIMIT = 64
WORD_SIZE = 8


@dataclass(frozen=True)
class ValidationBudget:
    samples: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class ValidationResult:
    passed: bool
    witness: tuple | None
    checks: int
    mode: str
    detail: str = ""
    triples: int = 0

    def __bool__(self) -> bool:
        return self.passed


def _triples(sigma: Cocycle, budget: ValidationBudget):
    elems = sigma.domain_elements()
    if elems is not None and len(elems) <= EXHAUSTIVE_LIMIT:
        for g in elems:
            for h in elems:
                for k in elems:
                    yield g, h, k
        return
    rng = random.Random(budget.seed)
    for _ in range(budget.samples):
        yield (sigma.random_domain_element(rng, WORD_SIZE),
               sigma.random_domain_element(rng, WORD_SIZE),
               sigma.random_domain_element(rng, WORD_SIZE))


def _validate_table_fast(sigma: "PhaseTableCocycle") -> ValidationResult:
    """Exhaustive table validation on integers modulo the common denominator."""
    G = sigma.group
    n = G.order
    den = sigma.den
    t = sigma.ints
    mul = G.table
    e = G.identity()
    checks = 0
    for g in range(n):
        if t[g][e] or t[e][g]:
            return ValidationResult(False, (g, e, e), checks, "exhaustive",
                                    "normalization fails")
    for g in range(n):
        tg = t[g]
        mg = mul[g]
        for h in range(n):
            gh = mg[h]
            base = tg[h]
            th = t[h]
            tgh = t[gh]
            mh = mul[h]
            for k in range(n):
                checks += 1
                if (base + tgh[k] - tg[mh[k]] - th[k]) % den:
                    return ValidationResult(False, (g, h, k), checks, "exhaustive",
                                            "cocycle identity fails", checks)
    return ValidationResult(True, None, checks, "exhaustive", "", checks)


def validate_cocycle(sigma: Cocycle, budget: ValidationBudget = ValidationBudget()) -> ValidationResult:
    """Normalization plus the cocycle identity, exhaustive on small finite groups."""
    G = sigma.group
    if isinstance(sigma, PhaseTableCocycle) and G.order <= EXHAUSTIVE_LIMIT:
        return _validate_table_fast(sigma)
    e = G.identity()
    dom = sigma.domain_elements()
    mode = ("exhaustive" if dom is not None and len(dom) <= EXHAUSTIVE_LIMIT
            else "sampled")
    checks = 0
    triples = 0
    seen_norm = set()
    for g, h, k in _triples(sigma, budget):
        triples += 1
        for x in (g, h, k):
            if x not in seen_norm:
                seen_norm.add(x)
                if not sigma.value(x, e).is_one() or not sigma.value(e, x).is_one():
                    return ValidationResult(False, (x, e, e), checks, mode,
                                            "normalization fails", triples)
        lhs = sigma.value(g, h) + sigma.value(G.mul(g, h), k)
        rhs = sigma.value(g, G.mul(h, k)) + sigma.value(h, k)
        checks += 1
        if lhs != rhs:
            return ValidationResult(False, (g, h, k), checks, mode,
                                    "cocycle identity fails", triples)
    return ValidationResult(True, None, checks, mode, "", triples)


def check_twist_identities(sigma: Cocycle, budget: ValidationBudget = ValidationBudget()) -> ValidationResult:
    """The four conjugation-twist identities; the commuting-pair ones are
    exercised on powers as well as on sampled commuting pairs."""
    G = sigma.group
    checks = 0
    triples = 0
    for r, s, t in _triples(sigma, budget):
        triples += 1
        sts = G.conj(s, t)
        lhs1 = conj_twist(sigma, G.mul(r, s), t)
        rhs1 = conj_twist(sigma, r, sts) + conj_twist(sigma, s, t)
        checks += 1
        if lhs1 != rhs1:
            return ValidationResult(False, (r, s, t), checks, "identity",
                                    "left-product identity fails", triples)
        lhs2 = conj_twist(sigma, r, G.mul(s, t))
        rhs2 = (-sigma.value(s, t) + sigma.value(G.conj(r, s), G.conj(r, t))
                + conj_twist(sigma, r, s) + conj_twist(sigma, r, t))
        checks += 1
        if lhs2 != rhs2:
            return ValidationResult(False, (r, s, t), checks, "identity",
                                    "right-product identity fails", triples)
        if G.commutes(s, t):
            lhs3 = conj_twist(sigma, G.mul(r, s), t)
            rhs3 = conj_twist(sigma, r, t) + conj_twist(sigma, s, t)
            checks += 1
            if lhs3 != rhs3:
                return ValidationResult(False, (r, s, t), checks, "identity",
                                        "commuting left-product identity fails", triples)
        if G.commutes(r, s) and G.commutes(r, t):
            lhs4 = conj_twist(sigma, r, G.mul(s, t))
            rhs4 = conj_twist(sigma, r, s) + conj_twist(sigma, r, t)
            checks += 1
            if lhs4 != rhs4:
                return ValidationResult(False, (r, s, t), checks, "identity",
                                        "commuting right-product identity fails", triples)
        # powers always commute: force coverage of the commuting-pair identities
        s2 = G.mul(s, s)
        lhs5 = conj_twist(sigma, r, G.mul(s, s2))
        if G.commutes(r, s):
            rhs5 = conj_twist(sigma, r, s) + conj_twist(sigma, r, s2)
            checks += 1
            if lhs5 != rhs5:
                return ValidationResult(False, (r, s, s2), checks, "identity",
                                        "power right-product identity fails", triples)
    return ValidationResult(True, None, checks, "identity", "", triples)
