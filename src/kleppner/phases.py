"""Exact circle-group arithmetic.

A Phase stores the exponent of exp(2*pi*i*p) where p is a rational plus a
Q-linear combination of formal symbols ("irrationals"), reduced mod 1.  The
symbols of a basis are declared Q-linearly independent together with 1, so
equality with 1 is decidable by inspection: rational part 0 and no symbol
coefficients.  Dependent parameters (e.g. a theta_1 lying in span{1, theta_3})
are expressed by the caller as phases over a smaller basis; no relations are
ever inferred.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

from .intlinalg import RowLattice

Rat = Union[int, Fraction, str]


class BasisMismatchError(ValueError):
    """Raised when phases over different symbol bases are combined."""


class PhaseParseError(ValueError):
    pass


_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


class IrrationalBasis:
    """Ordered, duplicate-free list of formal symbol names (may be empty)."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[str] = ()) -> None:
        syms = tuple(symbols)
        seen = set()
        for s in syms:
            if not _SYMBOL_RE.match(s):
                raise ValueError(f"bad symbol name {s!r}")
            if s in seen:
                raise ValueError(f"duplicate symbol {s!r}")
            seen.add(s)
        self.symbols = syms

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IrrationalBasis) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"IrrationalBasis({list(self.symbols)!r})"

    def zero(self) -> "Phase":
        return Phase(0, {}, self)

    def rational(self, value: Rat) -> "Phase":
        return Phase(value, {}, self)

    def symbol(self, name: str, coeff: Rat = 1) -> "Phase":
        if name not in self:
            raise ValueError(f"symbol {name!r} not in basis {self.symbols}")
        return Phase(0, {name: coeff}, self)

    def parse(self, text: str) -> "Phase":
        return parse_phase(text, self)


EMPTY_BASIS = IrrationalBasis(())


class Phase:
    """Value of the circle group, written additively and reduced mod 1.

    Immutable.  Stored as one positive denominator ``den`` and an integer
    tuple ``nums``, the rational slot first and then one slot per basis
    symbol: the exponent is (nums[0] + sum_i nums[i] * symbol_i) / den.  The
    tuple is fully reduced (nums[0] in [0, den) and gcd(den, *nums) == 1), so
    equal values over one basis have equal (den, nums).  ``rational`` (in
    [0, 1)) and ``coeffs`` (the nonzero symbol coefficients, sorted by
    symbol) are read off on demand; equality and the hash are those of the
    pair (rational, coeffs), so phases over different bases compare by value.
    """

    __slots__ = ("basis", "den", "nums", "_hash")

    def __init__(self, rational: Rat = 0, coeffs: Mapping[str, Rat] | None = None,
                 basis: IrrationalBasis = EMPTY_BASIS) -> None:
        syms = basis.symbols
        vals = [_exact(rational)] + [Fraction(0)] * len(syms)
        if coeffs:
            for sym in sorted(coeffs):
                if sym not in basis:
                    raise ValueError(f"symbol {sym!r} not in basis {basis.symbols}")
                vals[syms.index(sym) + 1] = _exact(coeffs[sym])
        den = lcm(*(v.denominator for v in vals))
        self.basis = basis
        self.den, self.nums = _reduced(den, [v.numerator * (den // v.denominator) for v in vals])

    @property
    def rational(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def coeffs(self) -> tuple[tuple[str, Fraction], ...]:
        den = self.den
        return tuple((sym, Fraction(c, den))
                     for sym, c in sorted(zip(self.basis.symbols, self.nums[1:])) if c)

    def is_one(self) -> bool:
        """True iff the represented circle value equals 1 (exponent is integral)."""
        return not any(self.nums)

    def coeff(self, symbol: str) -> Fraction:
        syms = self.basis.symbols
        if symbol in syms:
            return Fraction(self.nums[syms.index(symbol) + 1], self.den)
        return Fraction(0)

    def _require_same_basis(self, other: "Phase") -> None:
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError(
                f"phases over different bases: {self.basis.symbols} vs {other.basis.symbols}")

    def _combine(self, other: "Phase", sign: int) -> "Phase":
        """self + sign * other, over the least common denominator."""
        self._require_same_basis(other)
        a, b = self.den, other.den
        g = gcd(a, b)
        fa, fb = b // g, sign * (a // g)
        return _make(self.basis, a * fa, [x * fa + y * fb for x, y in zip(self.nums, other.nums)])

    def __add__(self, other: "Phase") -> "Phase":
        if not isinstance(other, Phase):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self) -> "Phase":
        return _make(self.basis, self.den, [-x for x in self.nums])

    def __sub__(self, other: "Phase") -> "Phase":
        if not isinstance(other, Phase):
            return NotImplemented
        return self._combine(other, -1)

    def conjugate(self) -> "Phase":
        """Exponent of the complex conjugate circle value."""
        return -self

    def with_basis(self, basis: "IrrationalBasis") -> "Phase":
        """The same value over a basis containing all used symbols."""
        if basis == self.basis:
            return self
        nums = [self.nums[0]] + [0] * len(basis.symbols)
        for sym, c in sorted(zip(self.basis.symbols, self.nums[1:])):
            if c:
                if sym not in basis:
                    raise ValueError(f"symbol {sym!r} not in basis {basis.symbols}")
                nums[basis.symbols.index(sym) + 1] = c
        return _make(basis, self.den, nums)

    def __mul__(self, scalar: Rat) -> "Phase":
        if isinstance(scalar, int):
            return _make(self.basis, self.den, [x * scalar for x in self.nums])
        if isinstance(scalar, Phase):
            raise TypeError("phases multiply circle values via +; use p + q")
        k = _exact(scalar)
        return _make(self.basis, self.den * k.denominator, [x * k.numerator for x in self.nums])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Phase):
            return False
        if self.basis is other.basis or self.basis == other.basis:
            return self.den == other.den and self.nums == other.nums
        return self.rational == other.rational and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.rational, self.coeffs))
            return self._hash

    def __str__(self) -> str:
        rational, coeffs = self.rational, self.coeffs
        parts = []
        if rational != 0 or not coeffs:
            parts.append(str(rational))
        for sym, c in coeffs:
            if c == 1:
                parts.append(sym)
            else:
                parts.append(f"({c}){sym}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Phase({self})"


def _exact(value: Rat) -> Fraction:
    """value as a Fraction; a float is refused, since it is not an exact rational."""
    if isinstance(value, float):
        raise TypeError(f"phases take exact rationals, not the float {value!r}")
    return Fraction(value)


def _reduced(den: int, nums: list[int]) -> tuple[int, tuple[int, ...]]:
    """(den, nums) in lowest terms with the rational slot taken mod 1."""
    nums[0] %= den
    g = gcd(den, *nums)
    if g == 1:
        return den, tuple(nums)
    return den // g, tuple([x // g for x in nums])


def _make(basis: IrrationalBasis, den: int, nums: list[int]) -> Phase:
    """The phase (nums[0] + sum_i nums[i] * symbol_i) / den over ``basis``, for any
    integer list ``nums`` of length 1 + len(basis.symbols) and den > 0, built
    without a Fraction."""
    p = object.__new__(Phase)
    p.basis = basis
    p.den, p.nums = _reduced(den, nums)
    return p


_TERM_RE = re.compile(
    r"^\(?(?P<coef>[+-]?\d+(?:/\d+)?)\)?\s*(?P<sym>[A-Za-z_][A-Za-z_0-9]*)?$")


def parse_phase(text: str, basis: IrrationalBasis = EMPTY_BASIS,
                substitutions: Mapping[str, "Phase"] | None = None) -> Phase:
    """Parse "a/b + (c/d)sym + ..." (signs, bare symbols and bare rationals allowed).

    Names in ``substitutions`` resolve to previously defined phases instead of
    basis symbols (used for dependent parameters).
    """
    s = text.strip()
    if not s:
        raise PhaseParseError("empty phase string")
    # split into signed terms at +/- outside parentheses
    chunks: list[str] = []
    depth = 0
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch in "+-" and depth == 0 and cur.strip():
            chunks.append(cur.strip())
            cur = "" if ch == "+" else "-"
            continue
        cur += ch
    if cur.strip():
        chunks.append(cur.strip())
    out = Phase(0, {}, basis)
    for chunk in chunks:
        if not chunk or chunk == "+":
            continue
        neg = chunk.startswith("-")
        body = chunk[1:].strip() if neg else chunk
        if not body:
            raise PhaseParseError(f"dangling sign in {text!r}")
        if _SYMBOL_RE.match(body):
            sym, coef = body, Fraction(1)
        else:
            m = _TERM_RE.match(body)
            if not m:
                raise PhaseParseError(f"cannot parse term {chunk!r} in {text!r}")
            try:
                coef = Fraction(m.group("coef"))
            except ZeroDivisionError:
                raise PhaseParseError(f"zero denominator in {text!r}") from None
            sym = m.group("sym")
        if neg:
            coef = -coef
        if sym is None:
            out = out + Phase(coef, {}, basis)
        elif sym in basis:
            out = out + Phase(0, {sym: coef}, basis)
        elif substitutions and sym in substitutions:
            out = out + substitutions[sym].with_basis(basis) * coef
        else:
            raise PhaseParseError(f"symbol {sym!r} not declared in basis {basis.symbols}")
    return out


def qdim(values: Sequence[Phase]) -> int:
    """Dimension over Q of span({1} union values), the values read as real exponents.

    Rational parts fall into the span of 1, so the answer is 1 plus the rank
    of the symbol-coefficient matrix; scaling a value by its denominator
    leaves that rank alone, so the rank is read off the integer slots.
    """
    vals = list(values)
    if not vals:
        return 1
    basis = vals[0].basis
    for v in vals[1:]:
        if v.basis != basis:
            raise BasisMismatchError("qdim needs all values over one basis")
    return 1 + RowLattice(len(basis.symbols), (v.nums[1:] for v in vals)).rank
