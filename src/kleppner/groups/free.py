"""Free groups on k >= 2 generators with reduced-word normal forms.

A word is a tuple of (letter_index, exponent) pairs with nonzero exponents and
no two consecutive equal letters.  Centralizers of nontrivial elements are
cyclic, generated by the maximal root, which is computed exactly by cyclic
reduction plus minimal-period extraction.
"""

from __future__ import annotations

import itertools
import re
import string
from math import gcd

from .abelian import FreeAbelian
from .base import Element, Group, GroupError
from .subgroups import INFINITE, AsGroup, Infinite, Subgroup, subgroup_kind

Word = tuple[tuple[int, int], ...]


def _merge(word: list[tuple[int, int]], letter: int, exp: int) -> None:
    if exp == 0:
        return
    if word and word[-1][0] == letter:
        s = word[-1][1] + exp
        if s == 0:
            word.pop()
        else:
            word[-1] = (letter, s)
    else:
        word.append((letter, exp))


class FreeGroup(Group):
    # a finite class of x makes C_H(x) of finite index in H; centralizers
    # are cyclic, so H is cyclic and x commutes with it
    torsion_free = free = fc_is_centralizer = True

    def __init__(self, rank: int, letters: tuple[str, ...] | None = None) -> None:
        if rank < 2:
            raise GroupError("free group catalog requires rank >= 2")
        if letters is None:
            if rank > 26:
                raise GroupError("at most 26 generators")
            letters = tuple(string.ascii_lowercase[:rank])
        if len(letters) != rank or len(set(letters)) != rank:
            raise GroupError("need distinct letters, one per generator")
        self.rank = rank
        self.letters = letters
        self.name = f"F_{rank}"

    def mul(self, a: Word, b: Word) -> Word:
        out = list(a)
        for letter, exp in b:
            _merge(out, letter, exp)
        return tuple(out)

    def inv(self, a: Word) -> Word:
        return tuple((letter, -exp) for letter, exp in reversed(a))

    def identity(self) -> Word:
        return ()

    def contains(self, x) -> bool:
        if not isinstance(x, tuple):
            return False
        prev = None
        for item in x:
            if (not isinstance(item, tuple) or len(item) != 2
                    or not isinstance(item[0], int) or not isinstance(item[1], int)):
                return False
            letter, exp = item
            if not (0 <= letter < self.rank) or exp == 0 or letter == prev:
                return False
            prev = letter
        return True

    @property
    def is_abelian(self) -> bool:
        return False

    def generators(self) -> tuple[Word, ...]:
        return tuple(((i, 1),) for i in range(self.rank))

    def gen(self, name: str) -> Word:
        return ((self.letters.index(name), 1),)

    # -- word structure -----------------------------------------------------
    def flatten(self, w: Word) -> list[int]:
        """Signed single letters: letter i as i+1, inverse as -(i+1)."""
        out: list[int] = []
        for letter, exp in w:
            tok = letter + 1 if exp > 0 else -(letter + 1)
            out.extend([tok] * abs(exp))
        return out

    def from_flat(self, flat: list[int]) -> Word:
        out: list[tuple[int, int]] = []
        for tok in flat:
            _merge(out, abs(tok) - 1, 1 if tok > 0 else -1)
        return tuple(out)

    def cyclic_reduce(self, w: Word) -> tuple[Word, Word]:
        """Return (u, c) with w = u c u^-1 and c cyclically reduced."""
        flat = self.flatten(w)
        i, j = 0, len(flat)
        while j - i >= 2 and flat[i] == -flat[j - 1]:
            i += 1
            j -= 1
        u = self.from_flat(flat[:i])
        c = self.from_flat(flat[i:j])
        return u, c

    def primitive_root(self, w: Word) -> tuple[Word, int]:
        """Maximal root: (r, n) with r^n = w, n maximal, r primitive."""
        if not w:
            raise GroupError("identity has no primitive root")
        u, c = self.cyclic_reduce(w)
        flat = self.flatten(c)
        length = len(flat)
        for d in range(1, length + 1):
            if length % d:
                continue
            if all(flat[i] == flat[i % d] for i in range(length)):
                root_c = self.from_flat(flat[:d])
                root = self.mul(self.mul(u, root_c), self.inv(u))
                return root, length // d
        raise AssertionError("unreachable")

    def centralizer_root(self, w: Word) -> Word:
        """Generator of the (cyclic) centralizer of a nontrivial w."""
        root, _ = self.primitive_root(w)
        return root

    def power_of(self, x: Word, w: Word) -> int | None:
        """k with x == w^k, if any (w nontrivial): x = r^m and w = r^n for
        one primitive root r, up to its inversion, with n | m."""
        if not x:
            return 0
        (r, m), (s, n) = self.primitive_root(x), self.primitive_root(w)
        if s == self.inv(r):
            m = -m
        elif s != r:
            return None
        return m // n if m % n == 0 else None

    # -- presentation ---------------------------------------------------------
    def element_key(self, x: Word):
        flat = self.flatten(x)
        return (len(flat), tuple((abs(t), 1 if t < 0 else 0) for t in flat))

    def element_str(self, x: Word) -> str:
        if not x:
            return "e"
        bits = []
        for letter, exp in x:
            bits.append(self.letters[letter] + (f"^{exp}" if exp != 1 else ""))
        return "".join(bits)

    _TOKEN = re.compile(r"([A-Za-z])(?:\^(-?\d+))?")

    def parse_element(self, text: str) -> Word:
        t = text.strip().replace(" ", "").replace("*", "")
        if t in ("e", "1", ""):
            return ()
        pos = 0
        out: list[tuple[int, int]] = []
        while pos < len(t):
            m = self._TOKEN.match(t, pos)
            if not m:
                raise GroupError(f"cannot parse word {text!r} at position {pos}")
            letter = m.group(1)
            if letter not in self.letters:
                raise GroupError(f"unknown generator {letter!r} in {text!r}")
            exp = int(m.group(2)) if m.group(2) else 1
            _merge(out, self.letters.index(letter), exp)
            pos = m.end()
        return tuple(out)

    def describe(self) -> str:
        return f"free group F_{self.rank} on {', '.join(self.letters)}"

    # -- structure queries: centralizers of nontrivial elements are cyclic --
    # A subgroup is read off its generators: none (trivial), pairwise
    # commuting ones (cyclic: powers of one primitive root), or a
    # noncommuting pair (noncyclic).
    def _common_root(self, gens) -> Word | None:
        """The primitive root of the nontrivial words gens when they commute
        pairwise, so that they generate a cyclic subgroup; None otherwise."""
        if all(self.commutes(a, b) for a, b in itertools.combinations(gens, 2)):
            return self.centralizer_root(gens[0])
        return None

    def generated_subgroup(self, gens):
        """Commuting generators share a primitive root r and generate the
        cyclic subgroup <r^d>, d the gcd of their exponents; other generators
        generate a noncyclic subgroup."""
        root = self._common_root(gens)
        if root is None:
            return super().generated_subgroup(gens)
        d = 0
        for g in gens:
            d = gcd(d, self.power_of(g, root))
        return FreeCyclic(self, self.power(root, d))

    def centralizer_generators(self, H, g):
        gens = tuple(w for w in H.generators() if w)
        if g == self.identity() or not gens:
            return gens
        root = self._common_root(gens)
        if root is not None:
            return gens if self.commutes(root, g) else ()
        return (self.centralizer_root(g),) if H.is_full() else None

    def centralizer_of_subgroup(self, H):
        gens = tuple(w for w in H.generators() if w)
        if not gens:
            return Subgroup.full(self)
        root = self._common_root(gens)
        if root is None:
            # two noncommuting elements lie in distinct maximal cyclic
            # subgroups, and so do their centralizers
            return Subgroup.trivial(self)
        return Subgroup.generated(self, [root])


@subgroup_kind
class FreeCyclic(Subgroup):
    word: tuple  # nontrivial reduced word; the subgroup is <word>

    kind = "cyclic"

    def describe_desc(self) -> str:
        return f"cyclic subgroup <{self.parent.element_str(self.word)}>"

    def _validate(self) -> None:
        if not isinstance(self.parent, FreeGroup) or not self.word:
            raise GroupError("cyclic word description needs a free parent and nontrivial word")

    def _contains(self, x: Element) -> bool:
        return self.parent.power_of(x, self.word) is not None

    def generators(self) -> tuple[Element, ...]:
        return (self.word,)

    def index(self) -> Infinite:
        return INFINITE  # proper finite-index subgroups of F_k are never cyclic

    def as_group(self) -> AsGroup:
        parent, w = self.parent, self.word
        return AsGroup(FreeAbelian(1), lambda c: parent.power(w, c[0]))
