"""Common surface of the group catalog.

Elements are plain immutable Python values in a variant-specific normal form
(int index, int tuple, reduced word, pair); the Group object owns the
operations.  Everything is pure and safe to share.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

Element = Any


class GroupError(Exception):
    pass


class Group:
    name: str = "group"

    # -- core operations -------------------------------------------------
    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def identity(self) -> Element:
        raise NotImplementedError

    def contains(self, x: Element) -> bool:
        """Well-formedness of x as a normal-form element of this group."""
        raise NotImplementedError

    def commutes(self, a: Element, b: Element) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def conj(self, g: Element, x: Element) -> Element:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def power(self, a: Element, n: int) -> Element:
        if n < 0:
            return self.power(self.inv(a), -n)
        acc = self.identity()
        base = a
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def check_element(self, x: Element) -> Element:
        if not self.contains(x):
            raise GroupError(f"{self.element_str(x)!r} is not an element of {self.name}")
        return x

    # -- structure --------------------------------------------------------
    def generators(self) -> tuple[Element, ...]:
        raise NotImplementedError

    @property
    def is_finite(self) -> bool:
        return False

    @property
    def order(self) -> int | None:
        return None

    @property
    def is_abelian(self) -> bool:
        raise NotImplementedError

    def elements(self) -> Sequence[Element]:
        raise GroupError(f"{self.name} is not enumerable")

    # -- presentation -----------------------------------------------------
    def element_key(self, x: Element):
        """Total-order key on normal forms; witnesses are minimal under it."""
        raise NotImplementedError

    def element_str(self, x: Element) -> str:
        return str(x)

    def parse_element(self, text: str) -> Element:
        raise GroupError(f"{self.name} has no element parser")

    def random_element(self, rng: random.Random, size: int = 6) -> Element:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


def int_key(c: int) -> tuple[int, int]:
    return (abs(c), 1 if c < 0 else 0)


def vector_key(v: Sequence[int]):
    return (sum(abs(c) for c in v), tuple(int_key(c) for c in v))
