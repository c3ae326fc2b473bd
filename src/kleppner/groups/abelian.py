"""Free abelian groups Z^n; elements are int tuples."""

from __future__ import annotations

import random
import re

from .base import Group, GroupError, vector_key


class FreeAbelian(Group):
    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise GroupError("rank must be >= 0")
        self.rank = rank
        self.name = f"Z^{rank}"

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def identity(self):
        return (0,) * self.rank

    def contains(self, x) -> bool:
        return (isinstance(x, tuple) and len(x) == self.rank
                and all(isinstance(c, int) for c in x))

    def commutes(self, a, b) -> bool:
        return True

    @property
    def is_abelian(self) -> bool:
        return True

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def order(self) -> int | None:
        return 1 if self.rank == 0 else None

    def elements(self):
        if self.rank == 0:
            return [()]
        raise GroupError(f"{self.name} is not enumerable")

    def generators(self):
        return tuple(tuple(1 if j == i else 0 for j in range(self.rank))
                     for i in range(self.rank))

    def element_key(self, x):
        return vector_key(x)

    def element_str(self, x) -> str:
        return "(" + ", ".join(str(c) for c in x) + ")"

    def parse_element(self, text: str):
        vec = parse_int_vector(text, self.rank)
        return vec

    def random_element(self, rng: random.Random, size: int = 6):
        return tuple(rng.randint(-size, size) for _ in range(self.rank))

    def describe(self) -> str:
        return f"free abelian group Z^{self.rank}"


def parse_int_vector(text: str, rank: int) -> tuple[int, ...]:
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    parts = [p for p in re.split(r"[,\s]+", t.strip()) if p]
    if not all(re.fullmatch(r"[-+]?[0-9]+", p) for p in parts):
        raise GroupError(f"cannot parse integer vector from {text!r}")
    if len(parts) != rank:
        raise GroupError(f"expected {rank} coordinates in {text!r}")
    return tuple(int(p) for p in parts)
