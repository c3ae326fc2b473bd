"""Finite groups given by explicit multiplication tables, plus named builtins.

Tables are validated on load: Latin-square property, identity, inverses, and
associativity (exactly, by Light's test on a generating set).  Builtins carry a
coordinate map onto their abelianization, used to synthesize root-of-unity
two-cocycles.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Callable, Sequence

from .. import tribool as tb
from .base import FCInfo, Group, GroupError, LatticeEntry, LatticeResult, finite_class
from .subgroups import Subgroup

Table = tuple[tuple[int, ...], ...]


class FiniteTable(Group):
    exact_kernel = "finite"
    virtually_nilpotent = amenable = True

    def __init__(self, table: Sequence[Sequence[int]], names: Sequence[str] | None = None,
                 name: str = "finite",
                 ab_coords: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None = None) -> None:
        # from lists, not generators, as in PhaseTableCocycle._set_ints
        self.table: Table = tuple([tuple([int(x) for x in row]) for row in table])
        self.n = len(self.table)
        self.name = name
        if names is None:
            names = [str(i) for i in range(self.n)]
        self.names = tuple(names)
        if len(self.names) != self.n:
            raise GroupError("names/table size mismatch")
        # ab_coords: per-element coordinate tuples plus their moduli; the map
        # element -> coords must be a homomorphism onto prod Z_{m_i}
        self.ab_coords = ab_coords
        self._validate()
        self.e = self._find_identity()
        self.inv_table = self._build_inverses()
        self._h_classes: dict[tuple[int, ...], tuple[int, tuple[tuple[int, ...], ...]]] = {}

    # -- validation -------------------------------------------------------
    def _validate(self) -> None:
        n = self.n
        if n == 0:
            raise GroupError("empty table")
        idx = set(range(n))
        for row in self.table:
            if len(row) != n or set(row) != idx:
                raise GroupError("table rows must be permutations of 0..n-1")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != idx:
                raise GroupError("table columns must be permutations of 0..n-1")
        # Light's test: the s with (x s) y = x (s y) for all x, y are closed
        # under products, as (x st) y = ((x s) t) y = (x s)(t y) = x (s (t y))
        # = x (st y); so the s of a set that generates the table under
        # products alone decide associativity, in |S| n^2 lookups
        t = self.table
        for s in _product_generators(t):
            ts = t[s]
            for x in range(n):
                tx, txs = t[x], t[t[x][s]]
                for y in range(n):
                    if txs[y] != tx[ts[y]]:
                        raise GroupError(f"not associative at ({x},{s},{y})")

    def _find_identity(self) -> int:
        for a in range(self.n):
            if all(self.table[a][b] == b and self.table[b][a] == b for b in range(self.n)):
                return a
        raise GroupError("no identity element")

    def _build_inverses(self) -> tuple[int, ...]:
        inv = [-1] * self.n
        for a in range(self.n):
            for b in range(self.n):
                if self.table[a][b] == self.e:
                    inv[a] = b
                    break
            if inv[a] < 0:
                raise GroupError(f"element {a} has no inverse")
        return tuple(inv)

    # -- Group interface ----------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inv_table[a]

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a][b] == self.table[b][a]

    def conj(self, g: int, x: int) -> int:
        return self.table[self.table[g][x]][self.inv_table[g]]

    def identity(self) -> int:
        return self.e

    def contains(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.n

    @property
    def is_finite(self) -> bool:
        return True

    @property
    def order(self) -> int:
        return self.n

    @property
    def is_abelian(self) -> bool:
        t = self.table
        return all(t[a][b] == t[b][a] for a in range(self.n) for b in range(a))

    def elements(self) -> range:
        return range(self.n)

    def generators(self) -> tuple[int, ...]:
        return self._generators

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        return self.generating_subset(range(self.n))

    def closure(self, seed) -> set[int]:
        # Group.closure read straight off the tables: the generic mul and inv
        # calls cost the sweep's set-up time
        out = set(seed) | {self.e}
        frontier = list(out)
        while frontier:
            x = frontier.pop()
            for y in list(out):
                for z in (self.table[x][y], self.table[y][x], self.inv_table[x]):
                    if z not in out:
                        out.add(z)
                        frontier.append(z)
        return out

    def check_closed(self, s: set) -> None:
        # Group.check_closed read off the table rows, each element checked
        # before any row is read at it
        t, inv = self.table, self.inv_table
        for a in s:
            self.check_element(a)
        for a in s:
            if inv[a] not in s:
                raise GroupError(f"finite subset not closed under inverse at {self.element_str(a)}")
            if not s.issuperset([t[a][b] for b in s]):
                raise GroupError("finite subset not closed under multiplication")

    def h_classes(self, helems) -> tuple[tuple[int, ...], ...]:
        return self.h_entry(helems)[1]

    def h_entry(self, helems) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """H's element mask sum(1 << h) and its classes {h g h^-1 : h in H},
        each sorted, in the order of their least elements; helems lists H.

        Held on the table per tuple(helems), so every caller on a fixed
        (G, H) shares one computation, whatever object describes H; the
        classes are tuples, so no caller can change a held answer."""
        key = tuple(helems)
        entry = self._h_classes.get(key)
        if entry is None:
            t, inv = self.table, self.inv_table
            seen: set[int] = set()
            found = []
            for g in range(self.n):
                if g in seen:
                    continue
                orbit = tuple(sorted({t[t[h][g]][inv[h]] for h in key}))
                seen.update(orbit)
                found.append(orbit)
            entry = self._h_classes[key] = (sum(1 << h for h in key), tuple(found))
        return entry

    def generated_subgroup(self, gens):
        return Subgroup.finite_subset(self, self.closure(gens))

    def all_subgroups(self) -> list[frozenset[int]]:
        """Every subgroup, as frozensets of element indices (deterministic order).

        Each subgroup s found is extended by one x per left coset x s other
        than s itself: <s, x y> = <s, x> for y in s, so the rest of the coset
        adds nothing."""
        found = {frozenset([self.e])}
        frontier = [frozenset([self.e])]
        while frontier:
            s = frontier.pop()
            covered = set(s)
            for x in range(self.n):
                if x in covered:
                    continue
                tx = self.table[x]
                covered.update(tx[y] for y in s)
                bigger = frozenset(self.closure(s | {x}))
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def element_key(self, x: int):
        return x

    def element_str(self, x: int) -> str:
        return self.names[x]

    def parse_element(self, text: str) -> int:
        t = text.strip()
        if t in self.names:
            return self.names.index(t)
        try:
            i = int(t)
        except ValueError:
            raise GroupError(f"unknown element {text!r} of {self.name}") from None
        if 0 <= i < self.n:
            return i
        raise GroupError(f"element index {i} out of range for {self.name}")

    def describe(self) -> str:
        return f"{self.name} (finite, order {self.n})"

    # -- structure queries: every subgroup is enumerated -------------------
    def h_conjugacy_class(self, g, H):
        return finite_class(sorted({self.conj(h, g) for h in H.enumerate_elements()}))

    def centralizer_generators(self, H, g):
        cents = [h for h in H.enumerate_elements() if self.commutes(h, g)]
        return Subgroup.finite_subset(self, cents).generators()

    def centralizer_of_subgroup(self, H):
        elems = H.enumerate_elements()
        cents = [x for x in self.elements() if all(self.commutes(x, h) for h in elems)]
        return Subgroup.finite_subset(self, cents)

    def fc_centralizer(self, H):
        return FCInfo(Subgroup.full(self), central=self.is_abelian)

    def is_normal(self, H):
        elems = H.enumerate_elements()
        eset = set(elems)
        for s in self.elements():
            for h in elems:
                if self.conj(s, h) not in eset:
                    return tb.fails((s, h), "explicit conjugate escapes the subgroup")
        return tb.holds("checked all conjugations in the table")

    def intermediate_subgroups(self, H, max_entries):
        helems = set(H.enumerate_elements())
        entries = [LatticeEntry(f"order-{len(s)} subgroup", Subgroup.finite_subset(self, s),
                                self.n // len(s))
                   for s in self.all_subgroups() if helems <= s]
        entries.sort(key=lambda e: (-e.index_in_g, e.label))
        return LatticeResult("ok", tuple(entries))


def _product_generators(t: Table) -> list[int]:
    """Each element, in order, that products of the earlier picks do not
    reach: a set generating the table under its products alone, with no
    inverses assumed, found in n^2 lookups."""
    reached, order, picked = [False] * len(t), [], []
    for x in range(len(t)):
        if reached[x]:
            continue
        picked.append(x)
        reached[x] = True
        order.append(x)
        frontier = [x]
        while frontier:
            a = frontier.pop()
            for b in list(order):
                for c in (t[a][b], t[b][a]):
                    if not reached[c]:
                        reached[c] = True
                        order.append(c)
                        frontier.append(c)
    return picked


# -- builtin constructions ---------------------------------------------------

def _from_func(elems: list, mult: Callable, names: list[str], name: str,
               ab_coords=None) -> FiniteTable:
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[mult(a, b)] for b in elems] for a in elems]
    return FiniteTable(table, names, name, ab_coords=ab_coords)


def cyclic(n: int) -> FiniteTable:
    if n < 1:
        raise GroupError("cyclic group needs n >= 1")
    elems = list(range(n))
    coords = (tuple((i,) for i in range(n)), (n,))
    return _from_func(elems, lambda a, b: (a + b) % n, [str(i) for i in elems],
                      f"Z_{n}", ab_coords=coords)


def cyclic_product(m: int, n: int) -> FiniteTable:
    if m < 1 or n < 1:
        raise GroupError("cyclic product needs m,n >= 1")
    elems = [(a, b) for a in range(m) for b in range(n)]
    coords = (tuple((a, b) for a, b in elems), (m, n))
    return _from_func(elems, lambda x, y: ((x[0] + y[0]) % m, (x[1] + y[1]) % n),
                      [f"({a},{b})" for a, b in elems], f"Z_{m} x Z_{n}", ab_coords=coords)


def dihedral(n: int) -> FiniteTable:
    """D_n of order 2n: rotations r^i and reflections r^i s."""
    if n < 1:
        raise GroupError("dihedral group needs n >= 1")
    elems = [(i, f) for f in (0, 1) for i in range(n)]

    def mult(x, y):
        i, f = x
        j, g = y
        # (r^i s^f)(r^j s^g): s r^j = r^-j s
        return ((i + (j if f == 0 else -j)) % n, (f + g) % 2)

    names = [f"r{i}" if f == 0 else f"s{i}" for (i, f) in elems]
    if n % 2 == 0:
        coords = (tuple((i % 2, f) for (i, f) in elems), (2, 2))
    else:
        coords = (tuple((f,) for (_i, f) in elems), (2,))
    return _from_func(elems, mult, names, f"D_{n}", ab_coords=coords)


def quaternion8() -> FiniteTable:
    """Q8 = {+-1, +-i, +-j, +-k}."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # multiplication on (sign, axis) with axes 1,i,j,k
    def split(u):
        return (-1 if u.startswith("-") else 1, u.lstrip("-"))

    basic = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
             ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
             ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
             ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
             ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")}

    def mult(u, v):
        su, au = split(u)
        sv, av = split(v)
        s, a = basic[(au, av)]
        s *= su * sv
        return ("" if s > 0 else "-") + a

    ij_part = {"1": (0, 0), "i": (1, 0), "j": (0, 1), "k": (1, 1)}
    coords = (tuple(ij_part[u.lstrip("-")] for u in units), (2, 2))
    return _from_func(units, mult, units, "Q8", ab_coords=coords)


def symmetric(n: int) -> FiniteTable:
    if n < 1 or n > 5:
        raise GroupError("symmetric group builtin supports 1 <= n <= 5")
    perms = sorted(itertools.permutations(range(n)))

    def mult(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    def sign(p):
        s = 0
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    s ^= 1
        return s

    names = ["(" + " ".join(str(x) for x in p) + ")" for p in perms]
    coords = (tuple((sign(p),) for p in perms), (2,))
    return _from_func(perms, mult, names, f"S_{n}", ab_coords=coords)


_NAME_RE = re.compile(r"^\s*(Z_(\d+)\s*x\s*Z_(\d+)|Z_(\d+)|D_(\d+)|Q8|S_(\d+))\s*$")


def from_name(name: str) -> FiniteTable:
    """Builtin lookup: "Z_n", "Z_m x Z_n", "D_n", "Q8", "S_3", "S_4"."""
    m = _NAME_RE.match(name)
    if not m:
        raise GroupError(f"unknown builtin group {name!r}")
    if m.group(2):
        return cyclic_product(int(m.group(2)), int(m.group(3)))
    if m.group(4):
        return cyclic(int(m.group(4)))
    if m.group(5):
        return dihedral(int(m.group(5)))
    if m.group(6):
        return symmetric(int(m.group(6)))
    return quaternion8()
