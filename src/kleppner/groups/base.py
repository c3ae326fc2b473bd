"""Common surface of the group catalog.

Elements are plain immutable Python values in a variant-specific normal form
(int index, int tuple, reduced word, pair); the Group object owns the
operations.  Everything is pure and safe to share.

Each kind also answers the structure queries that ``structure.py`` exposes
(H-classes, centralizers, FC-centralizers, normality, catalog predicates,
intermediate subgroups); the Group base class gives the undecided answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional, Sequence

from .. import tribool as tb
from ..intlinalg import vector_key  # the element ordering of the lattice-like kinds
from ..tribool import TriBool

if TYPE_CHECKING:
    from .subgroups import Subgroup

Element = Any


class GroupError(Exception):
    pass


@dataclass(frozen=True)
class Classification:
    """Outcome of an orbit computation: explicit list, infinity certificate, or cap."""

    status: str  # "finite" | "infinite" | "unknown"
    elements: tuple = ()
    certificate: str = ""
    reason: str = ""

    @property
    def finite(self) -> bool:
        return self.status == "finite"

    @property
    def infinite(self) -> bool:
        return self.status == "infinite"

    @property
    def unknown(self) -> bool:
        return self.status == "unknown"

    @property
    def size(self) -> int | None:
        return len(self.elements) if self.finite else None

    def __repr__(self) -> str:
        if self.finite:
            return f"FiniteClass{{{', '.join(str(x) for x in self.elements)}}}"
        if self.infinite:
            return f"InfiniteClass({self.certificate})"
        return f"UnknownClass({self.reason})"


def finite_class(elements) -> Classification:
    return Classification("finite", tuple(elements))


def infinite_class(certificate: str) -> Classification:
    return Classification("infinite", certificate=certificate)


def unknown_class(reason: str) -> Classification:
    return Classification("unknown", reason=reason)


@dataclass(frozen=True)
class FCInfo:
    """FC_G(H) = elements with finite H-class, as far as the catalog knows it."""

    subgroup: Optional["Subgroup"]    # None = unknown
    central: Optional[bool] = None    # subgroup known to lie in the center of G?
    note: str = ""

    @property
    def known(self) -> bool:
        return self.subgroup is not None

    @property
    def trivial(self) -> Optional[bool]:
        if self.subgroup is None:
            return None
        return self.subgroup.is_trivial_subgroup()

    def finite_elements(self) -> Optional[list]:
        if self.subgroup is None:
            return None
        return self.subgroup.enumerate_elements()


@dataclass(frozen=True)
class LatticeEntry:
    label: str
    subgroup: Optional["Subgroup"]
    index_in_g: Any  # int | INFINITE | None


@dataclass(frozen=True)
class LatticeResult:
    status: str  # "ok" | "truncated" | "unknown"
    entries: tuple[LatticeEntry, ...]
    note: str = ""

    @property
    def complete(self) -> bool:
        return self.status == "ok"

    @property
    def count(self) -> Optional[int]:
        return len(self.entries) if self.status == "ok" else None


# the bounds of the conjugation search that the undecided default of
# h_conjugacy_class runs: at most ORBIT_CAP elements or DEPTH_CAP rounds
ORBIT_CAP = 10_000
DEPTH_CAP = 24

# the one-element group, of whatever kind, overrides its kind's facts
TRIVIAL_FACTS = {
    "prime": (tb.HOLDS, "trivial group"),
    "cstar_simple": (tb.FAILS, "trivial group: reported not C*-simple by convention "
                               "(no icc structure; the algebra is C)"),
}


class Group:
    name: str = "group"
    # "finite" (enumerate every H-class) or "abelian" (solve the phase-linear
    # system of a lattice) when the decision procedures decide every subgroup
    # of this kind exactly
    exact_kernel: str | None = None
    # the kind's catalog predicates, "prime", "fc_hypercentral" and
    # "cstar_simple", as (status, note); a missing predicate is unknown
    facts: dict[str, tuple[str, str]] = {}

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

    def closure(self, seed) -> set:
        """The subgroup generated by seed, as a set; it must be finite."""
        out = set(seed) | {self.identity()}
        frontier = list(out)
        while frontier:
            x = frontier.pop()
            for y in list(out):
                for z in (self.mul(x, y), self.mul(y, x), self.inv(x)):
                    if z not in out:
                        out.add(z)
                        frontier.append(z)
        return out

    def generating_subset(self, elements) -> tuple:
        """The elements that the earlier ones do not generate, in order: a
        generating set of the finite subgroup that elements generate."""
        gens: list = []
        reached = {self.identity()}
        for x in elements:
            if x not in reached:
                gens.append(x)
                reached = self.closure(reached | {x})
        return tuple(gens)

    def generated_subgroup(self, gens: tuple) -> "Subgroup":
        """The subgroup generated by gens (nontrivial, checked elements), in
        the most specific subgroup kind this group recognizes."""
        from .subgroups import GeneratedSubgroup
        return GeneratedSubgroup(self, gens)

    # -- presentation -----------------------------------------------------
    def element_key(self, x: Element):
        """Total-order key on normal forms; enumerated witnesses are least under it."""
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

    # -- structure queries ------------------------------------------------
    # Each kind overrides the queries it answers in closed form; these
    # defaults are the undecided answers.

    def h_conjugacy_class(self, g: Element, H) -> Classification:
        """{h g h^-1 : h in H} by a conjugation search over H's generators,
        unknown beyond ORBIT_CAP elements or DEPTH_CAP rounds."""
        gens = H.generators()
        conjugators = list(gens) + [self.inv(h) for h in gens]
        seen = {g}
        frontier = [g]
        depth = 0
        while frontier and depth < DEPTH_CAP:
            depth += 1
            new = []
            for x in frontier:
                for h in conjugators:
                    y = self.conj(h, x)
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > ORBIT_CAP:
                            return unknown_class(
                                f"conjugation orbit exceeded the search cap ({ORBIT_CAP})")
                        new.append(y)
            frontier = new
        if frontier:
            return unknown_class(f"conjugation search reached depth cap ({DEPTH_CAP})")
        return finite_class(sorted(seen, key=self.element_key))

    def centralizer_generators(self, H, g: Element) -> Optional[tuple]:
        """A finite generating set of C_H(g), or None."""
        return None

    def centralizer_of_subgroup(self, H):
        """C_G(H) as a described subgroup, or None."""
        return None

    def fc_centralizer(self, H) -> FCInfo:
        return FCInfo(None, note=f"no FC-centralizer rule for {self.name}")

    def is_normal(self, H) -> TriBool:
        """Conjugates of H's generators by the generators of G and their
        inverses must stay inside H."""
        gens, ggens = H.generators(), self.generators()
        for s in list(ggens) + [self.inv(s) for s in ggens]:
            for h in gens:
                c = H.contains(self.conj(s, h))
                if c is False:
                    return tb.fails((s, h), f"conjugate of {self.element_str(h)} by "
                                            f"{self.element_str(s)} leaves the subgroup")
                if c is None:
                    return tb.unknown("membership undecided during the conjugation check")
        return tb.holds("generator conjugates stay inside (both directions)")

    def fact(self, name: str) -> TriBool:
        """This group's answer to the catalog predicate name ("prime",
        "fc_hypercentral" or "cstar_simple")."""
        facts = {**self.facts, **TRIVIAL_FACTS} if self.order == 1 else self.facts
        if name not in facts:
            return tb.unknown(f"no {name} rule for {self.name}")
        status, note = facts[name]
        return TriBool(status, notes=(note,))

    def intermediate_subgroups(self, H, max_entries: int) -> LatticeResult:
        """The subgroups between H and G: every one ("ok"), the first
        max_entries of a recognized infinite family ("truncated"), or unknown."""
        return LatticeResult("unknown", (), f"no quotient recognition rule for {self.name}")

    def centralizer_lattice(self, cent):
        """(dim, embed, always_regular) when the centralizer cent of a
        subgroup is a lattice the twisted-centralizer solver can walk: embed
        maps Z^dim into cent, and cent is generated by its image together
        with always_regular, elements that every twist character kills."""
        asg = cent.as_group()
        if asg is not None and asg.group.exact_kernel == "abelian":
            return asg.group.rank, asg.embed, ()
        return None

