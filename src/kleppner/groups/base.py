"""Common surface of the group catalog.

Elements are plain immutable Python values in a variant-specific normal form
(int index, int tuple, reduced word, pair); the Group object owns the
operations.  Everything is pure and safe to share.

Each kind also answers the structure queries that ``structure.py`` exposes
(H-classes, centralizers, FC-centralizers, normality, intermediate
subgroups); the Group base class gives the undecided answers, apart from
the generator check for normality.  The catalog predicates of every subgroup
follow from the classes its kind declares.
"""

from __future__ import annotations

import itertools
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
    """Outcome of an orbit computation: explicit list, infinity certificate, or
    unknown with a reason."""

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


# The rules for the catalog predicates of a subgroup H, in order: the first
# that answers the predicate and whose condition holds decides it.  A
# condition is a class that every subgroup of the parent inherits or a fact
# of H's shape, computed only when no rule before it decides.
AMENABLE = "nontrivial amenable groups are not C*-simple (Breuillard-Kalantar-Kennedy-Ozawa)"
PREDICATE_RULES = (
    ("trivial", {"prime": (tb.HOLDS, "trivial group"),
                 "fc_hypercentral": (tb.HOLDS, "trivial group"),
                 "cstar_simple": (tb.FAILS, "trivial group: not C*-simple by convention")}),
    ("torsion_free", {"prime": (tb.HOLDS, "torsion-free: no nontrivial finite subgroup")}),
    ("finite", {"prime": (tb.FAILS, "a nontrivial finite group is its own finite normal "
                                    "subgroup")}),
    ("virtually_nilpotent", {"fc_hypercentral": (tb.HOLDS, "f.g. virtually nilpotent"),
                             "cstar_simple": (tb.FAILS, AMENABLE)}),
    ("finite", {"fc_hypercentral": (tb.HOLDS, "finite"), "cstar_simple": (tb.FAILS, AMENABLE)}),
    ("abelian", {"fc_hypercentral": (tb.HOLDS, "abelian"), "cstar_simple": (tb.FAILS, AMENABLE)}),
    ("amenable", {"cstar_simple": (tb.FAILS, AMENABLE)}),
    # reached only by a nonabelian H, which is free of rank >= 2
    ("free", {"fc_hypercentral": (tb.FAILS, "free of rank >= 2, so its own icc quotient"),
              "cstar_simple": (tb.HOLDS, "free groups of rank >= 2 are C*-simple (Powers)")}),
)


class Group:
    name: str = "group"
    # "finite" (enumerate every H-class) or "abelian" (solve the phase-linear
    # system of a lattice) when the decision procedures decide every subgroup
    # of this kind exactly
    exact_kernel: str | None = None
    # the classes that every subgroup inherits (virtually nilpotent includes
    # finitely generated); they decide the catalog predicates
    torsion_free = virtually_nilpotent = amenable = free = False

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
        # repr, not element_str: element_str may index a table by x
        if not self.contains(x):
            raise GroupError(f"{x!r} is not an element of {self.name}")
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

    def check_closed(self, s: set) -> None:
        """Raise GroupError unless the finite set s is closed under inverse and
        product; every element is checked before any product is taken."""
        for a in s:
            self.check_element(a)
        for a in s:
            if self.inv(a) not in s:
                raise GroupError(f"finite subset not closed under inverse at {self.element_str(a)}")
            for b in s:
                if self.mul(a, b) not in s:
                    raise GroupError("finite subset not closed under multiplication")

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

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{self.describe()}>"

    # -- structure queries ------------------------------------------------
    # Each kind overrides the queries it answers in closed form; apart from
    # is_normal, center_of_subgroup and predicate, these defaults are the
    # undecided answers.

    def h_conjugacy_class(self, g: Element, H) -> Classification:
        """{h g h^-1 : h in H}."""
        return unknown_class(f"no H-class rule for {self.name}")

    def centralizer_generators(self, H, g: Element) -> Optional[tuple]:
        """A finite generating set of C_H(g), or None."""
        return None

    def centralizer_of_subgroup(self, H):
        """C_G(H) as a described subgroup, or None."""
        return None

    def center_of_subgroup(self, H):
        """Z(H) = C_G(H) ∩ H as a described subgroup, or None: enumerated when
        H is finite, H itself when H is abelian."""
        from .subgroups import Subgroup
        gens, elems = H.generators(), H.enumerate_elements()
        if elems is not None:
            return Subgroup.finite_subset(
                self, [z for z in elems if all(self.commutes(z, h) for h in gens)])
        return H if all(self.commutes(a, b) for a, b in itertools.combinations(gens, 2)) else None

    def fc_centralizer(self, H) -> FCInfo:
        return FCInfo(None)

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

    def predicate(self, H, name: str) -> TriBool:
        """H's answer to the catalog predicate name ("prime",
        "fc_hypercentral" or "cstar_simple"), by PREDICATE_RULES."""
        shape = {"trivial": H.is_trivial_subgroup,
                 "finite": lambda: H.enumerate_elements() is not None,
                 "abelian": lambda: all(self.commutes(a, b) for a, b
                                        in itertools.combinations(H.generators(), 2))}
        for condition, answers in PREDICATE_RULES:
            if name in answers and (shape[condition]() if condition in shape
                                    else getattr(self, condition)):
                status, note = answers[name]
                return TriBool(status, notes=(note,))
        return tb.unknown(f"no {name} rule for {H.describe()}")

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

