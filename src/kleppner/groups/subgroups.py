"""Described subgroups of catalog groups.

Each kind of subgroup is a subclass of ``Subgroup`` that carries exactly the
structure the decision procedures can exploit and answers the queries in its
own class: membership, generators, enumeration (finite cases), index, plus
conversion of the subgroup to a standalone catalog group together with the
embedding (``as_group``).  Generated subgroups of infinite groups may
legitimately have undecided membership; queries then return None.

This module holds the kinds every group has (full, trivial, finite subset,
generated); each group module defines its own kinds: ``Sublattice`` in
abelian.py, ``HeisCongruence`` and ``HeisPlane`` in heisenberg.py,
``FreeCyclic`` in free.py and ``ProductSubgroup`` in product.py.  Those
modules import this one, so the constructors here import them on call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .base import Classification, Element, Group, GroupError, finite_class


class Infinite:
    _instance: "Infinite | None" = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "infinite"


INFINITE = Infinite()


class AsGroup(NamedTuple):
    group: Group
    embed: Callable[[Element], Element]  # subgroup-group element -> parent element

    def lift(self, witness, parent: Group):
        """A witness found in the standalone group, carried into the parent: a
        finite class becomes its embedded elements in the parent's order, an
        element its image; an infinite or unknown classification is unchanged."""
        if isinstance(witness, Classification):
            if witness.finite:
                return finite_class(sorted(map(self.embed, witness.elements),
                                           key=parent.element_key))
            return witness
        return self.embed(witness)


@dataclass(frozen=True)
class Subgroup:
    """A described subgroup of the catalog group parent.

    Each kind answers the queries it can; the defaults here are the undecided
    answers: membership None, no enumeration, index None, no standalone form,
    and neither full nor trivial.  For a finite table parent,
    enumerate_elements() is never None.
    """

    parent: Group

    kind = "abstract"

    def __post_init__(self) -> None:
        self._validate()

    # -- construction helpers --------------------------------------------
    @staticmethod
    def full(parent: Group) -> "Subgroup":
        return FullSubgroup(parent)

    @staticmethod
    def trivial(parent: Group) -> "Subgroup":
        return TrivialSubgroup(parent)

    @staticmethod
    def finite_subset(parent: Group, elements: Sequence[Element]) -> "Subgroup":
        elems = sorted({e for e in elements} | {parent.identity()}, key=parent.element_key)
        return FiniteSubset(parent, tuple(elems))

    @staticmethod
    def sublattice(parent: Group, columns: Sequence[Sequence[int]]) -> "Subgroup":
        from .abelian import Sublattice
        return Sublattice(parent, tuple(tuple(c) for c in columns))

    @staticmethod
    def coordinate_zero(parent: Group, zero_coords) -> "Subgroup":
        """{x : x_i = 0 for i in zero_coords} in the Heisenberg group: the
        full group, a plane lattice, or the trivial subgroup."""
        from .heisenberg import Heisenberg
        if not isinstance(parent, Heisenberg):
            raise GroupError("coordinate-zero descriptions apply to the Heisenberg parent")
        s = set(zero_coords)
        if not s <= {0, 1, 2}:
            raise GroupError("coordinate indices must lie in {0,1,2}")
        if 2 in s and not (0 in s or 1 in s):
            # third coordinate picks up a1*b2; not closed unless one of them dies
            raise GroupError("{(a1, a2, 0)} is not closed under the Heisenberg product")
        if not s:
            return Subgroup.full(parent)
        return Subgroup.generated(parent, [g for i, g in enumerate(parent.generators())
                                           if i not in s])

    @staticmethod
    def product(parent: Group, left: "Subgroup", right: "Subgroup") -> "Subgroup":
        from .product import ProductSubgroup
        return ProductSubgroup(parent, left, right)

    @staticmethod
    def generated(parent: Group, gens: Sequence[Element]) -> "Subgroup":
        """The subgroup generated by gens, in the most specific kind the
        parent recognizes (``Group.generated_subgroup``)."""
        gens = tuple(parent.check_element(g) for g in gens)
        gens = tuple(g for g in gens if g != parent.identity())
        if not gens:
            return Subgroup.trivial(parent)
        return parent.generated_subgroup(gens)

    @staticmethod
    def heis_congruence(parent: Group, modulus: int) -> "Subgroup":
        from .heisenberg import HeisCongruence
        if modulus == 0:
            return Subgroup.coordinate_zero(parent, {0})
        if modulus == 1:
            return Subgroup.full(parent)
        return HeisCongruence(parent, modulus)

    # -- queries -------------------------------------------------------------
    def _validate(self) -> None:
        pass

    def contains(self, x: Element) -> bool | None:
        self.parent.check_element(x)
        return self._contains(x)

    def _contains(self, x: Element) -> bool | None:
        return None

    def generators(self) -> tuple[Element, ...]:
        raise GroupError("no generators for this description")

    def enumerate_elements(self) -> list[Element] | None:
        return None

    def index(self) -> int | Infinite | None:
        """[G : H]; INFINITE or None (undecided)."""
        return None

    def as_group(self) -> AsGroup | None:
        """The subgroup as a standalone catalog group with its embedding."""
        return None

    def is_full(self) -> bool:
        return False

    def is_trivial_subgroup(self) -> bool:
        return False

    def describe_desc(self) -> str:
        return self.kind

    def describe(self) -> str:
        return f"{self.describe_desc()} of {self.parent.name}"

    def __repr__(self) -> str:
        return f"<Subgroup: {self.describe()}>"


# the decorator of every kind: a frozen dataclass that keeps the base
# class's __repr__
subgroup_kind = dataclass(frozen=True, repr=False)


@subgroup_kind
class FullSubgroup(Subgroup):
    kind = "full"

    def describe_desc(self) -> str:
        return f"the full group {self.parent.name}"

    def _contains(self, x: Element) -> bool:
        return True

    def generators(self) -> tuple[Element, ...]:
        return self.parent.generators()

    def enumerate_elements(self) -> list[Element] | None:
        return list(self.parent.elements()) if self.parent.is_finite else None

    def index(self) -> int:
        return 1

    def as_group(self) -> AsGroup:
        return AsGroup(self.parent, lambda x: x)

    def is_full(self) -> bool:
        return True

    def is_trivial_subgroup(self) -> bool:
        return self.parent.order == 1


@subgroup_kind
class TrivialSubgroup(Subgroup):
    kind = "trivial"

    def describe_desc(self) -> str:
        return "the trivial subgroup"

    def _contains(self, x: Element) -> bool:
        return x == self.parent.identity()

    def generators(self) -> tuple[Element, ...]:
        return ()

    def enumerate_elements(self) -> list[Element]:
        return [self.parent.identity()]

    def index(self) -> int | Infinite:
        return self.parent.order if self.parent.is_finite else INFINITE

    def as_group(self) -> AsGroup:
        from .finite import FiniteTable
        e = self.parent.identity()
        return AsGroup(FiniteTable(((0,),), ("e",), name="1"), lambda x: e)

    def is_full(self) -> bool:
        return self.parent.order == 1

    def is_trivial_subgroup(self) -> bool:
        return True


@subgroup_kind
class FiniteSubset(Subgroup):
    elements: tuple

    kind = "finite-subset"

    def describe_desc(self) -> str:
        inner = ", ".join(self.parent.element_str(x) for x in self.elements)
        return f"finite subgroup {{{inner}}}"

    def _validate(self) -> None:
        parent, s = self.parent, set(self.elements)
        if parent.identity() not in s:
            raise GroupError("finite subset must contain the identity")
        for a in s:
            parent.check_element(a)
            if parent.inv(a) not in s:
                raise GroupError(f"finite subset not closed under inverse at {parent.element_str(a)}")
            for b in s:
                if parent.mul(a, b) not in s:
                    raise GroupError("finite subset not closed under multiplication")

    def _contains(self, x: Element) -> bool:
        return x in self.elements

    def generators(self) -> tuple[Element, ...]:
        return self.parent.generating_subset(self.elements)

    def enumerate_elements(self) -> list[Element]:
        return list(self.elements)

    def index(self) -> int | Infinite:
        return self.parent.order // len(self.elements) if self.parent.is_finite else INFINITE

    def as_group(self) -> AsGroup:
        from .finite import FiniteTable
        parent, elems = self.parent, list(self.elements)
        index = {x: i for i, x in enumerate(elems)}
        table = [[index[parent.mul(a, b)] for b in elems] for a in elems]
        names = [parent.element_str(x) for x in elems]
        g = FiniteTable(table, names, name=f"sub({parent.name})")
        return AsGroup(g, lambda i: elems[i])

    def is_full(self) -> bool:
        return self.parent.is_finite and len(self.elements) == self.parent.order

    def is_trivial_subgroup(self) -> bool:
        return len(self.elements) == 1


@subgroup_kind
class GeneratedSubgroup(Subgroup):
    """Generators only.  Membership is True for the elements known to lie in
    the subgroup (the identity, the generators, their inverses and the
    commutators of those) and undecided (None) for every other element."""

    gens: tuple

    kind = "generated"

    def describe_desc(self) -> str:
        inner = ", ".join(self.parent.element_str(g) for g in self.gens)
        return f"subgroup generated by {inner}"

    def _validate(self) -> None:
        if self.parent.exact_kernel == "finite":
            # this keeps enumerate_elements() a list for every subgroup of a table
            raise GroupError("subgroups of a finite table are described by their elements")
        for g in self.gens:
            self.parent.check_element(g)

    def generators(self) -> tuple[Element, ...]:
        return self.gens

    def _contains(self, x: Element) -> bool | None:
        parent = self.parent
        steps = self.gens + tuple(parent.inv(g) for g in self.gens)
        if x == parent.identity() or x in steps:
            return True
        for a in steps:
            for b in steps:
                if x == parent.mul(parent.mul(a, b), parent.mul(parent.inv(a), parent.inv(b))):
                    return True
        return None

    def index(self) -> int | None:
        return 1 if self.is_full() else None

    def is_full(self) -> bool:
        return all(self._contains(s) for s in self.parent.generators())
