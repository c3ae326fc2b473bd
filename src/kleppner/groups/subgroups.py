"""Described subgroups of catalog groups.

Each description kind carries exactly the structure the decision procedures
can exploit and answers the queries in its own class: membership, generators,
enumeration (finite cases), index, plus conversion of the subgroup to a
standalone catalog group together with the embedding (``as_group``).
Generated subgroups of infinite groups may legitimately have undecided
membership; queries then return None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from ..intlinalg import RowLattice
from .abelian import FreeAbelian
from .base import Classification, Element, Group, GroupError, finite_class
from .finite import FiniteTable
from .free import FreeGroup
from .heisenberg import Heisenberg
from .product import DirectProduct


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


def _trivial_as_group(e: Element) -> AsGroup:
    """The one-element group, embedded as the identity e of the parent."""
    one = FiniteTable(((0,),), ("e",), name="1")
    return AsGroup(one, lambda x: e)


class SubgroupDesc:
    """A kind of subgroup description; each kind answers the queries it can.

    Every query takes the parent group.  The defaults are the undecided
    answers: membership None, no enumeration, index None, no standalone form,
    and neither full nor trivial.
    """

    kind = "abstract"

    def describe(self, parent: Group) -> str:
        return self.kind

    def _validate(self, parent: Group) -> None:
        pass

    def lattice(self, parent: Group) -> RowLattice:
        raise GroupError("not a sublattice subgroup")

    def contains(self, parent: Group, x: Element) -> bool | None:
        return None

    def generators(self, parent: Group) -> tuple[Element, ...]:
        raise GroupError("no generators for this description")

    def enumerate_elements(self, parent: Group) -> list[Element] | None:
        return None

    def index(self, parent: Group) -> int | Infinite | None:
        return None

    def as_group(self, parent: Group) -> AsGroup | None:
        return None

    def is_full(self, parent: Group) -> bool:
        return False

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return False


class FullDesc(SubgroupDesc):
    kind = "full"

    def describe(self, parent: Group) -> str:
        return f"the full group {parent.name}"

    def contains(self, parent: Group, x: Element) -> bool:
        return True

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return parent.generators()

    def enumerate_elements(self, parent: Group) -> list[Element] | None:
        return list(parent.elements()) if parent.is_finite else None

    def index(self, parent: Group) -> int:
        return 1

    def as_group(self, parent: Group) -> AsGroup:
        return AsGroup(parent, lambda x: x)

    def is_full(self, parent: Group) -> bool:
        return True

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return parent.order == 1


class TrivialDesc(SubgroupDesc):
    kind = "trivial"

    def describe(self, parent: Group) -> str:
        return "the trivial subgroup"

    def contains(self, parent: Group, x: Element) -> bool:
        return x == parent.identity()

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return ()

    def enumerate_elements(self, parent: Group) -> list[Element]:
        return [parent.identity()]

    def index(self, parent: Group) -> int | Infinite:
        return parent.order if parent.is_finite else INFINITE

    def as_group(self, parent: Group) -> AsGroup:
        return _trivial_as_group(parent.identity())

    def is_full(self, parent: Group) -> bool:
        return parent.order == 1

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return True


@dataclass(frozen=True)
class FiniteSubsetDesc(SubgroupDesc):
    elements: tuple

    kind = "finite-subset"

    def describe(self, parent: Group) -> str:
        inner = ", ".join(parent.element_str(x) for x in self.elements)
        return f"finite subgroup {{{inner}}}"

    def _validate(self, parent: Group) -> None:
        s = set(self.elements)
        if parent.identity() not in s:
            raise GroupError("finite subset must contain the identity")
        for a in s:
            parent.check_element(a)
            if parent.inv(a) not in s:
                raise GroupError(f"finite subset not closed under inverse at {parent.element_str(a)}")
            for b in s:
                if parent.mul(a, b) not in s:
                    raise GroupError("finite subset not closed under multiplication")

    def contains(self, parent: Group, x: Element) -> bool:
        return x in self.elements

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return _subset_generators(parent, self.elements)

    def enumerate_elements(self, parent: Group) -> list[Element]:
        return list(self.elements)

    def index(self, parent: Group) -> int | Infinite:
        return parent.order // len(self.elements) if parent.is_finite else INFINITE

    def as_group(self, parent: Group) -> AsGroup:
        elems = list(self.elements)
        index = {x: i for i, x in enumerate(elems)}
        table = [[index[parent.mul(a, b)] for b in elems] for a in elems]
        names = [parent.element_str(x) for x in elems]
        g = FiniteTable(table, names, name=f"sub({parent.name})")
        return AsGroup(g, lambda i: elems[i])

    def is_full(self, parent: Group) -> bool:
        return parent.is_finite and len(self.elements) == parent.order

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return len(self.elements) == 1


@dataclass(frozen=True)
class SublatticeDesc(SubgroupDesc):
    columns: tuple  # generating integer vectors

    kind = "sublattice"

    def describe(self, parent: Group) -> str:
        cols = ", ".join(str(tuple(c)) for c in self.columns)
        return f"sublattice generated by {cols}"

    def _validate(self, parent: Group) -> None:
        if not isinstance(parent, FreeAbelian):
            raise GroupError("sublattice descriptions require a free abelian parent")
        for c in self.columns:
            if len(c) != parent.rank:
                raise GroupError("sublattice generator has wrong length")
            if not all(isinstance(x, int) for x in c):
                raise GroupError(f"sublattice generator {tuple(c)} has a non-integer entry")

    def lattice(self, parent: Group) -> RowLattice:
        lat = RowLattice(parent.rank)
        for c in self.columns:
            lat.add(c)
        return lat

    def contains(self, parent: Group, x: Element) -> bool:
        return self.lattice(parent).contains(x)

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return tuple(tuple(r) for r in self.lattice(parent).rows)

    def enumerate_elements(self, parent: Group) -> list[Element] | None:
        return None if self.lattice(parent).rows else [parent.identity()]

    def index(self, parent: Group) -> int | Infinite:
        idx = self.lattice(parent).index_in_ambient()
        return INFINITE if idx is None else idx

    def as_group(self, parent: Group) -> AsGroup:
        basis = self.lattice(parent).basis()
        n = parent.rank

        def embed(c):
            return tuple(sum(ci * bi[k] for ci, bi in zip(c, basis)) for k in range(n))

        return AsGroup(FreeAbelian(len(basis)), embed)

    def is_full(self, parent: Group) -> bool:
        return self.lattice(parent).index_in_ambient() == 1

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return self.lattice(parent).is_trivial()


@dataclass(frozen=True)
class CoordinateZeroDesc(SubgroupDesc):
    zero_coords: frozenset

    kind = "coordinate-zero"

    def describe(self, parent: Group) -> str:
        pattern = ["0" if i in self.zero_coords else f"a{i + 1}" for i in range(3)]
        return "{(" + ", ".join(pattern) + ")}"

    def _validate(self, parent: Group) -> None:
        if not isinstance(parent, Heisenberg):
            raise GroupError("coordinate-zero descriptions apply to the Heisenberg parent")
        s = self.zero_coords
        if not s <= {0, 1, 2}:
            raise GroupError("coordinate indices must lie in {0,1,2}")
        if 2 in s and not (0 in s or 1 in s):
            # third coordinate picks up a1*b2; not closed unless one of them dies
            raise GroupError("{(a1, a2, 0)} is not closed under the Heisenberg product")

    def contains(self, parent: Group, x: Element) -> bool:
        return all(x[i] == 0 for i in self.zero_coords)

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return tuple(tuple(1 if j == i else 0 for j in range(3))
                     for i in range(3) if i not in self.zero_coords)

    def index(self, parent: Group) -> int | Infinite:
        return 1 if not self.zero_coords else INFINITE

    def as_group(self, parent: Group) -> AsGroup:
        free = sorted(set(range(3)) - self.zero_coords)
        if len(free) == 3:
            return AsGroup(parent, lambda x: x)
        if not free:
            return _trivial_as_group(parent.identity())

        def embed(c):
            out = [0, 0, 0]
            for pos, coord in enumerate(free):
                out[coord] = c[pos]
            return tuple(out)

        return AsGroup(FreeAbelian(len(free)), embed)

    def is_full(self, parent: Group) -> bool:
        return not self.zero_coords

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return self.zero_coords == {0, 1, 2}


@dataclass(frozen=True)
class HeisCongruenceDesc(SubgroupDesc):
    modulus: int  # elements with first coordinate divisible by modulus (>= 2)

    kind = "first-coordinate-multiple"

    def describe(self, parent: Group) -> str:
        return f"{{(a1, a2, a3) : {self.modulus} | a1}}"

    def _validate(self, parent: Group) -> None:
        if not isinstance(parent, Heisenberg) or self.modulus < 2:
            raise GroupError("congruence description needs Heisenberg parent and modulus >= 2")

    def contains(self, parent: Group, x: Element) -> bool:
        return x[0] % self.modulus == 0

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return ((self.modulus, 0, 0), (0, 1, 0), (0, 0, 1))

    def index(self, parent: Group) -> int:
        return self.modulus


@dataclass(frozen=True)
class HeisPlaneDesc(SubgroupDesc):
    """A sublattice of one of the abelian coordinate planes of the Heisenberg
    group: plane 0 is {(0, a2, a3)}, plane 1 is {(a1, 0, a3)}."""

    plane: int
    rows: tuple  # echelon basis of the lattice in the two free coordinates

    kind = "heisenberg-plane-lattice"

    def free_coords(self) -> tuple[int, int]:
        return (1, 2) if self.plane == 0 else (0, 2)

    def describe(self, parent: Group) -> str:
        gens = ", ".join(str(self.lift(r)) for r in self.rows)
        return f"plane sublattice generated by {gens}"

    def lift(self, pair) -> tuple[int, int, int]:
        out = [0, 0, 0]
        i, j = self.free_coords()
        out[i], out[j] = pair
        return tuple(out)

    def _validate(self, parent: Group) -> None:
        if not isinstance(parent, Heisenberg) or self.plane not in (0, 1):
            raise GroupError("plane lattice needs a Heisenberg parent and plane 0 or 1")

    def contains(self, parent: Group, x: Element) -> bool:
        if x[self.plane] != 0:  # plane 0 kills a1, plane 1 kills a2
            return False
        i, j = self.free_coords()
        return RowLattice(2, self.rows).contains((x[i], x[j]))

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return tuple(self.lift(r) for r in self.rows)

    def enumerate_elements(self, parent: Group) -> list[Element] | None:
        return None if self.rows else [parent.identity()]

    def index(self, parent: Group) -> Infinite:
        return INFINITE

    def as_group(self, parent: Group) -> AsGroup:
        rows = self.rows
        if not rows:
            return _trivial_as_group(parent.identity())

        def embed(c):
            return self.lift(tuple(sum(ci * r[k] for ci, r in zip(c, rows)) for k in range(2)))

        return AsGroup(FreeAbelian(len(rows)), embed)

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return not self.rows


@dataclass(frozen=True)
class ProductDesc(SubgroupDesc):
    left: "Subgroup"
    right: "Subgroup"

    kind = "product"

    def describe(self, parent: Group) -> str:
        return f"({self.left.describe_desc()}) x ({self.right.describe_desc()})"

    def _validate(self, parent: Group) -> None:
        if not isinstance(parent, DirectProduct):
            raise GroupError("product subgroup needs a direct product parent")
        if self.left.parent is not parent.left or self.right.parent is not parent.right:
            raise GroupError("product subgroup factors must describe the parent factors")

    def contains(self, parent: Group, x: Element) -> bool | None:
        lc = self.left.contains(x[0])
        rc = self.right.contains(x[1])
        if lc is None or rc is None:
            return None if (lc is not False and rc is not False) else False
        return lc and rc

    def generators(self, parent: Group) -> tuple[Element, ...]:
        el, er = parent.left.identity(), parent.right.identity()
        return (tuple((g, er) for g in self.left.generators())
                + tuple((el, g) for g in self.right.generators()))

    def enumerate_elements(self, parent: Group) -> list[Element] | None:
        le = self.left.enumerate_elements()
        re_ = self.right.enumerate_elements()
        if le is None or re_ is None:
            return None
        return [(a, b) for a in le for b in re_]

    def index(self, parent: Group) -> int | Infinite | None:
        li = self.left.index()
        ri = self.right.index()
        if li is None or ri is None:
            return None
        if li is INFINITE or ri is INFINITE:
            return INFINITE
        return li * ri

    def as_group(self, parent: Group) -> AsGroup | None:
        lg = self.left.as_group()
        rg = self.right.as_group()
        if lg is None or rg is None:
            return None
        if self.left.is_trivial_subgroup():
            el = parent.left.identity()
            return AsGroup(rg.group, lambda y: (el, rg.embed(y)))
        if self.right.is_trivial_subgroup():
            er = parent.right.identity()
            return AsGroup(lg.group, lambda y: (lg.embed(y), er))

        def embed(pair):
            return (lg.embed(pair[0]), rg.embed(pair[1]))

        return AsGroup(DirectProduct(lg.group, rg.group), embed)

    def is_full(self, parent: Group) -> bool:
        return self.left.is_full() and self.right.is_full()

    def is_trivial_subgroup(self, parent: Group) -> bool:
        return self.left.is_trivial_subgroup() and self.right.is_trivial_subgroup()


@dataclass(frozen=True)
class GeneratedDesc(SubgroupDesc):
    """Generators only.  Membership is True for the elements known to lie in
    the subgroup (the identity, the generators, their inverses and the
    commutators of those) and undecided (None) for every other element."""

    gens: tuple

    kind = "generated"

    def describe(self, parent: Group) -> str:
        inner = ", ".join(parent.element_str(g) for g in self.gens)
        return f"subgroup generated by {inner}"

    def _validate(self, parent: Group) -> None:
        if isinstance(parent, FiniteTable):
            # this keeps enumerate_elements() a list for every subgroup of a table
            raise GroupError("subgroups of a finite table are described by their elements")
        for g in self.gens:
            parent.check_element(g)

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return self.gens

    def contains(self, parent: Group, x: Element) -> bool | None:
        steps = self.gens + tuple(parent.inv(g) for g in self.gens)
        if x == parent.identity() or x in steps:
            return True
        for a in steps:
            for b in steps:
                if x == parent.mul(parent.mul(a, b), parent.mul(parent.inv(a), parent.inv(b))):
                    return True
        return None

    def index(self, parent: Group) -> int | None:
        return 1 if self.is_full(parent) else None

    def is_full(self, parent: Group) -> bool:
        return all(self.contains(parent, s) for s in parent.generators())


@dataclass(frozen=True)
class FreeCyclicDesc(SubgroupDesc):
    word: tuple  # nontrivial reduced word; the subgroup is <word>

    kind = "cyclic"

    def describe(self, parent: Group) -> str:
        return f"cyclic subgroup <{parent.element_str(self.word)}>"

    def _validate(self, parent: Group) -> None:
        if not isinstance(parent, FreeGroup) or not self.word:
            raise GroupError("cyclic word description needs a free parent and nontrivial word")

    def contains(self, parent: Group, x: Element) -> bool:
        return parent.power_of(x, self.word) is not None

    def generators(self, parent: Group) -> tuple[Element, ...]:
        return (self.word,)

    def index(self, parent: Group) -> Infinite:
        return INFINITE  # proper finite-index subgroups of F_k are never cyclic

    def as_group(self, parent: Group) -> AsGroup:
        w = self.word
        return AsGroup(FreeAbelian(1), lambda c: parent.power(w, c[0]))


class Subgroup:
    """A described subgroup of a catalog group; the queries forward to the
    description.  For a finite table parent, enumerate_elements() is never
    None."""

    def __init__(self, parent: Group, desc: SubgroupDesc) -> None:
        self.parent = parent
        self.desc = desc
        desc._validate(parent)

    # -- construction helpers --------------------------------------------
    @staticmethod
    def full(parent: Group) -> "Subgroup":
        return Subgroup(parent, FullDesc())

    @staticmethod
    def trivial(parent: Group) -> "Subgroup":
        return Subgroup(parent, TrivialDesc())

    @staticmethod
    def finite_subset(parent: Group, elements: Sequence[Element]) -> "Subgroup":
        elems = sorted({e for e in elements} | {parent.identity()}, key=parent.element_key)
        return Subgroup(parent, FiniteSubsetDesc(tuple(elems)))

    @staticmethod
    def sublattice(parent: Group, columns: Sequence[Sequence[int]]) -> "Subgroup":
        return Subgroup(parent, SublatticeDesc(tuple(tuple(c) for c in columns)))

    @staticmethod
    def coordinate_zero(parent: Group, zero_coords) -> "Subgroup":
        return Subgroup(parent, CoordinateZeroDesc(frozenset(zero_coords)))

    @staticmethod
    def product(parent: DirectProduct, left: "Subgroup", right: "Subgroup") -> "Subgroup":
        return Subgroup(parent, ProductDesc(left, right))

    @staticmethod
    def generated(parent: Group, gens: Sequence[Element]) -> "Subgroup":
        gens = tuple(parent.check_element(g) for g in gens)
        gens = tuple(g for g in gens if g != parent.identity())
        if not gens:
            return Subgroup.trivial(parent)
        if isinstance(parent, FiniteTable):
            return Subgroup.finite_subset(parent, parent.closure(set(gens)))
        if isinstance(parent, FreeAbelian):
            return Subgroup.sublattice(parent, gens)
        if isinstance(parent, FreeGroup):
            cyc = _free_cyclic_normalize(parent, gens)
            if cyc is not None:
                return Subgroup(parent, FreeCyclicDesc(cyc))
        if isinstance(parent, Heisenberg):
            for plane, dead in ((0, 0), (1, 1)):
                if all(g[dead] == 0 for g in gens):
                    i, j = (1, 2) if plane == 0 else (0, 2)
                    lat = RowLattice(2, [(g[i], g[j]) for g in gens])
                    return Subgroup(parent, HeisPlaneDesc(plane, tuple(lat.basis())))
        return Subgroup(parent, GeneratedDesc(gens))

    @staticmethod
    def heis_congruence(parent: Heisenberg, modulus: int) -> "Subgroup":
        if modulus == 0:
            return Subgroup.coordinate_zero(parent, {0})
        if modulus == 1:
            return Subgroup.full(parent)
        return Subgroup(parent, HeisCongruenceDesc(modulus))

    # -- queries -------------------------------------------------------------
    def lattice(self) -> RowLattice:
        """The sublattice of a free abelian parent."""
        return self.desc.lattice(self.parent)

    def contains(self, x: Element) -> bool | None:
        self.parent.check_element(x)
        return self.desc.contains(self.parent, x)

    def generators(self) -> tuple[Element, ...]:
        return self.desc.generators(self.parent)

    def enumerate_elements(self) -> list[Element] | None:
        return self.desc.enumerate_elements(self.parent)

    def is_full(self) -> bool:
        return self.desc.is_full(self.parent)

    def is_trivial_subgroup(self) -> bool:
        return self.desc.is_trivial_subgroup(self.parent)

    def index(self) -> int | Infinite | None:
        """[G : H]; INFINITE or None (undecided)."""
        return self.desc.index(self.parent)

    def as_group(self) -> AsGroup | None:
        """The subgroup as a standalone catalog group with its embedding."""
        return self.desc.as_group(self.parent)

    def describe_desc(self) -> str:
        return self.desc.describe(self.parent)

    def describe(self) -> str:
        return f"{self.describe_desc()} of {self.parent.name}"

    def __repr__(self) -> str:
        return f"<Subgroup: {self.describe()}>"


def _subset_generators(parent: Group, elements: tuple) -> tuple:
    e = parent.identity()
    gens: list = []
    reached = {e}
    for x in elements:
        if x not in reached:
            gens.append(x)
            frontier = list(reached | {x})
            reached = set(reached | {x})
            while frontier:
                a = frontier.pop()
                for b in list(reached):
                    for c in (parent.mul(a, b), parent.mul(b, a), parent.inv(a)):
                        if c not in reached:
                            reached.add(c)
                            frontier.append(c)
    return tuple(gens)


def _free_cyclic_normalize(parent: FreeGroup, gens: tuple) -> tuple | None:
    """If all generators commute they share a primitive root r: return r^d, d = gcd."""
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not parent.commutes(gens[i], gens[j]):
                return None
    root, _ = parent.primitive_root(gens[0])
    exps = []
    for g in gens:
        k = parent.power_of(g, root)
        if k is None:
            return None
        exps.append(k)
    from math import gcd
    d = 0
    for k in exps:
        d = gcd(d, k)
    if d == 0:
        return None
    return parent.power(root, d)

