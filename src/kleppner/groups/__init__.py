from .abelian import FreeAbelian
from .base import (Classification, FCInfo, Group, GroupError, finite_class, infinite_class,
                   unknown_class)
from .finite import FiniteTable, cyclic, cyclic_product, dihedral, from_name, quaternion8, symmetric
from .free import FreeGroup
from .heisenberg import Heisenberg
from .product import DirectProduct
from .structure import (centralizer_generators, centralizer_of_subgroup,
                        fc_centralizer, h_conjugacy_class, is_normal)
from .subgroups import INFINITE, AsGroup, Subgroup

__all__ = [
    "AsGroup", "Classification", "DirectProduct", "FCInfo", "FiniteTable", "FreeAbelian",
    "FreeGroup", "Group", "GroupError", "Heisenberg", "INFINITE", "Subgroup",
    "centralizer_generators", "centralizer_of_subgroup", "cyclic", "cyclic_product",
    "dihedral", "fc_centralizer", "finite_class", "from_name", "h_conjugacy_class",
    "infinite_class", "is_normal",
    "quaternion8", "symmetric", "unknown_class",
]
