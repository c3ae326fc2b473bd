"""Exact decision procedures for twisted group algebras.

For a catalog group G, a subgroup H and a circle-valued two-cocycle sigma,
this package decides the (relative) Kleppner condition, computes twisted
centralizers, emits justified verdicts on simplicity of the twisted algebra
of (H, sigma) and irreducibility of the inclusion into the twisted algebra of
(G, sigma), and cross-validates everything on finite groups with an exact
linear-algebra oracle over the regular projective representation.

All arithmetic is exact: rational phases plus formal irrational symbols.
"""

from .cocycles import (BicharacterCocycle, Cocycle, F2Z2Cocycle, HeisenbergCocycle,
                       PhaseTableCocycle, ProductCocycle, SeededBeta, SimilarityCocycle,
                       TrivialCocycle, commutation_trivial, rotation_cocycle,
                       similarity_transform, three_torus_cocycle, transport, validate_cocycle)
from .config import ConfigError, InstanceConfig, parse_config
from .groups import (DirectProduct, FiniteTable, FreeAbelian, FreeGroup, Group, Heisenberg,
                     Subgroup, centralizer_generators, centralizer_of_subgroup,
                     fc_centralizer, from_name, h_conjugacy_class, is_normal)
from .oracle import (CommutantReport, MonomialMatrix, OracleMismatchError, RegularRep,
                     build_regular_rep, canonical_trace, center_dim,
                     relative_commutant_dim)
from .phases import IrrationalBasis, Phase, parse_phase, qdim
from .regularity import (SigmaCentralizerResult, is_sigma_regular, kleppner,
                         relative_kleppner, sigma_centralizer, sigma_regular_subgroup)
from .report import Report, run
from .tribool import TriBool
from .verdicts import (LatticeResult, Verdict, cstar_irreducible, intermediate_lattice,
                       twisted_simplicity)

__version__ = "0.1.0"
