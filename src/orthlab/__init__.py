"""orthlab: finite orthogonality spaces, property lattices, and their symmetries."""

from .bitset import GROUND_CAPACITY, AtomSet
from .closure import DEFAULT_FAMILY_CAP, ClosureSystem, meet_closure
from .statespace import (PPL, CheckResult, OrthoRelation, StateSpace, ValidationReport,
                         property_lattice)
from .axioms import (AxiomReport, Certificate, CheckStats, axiom_suite, check_boolean,
                     check_covering_law, check_irreducible, check_orthomodular,
                     find_compatible_orthocomplementation)
from .products import (minimal_product, product_orthogonality, rectangle_family,
                       separated_product)
from .symmetry import (DEFAULT_BUDGET, PlaneTransitivityReport, PlaneWitness,
                       count_symmetries, enumerate_symmetries, find_plane_symmetry,
                       is_plane_transitive)
from .catalog import SplitMix64, boolean_space, mo_lantern, random_space, random_spaces
from .formats import (parse_ppl, parse_statespace, serialize_ppl, serialize_statespace)
from .dot import export_dot
from .errors import (BudgetExceededError, CapacityError, CouldNotSeparateError,
                     InvalidInstanceError, InvariantViolationError, OrthlabError,
                     ParseError)

__version__ = "0.1.0"
