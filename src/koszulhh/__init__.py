"""Exact homological algebra over GF(2) for Boolean connected sums.

The package builds graded algebras from free generators and Boolean ring
atoms, computes their bigraded Hochschild cohomology through an admissible
sequence model with a bar-complex cross-check, constructs explicit
primitives for cocycles in the vanishing range, and carries Massey product
defining systems across surjective quasi-isomorphisms.
"""

from .algebra import (
    BooleanRing,
    ConnectedSumAlgebra,
    GradedElement,
    Subring,
    graded_multiply,
    ideal_decompose,
    ideal_membership,
)
from .coboundary import (
    HeadTail,
    Orbit,
    extend_cocycle,
    extend_cocycle_split,
    head_tail,
    orbit_decomposition,
    restrict_cochain,
    solve_coboundary,
)
from .errors import CapExceeded, InvalidDefiningSystemError, NotACocycleError
from .gf2 import BitMatrix, echelon_rank, sparse_rank
from .hochschild import (
    BarFactor,
    BarReport,
    Cochain,
    HhReport,
    HochschildComplex,
    KadeishviliReport,
    kadeishvili_check,
)
from .koszul import (
    KoszulReport,
    admissible_in_generic_span,
    admissible_sequences,
    count_admissible,
    koszul_space_generic,
    verify_koszul,
)
from .massey import (
    CohomologyClass,
    DefiningSystem,
    DgAlgebra,
    DgMap,
    StrongMasseyReport,
    dg_algebra_from_dict,
    dg_algebra_to_dict,
    extend_with_acyclic_pairs,
    from_connected_sum,
    lift_coboundary,
    lift_cocycle,
    lift_defining_system,
    massey_product,
    massey_product_set,
    strong_massey_check,
    trivial_defining_system,
)

__version__ = "0.1.0"

__all__ = [
    "BarFactor",
    "BarReport",
    "BitMatrix",
    "BooleanRing",
    "CapExceeded",
    "Cochain",
    "CohomologyClass",
    "ConnectedSumAlgebra",
    "DefiningSystem",
    "DgAlgebra",
    "DgMap",
    "GradedElement",
    "HeadTail",
    "HhReport",
    "HochschildComplex",
    "InvalidDefiningSystemError",
    "KadeishviliReport",
    "KoszulReport",
    "NotACocycleError",
    "Orbit",
    "StrongMasseyReport",
    "Subring",
    "admissible_in_generic_span",
    "admissible_sequences",
    "count_admissible",
    "dg_algebra_from_dict",
    "dg_algebra_to_dict",
    "extend_cocycle",
    "extend_cocycle_split",
    "extend_with_acyclic_pairs",
    "from_connected_sum",
    "graded_multiply",
    "head_tail",
    "ideal_decompose",
    "ideal_membership",
    "kadeishvili_check",
    "koszul_space_generic",
    "lift_coboundary",
    "lift_cocycle",
    "lift_defining_system",
    "massey_product",
    "massey_product_set",
    "orbit_decomposition",
    "restrict_cochain",
    "solve_coboundary",
    "echelon_rank",
    "sparse_rank",
    "strong_massey_check",
    "trivial_defining_system",
    "verify_koszul",
]
