"""Exact construction, verification, and search of subspace null designs over GF(q)."""

__version__ = "0.1.0"

from .fields import Field, field
from .grassmann import (
    Subspace,
    canonicalize,
    contains,
    enumerate_subspaces,
    from_index,
    gaussian_binomial,
    index_of,
    join,
    subspaces_of,
)
from .incidence import IncidenceMatrix, apply_check, wilson_matrix
from .designs import (
    NullDesign,
    Verdict,
    as_modulus,
    construct_lb_design,
    construct_uniform_design,
    strength_of,
    verify_strength,
    verify_strength_direct,
)
from .linalg import (
    BudgetExceededError,
    GfpMatrix,
    InvariantError,
    SearchReport,
    default_budget,
    kernel_basis_gfp,
    min_support_kernel_rational,
    min_weight_kernel_gfp,
    rank_gfp,
    rank_rational,
    rref_gfp,
)

__all__ = [
    "Field",
    "field",
    "Subspace",
    "gaussian_binomial",
    "canonicalize",
    "contains",
    "join",
    "enumerate_subspaces",
    "subspaces_of",
    "index_of",
    "from_index",
    "IncidenceMatrix",
    "wilson_matrix",
    "apply_check",
    "NullDesign",
    "Verdict",
    "verify_strength",
    "verify_strength_direct",
    "strength_of",
    "construct_lb_design",
    "construct_uniform_design",
    "as_modulus",
    "GfpMatrix",
    "SearchReport",
    "BudgetExceededError",
    "InvariantError",
    "default_budget",
    "rank_gfp",
    "rref_gfp",
    "kernel_basis_gfp",
    "rank_rational",
    "min_weight_kernel_gfp",
    "min_support_kernel_rational",
]
