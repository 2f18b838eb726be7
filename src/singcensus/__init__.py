"""singcensus: singular hypersurfaces over small prime fields.

Exact tools for counting and probing hypersurfaces whose singular locus has
unexpectedly large dimension: dimension/degree of singular loci via Groebner
bases over F_p, closed-form bounds with an l0 search, specialization-rank
experiments, structured ("smart") sampling, dehomogenization counting, and a
randomized census with an exhaustive small-case mode.
"""

__version__ = "0.1.0"

from .algebra import (
    GradedSpace,
    Poly,
    PrimeField,
    format_poly,
    infer_num_vars,
    parse_poly,
)
from .errors import (
    CapExceeded,
    InternalCheckError,
    KernelCapacityError,
    ParseError,
    ValidationError,
)
from .groebner import (
    DimensionDegree,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    projective_dimension_degree,
    sing_dim_deg,
    singular_locus_ideal,
)

__all__ = [
    "__version__",
    "PrimeField",
    "Poly",
    "GradedSpace",
    "parse_poly",
    "format_poly",
    "infer_num_vars",
    "GroebnerBasis",
    "MonomialOrder",
    "DimensionDegree",
    "buchberger",
    "projective_dimension_degree",
    "singular_locus_ideal",
    "sing_dim_deg",
    "ValidationError",
    "ParseError",
    "CapExceeded",
    "InternalCheckError",
    "KernelCapacityError",
]
