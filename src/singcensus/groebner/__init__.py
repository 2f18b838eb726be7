from .basis import (
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    ideal_membership,
)
from .hilbert import DimensionDegree
from .ideals import (
    affine_dimension,
    graded_piece_dimension,
    intersect_ideals,
    intersect_many,
    projective_dimension_degree,
    sing_dim_deg,
    singular_locus_ideal,
)
from .kernel import kernel_name

__all__ = [
    "GroebnerBasis",
    "MonomialOrder",
    "DimensionDegree",
    "buchberger",
    "ideal_membership",
    "affine_dimension",
    "projective_dimension_degree",
    "singular_locus_ideal",
    "sing_dim_deg",
    "intersect_ideals",
    "intersect_many",
    "graded_piece_dimension",
    "kernel_name",
]
