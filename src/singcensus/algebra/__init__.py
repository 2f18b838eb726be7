from .field import PrimeField, is_prime
from .poly import (
    GradedSpace,
    Poly,
    format_poly,
    infer_num_vars,
    monomials_of_degree,
    monomials_up_to_degree,
    parse_poly,
)

__all__ = [
    "PrimeField",
    "is_prime",
    "Poly",
    "parse_poly",
    "format_poly",
    "infer_num_vars",
    "monomials_of_degree",
    "monomials_up_to_degree",
    "GradedSpace",
]
