"""Ideal-theoretic queries: dimension, degree, singular loci, intersections."""

from typing import List, Sequence

from ..algebra.poly import Poly, monomials_of_degree
from ..errors import ValidationError
from .basis import GroebnerBasis, MonomialOrder, buchberger
from .hilbert import DimensionDegree, dimension_degree_from_leads, staircase_dimension


def affine_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of the quotient ring; -1 for the unit ideal."""
    return staircase_dimension(gb.lead_exponents(), gb.nvars)


def projective_dimension_degree(gens: Sequence[Poly]) -> DimensionDegree:
    """Dimension and degree of the projective scheme cut out by gens.

    Dimension -1 covers both the empty scheme (cone = origin) and the unit
    ideal; the degree is that of the top-dimensional part, with multiplicity.
    """
    gens = list(gens)
    if not gens:
        raise ValidationError("at least one generator required")
    for g in gens:
        if not g.is_homogeneous():
            raise ValidationError("generators must be homogeneous")
    nvars = gens[0].nvars
    gb = buchberger(gens, MonomialOrder("grevlex", nvars))
    affine, degree = dimension_degree_from_leads(gb.lead_exponents(), nvars)
    projective = max(affine - 1, -1)
    if projective < 0:
        degree = 0
    return DimensionDegree(affine_dim=affine, projective_dim=projective, degree=degree)


def singular_locus_ideal(f: Poly) -> List[Poly]:
    """Generators of the singular-locus ideal: f together with all partials.

    Zero partials are kept in place so the list always has nvars + 1 entries
    after f.
    """
    if f.is_zero:
        raise ValidationError("singular locus requires a nonzero polynomial")
    if not f.is_homogeneous():
        raise ValidationError("singular locus requires a homogeneous polynomial")
    if f.degree() < 1:
        raise ValidationError("singular locus requires degree >= 1")
    return [f] + [f.partial(i) for i in range(f.nvars)]


def sing_dim_deg(f: Poly) -> DimensionDegree:
    """Dimension and degree of the singular locus of the hypersurface f = 0.

    When p does not divide l = deg f, Euler's identity l*f = sum x_i df/dx_i
    puts f in the ideal of its partials, so the partials alone go to the
    kernel; the ideal, and so its reduced basis, is the same.
    """
    gens = singular_locus_ideal(f)
    if f.degree() % f.field.p:
        gens = gens[1:]
    return projective_dimension_degree(gens)


def _shift_up(poly: Poly) -> Poly:
    """Prepend a fresh variable 0 (exponent 0 everywhere)."""
    return Poly(
        poly.field,
        poly.nvars + 1,
        {(0,) + e: c for e, c in poly.terms.items()},
    )


def intersect_ideals(gens_a: Sequence[Poly], gens_b: Sequence[Poly]) -> List[Poly]:
    """Generators of the intersection ideal, via elimination of a tag variable.

    Standard device: I cap J = (t*I + (1-t)*J) cap k[x], computed with an
    order that eliminates t.  Variable 0 of the extended ring is t.
    """
    gens_a = [g for g in gens_a if not g.is_zero]
    gens_b = [g for g in gens_b if not g.is_zero]
    if not gens_a or not gens_b:
        return []  # intersection with the zero ideal is the zero ideal
    field = gens_a[0].field
    nvars = gens_a[0].nvars
    for g in gens_a + gens_b:
        if g.field != field or g.nvars != nvars:
            raise ValidationError("ideal generators disagree on ring")
    t = Poly.variable(field, nvars + 1, 0)
    one = Poly.constant(field, nvars + 1, 1)
    mixed = [t * _shift_up(g) for g in gens_a]
    mixed += [(one - t) * _shift_up(g) for g in gens_b]
    gb = buchberger(mixed, MonomialOrder("elim0", nvars + 1))
    # elim0 puts the highest power of t in the lead: t-free iff the lead is
    return [
        Poly(field, nvars, [(e[1:], c) for e, c in terms])
        for terms in gb.terms
        if terms[0][0][0] == 0
    ]


def intersect_many(ideals: Sequence[Sequence[Poly]]) -> List[Poly]:
    """Iterated pairwise intersection of a list of ideals."""
    ideals = list(ideals)
    if not ideals:
        raise ValidationError("at least one ideal required")
    acc = [g for g in ideals[0] if not g.is_zero]
    for nxt in ideals[1:]:
        acc = intersect_ideals(acc, nxt)
    return acc


def graded_piece_dimension(gens: Sequence[Poly], degree: int) -> int:
    """Dimension over F_p of the degree-`degree` piece of the ideal.

    Counted as (monomials of the degree) minus (standard monomials of the
    degree), i.e. the corank of the quotient's graded piece.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return 0
    nvars = gens[0].nvars
    gb = buchberger(gens)
    leads = gb.lead_exponents()
    total = 0
    standard = 0
    for mono in monomials_of_degree(nvars, degree):
        total += 1
        if not any(all(m >= l for m, l in zip(mono, lead)) for lead in leads):
            standard += 1
    return total - standard
