"""Exhaustive counting of chart polynomials whose p-th-power shift vanishes
on a fixed subscheme.

For a closed subscheme Z of projective n-space and a fixed inhomogeneous
F0, the counts compare, over all G of degree at most tau in the chart
variables, how often Z sits inside V of the homogenization of F0 + G^p
versus inside V of the homogenization of G alone.  The left count is
either zero or exactly the right count: two solutions G, G' differ by an
element of Z's chart ideal, because (G - G')^p lies in a radical ideal in
characteristic p.
"""

from ..algebra.poly import GradedSpace, Poly
from ..control import check_cap, check_prime, check_q_is_p
from ..errors import InternalCheckError, ValidationError
from ..groebner import buchberger, ideal_membership

__all__ = ["dh_counting"]


def dh_counting(
    F0: Poly,
    Z_gens,
    tau: int,
    p: int,
    q: int,
    hidden: int | None = None,
    l: int | None = None,
    cap=None,
):
    """Count (lhs, rhs) over the full chart-polynomial space, exhaustively.

    ``Z_gens`` are homogeneous generators in n+1 variables; the caller is
    responsible for them cutting out the intended (irreducible) subscheme.
    ``hidden`` picks the chart variable (default x_n); Z must not be
    contained in V(x_hidden).  F0 lives in the n chart variables with
    deg F0 <= l-1, where l defaults to p*tau + 1; the left homogenization
    target is l-1 and the right one is tau.

    Returns (count_lhs, count_rhs) and asserts the dichotomy
    count_lhs in {0, count_rhs} as well as count_lhs <= count_rhs.
    """
    check_prime(p)
    check_q_is_p(p, q)
    if tau < 0:
        raise ValidationError("tau >= 0 required")
    gens = [g for g in Z_gens if not g.is_zero]
    if not gens:
        raise ValidationError("Z needs at least one nonzero generator")
    field = gens[0].field
    if field.p != p:
        raise ValidationError(
            f"Z generators live over F_{field.p} but p={p} was requested"
        )
    nv = gens[0].nvars
    n = nv - 1
    for g in gens:
        if g.field != field or g.nvars != nv:
            raise ValidationError("Z generators disagree on ring")
        if not g.is_homogeneous():
            raise ValidationError("Z generators must be homogeneous")
    if hidden is None:
        hidden = n
    if not 0 <= hidden <= n:
        raise ValidationError(f"chart variable index {hidden} out of range")
    if l is None:
        l = p * tau + 1
    if p * tau > l - 1:
        raise ValidationError("l - 1 >= p * tau required")
    if F0.field != field or F0.nvars != n:
        raise ValidationError(
            f"F0 must live in the {n} chart variables over F_{field.p}"
        )
    if F0.degree() > l - 1:
        raise ValidationError(f"deg F0 = {F0.degree()} exceeds l-1 = {l - 1}")

    gb = buchberger(gens)
    x_hidden = Poly.variable(field, nv, hidden)
    if ideal_membership(x_hidden, gb):
        raise ValidationError(
            f"Z is contained in the hyperplane x{hidden} = 0; "
            "pick a different chart variable"
        )

    space = GradedSpace(field, n, tau, GradedSpace.AT_MOST)
    check_cap(space.size(), cap, what="chart-polynomial enumeration")
    count_lhs = 0
    count_rhs = 0
    for G in space.iter_all():
        shifted = F0 + G**p
        if ideal_membership(shifted.homogenized(l - 1, hidden=hidden), gb):
            count_lhs += 1
        if ideal_membership(G.homogenized(tau, hidden=hidden), gb):
            count_rhs += 1
    if count_lhs not in (0, count_rhs):
        raise InternalCheckError(
            f"count dichotomy violated: lhs={count_lhs}, rhs={count_rhs}"
        )
    if count_lhs > count_rhs:
        raise InternalCheckError(
            f"left count {count_lhs} exceeds right count {count_rhs}"
        )
    return count_lhs, count_rhs
