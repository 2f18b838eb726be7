"""Explicit singular forms with a certified tangent-space rank.

Given a hypersurface piece f in the first b+2 coordinates and a suitable
point P, the witness assembles a degree-l form F whose singular locus
contains the cone over V(f), together with the (n+2) x (n+1) matrix J(P)
stacking the gradient of F at P over its full Hessian there.  The rank of
J(P) bounds the tangent dimension of the singular locus at P from above,
and a distinguished bottom-right minor certifies rank >= n-b.
"""

from typing import NamedTuple

from ..algebra.linalg import det_mod, rank_mod
from ..algebra.poly import Poly
from ..bounds import bezout_bound
from ..control import check_nb
from ..errors import InternalCheckError, ValidationError
from ..groebner import sing_dim_deg

__all__ = [
    "WitnessResult",
    "jacobian_witness",
    "square_ideal_generators",
    "degree_bound_audit",
]


class WitnessResult(NamedTuple):
    F: Poly
    jacobian: tuple
    rank: int


def _lift(f: Poly, nv: int) -> Poly:
    """The same polynomial viewed in a larger ring (extra variables unused)."""
    pad = nv - f.nvars
    return Poly(f.field, nv, {e + (0,) * pad: c for e, c in f.terms.items()})


def jacobian_witness(
    n: int, b: int, l: int, d: int, f: Poly, P, char_case: str
) -> WitnessResult:
    """Assemble the witness form for P and certify the rank of J(P).

    ``char_case`` selects the construction: "odd" builds
    x0^(l-2d) f^2 + sum_{i=b+2..n} x0^(l-2) x_i^2 and needs an
    odd-characteristic field with l >= 2d, P on V(f) with at least two
    nonzero coordinates, nonzero first coordinate, and the last partial of
    f nonvanishing at P.  "two" builds
    sum_i x_{b+2i-1} x_{b+2i} x0^(l-2) over characteristic 2 and needs
    n-b even, f linear, and P = [1,0,...,0].

    Every precondition failure raises ValidationError naming the
    hypothesis.  The result's rank is certified >= n-b by checking that
    the bottom-right (n-b) x (n-b) minor of J(P) is nonzero.
    """
    check_nb(n, b)
    if f.nvars != b + 2:
        raise ValidationError(
            f"f must live in the b+2 = {b + 2} variables x0..x{b + 1}"
        )
    if d < 1:
        raise ValidationError("d >= 1 required")
    if f.is_zero or not f.is_homogeneous(d):
        raise ValidationError(f"f must be nonzero homogeneous of degree {d}")
    field = f.field
    p = field.p
    P = tuple(int(c) % p for c in P)
    if len(P) != n + 1:
        raise ValidationError(f"P needs {n + 1} coordinates")
    if not any(P):
        raise ValidationError("P must be a nonzero point")
    if any(P[j] for j in range(b + 2, n + 1)):
        raise ValidationError("P must have zero coordinates past x_{b+1}")
    head = P[: b + 2]
    nv = n + 1

    if char_case == "odd":
        if p == 2:
            raise ValidationError(
                "char_case 'odd' needs an odd-characteristic field"
            )
        if l < 2 * d:
            raise ValidationError("l >= 2d required")
        if l < 2:
            raise ValidationError("l >= 2 required")
        if f.evaluate(head) != 0:
            raise ValidationError("P must lie on V(f)")
        if sum(1 for c in head if c) < 2:
            raise ValidationError("P needs at least two nonzero coordinates")
        if f.partial(b + 1).evaluate(head) == 0:
            raise ValidationError(
                "the partial of f along x_{b+1} must not vanish at P"
            )
        if P[0] == 0:
            raise ValidationError("P must have nonzero first coordinate")
        lifted = _lift(f, nv)
        x0 = Poly.variable(field, nv, 0)
        F = x0 ** (l - 2 * d) * lifted * lifted
        for i in range(b + 2, n + 1):
            F = F + x0 ** (l - 2) * Poly.variable(field, nv, i, power=2)
    elif char_case == "two":
        if p != 2:
            raise ValidationError("char_case 'two' needs characteristic 2")
        if (n - b) % 2 != 0:
            raise ValidationError("n-b must be even in characteristic 2")
        if l < 2:
            raise ValidationError("l >= 2 required")
        if d != 1 or f.degree() != 1:
            raise ValidationError("f must be linear in the characteristic-2 case")
        if f.evaluate(head) != 0:
            raise ValidationError("P must lie on V(f)")
        if P != (1,) + (0,) * n:
            raise ValidationError(
                "P must be [1,0,...,0] in the characteristic-2 case"
            )
        x0 = Poly.variable(field, nv, 0)
        F = Poly.zero(field, nv)
        for i in range(1, (n - b) // 2 + 1):
            F = F + (
                Poly.variable(field, nv, b + 2 * i - 1)
                * Poly.variable(field, nv, b + 2 * i)
                * x0 ** (l - 2)
            )
    else:
        raise ValidationError(f"unknown char_case {char_case!r}")

    partials = [F.partial(j) for j in range(nv)]
    grad_row = [g.evaluate(P) for g in partials]
    hessian = [
        [partials[i].partial(j).evaluate(P) for j in range(nv)]
        for i in range(nv)
    ]
    jacobian = tuple(tuple(row) for row in [grad_row] + hessian)
    rank = rank_mod(jacobian, p)
    corner = [row[b + 1 :] for row in jacobian[-(n - b) :]]
    if det_mod(corner, p) == 0:
        raise InternalCheckError(
            "bottom-right minor of J(P) vanished; the construction "
            "no longer certifies the rank"
        )
    if rank < n - b:
        raise InternalCheckError("rank of J(P) fell below n-b")
    return WitnessResult(F=F, jacobian=jacobian, rank=rank)


def square_ideal_generators(f: Poly, n: int):
    """Generators of the square of (f, x_{b+2}, ..., x_n) in n+1 variables.

    b is read off from f's ring (f uses x0..x_{b+1}); the generators are
    all pairwise products of the base generators, suitable for membership
    tests of witness forms.
    """
    b = f.nvars - 2
    if b < 1 or b > n - 1:
        raise ValidationError("f must use x0..x_{b+1} with 1 <= b <= n-1")
    nv = n + 1
    base = [_lift(f, nv)]
    for j in range(b + 2, n + 1):
        base.append(Poly.variable(f.field, nv, j))
    return [base[i] * base[j] for i in range(len(base)) for j in range(i, len(base))]


def degree_bound_audit(F: Poly, n: int, l: int) -> bool:
    """Necessary-condition check: the singular locus degree cannot exceed
    l(l-1)^(n+1); vacuously true when the locus is empty."""
    if F.is_zero:
        raise ValidationError("F must be nonzero")
    if F.nvars != n + 1:
        raise ValidationError(f"F must have {n + 1} variables")
    if not F.is_homogeneous(l):
        raise ValidationError(f"F must be homogeneous of degree {l}")
    dd = sing_dim_deg(F)
    if dd.projective_dim < 0:
        return True
    return dd.degree <= bezout_bound(n, l)
