"""Unions of b-planes through a common (b-1)-plane, and the exact
codimension of the degree-l forms vanishing on them.

Everything lives in projective n-space with coordinates x_0..x_n.  All
member planes of a configuration contain the fixed (b-1)-plane
V(x_b, ..., x_n).  A finite member with parameter tuple
(p_{b+1}, ..., p_n) is the graph plane

    V(x_{b+1} - p_{b+1} x_b, ..., x_n - p_n x_b),

on which x_0..x_b are free; the optional last member is
V(x_b, x_{b+2}, ..., x_n), the limit of the graphs as the parameters grow
in the x_{b+1} direction, on which x_0..x_{b-1}, x_{b+1} are free.

Each member is the cone, with vertex V(x_b, ..., x_n), over one point of
P^{n-b} in the coordinates x_b..x_n: [1 : p_{b+1} : ... : p_n] for a graph
member and [0 : 1 : 0 ... 0] for the limit member.

Two independent routes compute the codimension of the vanishing condition
inside the space of degree-l forms.  The production route reads the
configuration as those cone points and sums per-degree evaluation ranks at
them; the cross-check route intersects the member ideals and counts the
degree-l graded piece.
"""

import math
import sys
from dataclasses import dataclass

from ..algebra.field import PrimeField
from ..algebra.linalg import RowEchelonGF
from ..algebra.poly import Poly, monomials_of_degree
from ..bounds import A_b
from ..control import JsonReport, check_nb, check_prime
from ..errors import CapExceeded, InternalCheckError, ValidationError
from ..groebner import graded_piece_dimension, intersect_many

__all__ = [
    "LinearConfig",
    "SpecializationReport",
    "union_vanishing_codim",
    "mu_increments",
    "groebner_union_codim",
    "surviving_monomials",
    "random_config",
]


@dataclass(frozen=True)
class LinearConfig:
    """A family of distinct b-planes through the common (b-1)-plane.

    ``points`` holds the parameter tuples of the finite (graph) members;
    ``infinity`` appends the limit member V(x_b, x_{b+2}, ..., x_n) as the
    final plane.
    """

    n: int
    b: int
    points: tuple
    infinity: bool = False

    def __post_init__(self):
        check_nb(self.n, self.b)
        pts = tuple(tuple(int(c) for c in pt) for pt in self.points)
        object.__setattr__(self, "points", pts)
        want = self.n - self.b
        for pt in pts:
            if len(pt) != want:
                raise ValidationError(
                    f"parameter tuple {pt} has {len(pt)} entries, expected {want}"
                )
        if len(set(pts)) != len(pts):
            raise ValidationError("configuration members must be distinct planes")
        if not pts and not self.infinity:
            raise ValidationError("at least one member plane required")

    @property
    def d(self) -> int:
        """Number of member planes."""
        return len(self.points) + (1 if self.infinity else 0)

    def reduced(self, p: int) -> "LinearConfig":
        """The same configuration with parameters reduced mod p.

        Tuples that collide after reduction would describe the same plane,
        so they are rejected.
        """
        pts = tuple(tuple(c % p for c in pt) for pt in self.points)
        if len(set(pts)) != len(pts):
            raise ValidationError(
                f"configuration members coincide after reduction mod {p}"
            )
        return LinearConfig(self.n, self.b, pts, self.infinity)

    def member_ideals(self, field: PrimeField):
        """Vanishing-ideal generators of each member plane, in config order."""
        nv = self.n + 1
        b = self.b
        out = []
        for pt in self.points:
            gens = []
            for j in range(b + 1, self.n + 1):
                terms = {self._unit(j, nv): 1}
                coeff = (-pt[j - b - 1]) % field.p
                if coeff:
                    terms[self._unit(b, nv)] = coeff
                gens.append(Poly(field, nv, terms))
            out.append(gens)
        if self.infinity:
            gens = [Poly.variable(field, nv, b)]
            for j in range(b + 2, self.n + 1):
                gens.append(Poly.variable(field, nv, j))
            out.append(gens)
        return out

    @staticmethod
    def _unit(i, nv):
        e = [0] * nv
        e[i] = 1
        return tuple(e)


@dataclass(frozen=True)
class SpecializationReport(JsonReport):
    """Result of a union-vanishing codimension computation.

    ``mu_sequence[m-1]`` is the codimension after the first m members;
    ``codim`` is the full value and ``bound`` the closed-form lower bound
    it is measured against.
    """

    l: int
    d: int
    mu_sequence: tuple
    codim: int
    bound: int

    def __post_init__(self):
        if len(self.mu_sequence) != self.d:
            raise InternalCheckError("mu sequence length must equal member count")
        if any(
            a > b for a, b in zip(self.mu_sequence, self.mu_sequence[1:])
        ):
            raise InternalCheckError("mu sequence must be non-decreasing")
        if self.codim != self.mu_sequence[-1]:
            raise InternalCheckError("codim must equal the final mu value")


def _cone_points(config: LinearConfig):
    """The cone points of the members, in member order, as coordinate
    tuples over x_b..x_n: [1 : pt] per graph member, then [0 : 1 : 0 ... 0]
    for the limit member."""
    points = [(1,) + pt for pt in config.points]
    if config.infinity:
        points.append((0, 1) + (0,) * (config.n - config.b - 1))
    return points


def union_vanishing_codim(
    config: LinearConfig, l: int, field: PrimeField
) -> SpecializationReport:
    """Codimension, inside the degree-l forms, of vanishing on the union.

    Write a degree-l form as F = sum over alpha of x^alpha F_alpha, with
    alpha over x_0..x_{b-1} and F_alpha of degree l - |alpha| in
    x_b..x_n.  F vanishes on the cone over a point z exactly when every
    F_alpha(z) = 0, so with Z_m the first m cone points

        mu_m = sum_{s=0..l} C(s+b-1, b-1) h_{Z_m}(l-s),

    where h_{Z_m}(k) is the rank of evaluating the degree-k monomials in
    x_b..x_n at Z_m.  The points are distinct, so h_{Z_m}(k) = m for
    k >= d-1; and once Z_d imposes independent conditions in some degree,
    so does every Z_m in every higher degree.  Only the degrees below that
    are row-reduced; the rest are summed in closed form.
    """
    if l < 1:
        raise ValidationError("l >= 1 required")
    cfg = config.reduced(field.p)
    p, b = field.p, cfg.b
    points = _cone_points(cfg)
    d = len(points)
    h = []  # h[k][m - 1] = h_{Z_m}(k) while Z_d is not yet independent
    for k in range(min(l + 1, d - 1)):
        monomials = monomials_of_degree(cfg.n - b + 1, k)
        ech = RowEchelonGF(p, len(monomials))
        ranks = []
        for z in points:
            row = [math.prod(pow(c, a, p) for c, a in zip(z, e)) for e in monomials]
            ech.add_row(row)
            ranks.append(ech.rank)
        if ranks[-1] == d:
            break
        h.append(ranks)
    # the degrees k >= len(h), where h_{Z_m}(k) = m, sum to m C(l-len(h)+b, b)
    mu = [
        sum(math.comb(l - k + b - 1, b - 1) * hk[m - 1] for k, hk in enumerate(h))
        + m * math.comb(l - len(h) + b, b)
        for m in range(1, d + 1)
    ]
    return SpecializationReport(
        l=l,
        d=d,
        mu_sequence=tuple(mu),
        codim=mu[-1],
        bound=A_b(l, min(d, l + 1), b),
    )


def mu_increments(report: SpecializationReport):
    """Successive gains mu_m - mu_{m-1} for m = 2..d; empty for d = 1."""
    seq = report.mu_sequence
    return [seq[i] - seq[i - 1] for i in range(1, len(seq))]


def groebner_union_codim(config: LinearConfig, l: int, field: PrimeField) -> int:
    """The same codimension via ideal intersection and graded-piece count.

    Independent of the substitution route: intersects the member plane
    ideals with tag-variable elimination and subtracts the dimension of the
    intersection's degree-l piece from the full space.
    """
    if l < 1:
        raise ValidationError("l >= 1 required")
    cfg = config.reduced(field.p)
    inter = intersect_many(cfg.member_ideals(field))
    total = math.comb(l + cfg.n, cfg.n)
    return total - graded_piece_dimension(inter, l)


def surviving_monomials(config: LinearConfig, l: int, field: PrimeField):
    """Degree-l monomials that vanish on every member plane.

    A monomial vanishes on the cone over z exactly when its x_b..x_n part
    vanishes at z, that is, when it contains a variable whose coordinate
    at z is zero.  Returned as exponent tuples in descending grevlex order.
    """
    cfg = config.reduced(field.p)
    b = cfg.b
    zeros = [[b + j for j, c in enumerate(z) if c == 0] for z in _cone_points(cfg)]
    return tuple(
        exps
        for exps in monomials_of_degree(cfg.n + 1, l)
        if all(any(exps[i] for i in zs) for zs in zeros)
    )


def random_config(
    n: int, b: int, d: int, p: int, rng, infinity: bool | None = None
) -> LinearConfig:
    """A random configuration of d distinct planes over F_p.

    ``infinity=None`` lets the generator flip a coin for the limit member
    (forced on when the finite graph planes alone cannot supply d distinct
    members).
    """
    check_nb(n, b)
    if d < 1:
        raise ValidationError("d >= 1 required")
    check_prime(p)
    capacity = p ** (n - b)
    if infinity is None:
        include_inf = d > capacity or rng.random() < 0.5
    else:
        include_inf = infinity
    finite_count = d - (1 if include_inf else 0)
    if finite_count > capacity:
        raise ValidationError(
            f"cannot pick {d} distinct planes over F_{p}: "
            f"only {capacity} graph members plus one limit member exist"
        )
    if capacity > sys.maxsize:
        raise CapExceeded(
            f"cannot sample among {p}^{n - b} graph members: random.sample "
            f"draws from at most {sys.maxsize}; pick a smaller n - b"
        )
    codes = rng.sample(range(capacity), finite_count)
    points = []
    for code in codes:
        pt = []
        for _ in range(n - b):
            pt.append(code % p)
            code //= p
        points.append(tuple(pt))
    return LinearConfig(n, b, tuple(points), include_inf)
