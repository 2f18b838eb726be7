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

Two independent routes compute the codimension of the vanishing condition
inside the space of degree-l forms.  The production route substitutes each
member's parametrization into a generic form and takes the rank of the
stacked linear system; the cross-check route intersects the member ideals
and counts the degree-l graded piece.
"""

import math
from dataclasses import dataclass

from ..algebra.field import PrimeField
from ..algebra.linalg import RowEchelonGF
from ..algebra.poly import Poly, monomials_of_degree
from ..bounds import A_b
from ..control import JsonReport, check_nb, check_prime
from ..errors import InternalCheckError, ValidationError
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


def _substitution_blocks(config: LinearConfig, l: int, p: int, basis):
    """Per-member constraint rows of the substitution route.

    Columns index ``basis`` (the degree-l monomials in n+1 variables); each
    member contributes one row per degree-l monomial in its free
    coordinates, collecting the sources that map onto it.
    """
    n, b = config.n, config.b
    blocks = []
    for pt in config.points:
        rows = {}
        for col, exps in enumerate(basis):
            coeff = 1
            for j in range(b + 1, n + 1):
                e = exps[j]
                if e:
                    coeff = (coeff * pow(pt[j - b - 1], e, p)) % p
                    if coeff == 0:
                        break
            if coeff == 0:
                continue
            target = exps[:b] + (sum(exps[b:]),)
            rows.setdefault(target, []).append((col, coeff))
        blocks.append(list(rows.values()))
    if config.infinity:
        rows = {}
        for col, exps in enumerate(basis):
            if exps[b] or any(exps[j] for j in range(b + 2, n + 1)):
                continue
            target = exps[:b] + (exps[b + 1],)
            rows.setdefault(target, []).append((col, 1))
        blocks.append(list(rows.values()))
    return blocks


def union_vanishing_codim(
    config: LinearConfig, l: int, field: PrimeField
) -> SpecializationReport:
    """Codimension, inside the degree-l forms, of vanishing on the union.

    Computed exactly: each member plane's parametrization is substituted
    into a generic degree-l form and the resulting identical-vanishing
    conditions are stacked; the codimension is the rank, accumulated
    member by member to give the mu sequence.
    """
    if l < 1:
        raise ValidationError("l >= 1 required")
    cfg = config.reduced(field.p)
    basis = monomials_of_degree(cfg.n + 1, l)
    ech = RowEchelonGF(field.p, len(basis))
    mu = []
    for block in _substitution_blocks(cfg, l, field.p, basis):
        for row in block:
            ech.add_row_sparse(row)
        mu.append(ech.rank)
    return SpecializationReport(
        l=l,
        d=cfg.d,
        mu_sequence=tuple(mu),
        codim=mu[-1],
        bound=A_b(l, min(cfg.d, l + 1), cfg.b),
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

    A monomial survives a finite member when the substituted coefficient is
    zero mod p, and the limit member when it contains x_b or any of
    x_{b+2}..x_n.  Returned as exponent tuples in descending grevlex order.
    """
    cfg = config.reduced(field.p)
    n, b, p = cfg.n, cfg.b, field.p
    out = []
    for exps in monomials_of_degree(n + 1, l):
        ok = True
        for pt in cfg.points:
            coeff = 1
            for j in range(b + 1, n + 1):
                e = exps[j]
                if e:
                    coeff = (coeff * pow(pt[j - b - 1], e, p)) % p
            if coeff:
                ok = False
                break
        if ok and cfg.infinity:
            if not (exps[b] or any(exps[j] for j in range(b + 2, n + 1))):
                ok = False
        if ok:
            out.append(exps)
    return tuple(out)


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
    codes = rng.sample(range(capacity), finite_count)
    points = []
    for code in codes:
        pt = []
        for _ in range(n - b):
            pt.append(code % p)
            code //= p
        points.append(tuple(pt))
    return LinearConfig(n, b, tuple(points), include_inf)
