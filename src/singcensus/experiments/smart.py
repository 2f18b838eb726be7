"""Structured random forms built as F0 plus p-th powers times coordinates.

The assembly F = F0 + G_0^p x_0 + ... + G_{n-1}^p x_{n-1} has partial
derivatives dF/dx_i = dF0/dx_i + G_i^p because each G_i^p differentiates to
zero in characteristic p.  The sample keeps the ingredients, the assembled
inhomogeneous form, and its degree-l homogenization (hidden variable x_n),
and offers Krull-dimension proxies for the good-behavior event of the
derivative loci.
"""

from dataclasses import dataclass
from fractions import Fraction

from ..algebra.field import PrimeField
from ..algebra.poly import GradedSpace, Poly
from ..bounds import prob_En_lower, tau
from ..control import (
    JsonReport,
    check_cap,
    check_prime,
    check_q_is_p,
    fresh_seed,
    rational_json,
    trial_rng,
)
from ..errors import InternalCheckError, ValidationError
from ..groebner import MonomialOrder, affine_dimension, buchberger

__all__ = [
    "SmartSample",
    "smart_construct",
    "random_smart_sample",
    "uniformity_of_smart",
    "UniformityReport",
    "commutation_holds",
    "event_En_proxy",
    "EnExperimentReport",
    "en_experiment",
]


@dataclass(frozen=True)
class SmartSample:
    """An assembled form with its ingredients.

    F0 and the G_i live in n variables x_0..x_{n-1}; F = F0 + sum G_i^p x_i;
    F_hom is F homogenized to degree l with hidden variable x_n.
    """

    F0: Poly
    Gs: tuple
    F: Poly
    F_hom: Poly
    l: int

    @property
    def n(self) -> int:
        return self.F0.nvars

    @property
    def p(self) -> int:
        return self.F0.field.p


def smart_construct(F0: Poly, Gs, p: int, l: int) -> SmartSample:
    """Assemble F = F0 + sum G_i^p x_i and verify its derivative structure.

    Requires deg F0 <= l, exactly n = F0.nvars polynomials G_i with
    deg G_i <= tau(l, p), all over the prime field with p elements.
    """
    check_prime(p)
    if F0.field.p != p:
        raise ValidationError(
            f"F0 lives over F_{F0.field.p} but p={p} was requested"
        )
    n = F0.nvars
    Gs = tuple(Gs)
    if len(Gs) != n:
        raise ValidationError(
            f"need exactly {n} companion polynomials, got {len(Gs)}"
        )
    if F0.degree() > l:
        raise ValidationError(f"deg F0 = {F0.degree()} exceeds l = {l}")
    t = tau(l, p)
    for i, g in enumerate(Gs):
        if g.field != F0.field or g.nvars != n:
            raise ValidationError(f"G_{i} disagrees with F0's ring")
        if g.degree() > t:
            raise ValidationError(
                f"deg G_{i} = {g.degree()} exceeds tau = {t}"
            )
    F = F0
    for i, g in enumerate(Gs):
        F = F + g**p * Poly.variable(F0.field, n, i)
    F_hom = F.homogenized(l, hidden=n)
    for i, g in enumerate(Gs):
        if F.partial(i) != F0.partial(i) + g**p:
            raise InternalCheckError(
                f"derivative identity failed at variable {i}"
            )
    return SmartSample(F0=F0, Gs=Gs, F=F, F_hom=F_hom, l=l)


def random_smart_sample(n: int, l: int, p: int, rng) -> SmartSample:
    """Uniform draw of the ingredients, assembled via smart_construct."""
    field = PrimeField(p)
    f0_space = GradedSpace(field, n, l, GradedSpace.AT_MOST)
    g_space = GradedSpace(field, n, tau(l, p), GradedSpace.AT_MOST)
    F0 = f0_space.sample(rng)
    Gs = tuple(g_space.sample(rng) for _ in range(n))
    return smart_construct(F0, Gs, p, l)


def commutation_holds(sample: SmartSample) -> bool:
    """Whether homogenizing commutes with every visible partial derivative.

    Checks dF_hom/dx_i == (dF/dx_i) homogenized to degree l-1, for each
    i < n; the hidden variable contributes no claim.
    """
    n = sample.n
    for i in range(n):
        lifted = sample.F.partial(i).homogenized(sample.l - 1, hidden=n)
        if sample.F_hom.partial(i) != lifted:
            return False
    return True


@dataclass(frozen=True)
class UniformityReport(JsonReport):
    """Exhaustive fiber statistics of the assembly map (F0, Gs) -> F."""

    n: int
    l: int
    q: int
    total_tuples: int
    distinct_images: int
    fiber_size: int


def uniformity_of_smart(n: int, l: int, p: int, q: int, cap=None) -> UniformityReport:
    """Exhaustively count the fibers of (F0, Gs) -> F and require them equal.

    Only prime fields are supported, so q must equal p.  The enumeration
    size q^(dim F0-space + n * dim G-space) is checked against the cap.
    """
    check_prime(p)
    check_q_is_p(p, q)
    field = PrimeField(p)
    f0_space = GradedSpace(field, n, l, GradedSpace.AT_MOST)
    g_space = GradedSpace(field, n, tau(l, p), GradedSpace.AT_MOST)
    total = f0_space.size() * g_space.size() ** n
    check_cap(total, cap, what="assembly-map fiber enumeration")
    counts = {}

    def rec(i, gs):
        if i == n:
            for F0 in f0_space.iter_all():
                F = F0
                for j, g in enumerate(gs):
                    F = F + g ** p * Poly.variable(field, n, j)
                key = F.canonical_key()
                counts[key] = counts.get(key, 0) + 1
            return
        for g in g_space.iter_all():
            rec(i + 1, gs + [g])

    rec(0, [])
    sizes = set(counts.values())
    if len(sizes) != 1:
        raise InternalCheckError(
            f"assembly-map fibers are not uniform: sizes {sorted(sizes)}"
        )
    fiber = sizes.pop()
    if fiber * len(counts) != total:
        raise InternalCheckError("fiber accounting does not add up")
    return UniformityReport(
        n=n,
        l=l,
        q=q,
        total_tuples=total,
        distinct_images=len(counts),
        fiber_size=fiber,
    )


def event_En_proxy(sample: SmartSample, n: int, b: int) -> dict:
    """Krull-dimension proxies for the good behavior of derivative loci.

    bullet1: for every i = 0..n-b-1, the chart x_n != 0 of the locus of the
    first i+1 partials of F_hom has affine dimension at most n-i-1.  This
    is exact for equidimensionality away from V(x_n): i+1 equations can
    only cut dimension down to n-i-1, so the bound holds exactly when every
    chart component has that dimension (or the chart is empty).

    bullet2_strong: after adjoining the partial with respect to x_{n-1},
    the chart dimension drops to at most b-1.  This is deliberately
    stronger than needed (no component is exempted by its degree); the two
    flags are reported separately and never combined silently.
    """
    if sample.n != n:
        raise ValidationError(
            f"sample has {sample.n} visible variables, expected n = {n}"
        )
    if not 1 <= b <= n - 1:
        raise ValidationError("1 <= b <= n-1 required")
    field = sample.F0.field
    order = MonomialOrder("grevlex", n)
    charts = [sample.F_hom.partial(i).dehomogenized(n) for i in range(n)]
    bullet1 = True
    gens = []
    for i in range(n - b):
        gens.append(charts[i])
        dim = affine_dimension(buchberger(gens, order))
        if dim > n - i - 1:
            bullet1 = False
            break
    strong_gens = [charts[i] for i in range(n - b)] + [charts[n - 1]]
    dim_strong = affine_dimension(buchberger(strong_gens, order))
    bullet2_strong = dim_strong <= b - 1
    return {"bullet1": bullet1, "bullet2_strong": bullet2_strong}


@dataclass(frozen=True)
class EnExperimentReport(JsonReport):
    """Sampled frequencies of the two dimension proxies.

    The closed-form product lower bound is included for side-by-side
    reading; no inequality between them is asserted (the proxies are
    one-sided relatives of the event the bound speaks about).
    """

    n: int
    b: int
    l: int
    q: int
    trials: int
    seed: int
    bullet1_count: int
    bullet2_strong_count: int
    both_count: int
    reference_lower_bound: Fraction

    @property
    def bullet1_frequency(self) -> Fraction:
        return Fraction(self.bullet1_count, self.trials)

    @property
    def bullet2_strong_frequency(self) -> Fraction:
        return Fraction(self.bullet2_strong_count, self.trials)

    def to_json_dict(self):
        return {
            **super().to_json_dict(),
            "bullet1_frequency": rational_json(self.bullet1_frequency),
            "bullet2_strong_frequency": rational_json(self.bullet2_strong_frequency),
        }


def en_experiment(
    n: int, b: int, l: int, p: int, trials: int, seed=None
) -> EnExperimentReport:
    """Sample assembled forms and record how often the proxies hold."""
    if trials < 1:
        raise ValidationError("trials >= 1 required")
    if not 1 <= b <= n - 1:
        raise ValidationError("1 <= b <= n-1 required")
    if seed is None:
        seed = fresh_seed()
    c1 = c2 = both = 0
    for idx in range(trials):
        rng = trial_rng(seed, idx)
        sample = random_smart_sample(n, l, p, rng)
        flags = event_En_proxy(sample, n, b)
        c1 += flags["bullet1"]
        c2 += flags["bullet2_strong"]
        both += flags["bullet1"] and flags["bullet2_strong"]
    return EnExperimentReport(
        n=n,
        b=b,
        l=l,
        q=p,
        trials=trials,
        seed=seed,
        bullet1_count=c1,
        bullet2_strong_count=c2,
        both_count=both,
        reference_lower_bound=prob_En_lower(n, b, l, p, p),
    )
