"""Singular-locus censuses over a prime field.

A census walks degree-l forms in n+1 variables — every nonzero one, or a
seeded random sample — and records the dimension and degree of each form's
singular locus.  The square-multiple census additionally enumerates the
forms divisible by a nontrivial square and compares that set against the
forms whose singular locus has codimension one.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from ..algebra.field import PrimeField
from ..algebra.poly import GradedSpace, Poly
from ..control import JsonReport, check_cap, check_nb, fresh_seed, trial_rng
from ..errors import ValidationError
from ..groebner import sing_dim_deg

__all__ = [
    "CensusRecord",
    "CensusSummary",
    "census",
    "write_census_csv",
    "CSV_HEADER",
    "square_multiple_set",
    "SquarefreeReport",
    "squarefree_census",
]

CSV_HEADER = "seed,trial,q,n,b,l,sing_dim,sing_deg,elapsed_ms"


@dataclass(frozen=True)
class CensusRecord:
    """One measured form: identity of the trial plus its singular locus."""

    seed: int
    index: int
    q: int
    n: int
    b: int
    l: int
    sing_dim: int
    sing_deg: int
    elapsed_ms: int

    def csv_row(self) -> str:
        return (
            f"{self.seed},{self.index},{self.q},{self.n},{self.b},{self.l},"
            f"{self.sing_dim},{self.sing_deg},{self.elapsed_ms}"
        )


@dataclass(frozen=True)
class CensusSummary(JsonReport):
    """Aggregate view: counts per singular-locus dimension and the
    empirical probability that the dimension reaches b."""

    n: int
    b: int
    l: int
    q: int
    mode: str
    trials: int
    seed: int
    histogram: dict
    prob_sing_dim_ge_b: Fraction


def _reject_exhaustive_seed(mode: str, seed) -> None:
    if mode == "exhaustive" and seed is not None:
        raise ValidationError("exhaustive mode walks every form and takes no seed")


def _timed(measure, form):
    """(measure(form), seconds it took)."""
    t0 = time.perf_counter()
    value = measure(form)
    return value, time.perf_counter() - t0


def _class_walk(space: GradedSpace, measure):
    """Yield (code, value, seconds) for every nonzero form of ``space`` in
    the coefficient-code order of ``GradedSpace.iter_all``, running
    ``measure`` once per projective class.

    ``measure`` must give c*f the same value as f for every unit c.  A code
    is c*p^t + lower, with c its top nonzero digit at index t; the class
    representative c^-1 * f has top digit 1 and the smallest code in the
    class, so it is measured before any of its multiples.  A multiple reads
    the representative's value from a list over the current top-index block,
    indexed by the representative's lower code (the digits of ``lower``
    times c^-1 mod p).  ``seconds`` is the time spent on the row: the
    measurement for a representative, the lookup for a multiple.
    """
    field = space.field
    p = field.p
    mons = space.monomials
    interned = {}
    for t in range(len(mons)):
        block = p**t
        # over F_2 every class is a single form: nothing is ever looked up
        cache = [None] * block if p > 2 else None
        for lower, high_first in enumerate(product(range(p), repeat=t)):
            form = Poly(field, space.num_vars, zip(mons, (*reversed(high_first), 1)))
            value, seconds = _timed(measure, form)
            if cache is not None:
                cache[lower] = interned.setdefault(value, value)
            yield block + lower, value, seconds
        for c in range(2, p):
            inv = pow(c, -1, p)
            for lower in range(block):
                t0 = time.perf_counter()
                rep = 0
                weight = 1
                rest = lower
                while rest:
                    rest, digit = divmod(rest, p)
                    rep += digit * inv % p * weight
                    weight *= p
                value = cache[rep]
                yield c * block + lower, value, time.perf_counter() - t0


def census(
    n: int,
    b: int,
    l: int,
    field: PrimeField,
    mode: str = "sample",
    trials: int | None = None,
    seed: int | None = None,
    cap=None,
):
    """Measure singular loci of degree-l forms; returns (records, summary).

    ``sample`` mode draws ``trials`` nonzero forms, each from its own
    (seed, index) random stream, so results do not depend on execution
    order.  ``exhaustive`` mode takes no seed: it walks every nonzero form
    in coefficient-code order with seed recorded as 0 and index equal to
    the code; it measures each projective class once and copies the result
    to the scalar multiples, whose ``elapsed_ms`` is the lookup time.
    """
    check_nb(n, b)
    if l < 1:
        raise ValidationError("l >= 1 required")
    _reject_exhaustive_seed(mode, seed)
    space = GradedSpace(field, n + 1, l, GradedSpace.HOMOGENEOUS)
    q = field.p

    def record(index, seed_val, dd, seconds):
        return CensusRecord(
            seed=seed_val,
            index=index,
            q=q,
            n=n,
            b=b,
            l=l,
            sing_dim=dd.projective_dim,
            sing_deg=dd.degree,
            elapsed_ms=round(seconds * 1000),
        )

    if mode == "exhaustive":
        check_cap(space.size(), cap, what="exhaustive census")
        seed = 0
        records = [
            record(code, 0, dd, seconds)
            for code, dd, seconds in _class_walk(space, sing_dim_deg)
        ]
    elif mode == "sample":
        if trials is None or trials < 1:
            raise ValidationError("sample mode needs trials >= 1")
        if seed is None:
            seed = fresh_seed()
        records = []
        for index in range(trials):
            form = space.sample_nonzero(trial_rng(seed, index))
            records.append(record(index, seed, *_timed(sing_dim_deg, form)))
    else:
        raise ValidationError(f"unknown census mode {mode!r}")

    histogram = {}
    hits = 0
    for rec in records:
        histogram[rec.sing_dim] = histogram.get(rec.sing_dim, 0) + 1
        if rec.sing_dim >= b:
            hits += 1
    summary = CensusSummary(
        n=n,
        b=b,
        l=l,
        q=q,
        mode=mode,
        trials=len(records),
        seed=seed,
        histogram=histogram,
        prob_sing_dim_ge_b=Fraction(hits, len(records)),
    )
    return records, summary


def write_census_csv(records, fh) -> None:
    """Stream records as CSV with the fixed header."""
    fh.write(CSV_HEADER + "\n")
    for rec in records:
        fh.write(rec.csv_row() + "\n")


def square_multiple_set(n: int, l: int, field: PrimeField, cap=None):
    """Enumerate the forms G^2 * H (G nonzero of degree e = 1..l//2, H
    nonzero of the complementary degree).

    Returns (representatives, pair_count, fiber_sizes): a dict from
    canonical form key to one representative polynomial, the number of
    (G, H) pairs walked, and the per-form count of pairs that produced it.
    """
    if l < 2:
        raise ValidationError("l >= 2 required for a square factor")
    q = field.p
    nv = n + 1
    spaces = {}

    def space_of(deg):
        if deg not in spaces:
            spaces[deg] = GradedSpace(field, nv, deg, GradedSpace.HOMOGENEOUS)
        return spaces[deg]

    total_pairs = 0
    for e in range(1, l // 2 + 1):
        total_pairs += (space_of(e).size() - 1) * (space_of(l - 2 * e).size() - 1)
    check_cap(total_pairs, cap, what="square-multiple enumeration")

    reps = {}
    fibers = {}
    pair_count = 0
    for e in range(1, l // 2 + 1):
        for G in space_of(e).iter_all():
            if G.is_zero:
                continue
            G2 = G * G
            for H in space_of(l - 2 * e).iter_all():
                if H.is_zero:
                    continue
                F = G2 * H
                pair_count += 1
                key = F.canonical_key()
                if key not in reps:
                    reps[key] = F
                fibers[key] = fibers.get(key, 0) + 1
    return reps, pair_count, fibers


@dataclass(frozen=True)
class SquarefreeReport(JsonReport):
    """Comparison of {divisible by a square} against {singular locus of
    codimension one} for degree-l forms."""

    n: int
    l: int
    q: int
    mode: str
    trials: int
    seed: int
    image_size: int
    pair_count: int
    max_fiber: int
    member_violations: int
    checked: int
    mismatches: int

    @property
    def agree(self) -> bool:
        return self.member_violations == 0 and self.mismatches == 0

    def to_json_dict(self):
        return {**super().to_json_dict(), "agree": self.agree}


def squarefree_census(
    n: int,
    l: int,
    field: PrimeField,
    mode: str = "sample",
    trials: int | None = None,
    seed: int | None = None,
    cap=None,
) -> SquarefreeReport:
    """Check: sing_dim >= n-1 if and only if the form has a square factor.

    Every enumerated square multiple is verified to have a singular locus
    of dimension at least n-1; then sampled (or all) nonzero forms are
    tested both ways and disagreements counted.  ``exhaustive`` mode takes
    no seed.
    """
    check_nb(n)
    _reject_exhaustive_seed(mode, seed)
    reps, pair_count, fibers = square_multiple_set(n, l, field, cap=cap)
    threshold = n - 1
    member_violations = 0
    for form in reps.values():
        if sing_dim_deg(form).projective_dim < threshold:
            member_violations += 1

    space = GradedSpace(field, n + 1, l, GradedSpace.HOMOGENEOUS)
    mismatches = 0
    checked = 0

    # Both sides are invariant under scaling (c * G^2 H = G^2 (cH)), so the
    # exhaustive walk may copy a representative's outcome to its multiples.
    def mismatch(form):
        in_set = form.canonical_key() in reps
        deep = sing_dim_deg(form).projective_dim >= threshold
        return in_set != deep

    if mode == "exhaustive":
        check_cap(space.size(), cap, what="exhaustive square-free census")
        seed = 0
        for _, missed, _ in _class_walk(space, mismatch):
            checked += 1
            mismatches += missed
    elif mode == "sample":
        if trials is None or trials < 1:
            raise ValidationError("sample mode needs trials >= 1")
        if seed is None:
            seed = fresh_seed()
        for index in range(trials):
            checked += 1
            mismatches += mismatch(space.sample_nonzero(trial_rng(seed, index)))
    else:
        raise ValidationError(f"unknown census mode {mode!r}")

    return SquarefreeReport(
        n=n,
        l=l,
        q=field.p,
        mode=mode,
        trials=trials if mode == "sample" else checked,
        seed=seed,
        image_size=len(reps),
        pair_count=pair_count,
        max_fiber=max(fibers.values()),
        member_violations=member_violations,
        checked=checked,
        mismatches=mismatches,
    )
