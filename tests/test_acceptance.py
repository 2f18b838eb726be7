"""Acceptance suite: one test per shipped guarantee, each printing its own
pass/fail line under ``pytest -v``.

Every numeric expectation below was frozen from an independent hand or
brute-force computation before the library code was written; the library
must reproduce them exactly (or, for the sampled trend check, satisfy the
stated qualitative property) within the stated time budget.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from singcensus.algebra.field import PrimeField
from singcensus.algebra.linalg import det_mod
from singcensus.algebra.poly import GradedSpace, parse_poly
from singcensus.bounds import (
    A_b,
    a_nb,
    bezout_bound,
    check_hypothesis,
    dim_X1,
    dim_im_phi,
    find_l0,
    prob_En_lower,
    tau,
)
from singcensus.cli import main as cli_main
from singcensus.experiments import (
    LinearConfig,
    census,
    dh_counting,
    jacobian_witness,
    random_config,
    union_vanishing_codim,
)
from singcensus.experiments.census import squarefree_census
from singcensus.experiments.smart import (
    commutation_holds,
    random_smart_sample,
    uniformity_of_smart,
)
from singcensus.experiments.specialization import (
    groebner_union_codim,
    surviving_monomials,
)
from singcensus.experiments.witness import square_ideal_generators
from singcensus.groebner import buchberger, ideal_membership

SEED = 20260822

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_criterion_01_closed_form_suite():
    """Exact closed-form values, frozen by hand before implementation."""
    t0 = time.perf_counter()
    assert a_nb(3, 1, 3) == 7
    assert dim_X1(3, 1, 3) == 13
    assert A_b(3, 2, 1) == 7
    for b in range(1, 5):
        for l in range(1, 31):
            assert A_b(l, 1, b) == comb(l + b, b)
    assert tau(7, 2) == 3
    assert bezout_bound(3, 3) == 48
    assert dim_im_phi(3, 1, 3) == 6
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_partial_sum_growth():
    """The full partial sum dominates (half the terms) x (smallest kept term)."""
    t0 = time.perf_counter()
    for b in range(1, 5):
        for l in range(1, 61):
            kept = (l + 2) // 2
            assert A_b(l, l + 1, b) >= kept * comb(l // 2 + b, b)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_degree_threshold_scan():
    """Stable-threshold search agrees with the frozen scan oracle."""
    t0 = time.perf_counter()
    assert find_l0(3, 1, 2, window=50) == 21
    assert check_hypothesis(20, 11, 59, 2, 1) is False
    assert check_hypothesis(21, 11, 62, 2, 1) is True
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_probability_product_exact():
    """The product lower bound matches the hand-expanded rational exactly."""
    expected = (
        Fraction(1023, 1024) * Fraction(1018, 1024) * Fraction(988, 1024)
    )
    assert prob_En_lower(3, 1, 7, 2, 2) == expected


def test_criterion_05_specialization_codimension():
    """Fixture codimension plus the randomized grid with dual oracles."""
    t0 = time.perf_counter()
    two_lines = LinearConfig(3, 1, ((0, 0),), infinity=True)
    report = union_vanishing_codim(two_lines, 2, F2)
    assert report.codim == 5
    assert set(surviving_monomials(two_lines, 2, F2)) == {
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, 0, 2),
    }

    rng = random.Random(SEED)
    violations = 0
    disagreements = 0
    for l in range(1, 9):
        for m in range(1, l + 2):
            for _ in range(50):
                while True:
                    n = rng.choice([3, 4])
                    b = rng.choice([1, 2])
                    p = rng.choice([2, 3, 5])
                    if p ** (n - b) + 1 >= m:
                        break
                field = PrimeField(p)
                config = random_config(n, b, m, p, rng)
                rep = union_vanishing_codim(config, l, field)
                if rep.codim < A_b(l, m, b):
                    violations += 1
                if rep.codim != groebner_union_codim(config, l, field):
                    disagreements += 1
    assert violations == 0
    assert disagreements == 0
    assert time.perf_counter() - t0 < 120.0


def _quadric_gram_rank_mod3(form) -> int:
    """Independent oracle: rank of the symmetric coefficient matrix mod 3.

    Diagonal entries are the square-term coefficients; off-diagonal entries
    are the cross-term coefficients divided by 2 (inverse of 2 is 2 mod 3).
    """
    A = [[0] * 4 for _ in range(4)]
    for exps, coeff in form.terms.items():
        hit = [i for i, e in enumerate(exps) if e]
        if len(hit) == 1:
            A[hit[0]][hit[0]] = coeff % 3
        else:
            i, j = hit
            A[i][j] = A[j][i] = (coeff * 2) % 3
    rank = 0
    for col in range(4):
        pivot = next((r for r in range(rank, 4) if A[r][col] % 3), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = A[rank][col] % 3  # self-inverse: 1*1 = 1, 2*2 = 4 = 1 mod 3
        A[rank] = [(v * inv) % 3 for v in A[rank]]
        for r in range(4):
            if r != rank and A[r][col] % 3:
                factor = A[r][col]
                A[r] = [(a - factor * b) % 3 for a, b in zip(A[r], A[rank])]
        rank += 1
    return rank


def test_criterion_06_exhaustive_quadric_census():
    """All 3^10 - 1 nonzero quadrics in four variables match the matrix oracle."""
    t0 = time.perf_counter()
    records, summary = census(3, 1, 2, F3, mode="exhaustive")
    by_index = {rec.index: rec for rec in records}
    space = GradedSpace(F3, 4, 2, GradedSpace.HOMOGENEOUS)
    mismatches = 0
    seen = 0
    for code, form in enumerate(space.iter_all()):
        if form.is_zero:
            continue
        seen += 1
        if by_index[code].sing_dim != 3 - _quadric_gram_rank_mod3(form):
            mismatches += 1
    assert seen == 3**10 - 1 == len(records)
    assert mismatches == 0
    assert summary.histogram == {-1: 37908, 0: 18720, 1: 2340, 2: 80}
    assert summary.prob_sing_dim_ge_b == Fraction(5, 122)
    assert time.perf_counter() - t0 < 600.0


def test_criterion_07_counting_dichotomy():
    """Exhaustive chart counts collapse to all-or-nothing for 100 random bases."""
    t0 = time.perf_counter()
    z_gens = [parse_poly("x1", 4, F2), parse_poly("x3", 4, F2)]
    rng = random.Random(SEED)
    space = GradedSpace(F2, 3, 2, GradedSpace.AT_MOST)
    for _ in range(100):
        f0 = space.sample(rng)
        lhs, rhs = dh_counting(f0, z_gens, 1, 2, 2, hidden=2)
        assert lhs <= rhs
        assert lhs in (0, rhs)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_08_twisted_construction_identities():
    """Derivative and homogenization identities on 500 random draws per field."""
    for p in (2, 3):
        rng = random.Random(SEED + p)
        for k in range(500):
            l = 2 + k % 4
            sample = random_smart_sample(3, l, p, rng)
            for i in range(3):
                assert sample.F.partial(i) == (
                    sample.F0.partial(i) + sample.Gs[i] ** p
                )
            assert commutation_holds(sample)
    rep = uniformity_of_smart(1, 3, 2, 2)
    assert rep.total_tuples == 64
    assert rep.fiber_size == 4
    assert rep.distinct_images == 16
    assert rep.fiber_size * rep.distinct_images == rep.total_tuples


def test_criterion_09_square_factor_equivalence():
    """Maximal singular dimension coincides with having a square factor."""
    t0 = time.perf_counter()
    report = squarefree_census(3, 3, F2, mode="sample", trials=10000, seed=SEED)
    assert report.checked == 10000
    assert report.mismatches == 0
    assert report.member_violations == 0
    assert report.agree
    assert time.perf_counter() - t0 < 300.0


def test_criterion_10_monte_carlo_trend():
    """Sampled singularity frequencies do not increase with the field size.

    Statistical and soft by design: only monotonicity of the three point
    estimates at a fixed seed is claimed, not any quantitative rate.
    """
    probs = {}
    for q in (2, 3, 5):
        _, summary = census(
            3, 1, 3, PrimeField(q), mode="sample", trials=20000, seed=SEED
        )
        probs[q] = summary.prob_sing_dim_ge_b
    assert probs[2] >= probs[3] >= probs[5]


def test_criterion_11_jacobian_witness():
    """Both characteristic cases certify the rank and land in the square ideal."""
    t0 = time.perf_counter()
    cases = [
        (F3, "odd", (1, 1, 0, 0)),
        (F2, "two", (1, 0, 0, 0)),
    ]
    for field, char_case, P in cases:
        f = parse_poly("x2", 3, field)
        res = jacobian_witness(3, 1, 4, 1, f, P, char_case)
        assert res.rank >= 2
        corner = [row[2:] for row in res.jacobian[-2:]]
        assert det_mod(corner, field.p) != 0
        gb = buchberger(square_ideal_generators(f, 3))
        assert ideal_membership(res.F, gb)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_12_census_cli_determinism(tmp_path, capsys):
    """Identical config and seed reproduce the census byte for byte,
    once the two wall-clock fields (generated_at, elapsed_us) are removed."""
    out = tmp_path / "census.csv"
    argv = [
        "census", "--n", "3", "--b", "1", "--l", "2", "--p", "3",
        "--trials", "8", "--seed", "123", "--out", str(out),
    ]

    def run_once():
        assert cli_main(argv) == 0
        envelope = capsys.readouterr().out
        stripped_csv = b"\n".join(
            line.rsplit(b",", 1)[0] for line in out.read_bytes().splitlines()
        )
        stripped_env = "\n".join(
            line for line in envelope.splitlines() if "generated_at" not in line
        )
        return stripped_csv, stripped_env, json.loads(envelope)

    csv1, env1, parsed1 = run_once()
    csv2, env2, parsed2 = run_once()
    assert csv1 == csv2
    assert env1 == env2
    parsed1.pop("generated_at")
    parsed2.pop("generated_at")
    assert parsed1 == parsed2
