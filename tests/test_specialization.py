import math
import random
import time

import pytest

from singcensus.algebra.field import PrimeField
from singcensus.algebra.linalg import RowEchelonGF
from singcensus.algebra.poly import monomials_of_degree
from singcensus.bounds import A_b
from singcensus.errors import ValidationError
from singcensus.experiments import (
    LinearConfig,
    groebner_union_codim,
    mu_increments,
    random_config,
    surviving_monomials,
    union_vanishing_codim,
)

TWO_LINES = LinearConfig(3, 1, ((0, 0),), infinity=True)


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ValidationError):
        LinearConfig(2, 1, ((0,),))  # n too small
    with pytest.raises(ValidationError):
        LinearConfig(3, 3, ((0, 0),))  # b too large
    with pytest.raises(ValidationError):
        LinearConfig(3, 1, ((0,),))  # wrong point length
    with pytest.raises(ValidationError):
        LinearConfig(3, 1, ((0, 0), (0, 0)))  # duplicate members
    with pytest.raises(ValidationError):
        LinearConfig(3, 1, ())  # no members at all


def test_member_count():
    assert TWO_LINES.d == 2
    assert LinearConfig(3, 1, ((0, 0), (1, 2))).d == 2


def test_member_ideals_of_fixture(F3):
    ideals = TWO_LINES.member_ideals(F3)
    rendered = [sorted(str(g) for g in gens) for gens in ideals]
    assert rendered == [["x2", "x3"], ["x1", "x3"]]


def test_reduction_mod_p_detects_collision():
    config = LinearConfig(3, 1, ((0, 0), (2, 0)))
    reduced = config.reduced(5)
    assert reduced.points == ((0, 0), (2, 0))
    with pytest.raises(ValidationError):
        config.reduced(2)  # (2,0) collapses onto (0,0)


def test_random_config_capacity():
    rng = random.Random(1)
    for _ in range(30):
        config = random_config(3, 1, 3, 2, rng)
        assert config.d == 3
        assert len(set(config.points)) == len(config.points)
    # 2^2 graph planes + limit member = 5 = hard maximum
    assert random_config(3, 1, 5, 2, random.Random(2)).infinity
    with pytest.raises(ValidationError):
        random_config(3, 1, 6, 2, random.Random(3))
    with pytest.raises(ValidationError):
        random_config(3, 1, 5, 2, random.Random(4), infinity=False)


# ------------------------------------------------------------ codimension


def test_two_lines_fixture_codim(F3):
    report = union_vanishing_codim(TWO_LINES, 2, F3)
    assert report.codim == 5
    assert report.mu_sequence == (3, 5)
    assert report.bound == A_b(2, 2, 1) == 5
    assert mu_increments(report) == [2]


def test_two_lines_fixture_surviving_monomials(F3):
    surviving = surviving_monomials(TWO_LINES, 2, F3)
    assert set(surviving) == {
        (1, 0, 0, 1),  # x0 x3
        (0, 1, 1, 0),  # x1 x2
        (0, 1, 0, 1),  # x1 x3
        (0, 0, 1, 1),  # x2 x3
        (0, 0, 0, 2),  # x3^2
    }


def test_surviving_monomials_lie_in_the_kernel(F5):
    # single monomials that vanish on the whole union can never outnumber
    # the kernel of the substitution map; for coordinate-aligned members
    # (the fixture) they span it exactly
    from singcensus.groebner import buchberger, ideal_membership, intersect_many
    from singcensus.algebra.poly import Poly

    rng = random.Random(21)
    for _ in range(6):
        config = random_config(3, 1, 2, 5, rng)
        l = rng.randrange(1, 4)
        report = union_vanishing_codim(config, l, F5)
        surviving = surviving_monomials(config, l, F5)
        assert len(surviving) <= math.comb(l + 3, 3) - report.codim
        gb = buchberger(intersect_many(config.member_ideals(F5)))
        for exps in surviving:
            assert ideal_membership(Poly(F5, 4, {exps: 1}), gb)
    fixture = surviving_monomials(TWO_LINES, 2, PrimeField(3))
    assert len(fixture) == math.comb(2 + 3, 3) - 5


def test_single_plane_codim_is_exact(F5):
    # one member: the bound C(l+b, b) is attained with equality
    for n, b, l in ((3, 1, 3), (3, 2, 2), (4, 1, 4)):
        config = random_config(n, b, 1, 5, random.Random(n * l))
        report = union_vanishing_codim(config, l, F5)
        assert report.codim == math.comb(l + b, b)


def test_codim_respects_lower_bound_randomized():
    rng = random.Random(77)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(15):
            n = rng.choice([3, 4])
            b = rng.choice([1, 2])
            l = rng.randrange(1, 5)
            dmax = min(l + 1, p ** (n - b) + 1)
            d = rng.randrange(1, dmax + 1)
            config = random_config(n, b, d, p, rng)
            report = union_vanishing_codim(config, l, field)
            assert report.codim >= report.bound == A_b(l, min(d, l + 1), b)


def test_mu_increments_meet_stepwise_bound(F5):
    # n=3, b=1, l=4, d=3: the m-th member contributes at least C(l-m+2, 1)
    rng = random.Random(5)
    for _ in range(20):
        config = random_config(3, 1, 3, 5, rng)
        report = union_vanishing_codim(config, 4, F5)
        assert report.mu_sequence[0] >= math.comb(4 + 1, 1)
        for m, inc in enumerate(mu_increments(report), start=2):
            assert inc >= math.comb(4 - m + 2, 1)


def test_substitution_agrees_with_groebner_route():
    rng = random.Random(13)
    for p in (2, 3):
        field = PrimeField(p)
        for _ in range(10):
            n = rng.choice([3, 4])
            b = rng.choice([1, 2])
            l = rng.randrange(1, 4)
            d = rng.randrange(1, min(l + 1, p ** (n - b) + 1) + 1)
            config = random_config(n, b, d, p, rng)
            report = union_vanishing_codim(config, l, field)
            assert report.codim == groebner_union_codim(config, l, field)


def _full_substitution(config, l, p):
    """Reference route: substitute each member's parametrization into a
    generic degree-l form and row-reduce the stacked identical-vanishing
    conditions over all C(l+n, n) coefficients.

    Returns the mu sequence and the degree-l monomials that every member
    kills, in ``monomials_of_degree`` order.
    """
    cfg = config.reduced(p)
    n, b = cfg.n, cfg.b
    basis = monomials_of_degree(n + 1, l)
    members = []  # per member: column -> (target monomial, coefficient)
    for pt in cfg.points:
        image = {}
        for col, exps in enumerate(basis):
            coeff = 1
            for j in range(b + 1, n + 1):
                coeff = coeff * pow(pt[j - b - 1], exps[j], p) % p
            if coeff:
                image[col] = (exps[:b] + (sum(exps[b:]),), coeff)
        members.append(image)
    if cfg.infinity:
        image = {}
        for col, exps in enumerate(basis):
            if not (exps[b] or any(exps[b + 2:])):
                image[col] = (exps[:b] + (exps[b + 1],), 1)
        members.append(image)
    ech = RowEchelonGF(p, len(basis))
    mu = []
    for image in members:
        rows = {}
        for col, (target, coeff) in image.items():
            rows.setdefault(target, []).append((col, coeff))
        for row in rows.values():
            ech.add_row_sparse(row)
        mu.append(ech.rank)
    killed = [
        exps for col, exps in enumerate(basis)
        if not any(col in image for image in members)
    ]
    return tuple(mu), tuple(killed)


def test_cone_route_matches_full_substitution():
    # every (p, n, b, l) cell with l <= 5, with and without the limit
    # member; d runs up to l+2 so both rank shortcuts are exercised
    rng = random.Random(20260906)
    checked = {False: 0, True: 0}
    for p in (2, 3, 5):
        field = PrimeField(p)
        for n in (3, 4):
            for b in (1, 2):
                for l in range(1, 6):
                    for infinity in (False, True):
                        cap = p ** (n - b) + infinity
                        for _ in range(2):
                            d = rng.randrange(1, min(l + 2, cap) + 1)
                            config = random_config(n, b, d, p, rng, infinity)
                            mu, killed = _full_substitution(config, l, p)
                            report = union_vanishing_codim(config, l, field)
                            assert report.mu_sequence == mu, (config, l)
                            assert surviving_monomials(config, l, field) == killed
                            checked[infinity] += 1
    assert checked == {False: 120, True: 120}


def test_two_lines_at_degree_300_is_immediate():
    t0 = time.perf_counter()
    report = union_vanishing_codim(TWO_LINES, 300, PrimeField(2))
    assert report.mu_sequence == (301, 601)
    assert time.perf_counter() - t0 < 5.0


def test_report_serialization(F3):
    d = union_vanishing_codim(TWO_LINES, 2, F3).to_json_dict()
    assert d == {
        "l": 2,
        "d": 2,
        "mu_sequence": [3, 5],
        "codim": 5,
        "bound": 5,
    }
