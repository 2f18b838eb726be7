import hashlib
import importlib
import io
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcensus.algebra.field import PrimeField
from singcensus.algebra.poly import GradedSpace, Poly, monomials_of_degree
from singcensus.errors import CapExceeded, ValidationError
from singcensus.experiments import (
    CSV_HEADER,
    CensusRecord,
    census,
    square_multiple_set,
    squarefree_census,
    write_census_csv,
)
from singcensus.experiments.census import _code_generators, _orbit_walk
from singcensus.groebner import sing_dim_deg


# ---------------------------------------------------------------- sampling


def test_sample_census_is_deterministic(F3):
    recs_a, sum_a = census(3, 1, 2, F3, mode="sample", trials=25, seed=4242)
    recs_b, sum_b = census(3, 1, 2, F3, mode="sample", trials=25, seed=4242)
    strip = lambda recs: [
        (r.seed, r.index, r.q, r.n, r.b, r.l, r.sing_dim, r.sing_deg)
        for r in recs
    ]
    assert strip(recs_a) == strip(recs_b)
    assert sum_a == sum_b
    _, sum_c = census(3, 1, 2, F3, mode="sample", trials=25, seed=4243)
    assert sum_c != sum_a


def test_sample_census_generates_seed_when_missing(F2):
    _, summary = census(3, 1, 2, F2, mode="sample", trials=3)
    assert summary.seed is not None and summary.seed != 0


def test_histogram_matches_records(F2):
    records, summary = census(3, 1, 3, F2, mode="sample", trials=40, seed=7)
    assert len(records) == 40
    counted = {}
    above = 0
    for r in records:
        counted[r.sing_dim] = counted.get(r.sing_dim, 0) + 1
        above += r.sing_dim >= 1
    assert summary.histogram == counted
    assert summary.prob_sing_dim_ge_b == Fraction(above, 40)
    assert sum(summary.histogram.values()) == 40


def test_record_fields_carry_the_configuration(F5):
    records, _ = census(3, 2, 2, F5, mode="sample", trials=5, seed=11)
    for idx, r in enumerate(records):
        assert (r.seed, r.index, r.q, r.n, r.b, r.l) == (11, idx, 5, 3, 2, 2)
        assert r.sing_dim >= -1
        assert r.sing_deg >= 0
        assert r.elapsed_us >= 0


def test_sample_mode_requires_trials(F2):
    with pytest.raises(ValidationError):
        census(3, 1, 2, F2, mode="sample")
    with pytest.raises(ValidationError):
        census(3, 1, 2, F2, mode="sample", trials=0)
    with pytest.raises(ValidationError):
        census(3, 1, 2, F2, mode="warp", trials=5)


# -------------------------------------------------------------- exhaustive


def test_exhaustive_census_tiny_case(F2):
    # all nonzero linear forms on P^3: each is smooth, enumeration indexes
    # align with the graded-space iteration order
    records, summary = census(3, 1, 1, F2, mode="exhaustive")
    space = GradedSpace(F2, 4, 1, GradedSpace.HOMOGENEOUS)
    forms = {code: f for code, f in enumerate(space.iter_all()) if not f.is_zero}
    assert len(records) == len(forms) == 2**4 - 1
    for record in records:
        dd = sing_dim_deg(forms[record.index])
        assert record.sing_dim == dd.projective_dim
        assert record.sing_deg == dd.degree
        assert record.seed == 0
    assert summary.mode == "exhaustive"
    assert summary.trials == len(records)


def _substitute(form, sigma, units, scalar):
    """scalar * form(units[0]*x_sigma(0), ..., units[n]*x_sigma(n))."""
    p = form.field.p
    terms = {}
    for exps, c in form.terms.items():
        image = [0] * form.nvars
        for i, e in enumerate(exps):
            image[sigma[i]] = e
            c = c * pow(units[i], e, p)
        terms[tuple(image)] = c * scalar
    return Poly(form.field, form.nvars, terms)


def _monomial_group(nvars, p):
    """Every element of S_{n+1} x| (F_p^*)^{n+1} x F_p^*, as substitution args."""
    units = range(1, p)
    return [
        (sigma, scaling, scalar)
        for sigma in permutations(range(nvars))
        for scaling in product(units, repeat=nvars)
        for scalar in units
    ]


@pytest.mark.parametrize(
    "p, nvars, degree", [(2, 4, 2), (3, 4, 2), (5, 3, 2), (5, 4, 1)]
)
def test_orbit_walk_measures_each_orbit_once(p, nvars, degree):
    # the orbits are found by brute force, substituting every group element
    # into each measured form; each code must read its own orbit's value
    space = GradedSpace(PrimeField(p), nvars, degree, GradedSpace.HOMOGENEOUS)
    mons = space.monomials

    def code_of(form):
        return sum(form.terms.get(m, 0) * p**i for i, m in enumerate(mons))

    measured = []

    def measure(form):
        measured.append(form)
        return code_of(form)

    walked = list(_orbit_walk(space, measure))
    assert [code for code, _, _ in walked] == list(range(1, p ** len(mons)))

    group = _monomial_group(nvars, p)
    smallest = {}
    for form in measured:
        orbit = {code_of(_substitute(form, *g)) for g in group}
        assert min(orbit) == code_of(form)
        assert not orbit & smallest.keys()  # orbits of measured forms are disjoint
        smallest.update(dict.fromkeys(orbit, code_of(form)))
    # the measured forms are the orbit minima of every nonzero form
    assert sorted(smallest) == list(range(1, p ** len(mons)))
    for code, value, seconds in walked:
        assert value == smallest[code]
        assert seconds >= 0


def test_image_arrays_do_not_depend_on_the_chunking(monkeypatch):
    # the orbit test above sees at most two chunks; narrower tables split
    # the codes of quadric surfaces into up to ten, one digit each
    census_mod = importlib.import_module("singcensus.experiments.census")
    for p in (2, 3):
        space = GradedSpace(PrimeField(p), 4, 2, GradedSpace.HOMOGENEOUS)
        want = _code_generators(space)
        for limit in (p, p**2, p**3):
            monkeypatch.setattr(census_mod, "_TABLE_LIMIT", limit)
            assert _code_generators(space) == want
            monkeypatch.undo()


@st.composite
def cubic_surfaces(draw):
    p = draw(st.sampled_from([5, 7]))
    mons = monomials_of_degree(4, 3)
    coeffs = draw(
        st.lists(st.integers(0, p - 1), min_size=len(mons), max_size=len(mons))
        .filter(any)
    )
    return Poly(PrimeField(p), 4, zip(mons, coeffs))


@given(
    cubic_surfaces(),
    st.permutations(range(4)),
    st.lists(st.integers(1, 6), min_size=5, max_size=5),
)
@settings(max_examples=30, deadline=None)
def test_sing_dim_deg_is_invariant_under_scaling(f, sigma, units):
    # a draw of 5 is no unit of F_5; it is read as 1 there
    p = f.field.p
    units = [u % p or 1 for u in units]
    dd = sing_dim_deg(f)
    for c in range(2, p):
        assert sing_dim_deg(f.scale(c)) == dd
    assert sing_dim_deg(_substitute(f, sigma, units[:4], units[4])) == dd


def _rows_digest(records):
    """sha256 of the CSV text with the timing column cut off."""
    buf = io.StringIO()
    write_census_csv(records, buf)
    lines = [line.rsplit(",", 1)[0] for line in buf.getvalue().splitlines()]
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


@pytest.mark.parametrize(
    "l, digest, histogram, prob",
    [
        (1, "b1969c7448fb5fe3b0653f2a32e4dbc4657c5f9f4ed21f3227f03d813c1b1906",
         {"-1": 15}, {"num": "0", "den": "1"}),
        (2, "93f4a557dd972c4374786fdcff03e0947a177f73f4995431a21c539d5e339c68",
         {"-1": 448, "0": 420, "1": 140, "2": 15}, {"num": "5", "den": "33"}),
    ],
)
def test_exhaustive_census_golden_over_f2(F2, l, digest, histogram, prob):
    # rows and summary as every measured form gave them before the orbit walk
    records, summary = census(3, 1, l, F2, mode="exhaustive")
    assert _rows_digest(records) == digest
    assert summary.to_json_dict() == {
        "n": 3, "b": 1, "l": l, "q": 2, "mode": "exhaustive",
        "trials": sum(histogram.values()), "seed": 0, "histogram": histogram,
        "prob_sing_dim_ge_b": prob,
    }


def test_census_record_fields_and_row():
    names = ("seed", "index", "q", "n", "b", "l", "sing_dim", "sing_deg", "elapsed_us")
    assert CensusRecord._fields == names
    rec = CensusRecord(7, 12, 3, 3, 1, 2, 0, 1, 85)
    assert tuple(rec) == (7, 12, 3, 3, 1, 2, 0, 1, 85)
    assert (rec.sing_dim, rec.sing_deg, rec.elapsed_us) == (0, 1, 85)
    assert rec == CensusRecord(**dict(zip(names, rec)))
    assert rec.csv_row() == "7,12,3,3,1,2,0,1,85"


def test_exhaustive_census_respects_cap(F3):
    with pytest.raises(CapExceeded):
        census(3, 1, 2, F3, mode="exhaustive", cap=100)


@pytest.mark.parametrize("seed", [0, 5])
def test_exhaustive_modes_reject_a_seed(F2, seed):
    # the walk never reads a seed, so accepting one would record a lie
    with pytest.raises(ValidationError, match="takes no seed"):
        census(3, 1, 1, F2, mode="exhaustive", seed=seed)
    with pytest.raises(ValidationError, match="takes no seed"):
        squarefree_census(3, 2, F2, mode="exhaustive", seed=seed)


# ------------------------------------------------------------------ output


def test_csv_round_trip(F2):
    records, _ = census(3, 1, 2, F2, mode="sample", trials=4, seed=1)
    buf = io.StringIO()
    write_census_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER == "seed,trial,q,n,b,l,sing_dim,sing_deg,elapsed_us"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[:6] == ["1", "0", "2", "3", "1", "2"]
    assert all(len(line.split(",")) == 9 for line in lines[1:])


def test_summary_serialization(F2):
    _, summary = census(3, 1, 2, F2, mode="sample", trials=8, seed=3)
    d = summary.to_json_dict()
    assert d["mode"] == "sample"
    assert d["seed"] == 3
    assert set(d["prob_sing_dim_ge_b"]) == {"num", "den"}
    assert sum(d["histogram"].values()) == 8
    assert all(isinstance(k, str) for k in d["histogram"])


# ------------------------------------------------- square-multiple forms


def test_square_multiple_set_binary_cubics(F2):
    reps, pair_count, fibers = square_multiple_set(1, 3, F2)
    # 3 nonzero linear G x 3 nonzero linear H on P^1, all products distinct
    assert pair_count == 9
    assert len(reps) == 9
    assert max(fibers.values()) == 1


def test_square_multiple_set_quadrics_are_pure_squares(F3):
    reps, pair_count, _ = square_multiple_set(1, 2, F3)
    # l=2 admits only e=1 with constant H: G^2 * c
    for form in reps.values():
        assert form.is_homogeneous(2)
        assert sing_dim_deg(form).projective_dim >= 0
    assert pair_count == (3**2 - 1) * 2


def test_square_multiple_set_cap(F2):
    with pytest.raises(CapExceeded):
        square_multiple_set(3, 3, F2, cap=10)


# -------------------------------------------------------- squarefree census


def test_squarefree_census_exhaustive_quadrics(F2):
    # every nonzero quadric on P^3 over F2: codimension-one singular locus
    # happens exactly for the perfect squares (the cross-term-free forms)
    report = squarefree_census(3, 2, F2, mode="exhaustive")
    assert report.checked == 2**10 - 1
    assert report.mismatches == 0
    assert report.member_violations == 0
    assert report.agree


def test_squarefree_census_exhaustive_quadrics_over_f3(F3):
    report = squarefree_census(3, 2, F3, mode="exhaustive")
    assert report.checked == 3**10 - 1
    assert report.member_violations == 0
    assert report.agree


def test_squarefree_census_sampled(F2):
    report = squarefree_census(3, 3, F2, mode="sample", trials=60, seed=5)
    assert report.checked == 60
    assert report.mismatches == 0
    assert report.member_violations == 0
    assert report.agree
    assert report.image_size == report.pair_count == 225
    again = squarefree_census(3, 3, F2, mode="sample", trials=60, seed=5)
    assert again == report
