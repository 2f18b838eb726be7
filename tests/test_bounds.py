import math
import sys
import time
from fractions import Fraction

import pytest

from singcensus.bounds import (
    A_b,
    BoundsReport,
    a_nb,
    bezout_bound,
    bounds_report,
    check_hypothesis,
    dim_X1,
    find_l0,
    m_of,
    m_prime,
    noneffective_params,
    prob_En_lower,
    tau,
)
from singcensus.errors import CapExceeded, ValidationError

# Hand-derived values frozen before the implementation existed.
FROZEN = {
    "a_nb": {(3, 1, 3): 7, (3, 1, 7): 19},
    "dim_X1": {(3, 1, 3): 13},
    "A_b": {(3, 2, 1): 7},
    "tau": {(7, 2): 3, (3, 2): 1, (1, 5): 0},
    "bezout": {(3, 3): 48},
    "find_l0": {(3, 1, 2): 21, (3, 1, 3): 49, (3, 2, 2): 43, (4, 1, 2): 29},
    "noneffective": {(3, 1, 2): (6, 7), (3, 2, 2): (8, 9), (4, 1, 3): (12, 13)},
}


def test_codim_formula_fixtures():
    for (n, b, l), want in FROZEN["a_nb"].items():
        assert a_nb(n, b, l) == want
    for (n, b, l), want in FROZEN["dim_X1"].items():
        assert dim_X1(n, b, l) == want
    assert dim_X1(3, 1, 3) == math.comb(3 + 3, 3) - a_nb(3, 1, 3)


def test_plane_count_lower_bound_fixtures():
    for (l, m, b), want in FROZEN["A_b"].items():
        assert A_b(l, m, b) == want
    # single member: all degree-l forms on one b-plane
    for b in range(1, 5):
        for l in range(1, 31):
            assert A_b(l, 1, b) == math.comb(l + b, b)


def test_plane_count_recursion():
    # A_b(l, m) - A_b(l, m-1) telescopes to a single binomial
    for b in range(1, 5):
        for l in range(1, 12):
            for m in range(2, l + 2):
                assert A_b(l, m, b) - A_b(l, m - 1, b) == math.comb(
                    l - m + 1 + b, b
                )


def test_plane_count_validates_member_range():
    with pytest.raises(ValidationError):
        A_b(3, 0, 1)
    with pytest.raises(ValidationError):
        A_b(3, 5, 1)  # m > l+1


def test_growth_inequality():
    # with the first ceil((l+1)/2) summands kept, each at least
    # C(floor(l/2)+b, b); exact integer comparison throughout
    for b in range(1, 5):
        for l in range(1, 61):
            kept = (l + 2) // 2
            assert A_b(l, l + 1, b) >= kept * math.comb(l // 2 + b, b)


def test_perturbation_budget():
    for (l, p), want in FROZEN["tau"].items():
        assert tau(l, p) == want
    assert tau(1, 2) == 0
    with pytest.raises(ValidationError):
        tau(0, 2)


def test_step_counts():
    assert m_of(3) == 2
    assert m_of(7) == 4
    assert m_prime(7, 2) == 4
    assert m_prime(7, 7) == 1  # tau(7,7)=0 caps the step count
    for l in range(1, 30):
        assert m_of(l) == (l + 2) // 2


def test_bezout_bound_fixture():
    assert bezout_bound(3, 3) == 48  # 3 * 2^4
    for (n, l), want in FROZEN["bezout"].items():
        assert bezout_bound(n, l) == want
    assert bezout_bound(4, 5) == 5 * 4**5


def test_hypothesis_check_fixtures():
    assert check_hypothesis(20, 11, 59, 2, 1) is False
    assert check_hypothesis(21, 11, 62, 2, 1) is True


def test_stable_degree_search():
    for (n, b, p), want in FROZEN["find_l0"].items():
        assert find_l0(n, b, p, window=50) == want
    # the answer is not an artifact of the window length
    for window in (10, 50, 100):
        assert find_l0(3, 1, 2, window=window) == 21


def test_wide_window_search_is_fast():
    # A_b is closed form, so a window checks each degree in O(1) binomials
    t0 = time.perf_counter()
    assert find_l0(3, 1, 2, window=40_000) == 21
    assert time.perf_counter() - t0 < 10.0


def test_window_above_the_cap_is_refused():
    with pytest.raises(CapExceeded, match="l0 window"):
        find_l0(3, 1, 2, window=10**9)
    with pytest.raises(CapExceeded, match="l0 window"):
        find_l0(3, 1, 2, window=51, cap=50)
    assert find_l0(3, 1, 2, window=50, cap=50) == 21
    with pytest.raises(CapExceeded):
        bounds_report(3, 1, 7, 2, 2, window=51, cap=50)


def test_find_l0_satisfies_hypothesis_on_window():
    l0 = find_l0(3, 1, 2, window=50)
    for l in range(l0, l0 + 51):
        assert check_hypothesis(l, m_of(l), a_nb(3, 1, l) + 1, 2, 1)
    assert not check_hypothesis(
        l0 - 1, m_of(l0 - 1), a_nb(3, 1, l0 - 1) + 1, 2, 1
    )


def test_probability_lower_bound_exact():
    got = prob_En_lower(3, 1, 7, 2, 2)
    want = Fraction(1023, 1024) * Fraction(1018, 1024) * Fraction(988, 1024)
    assert got == want
    assert got == Fraction(128614629, 134217728)
    assert isinstance(got, Fraction)


def test_probability_lower_bound_range():
    # never exceeds 1; may go negative (vacuous) when l outruns tau.
    # At comfortably large l it is a genuine probability close to 1.
    for l in range(2, 12):
        for p in (2, 3, 5):
            assert prob_En_lower(3, 1, l, p, p) <= 1
    for p in (2, 3, 5):
        assert Fraction(1, 2) < prob_En_lower(3, 1, 60, p, p) <= 1


def _fraction_product(n, b, l, p):
    """prob_En_lower as it was first written: one reduced Fraction per factor."""
    t = tau(l, p)
    value = Fraction(1)
    for i in range(n - b):
        value *= 1 - Fraction((l - 1) ** i, p ** math.comb(t + b + 1, b + 1))
    return value * (1 - Fraction((l - 1) ** (n - b), p ** A_b(t, m_prime(l, p), b)))


def test_probability_lower_bound_matches_the_fraction_product():
    # covers l - 1 divisible by p, a zero factor (l = 5, p = 2, n >= 5) and
    # a factor whose numerator holds more powers of p than its denominator
    # (l = 7, p = 3, n >= 8)
    zeros = 0
    for p in (2, 3, 5):
        for n in range(3, 10):
            for b in (1, 2):
                for l in range(1, 17):
                    want = _fraction_product(n, b, l, p)
                    assert prob_En_lower(n, b, l, p, p) == want, (n, b, l, p)
                    zeros += want == 0
    assert zeros > 0


@pytest.mark.parametrize("l, p", [(30, 2), (7, 3), (17, 2), (12, 2)])
def test_probability_lower_bound_refuses_exactly_past_the_digit_limit(l, p):
    # (30, 2) outgrows the limit in its denominator too, the others in their
    # numerators alone; at (12, 2) and n = 35 only the built numerator
    # shows it, its bit-count bound falling short of the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit Python allows
    try:
        refused = 0
        for n in range(3, 70):
            want = _fraction_product(n, 1, l, p)
            fits = max(abs(want.numerator), want.denominator) < 10**640
            if fits:
                assert prob_En_lower(n, 1, l, p, p) == want
            else:
                refused += 1
                with pytest.raises(CapExceeded, match="640 decimal digits"):
                    prob_En_lower(n, 1, l, p, p)
        assert 0 < refused < 67
    finally:
        sys.set_int_max_str_digits(limit)


def test_image_dimension_fixture():
    from singcensus.bounds import dim_im_phi

    assert dim_im_phi(3, 1, 3) == 6


def test_noneffective_parameter_fixtures():
    for (n, b, p), want in FROZEN["noneffective"].items():
        assert noneffective_params(n, b, p) == want


def test_bounds_report_assembles(F2=None):
    report = bounds_report(3, 1, 7, 2, 2)
    assert isinstance(report, BoundsReport)
    d = report.to_json_dict()
    assert d["a_nb"] == 19
    assert d["tau"] == 3
    assert d["A_table"] == {"1": 4, "2": 7, "3": 9, "4": 10}
    assert d["prob_En_lower"] == {"num": "128614629", "den": "134217728"}
    assert d["l0_large_d"] == 21
    assert d["s1_l0"] is None
    assert d["bezout"] == 7 * 6**4


def test_bounds_report_advisory_note_char2_odd_defect():
    # p=2 with n-b odd carries the parity advisory; otherwise none
    assert bounds_report(3, 1, 4, 2, 2).advisory is None
    assert bounds_report(4, 1, 4, 2, 2).advisory is not None
    assert bounds_report(4, 1, 4, 3, 3).advisory is None


def test_bounds_report_accepts_user_supplied_threshold():
    report = bounds_report(3, 1, 7, 2, 2, s1_l0=100)
    assert report.s1_l0 == 100


def test_validation_errors():
    with pytest.raises(ValidationError):
        a_nb(2, 1, 3)  # n < 3
    with pytest.raises(ValidationError):
        a_nb(3, 3, 3)  # b > n-1
    with pytest.raises(ValidationError):
        bounds_report(3, 1, 7, 4, 4)  # composite p
    with pytest.raises(ValidationError):
        bounds_report(3, 1, 7, 2, 4)  # q != p
    with pytest.raises(ValidationError):
        find_l0(3, 1, 2, window=0)
