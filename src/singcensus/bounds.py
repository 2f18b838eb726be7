"""Closed-form moduli quantities, the hypothesis check, and the l0 search.

Everything here is exact big-integer or rational arithmetic; no floats.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Dict, Optional, Tuple

from .control import (
    JsonReport,
    check_cap,
    check_nb,
    check_prime,
    check_q_is_p,
    fits_decimal,
    too_many_digits,
)
from .errors import InternalCheckError, ValidationError

L0_CEILING = 10**4


def a_nb(n: int, b: int, l: int) -> int:
    """Codimension count of the b-dimensional-singular-locus stratum."""
    check_nb(n, b)
    if l < 1:
        raise ValidationError("l >= 1 required")
    return comb(l + b, b) + (n - b) * comb(l - 1 + b, b) + 1 - (b + 1) * (n - b)


def dim_X1(n: int, b: int, l: int) -> int:
    """Dimension of the first excess-singularity stratum inside the moduli
    space of degree-l hypersurfaces."""
    return comb(l + n, n) - a_nb(n, b, l)


def A_b(l: int, m: int, b: int) -> int:
    """Partial-sum codimension bound: sum of C(l-e+1+b, b) for e = 1..m,
    in closed form by the hockey-stick identity."""
    if b < 1:
        raise ValidationError("b >= 1 required")
    if l < 0:
        raise ValidationError("l >= 0 required")
    if not 1 <= m <= l + 1:
        raise ValidationError(f"m must lie in [1, l+1], got m={m} with l={l}")
    return comb(l + b + 1, b + 1) - comb(l - m + b + 1, b + 1)


def tau(l: int, p: int) -> int:
    """Largest t with t*p < l, i.e. floor((l-1)/p)."""
    if l < 1:
        raise ValidationError("l >= 1 required")
    check_prime(p)
    return (l - 1) // p


def m_of(l: int) -> int:
    """Default number of substitution steps: ceil((l+1)/2)."""
    if l < 1:
        raise ValidationError("l >= 1 required")
    return (l + 2) // 2


def m_prime(l: int, p: int) -> int:
    """Effective step count min(m_of(l), tau+1)."""
    return min(m_of(l), tau(l, p) + 1)


def bezout_bound(n: int, l: int) -> int:
    """Total degree bound l*(l-1)^(n+1) for the successive-partials
    intersection."""
    if l < 2:
        raise ValidationError("l >= 2 required")
    if n < 1:
        raise ValidationError("n >= 1 required")
    return l * (l - 1) ** (n + 1)


def check_hypothesis(l: int, m: int, a: int, p: int, b: int) -> bool:
    """Both strict inequalities that make the probability bound effective:
    C(tau+b+1, b+1) > a-1 and A_b(tau, min(m, tau+1)) > a-1."""
    if b < 1:
        raise ValidationError("b >= 1 required")
    if m < 1:
        raise ValidationError("m >= 1 required")
    t = tau(l, p)
    mp = min(m, t + 1)
    return comb(t + b + 1, b + 1) > a - 1 and A_b(t, mp, b) > a - 1


def find_l0(
    n: int,
    b: int,
    p: int,
    window: int = 50,
    ceiling: int = L0_CEILING,
    cap=None,
) -> int:
    """Smallest l whose whole verification window [l, l+window] passes the
    hypothesis check, with a 2x slack margin at the window's far end as an
    effective stand-in for the degree-growth argument.

    Covers the large-degree condition only; the full threshold also needs an
    externally supplied ingredient (see BoundsReport.s1_l0).  A window above
    the enumeration cap raises CapExceeded.
    """
    check_nb(n, b)
    check_prime(p)
    if window < 1:
        raise ValidationError("window >= 1 required")
    check_cap(window, cap, what="l0 window")
    if ceiling < 2:
        raise ValidationError("ceiling >= 2 required")

    memo = {}

    def ok(l: int) -> bool:
        if l not in memo:
            memo[l] = check_hypothesis(l, m_of(l), a_nb(n, b, l) + 1, p, b)
        return memo[l]

    candidate = 2
    while candidate <= ceiling:
        failure = next(
            (l for l in range(candidate, candidate + window + 1) if not ok(l)),
            None,
        )
        if failure is not None:
            # every start <= failure has it inside its window
            candidate = failure + 1
            continue
        # degree-dominance spot check: the inequality must still hold a full
        # window past the verified range (the left sides grow one degree
        # faster in l than the right side, so passing at double distance is
        # the cheap effective stand-in for monotonicity)
        if ok(candidate + 2 * window):
            return candidate
        candidate += 1
    raise ValidationError(
        f"no l0 below the ceiling {ceiling} for (n={n}, b={b}, p={p}); "
        "raise the ceiling to search further"
    )


def _p_part(a: int, p: int, known: int) -> Tuple[int, int]:
    """(v, a / p^v) for a nonzero integer a, v its p-adic valuation, given
    that p^known divides a."""
    a //= p**known
    while a % p == 0:
        a //= p
        known += 1
    return known, a


def prob_En_lower(n: int, b: int, l: int, p: int, q: int) -> Fraction:
    """Exact lower bound for the good-behavior event: product of
    (1 - (l-1)^i / q^C(tau+b+1, b+1)) over i = 0..n-b-1, times
    (1 - (l-1)^(n-b) / q^A_b(tau, m')).  q must equal p.

    Factor i is (p^E - (l-1)^i) / p^E, and its numerator shares with a
    power of p only the powers of p it contains.  So the reduced
    denominator is p^(sum E - V), V the sum of the numerators' valuations,
    and the size of the reduced numerator is known to a bit per factor.
    Both are bounded before the product is built: a result with more
    decimal digits than Python converts to text (``control.fits_decimal``)
    raises CapExceeded unbuilt.
    """
    check_nb(n, b)
    if l < 1:
        raise ValidationError("l >= 1 required")
    check_prime(p)
    check_q_is_p(p, q)
    t = tau(l, p)
    exps = [comb(t + b + 1, b + 1)] * (n - b) + [A_b(t, m_prime(l, p), b)]
    # p^min(e, i*w) divides p^e - (l-1)^i, w the valuation of l - 1
    w = 0 if l == 1 else _p_part(l - 1, p, 0)[0]
    units = []
    valuation = 0
    c = 1  # (l-1)^i
    for i, e in enumerate(exps):
        a = p**e - c
        if a == 0:
            return Fraction(0)
        v, unit = _p_part(a, p, e if c == 0 else min(e, i * w))
        units.append(unit)
        valuation += v
        c *= l - 1
    den_exp = sum(exps) - valuation
    num_exp = max(0, -den_exp)
    den = p ** max(0, den_exp)
    # the numerator is at least 2^low in absolute value
    low = sum(u.bit_length() - 1 for u in units) + num_exp * (p.bit_length() - 1)
    if not (fits_decimal(den) and fits_decimal(1 << low)):
        raise too_many_digits()
    num = prod(units) * p**num_exp
    if not fits_decimal(num):
        raise too_many_digits()
    return Fraction(num, den)


def dim_im_phi(n: int, d: int, l: int) -> int:
    """Dimension of the image of the multiply-by-square map at step d:
    C(d+n, n) + C(l-2d+n, n) - 2."""
    if n < 1:
        raise ValidationError("n >= 1 required")
    if not 1 <= d <= l // 2:
        raise ValidationError(f"d must lie in [1, floor(l/2)], got d={d} with l={l}")
    return comb(d + n, n) + comb(l - 2 * d + n, n) - 2


def noneffective_params(n: int, b: int, p: int) -> Tuple[int, int]:
    """Parameter pair (B, m) = (p^b*(n-b+1), B+1) for the non-effective
    variant; verifies the exact leading-coefficient inequality
    m / (p^b * b!) > (n-b+1) / b!."""
    check_nb(n, b)
    check_prime(p)
    B = p**b * (n - b + 1)
    m = B + 1
    lhs = Fraction(m, p**b)
    rhs = Fraction(n - b + 1)
    if not lhs > rhs:
        raise InternalCheckError(
            f"leading-coefficient inequality failed: {lhs} <= {rhs}"
        )
    return B, m


@dataclass(frozen=True)
class BoundsReport(JsonReport):
    """Every closed-form quantity for one (n, b, l, p, q), ready for JSON."""

    n: int
    b: int
    l: int
    p: int
    q: int
    tau: int
    m: int
    m_prime: int
    a_nb: int
    dim_X1: int
    A_table: Dict[int, int]
    bezout: int
    prob_En_lower: Fraction
    hypothesis_ok: bool
    l0_large_d: Optional[int] = None
    s1_l0: Optional[int] = None
    advisory: Optional[str] = None


def bounds_report(
    n: int,
    b: int,
    l: int,
    p: int,
    q: int,
    s1_l0: Optional[int] = None,
    window: int = 50,
    cap=None,
) -> BoundsReport:
    """Assemble the full report.  q must equal p: the package works over
    prime fields only, so the counting field size is the characteristic."""
    check_nb(n, b)
    if l < 2:
        raise ValidationError("l >= 2 required for the report")
    check_prime(p)
    check_q_is_p(p, q)
    t = tau(l, p)
    table = {m: A_b(t, m, b) for m in range(1, t + 2)}
    try:
        l0 = find_l0(n, b, p, window=window, cap=cap)
    except ValidationError:
        l0 = None  # ceiling miss: leave the slot empty rather than guess
    advisory = None
    if p == 2 and (n - b) % 2 == 1:
        advisory = (
            "p=2 with n-b odd: the explicit rank-witness construction needs "
            "n-b even, so the char-2 threshold may differ from char 3; no "
            "numeric relation is claimed"
        )
    return BoundsReport(
        n=n,
        b=b,
        l=l,
        p=p,
        q=q,
        tau=t,
        m=m_of(l),
        m_prime=m_prime(l, p),
        a_nb=a_nb(n, b, l),
        dim_X1=dim_X1(n, b, l),
        A_table=table,
        bezout=bezout_bound(n, l),
        prob_En_lower=prob_En_lower(n, b, l, p, q),
        hypothesis_ok=check_hypothesis(l, m_of(l), a_nb(n, b, l) + 1, p, b),
        l0_large_d=l0,
        s1_l0=s1_l0,
        advisory=advisory,
    )
