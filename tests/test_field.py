import time

import pytest

from singcensus.algebra.field import PrimeField, is_prime
from singcensus.errors import ValidationError


def _trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_values():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)
    # Carmichael number: composite that fools Fermat-style probable tests
    assert not is_prime(561)
    assert is_prime(2**31 - 1)


def test_nonprime_order_rejected():
    for bad in (0, 1, 4, 6, 9, 561):
        with pytest.raises(ValidationError):
            PrimeField(bad)


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_is_prime_near_the_64_bit_limit():
    # strong pseudoprime to every prime base below 37
    assert not is_prime(3825123056546413051)
    assert is_prime(2**64 - 59)  # largest prime below 2**64
    assert not is_prime(2**64 - 1)
    for too_big in (2**64, 2**64 + 13):
        with pytest.raises(ValidationError):
            is_prime(too_big)


def test_large_prime_field_builds_at_once():
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1.0


def test_field_equality_and_hash():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert len({PrimeField(5), PrimeField(5), PrimeField(7)}) == 2
