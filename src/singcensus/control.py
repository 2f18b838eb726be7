"""Enumeration caps and reproducible per-trial randomness."""

import os
import random

from .errors import CapExceeded, ValidationError

DEFAULT_CAP = 1 << 25

_SEED_LIMIT = 1 << 64


def as_int(name, value):
    """int(value), or a ValidationError naming the input it came from."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None


def resolve_cap(explicit=None):
    """Effective enumeration cap: explicit flag > SINGCENSUS_CAP env > default."""
    if explicit is not None:
        return as_int("cap", explicit)
    env = os.environ.get("SINGCENSUS_CAP")
    if env:
        return as_int("SINGCENSUS_CAP", env)
    return DEFAULT_CAP


def check_cap(size, cap=None, what="enumeration"):
    cap = resolve_cap(cap)
    if size > cap:
        raise CapExceeded(
            f"{what} needs {size} items, above the cap of {cap}; "
            "pick smaller parameters or raise --cap / SINGCENSUS_CAP"
        )
    return size


def trial_rng(seed, index):
    """Independent stream for one trial; schedule-independent by construction.

    Seeds must lie in [0, 2**64): outside it two seeds would share a stream.
    """
    if not 0 <= seed < _SEED_LIMIT:
        raise ValidationError(f"seed must lie in [0, 2**64), not {seed}")
    return random.Random((seed << 32) ^ index)


def fresh_seed():
    """Seed to use when the caller did not provide one (echoed for replay)."""
    return random.SystemRandom().randrange(1 << 48)


def rational_json(value):
    """Exact fraction as base-10 string pair for JSON reports."""
    return {"num": str(value.numerator), "den": str(value.denominator)}
