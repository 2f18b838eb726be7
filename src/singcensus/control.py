"""Parameter checks, enumeration caps, reproducible per-trial randomness,
and the JSON encoding of reports."""

import os
import random
import sys
from dataclasses import fields
from fractions import Fraction

from .algebra.field import is_prime
from .errors import CapExceeded, ValidationError

DEFAULT_CAP = 1 << 25

_SEED_LIMIT = 1 << 64


def as_int(name, value):
    """int(value), or a ValidationError naming the input it came from.

    Integers and decimal strings are accepted; bools and floats are not,
    so a JSON ``true`` or ``3.7`` is never read as 1 or 3.
    """
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValidationError(f"{name} must be an integer, not {value!r}")


def check_nb(n: int, b: int = 1) -> None:
    """n >= 3 and 1 <= b <= n-1; the default b passes for every n >= 3."""
    if n < 3:
        raise ValidationError("n >= 3 required")
    if not 1 <= b <= n - 1:
        raise ValidationError("1 <= b <= n-1 required")


def check_prime(p: int, name: str = "p") -> None:
    if not is_prime(p):
        raise ValidationError(f"{name} = {p} is not prime")


def check_q_is_p(p: int, q: int) -> None:
    """Only prime fields are supported, so the field size q is p."""
    if q != p:
        raise ValidationError(
            "q must equal p: prime fields only in this implementation"
        )


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


def fits_decimal(value: int) -> bool:
    """Whether str(value) is within Python's limit on the digits of an
    int-to-str conversion (sys.get_int_max_str_digits(), 4300 by default;
    0 lifts it)."""
    limit = sys.get_int_max_str_digits()
    return not limit or abs(value) < 10**limit


def too_many_digits() -> CapExceeded:
    """The error for a result that ``fits_decimal`` refuses."""
    return CapExceeded(
        f"a result has more than {sys.get_int_max_str_digits()} decimal "
        "digits; pick smaller parameters or raise PYTHONINTMAXSTRDIGITS"
    )


def _decimal(value: int) -> str:
    """str(value), or CapExceeded where ``fits_decimal`` fails."""
    if not fits_decimal(value):
        raise too_many_digits()
    return str(value)


def rational_json(value):
    """Exact fraction as base-10 string pair for JSON reports."""
    return {"num": _decimal(value.numerator), "den": _decimal(value.denominator)}


def _json_value(value):
    if isinstance(value, Fraction):
        return rational_json(value)
    if isinstance(value, dict):
        return {str(k): _json_value(value[k]) for k in sorted(value)}
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    return value


class JsonReport:
    """Mixin for report dataclasses: ``to_json_dict`` emits every field,
    fractions as {num, den}, dicts with string keys in key order, tuples
    as lists."""

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}
