"""Prime fields F_p.

Arithmetic itself works on plain canonical residues in [0, p) wherever it is
needed (polynomials, kernels, linear algebra); a PrimeField only certifies
and carries the modulus.
"""

from ..errors import ValidationError

# Miller-Rabin with these bases decides primality for every n < 3.3 * 10**24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MAX_ORDER = 1 << 64


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2**64; larger n raise
    ValidationError, as no field that large is in scope."""
    if n >= _MAX_ORDER:
        raise ValidationError(f"{n} is too large: field orders must be below 2**64")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, p prime."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValidationError(f"field order {p} is not prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"
