"""Monomial orders as packed integer keys.

Every order is encoded so that (a) integer comparison of keys equals the
monomial comparison and (b) keys are additive under monomial multiplication
up to a constant offset: key(m1*m2) = key(m1) + key(m2) - koff.  A separate
divisibility key (dkey) packs raw exponents into fixed slots so that "m1
divides m2" is one guarded subtraction instead of a per-variable loop.

The pure kernel uses 16-bit slots in arbitrary-precision ints (any variable
count, per-variable degree < 2**15) and never unpacks a dkey on its hot
paths: the product of two monomials is a sum of dkeys, their lcm a slotwise
max (lcm_dkey), and the grevlex key of a monomial of total degree < 2**16 is
read straight off its dkey (key_of_dkey).  The compiled kernel mirrors the
same layouts in 64 bits for up to 8 variables.
"""

from ..errors import KernelCapacityError

GREVLEX = 0
LEX = 1
ELIM0 = 2  # eliminate variable 0, grevlex among the rest

SLOT = 16
SLOT_MAX = (1 << (SLOT - 1)) - 1  # exponents must stay below the guard bit
_FULL = (1 << SLOT) - 1
_GUARD = 1 << (SLOT - 1)


def slot_ones(nvars, width=SLOT):
    """The int with a 1 in each of nvars slots of the given bit width."""
    return sum(1 << (width * i) for i in range(nvars))


class OrderContext:
    """Packing/unpacking helpers bound to (nvars, order)."""

    __slots__ = ("nvars", "order", "koff", "guards", "_shifts", "_ones", "_low", "_top")

    def __init__(self, nvars: int, order: int):
        if order not in (GREVLEX, LEX, ELIM0):
            raise ValueError(f"unknown order code {order}")
        if order == ELIM0 and nvars < 2:
            raise ValueError("elimination order needs at least 2 variables")
        self.nvars = nvars
        self.order = order
        self._shifts = tuple(SLOT * i for i in range(nvars))
        self._ones = slot_ones(nvars)
        self.guards = _GUARD * self._ones
        self._low = SLOT_MAX * self._ones
        self._top = SLOT * (nvars - 1)
        if order == GREVLEX:
            self.koff = sum(_FULL << (SLOT * (j - 1)) for j in range(1, nvars))
        elif order == LEX:
            self.koff = 0
        else:
            self.koff = sum(_FULL << (SLOT * (j - 2)) for j in range(2, nvars))

    def dkey(self, exps) -> int:
        d = 0
        for e, s in zip(exps, self._shifts):
            if e > SLOT_MAX:
                raise KernelCapacityError(f"exponent {e} exceeds slot capacity")
            d += e << s
        return d

    def key(self, exps) -> int:
        nv = self.nvars
        if self.order == GREVLEX:
            total = sum(exps)
            if total > _FULL:
                raise KernelCapacityError(f"degree {total} exceeds slot capacity")
            k = total << (SLOT * (nv - 1))
            for j in range(1, nv):
                k += (_FULL - exps[j]) << (SLOT * (j - 1))
            return k
        if self.order == LEX:
            k = 0
            for j in range(nv):
                k += exps[j] << (SLOT * (nv - 1 - j))
            return k
        # ELIM0: variable 0 strictly dominates, grevlex on the rest
        rest = sum(exps[1:])
        if rest > _FULL:
            raise KernelCapacityError(f"degree {rest} exceeds slot capacity")
        k = exps[0] << (SLOT * (nv - 1))
        k += rest << (SLOT * (nv - 2))
        for j in range(2, nv):
            k += (_FULL - exps[j]) << (SLOT * (j - 2))
        return k

    def unpack_dkey(self, d: int):
        return tuple((d >> s) & _FULL for s in self._shifts)

    def lcm_dkey(self, da: int, db: int) -> int:
        """Slotwise max: a slot's guard bit in (da|G) - db survives exactly
        when that exponent of da is at least db's, and selects it."""
        g = self.guards
        m = ((((da | g) - db) & g) >> (SLOT - 1)) * SLOT_MAX
        return (da & m) | (db & (self._low ^ m))

    def degree_bound(self, ka: int, kb: int) -> int:
        """Under grevlex, deg(a) + deg(b) >= deg(lcm(a, b)), read off the
        order keys of a and b (their top slot)."""
        return (ka >> self._top) + (kb >> self._top)

    def key_of_dkey(self, d: int, bound: int) -> int:
        """key(unpack_dkey(d)), given a bound on the total degree of d.

        Under grevlex with bound <= 2**16 - 1, the top slot of d * ONES is
        the total degree (no partial sum carries), and the remaining slots
        of the key are koff minus the exponents of variables 1..n-1.  Other
        orders and larger bounds unpack, so an overflowing degree still
        raises KernelCapacityError."""
        if self.order == GREVLEX and bound <= _FULL:
            top = self._top
            total = ((d * self._ones) >> top) & _FULL
            return (total << top) + self.koff - (d >> SLOT)
        return self.key(self.unpack_dkey(d))
