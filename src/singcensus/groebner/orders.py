"""Monomial orders as packed integer keys.

Every order is encoded so that (a) integer comparison of keys equals the
monomial comparison and (b) keys are additive under monomial multiplication
up to a constant offset: key(m1*m2) = key(m1) + key(m2) - koff.  A separate
divisibility key packs raw exponents into fixed slots so that "m1 divides m2"
is one guarded subtraction instead of a per-variable loop.

The pure kernel uses 16-bit slots in arbitrary-precision ints (any variable
count, per-variable degree < 2**15); the compiled kernel mirrors the same
layouts in 64 bits for up to 8 variables.
"""

from ..errors import KernelCapacityError

GREVLEX = 0
LEX = 1
ELIM0 = 2  # eliminate variable 0, grevlex among the rest

SLOT = 16
SLOT_MAX = (1 << (SLOT - 1)) - 1  # exponents must stay below the guard bit
_FULL = (1 << SLOT) - 1
_GUARD = 1 << (SLOT - 1)


class OrderContext:
    """Packing/unpacking helpers bound to (nvars, order)."""

    __slots__ = ("nvars", "order", "koff", "guards", "_shifts")

    def __init__(self, nvars: int, order: int):
        if order not in (GREVLEX, LEX, ELIM0):
            raise ValueError(f"unknown order code {order}")
        if order == ELIM0 and nvars < 2:
            raise ValueError("elimination order needs at least 2 variables")
        self.nvars = nvars
        self.order = order
        self._shifts = tuple(SLOT * i for i in range(nvars))
        self.guards = sum(_GUARD << s for s in self._shifts)
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

    def divides(self, da: int, db: int) -> bool:
        """Componentwise da <= db via the guarded-subtraction trick."""
        g = self.guards
        return ((db | g) - da) & g == g

    def mul_dkey(self, da: int, db: int) -> int:
        """Divisibility key of a monomial product, guarding slot overflow
        (the divides() trick needs every exponent below the guard bit)."""
        d = da + db
        if d & self.guards:
            raise KernelCapacityError("monomial product exceeds slot capacity")
        return d

    def lcm_dkey(self, da: int, db: int) -> int:
        ea = self.unpack_dkey(da)
        eb = self.unpack_dkey(db)
        return self.dkey(tuple(max(x, y) for x, y in zip(ea, eb)))
