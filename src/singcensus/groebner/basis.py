"""Public Groebner-basis interface on top of the term-list kernels."""

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from ..algebra.field import PrimeField
from ..algebra.poly import Poly
from ..errors import ValidationError
from . import kernel
from .orders import ELIM0, GREVLEX, LEX

_ORDER_CODES = {"grevlex": GREVLEX, "lex": LEX, "elim0": ELIM0}


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a fixed number of variables.

    kind: "grevlex" (the default everywhere), "lex", or "elim0" (variable 0
    eliminated first, grevlex on the rest — used for ideal intersection).
    """

    kind: str
    num_vars: int

    def __post_init__(self):
        if self.kind not in _ORDER_CODES:
            raise ValidationError(f"unknown monomial order {self.kind!r}")
        if self.num_vars < 1:
            raise ValidationError("num_vars >= 1 required")

    @property
    def code(self) -> int:
        return _ORDER_CODES[self.kind]


class GroebnerBasis:
    """Reduced Groebner basis of an ideal in F_p[x0..x{nv-1}].

    Holds the kernel's canonical output as is: one term list
    [(exponent_tuple, coeff)] per element, terms descending in the basis's
    own order, elements sorted by descending leading monomial, leading
    coefficients 1.  Equal ideals yield equal term lists regardless of the
    generators handed in.  Immutable once built.
    """

    def __init__(self, terms, order: MonomialOrder, field: PrimeField = None):
        self.terms = terms
        self.order = order
        self.field = field

    @property
    def nvars(self) -> int:
        return self.order.num_vars

    @property
    def generators(self) -> List[Poly]:
        return [Poly(self.field, self.nvars, t) for t in self.terms]

    def normal_form(self, f: Poly) -> Poly:
        if f.nvars != self.nvars:
            raise ValidationError("polynomial has the wrong number of variables")
        if not self.terms:
            return f
        if f.field != self.field:
            raise ValidationError("polynomial lives over a different prime field")
        raw = kernel.normal_form(
            list(f.terms.items()), self.terms, self.nvars, self.field.p, self.order.code
        )
        return Poly(self.field, self.nvars, raw)

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero

    def lead_exponents(self) -> List[Tuple[int, ...]]:
        return [t[0][0] for t in self.terms]

    def __len__(self):
        return len(self.terms)

    def __iter__(self):
        return iter(self.generators)

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return (
            self.order == other.order
            and self.field == other.field
            and self.terms == other.terms
        )


def buchberger(
    gens: Sequence[Poly], order: Union[MonomialOrder, str] = "grevlex"
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Empty input yields the zero ideal; then `order` must be a MonomialOrder
    (the variable count cannot be read off the generators).
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        if not isinstance(order, MonomialOrder):
            raise ValidationError(
                "zero ideal: pass a MonomialOrder carrying the variable count"
            )
        return GroebnerBasis([], order)
    field = gens[0].field
    nvars = gens[0].nvars
    for g in gens[1:]:
        if g.field != field:
            raise ValidationError("generators live over different prime fields")
        if g.nvars != nvars:
            raise ValidationError("generators disagree on the number of variables")
    if isinstance(order, str):
        order = MonomialOrder(order, nvars)
    elif order.num_vars != nvars:
        raise ValidationError("generator/order variable-count mismatch")
    raw = kernel.reduced_groebner(
        [list(g.terms.items()) for g in gens], nvars, field.p, order.code
    )
    return GroebnerBasis(raw, order, field)


def ideal_membership(f: Poly, gb: GroebnerBasis) -> bool:
    return gb.contains(f)
