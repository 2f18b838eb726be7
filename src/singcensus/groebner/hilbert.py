"""Dimension and degree of a quotient ring from its leading-term staircase.

Two independent readings are cross-checked on every query: the Krull
dimension from the maximal independent variable subset of the staircase, and
the pole order of the Hilbert series at t = 1.  The numerator of the series
(computed by the standard pivot recursion on the monomial ideal, with each
monomial packed into one int) evaluated at t = 1 after cancelling the pole
gives the degree, with multiplicity, of the top-dimensional part.  The
staircase reads each lead as one support bitmask.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_

from ..errors import InternalCheckError
from .orders import slot_ones


@dataclass(frozen=True)
class DimensionDegree:
    """affine_dim is the Krull dimension of the affine cone (-1 for the unit
    ideal); projective_dim = affine_dim - 1 floored at -1; degree is 0 when
    the projective scheme is empty and >= 1 otherwise."""

    affine_dim: int
    projective_dim: int
    degree: int


def staircase_dimension(leads, nvars):
    """Krull dimension of k[x]/I from the leading exponent tuples of a
    reduced basis: the largest variable subset S such that no leading
    monomial is supported inside S.  -1 for the unit ideal.

    Supports and subsets are bitmasks: a lead is supported inside S when
    its support has no bit outside S's mask."""
    supports = {sum(1 << i for i, e in enumerate(ex) if e) for ex in leads}
    if 0 in supports:
        return -1
    for size in range(nvars, 0, -1):
        for subset in combinations(range(nvars), size):
            outside = ~sum(1 << i for i in subset)
            if all(sup & outside for sup in supports):
                return size
    return 0


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_add(a, b, shift=0):
    out = list(a) + [0] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        out[shift + j] += y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def hilbert_numerator(leads, nvars):
    """Coefficients of N(t) with Hilbert series of k[x]/I equal to
    N(t) / (1-t)^nvars, for the monomial ideal generated by `leads`.

    The pivot recursion runs on monomials packed into one int each, nvars
    slots of a width chosen per call so that every total degree and the
    generator count stay below the slot's top (guard) bit.  With G the
    guard bits and ONES a 1 in every slot: a divides b when the guarded
    subtraction ((b | G) - a) & G equals G; the support of a is
    ((a | G) - ONES) & G; and the top slot of a * ONES is the degree of a
    (no partial sum reaches the guard bit, so nothing carries).  Every
    monomial of the recursion divides a generator, and no step grows the
    number of generators, so one width serves the whole call."""
    leads = [tuple(ex) for ex in leads]
    if not leads:
        return [1]
    width = max(len(leads), max(map(sum, leads))).bit_length() + 1
    guard_shift = width - 1
    slot = (1 << width) - 1
    top = width * (nvars - 1)
    ones = slot_ones(nvars, width)
    guards = ones << guard_shift
    shifts = [width * i for i in range(nvars)]

    def minimalize(gens):
        """The minimal generators, ascending.  A divisor is never a larger
        int than its multiple, so it is met first."""
        out = []
        for m in sorted(set(gens)):
            top_m = m | guards
            for o in out:
                if (top_m - o) & guards == guards:
                    break
            else:
                out.append(m)
        return tuple(out)

    memo = {}

    def rec(gens):
        hit = memo.get(gens)
        if hit is not None:
            return hit
        if not gens:
            res = [1]
        elif gens[0] == 0:
            res = [0]
        else:
            supports = [((g | guards) - ones) & guards for g in gens]
            total = sum(supports)
            if total == reduce(or_, supports):
                # pairwise-disjoint supports form a regular sequence: product
                # formula.  This also guarantees the pivot below touches at
                # least two generators, so both split branches strictly shrink.
                res = [1]
                for g in gens:
                    a = ((g * ones) >> top) & slot  # the degree of g
                    res = _poly_mul(res, [1] + [0] * (a - 1) + [-1])
            else:
                # pivot on x_i^k for the most frequent variable x_i (the
                # first on ties), k its smallest positive exponent, so every
                # generator x_i divides is a multiple of the pivot; slot i of
                # `counts` is the number of generators x_i divides
                counts = total >> guard_shift
                per_var = [(counts >> sh) & slot for sh in shifts]
                piv = per_var.index(max(per_var))
                sh = shifts[piv]
                bit = 1 << (sh + guard_shift)
                k = min((g >> sh) & slot for g, s in zip(gens, supports) if s & bit)
                pivot = k << sh
                plus = [g for g, s in zip(gens, supports) if not s & bit]
                colon = [g - pivot if s & bit else g for g, s in zip(gens, supports)]
                res = _poly_add(rec(minimalize(plus + [pivot])),
                                rec(minimalize(colon)), shift=k)
        memo[gens] = res
        return res

    packed = [sum(e << sh for e, sh in zip(ex, shifts)) for ex in leads]
    return rec(minimalize(packed))


def _shave_pole(num):
    """Divide N(t) by (1-t) as often as it divides exactly; returns the
    multiplicity and the quotient."""
    mult = 0
    cur = list(num)
    while sum(cur) == 0 and any(cur):
        nxt = []
        acc = 0
        for a in cur[:-1]:
            acc += a
            nxt.append(acc)
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        cur = nxt if nxt else [0]
        mult += 1
    return mult, cur


def dimension_degree_from_leads(leads, nvars):
    """(affine_dim, degree-of-top-part) for the cone cut out by a monomial
    staircase; degree convention: value of the cancelled numerator at t=1."""
    leads = [tuple(e) for e in leads]
    dim = staircase_dimension(leads, nvars)
    if dim == -1:
        return -1, 0
    num = hilbert_numerator(leads, nvars)
    mult, reduced = _shave_pole(num)
    pole_dim = nvars - mult
    if pole_dim != dim:
        raise InternalCheckError(
            f"staircase dimension {dim} disagrees with Hilbert-series pole {pole_dim}"
        )
    degree = sum(reduced)
    if degree < 1:
        raise InternalCheckError("nonpositive degree from Hilbert numerator")
    return dim, degree
