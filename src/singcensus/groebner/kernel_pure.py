"""Reduced Groebner bases over F_p — pure Python reference kernel.

Polynomials cross the kernel boundary as term lists [(exponent_tuple, coeff)];
internally each term is (order_key, divisibility_key, coeff) with the packed
integer keys from orders.py, kept sorted descending by order key.  Buchberger
with the normal selection strategy and both classical pair criteria, followed
by inter-reduction to the canonical reduced basis.

Monomials stay packed from _pack to _unpack: a product is a sum of keys (the
divisibility key checked for slot overflow on every term), divisibility is the
guarded subtraction ((db | G) - da) & G == G written out inline, and an S-pair's
lcm and its order key come from OrderContext.lcm_dkey and key_of_dkey.
"""

import heapq

from ..errors import KernelCapacityError
from .orders import GREVLEX, OrderContext


def _pack(terms, ctx, p):
    acc = {}
    for exps, c in terms:
        c %= p
        if c == 0:
            continue
        k = ctx.key(exps)
        if k in acc:
            acc[k][1] = (acc[k][1] + c) % p
        else:
            acc[k] = [ctx.dkey(exps), c]
    out = [(k, d, c) for k, (d, c) in acc.items() if c]
    out.sort(key=lambda t: -t[0])
    return out


def _unpack(f, ctx):
    return [(ctx.unpack_dkey(d), c) for _, d, c in f]


def _monic(f, p):
    lc = f[0][2]
    if lc == 1:
        return f
    inv = pow(lc, p - 2, p)
    return [(k, d, (c * inv) % p) for k, d, c in f]


def _overflow():
    return KernelCapacityError("monomial product exceeds slot capacity")


def _sub_mul(work, start, g, shift, dq, c, guards, p):
    """work[start:] minus c * x^q * g, where x^q has divisibility key dq and
    adds `shift` to order keys.  Both inputs descend and their leading terms
    cancel, so both are skipped."""
    nc = p - c
    res = []
    i, j = start + 1, 1
    wl, gl = len(work), len(g)
    while i < wl and j < gl:
        gk, gd, gc = g[j]
        kt = gk + shift
        wt = work[i]
        wk = wt[0]
        if wk > kt:
            res.append(wt)
            i += 1
        elif wk < kt:
            d = gd + dq
            if d & guards:
                raise _overflow()
            res.append((kt, d, gc * nc % p))
            j += 1
        else:
            cc = (wt[2] + gc * nc) % p
            if cc:
                res.append((wk, wt[1], cc))
            i += 1
            j += 1
    res.extend(work[i:])
    for gk, gd, gc in g[j:]:
        d = gd + dq
        if d & guards:
            raise _overflow()
        res.append((gk + shift, d, gc * nc % p))
    return res


def _reduce(f, leads, guards, p):
    """Full normal form of f against monic polynomials, given as
    (leading dkey, polynomial) pairs."""
    out = []
    work = f
    start = 0
    while start < len(work):
        k0, d0, c0 = work[start]
        top = d0 | guards
        for dg, red in leads:
            if (top - dg) & guards == guards:
                work = _sub_mul(work, start, red, k0 - red[0][0], d0 - dg, c0,
                                guards, p)
                start = 0
                break
        else:
            out.append((k0, d0, c0))
            start += 1
    return out


def _spoly(f, g, ctx, p):
    kf, df, _ = f[0]
    kg, dg, _ = g[0]
    dl = ctx.lcm_dkey(df, dg)
    kl = ctx.key_of_dkey(dl, ctx.degree_bound(kf, kg))
    guards = ctx.guards
    dq = dl - df
    left = []
    for k, d, c in f:
        d += dq
        if d & guards:
            raise _overflow()
        left.append((k + (kl - kf), d, c))
    # key shifts need no koff correction: kl - kf == key(quotient) - koff
    return _sub_mul(left, 0, g, kl - kg, dl - dg, 1, guards, p)


def _interreduce(leads, guards, p):
    """The reduced basis of the ideal that a Groebner basis, given as
    (leading dkey, polynomial) pairs, generates: drop the elements whose
    lead another lead divides, then reduce the rest in ascending lead
    order, each against the ones before it.  One pass is enough, because a
    lead divides no monomial smaller than itself, so no larger lead divides
    a term of a smaller element."""
    minimal = []
    for d, f in sorted(leads, key=lambda pair: pair[1][0][0]):
        top = d | guards
        if all((top - m) & guards != guards for m, _ in minimal):
            minimal.append((d, f))
    reduced = []
    for d, f in minimal:
        reduced.append((d, _reduce(f, reduced, guards, p)))
    return [f for _, f in reversed(reduced)]


def reduced_groebner(gens, nvars, p, order=GREVLEX):
    """Canonical reduced Groebner basis as term lists (descending terms,
    elements sorted by descending leading monomial, leading coefficients 1)."""
    ctx = OrderContext(nvars, order)
    polys = []
    for g in gens:
        f = _pack(g, ctx, p)
        if f:
            polys.append(_monic(f, p))
    if not polys:
        return []
    unit = [(ctx.key((0,) * nvars), 0, 1)]
    guards = ctx.guards

    leads = []  # the basis so far, as (leading dkey, polynomial) pairs
    pending = set()
    heap = []

    def add_poly(f):
        t = len(leads)
        kt, dt, _ = f[0]
        leads.append((dt, f))
        for i in range(t):
            di, g = leads[i]
            ki = g[0][0]
            dl = ctx.lcm_dkey(di, dt)
            kl = ctx.key_of_dkey(dl, ctx.degree_bound(ki, kt))
            heapq.heappush(heap, (kl, i, t, dl))
            pending.add((i, t))

    for f in polys:
        if f[0][1] == 0:  # constant generator: unit ideal
            return _unpack_basis([unit], ctx)
        add_poly(f)

    while heap:
        kl, i, j, dl = heapq.heappop(heap)
        pending.discard((i, j))
        if dl == leads[i][0] + leads[j][0]:
            continue  # coprime leading terms
        skip = False
        top = dl | guards
        for t, (dt, _) in enumerate(leads):
            if (top - dt) & guards == guards and t != i and t != j:
                a = (i, t) if i < t else (t, i)
                b = (j, t) if j < t else (t, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce(_spoly(leads[i][1], leads[j][1], ctx, p), leads, guards, p)
        if r:
            if r[0][1] == 0:
                return _unpack_basis([unit], ctx)
            add_poly(_monic(r, p))

    return _unpack_basis(_interreduce(leads, guards, p), ctx)


def _unpack_basis(G, ctx):
    return [_unpack(f, ctx) for f in G]


def normal_form(f, basis, nvars, p, order=GREVLEX):
    """Remainder of f modulo a (reduced) basis; no term of the result is
    divisible by any basis leading term."""
    ctx = OrderContext(nvars, order)
    work = _pack(f, ctx, p)
    if not work:
        return []
    leads = []
    for g in basis:
        pg = _pack(g, ctx, p)
        if pg:
            pg = _monic(pg, p)
            leads.append((pg[0][1], pg))
    return _unpack(_reduce(work, leads, ctx.guards, p), ctx)
