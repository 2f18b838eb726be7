"""Reduced Groebner bases over F_p — pure Python reference kernel.

Polynomials cross the kernel boundary as term lists [(exponent_tuple, coeff)];
internally each term is (order_key, divisibility_key, coeff) with the packed
integer keys from orders.py, kept sorted descending by order key.  Buchberger
with the normal selection strategy and both classical pair criteria, followed
by inter-reduction to the canonical reduced basis.
"""

import heapq

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


def _sub_mul(work, start, g, kq, dq, c, ctx, p):
    """work[start:] minus c * x^q * g, both inputs descending."""
    koff = ctx.koff
    res = []
    i, j = start, 0
    wl, gl = len(work), len(g)
    while i < wl and j < gl:
        gk, gd, gc = g[j]
        kt = gk + kq - koff
        wk = work[i][0]
        if wk > kt:
            res.append(work[i])
            i += 1
        elif wk < kt:
            res.append((kt, ctx.mul_dkey(gd, dq), (-gc * c) % p))
            j += 1
        else:
            nc = (work[i][2] - gc * c) % p
            if nc:
                res.append((wk, work[i][1], nc))
            i += 1
            j += 1
    res.extend(work[i:])
    for gk, gd, gc in g[j:]:
        res.append((gk + kq - koff, ctx.mul_dkey(gd, dq), (-gc * c) % p))
    return res


def _reduce(f, basis, ctx, p):
    """Full normal form of f against a list of monic polynomials."""
    out = []
    work = f
    start = 0
    while start < len(work):
        k0, d0, c0 = work[start]
        red = None
        for g in basis:
            if ctx.divides(g[0][1], d0):
                red = g
                break
        if red is None:
            out.append((k0, d0, c0))
            start += 1
            continue
        kq = k0 - red[0][0] + ctx.koff
        work = _sub_mul(work, start, red, kq, d0 - red[0][1], c0, ctx, p)
        start = 0
    return out


def _spoly(f, g, ctx, p):
    kf, df, _ = f[0]
    kg, dg, _ = g[0]
    dl = ctx.lcm_dkey(df, dg)
    kl = ctx.key(ctx.unpack_dkey(dl))
    left = [
        (k + (kl - kf), ctx.mul_dkey(d, dl - df), c) for k, d, c in f
    ]  # key shift needs no koff correction: kl - kf == key(quotient) - koff
    return _sub_mul(left, 0, g, kl - kg + ctx.koff, dl - dg, 1, ctx, p)


def _interreduce(G, ctx, p):
    ordered = sorted(G, key=lambda f: f[0][0])
    kept = []
    for f in ordered:
        d = f[0][1]
        if any(ctx.divides(g[0][1], d) for g in kept):
            continue
        kept.append(f)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1 :]
            r = _monic(_reduce(kept[idx], others, ctx, p), p)
            if r != kept[idx]:
                kept[idx] = r
                changed = True
    kept.sort(key=lambda f: -f[0][0])
    return kept


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

    G = []
    pending = set()
    heap = []

    def add_poly(f):
        t = len(G)
        G.append(f)
        dt = f[0][1]
        for i in range(t):
            dl = ctx.lcm_dkey(G[i][0][1], dt)
            kl = ctx.key(ctx.unpack_dkey(dl))
            heapq.heappush(heap, (kl, i, t, dl))
            pending.add((i, t))

    for f in polys:
        if f[0][1] == 0:  # constant generator: unit ideal
            return _unpack_basis([unit], ctx)
        add_poly(f)

    while heap:
        kl, i, j, dl = heapq.heappop(heap)
        pending.discard((i, j))
        di, dj = G[i][0][1], G[j][0][1]
        if dl == di + dj:
            continue  # coprime leading terms
        skip = False
        for t in range(len(G)):
            if t == i or t == j:
                continue
            if ctx.divides(G[t][0][1], dl):
                a = (i, t) if i < t else (t, i)
                b = (j, t) if j < t else (t, j)
                if a not in pending and b not in pending:
                    skip = True
                    break
        if skip:
            continue
        r = _reduce(_spoly(G[i], G[j], ctx, p), G, ctx, p)
        if r:
            if r[0][1] == 0:
                return _unpack_basis([unit], ctx)
            add_poly(_monic(r, p))

    return _unpack_basis(_interreduce(G, ctx, p), ctx)


def _unpack_basis(G, ctx):
    return [_unpack(f, ctx) for f in G]


def normal_form(f, basis, nvars, p, order=GREVLEX):
    """Remainder of f modulo a (reduced) basis; no term of the result is
    divisible by any basis leading term."""
    ctx = OrderContext(nvars, order)
    work = _pack(f, ctx, p)
    if not work:
        return []
    packed = []
    for g in basis:
        pg = _pack(g, ctx, p)
        if pg:
            packed.append(_monic(pg, p))
    return _unpack(_reduce(work, packed, ctx, p), ctx)
