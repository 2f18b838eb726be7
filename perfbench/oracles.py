"""Independent checks of census and grid results, and output digests.

Nothing here calls the code under test to decide whether an answer is right:
the quadric check is the rank of the symmetric Gram matrix, the cubic check
looks for rational singular points by enumerating projective space, and the
grid check recomputes the partial-sum bound from its closed form.
"""

import hashlib
import itertools
from math import comb


def gram_rank_mod3(coeffs, monomials) -> int:
    """Rank over F_3 of the symmetric matrix of a quadratic form.

    Square terms go on the diagonal; a cross term c*x_i*x_j puts c/2 = 2c
    (mod 3) in positions (i, j) and (j, i).
    """
    n = len(monomials[0])
    a = [[0] * n for _ in range(n)]
    for c, exps in zip(coeffs, monomials):
        if not c:
            continue
        idx = [i for i, e in enumerate(exps) if e]
        if len(idx) == 1:
            a[idx[0]][idx[0]] = c
        else:
            i, j = idx
            a[i][j] = a[j][i] = (2 * c) % 3
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = a[rank][col]  # 1 and 2 are their own inverses mod 3
        a[rank] = [(v * inv) % 3 for v in a[rank]]
        for r in range(n):
            if r != rank and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % 3 for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def projective_points(nvars: int, p: int):
    """One representative per point of P^(nvars-1)(F_p): first nonzero is 1."""
    for lead in range(nvars):
        for tail in itertools.product(range(p), repeat=nvars - lead - 1):
            yield (0,) * lead + (1,) + tail


class RationalSingularPoints:
    """Finds F_p-rational points where a form and all its partials vanish.

    Monomial values at every point are tabulated once, so each query is a
    few short dot products per point.
    """

    def __init__(self, monomials, p: int):
        self.p = p
        nvars = len(monomials[0])
        self.tables = []
        for pt in projective_points(nvars, p):
            value = [self._mono(pt, exps) for exps in monomials]
            partials = []
            for i in range(nvars):
                row = []
                for exps in monomials:
                    e = exps[i] % p
                    if e:
                        lower = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                        row.append(e * self._mono(pt, lower) % p)
                    else:
                        row.append(0)
                partials.append(row)
            self.tables.append((value, partials))

    def _mono(self, pt, exps):
        v = 1
        for x, e in zip(pt, exps):
            v = v * pow(x, e, self.p) % self.p
        return v

    def has_point(self, coeffs) -> bool:
        p = self.p
        for value, partials in self.tables:
            if sum(map(int.__mul__, coeffs, value)) % p:
                continue
            if all(sum(map(int.__mul__, coeffs, row)) % p == 0 for row in partials):
                return True
        return False


def projective_class(coeffs, p: int):
    """Canonical representative of the scalar multiples of a coefficient
    vector: scaled so that its first nonzero entry is 1."""
    lead = next(c for c in coeffs if c)
    inv = pow(lead, p - 2, p)
    return tuple(c * inv % p for c in coeffs)


def partial_sum_bound(l: int, m: int, b: int) -> int:
    """A_b(l, m, b) = sum over e = 1..m of C(l - e + 1 + b, b)."""
    return sum(comb(l - e + 1 + b, b) for e in range(1, m + 1))


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
