"""Sparse multivariate polynomials over a prime field.

Terms live in a dict mapping exponent tuples to nonzero canonical residues;
the zero polynomial has an empty term map.  Variables are x0, x1, ... and the
homogenization variable is the highest index unless an operation takes an
explicit one.  Includes the text grammar (parser/formatter), characteristic-p
calculus (formal partials, homogenize-to-degree, dehomogenize) and graded
coefficient spaces with seeded uniform sampling.
"""

from itertools import combinations_with_replacement
from math import comb

from ..control import check_cap
from ..errors import ParseError, ValidationError
from .field import PrimeField


def grevlex_key(exps):
    """Sort key: graded reverse lexicographic with x0 largest."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: PrimeField, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            p = field.p
            for exps, c in terms.items() if isinstance(terms, dict) else terms:
                if len(exps) != nvars:
                    raise ValidationError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                c %= p
                if c == 0:
                    continue
                exps = tuple(exps)
                prev = clean.get(exps)
                if prev is None:
                    clean[exps] = c
                else:
                    s = (prev + c) % p
                    if s:
                        clean[exps] = s
                    else:
                        del clean[exps]
        self.terms = clean

    # -- constructors --

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, None)

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, i, power=1):
        if not 0 <= i < nvars:
            raise ValidationError(f"variable index {i} out of range for {nvars} variables")
        e = [0] * nvars
        e[i] = power
        return cls(field, nvars, {tuple(e): 1})

    # -- predicates and views --

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, l=None) -> bool:
        degs = {sum(e) for e in self.terms}
        if l is None:
            return len(degs) <= 1
        return degs <= {l}

    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def canonical_key(self):
        """Hashable identity (used for set membership in enumerations)."""
        return (self.field.p, self.nvars, tuple(sorted(self.terms.items())))

    # -- ring operations --

    def _check_compatible(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValidationError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.field, self.nvars, other)
        self._check_compatible(other)
        p = self.field.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.field, self.nvars, out)

    def __neg__(self):
        p = self.field.p
        return Poly(self.field, self.nvars, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.field, self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_compatible(other)
        p = self.field.p
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = (out.get(e, 0) + ca * cb) % p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.field, self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c: int):
        c %= self.field.p
        if c == 0:
            return Poly.zero(self.field, self.nvars)
        p = self.field.p
        return Poly(self.field, self.nvars, {e: (v * c) % p for e, v in self.terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValidationError("negative polynomial power")
        result = Poly.constant(self.field, self.nvars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(self.canonical_key())

    # -- characteristic-p calculus --

    def partial(self, i: int):
        """Formal partial derivative; terms with exponent divisible by p vanish."""
        if not 0 <= i < self.nvars:
            raise ValidationError(f"variable index {i} out of range for {self.nvars} variables")
        p = self.field.p
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            nc = (c * k) % p
            if nc == 0:
                continue
            ne = e[:i] + (k - 1,) + e[i + 1 :]
            out[ne] = (out.get(ne, 0) + nc) % p
        return Poly(self.field, self.nvars, out)

    def homogenized(self, l: int, hidden: int | None = None):
        """Pad every term with the hidden variable up to total degree l.

        The hidden variable is inserted at index `hidden` (default: appended
        as the new highest index); the result has nvars + 1 variables.
        """
        if hidden is None:
            hidden = self.nvars
        if not 0 <= hidden <= self.nvars:
            raise ValidationError(f"hidden index {hidden} out of range")
        if self.degree() > l:
            raise ValidationError(
                f"cannot homogenize degree {self.degree()} to target degree {l}"
            )
        out = {}
        for e, c in self.terms.items():
            pad = l - sum(e)
            ne = e[:hidden] + (pad,) + e[hidden:]
            out[ne] = c
        return Poly(self.field, self.nvars + 1, out)

    def dehomogenized(self, i: int):
        """Substitute x_i := 1 and renumber the remaining variables in order."""
        if not 0 <= i < self.nvars:
            raise ValidationError(f"variable index {i} out of range for {self.nvars} variables")
        p = self.field.p
        out = {}
        for e, c in self.terms.items():
            ne = e[:i] + e[i + 1 :]
            s = (out.get(ne, 0) + c) % p
            if s:
                out[ne] = s
            else:
                out.pop(ne, None)
        return Poly(self.field, self.nvars - 1, out)

    def evaluate(self, point):
        """Value at a tuple of residues, as a plain int in [0, p)."""
        if len(point) != self.nvars:
            raise ValidationError("point length does not match variable count")
        p = self.field.p
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = (v * pow(x % p, k, p)) % p
            total = (total + v) % p
        return total

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({format_poly(self)!r} over F_{self.field.p}, {self.nvars} vars)"


# ---------------------------------------------------------------------------
# text grammar
#
#   poly    := ['-'] term (('+'|'-') term)*
#   term    := coeff | coeff '*' factors | factors
#   factors := varpow ('*' varpow)*
#   varpow  := 'x' nat ('^' nat)?
#   coeff   := nat
# ---------------------------------------------------------------------------


def parse_poly(text: str, num_vars: int, field: PrimeField) -> Poly:
    """Parse the grammar above; canonical residues, zero terms dropped."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_nat():
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected a number", start)
        return int(text[start:pos])

    def read_varpow():
        nonlocal pos
        if pos >= n or text[pos] != "x":
            raise ParseError("expected a variable like x0", pos)
        pos += 1
        idx_at = pos
        idx = read_nat()
        if idx >= num_vars:
            raise ParseError(
                f"variable x{idx} out of range for {num_vars} variables", idx_at
            )
        power = 1
        skip_ws()
        if pos < n and text[pos] == "^":
            pos += 1
            skip_ws()
            power = read_nat()
        return idx, power

    def read_term():
        # returns (coeff, exps)
        nonlocal pos
        skip_ws()
        coeff = 1
        exps = [0] * num_vars
        saw_factor = False
        if pos < n and text[pos].isdigit():
            coeff = read_nat()
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
            else:
                return coeff, tuple(exps)  # bare constant
        while True:
            idx, power = read_varpow()
            exps[idx] += power
            saw_factor = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                continue
            break
        assert saw_factor
        return coeff, tuple(exps)

    skip_ws()
    if pos >= n:
        raise ParseError("empty input", pos)
    sign = 1
    if text[pos] == "-":
        sign = -1
        pos += 1
    terms = []
    while True:
        c, e = read_term()
        terms.append((e, sign * c))
        skip_ws()
        if pos >= n:
            break
        if text[pos] == "+":
            sign = 1
        elif text[pos] == "-":
            sign = -1
        else:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        pos += 1
        skip_ws()
        if pos >= n:
            raise ParseError("dangling operator", pos)
    return Poly(field, num_vars, terms)


def infer_num_vars(text: str) -> int:
    """Max variable index + 1 as written in the text (CLI convenience)."""
    best = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] == "x" and i + 1 < n and text[i + 1].isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            best = max(best, int(text[i + 1 : j]) + 1)
            i = j
        else:
            i += 1
    return best


def format_poly(poly: Poly) -> str:
    """Descending monomial order; coefficient omitted when 1 on a non-constant
    term.  parse(format(F)) == F."""
    if poly.is_zero:
        return "0"
    parts = []
    for exps, c in poly.sorted_terms():
        factors = [
            f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(exps) if e > 0
        ]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# graded coefficient spaces
# ---------------------------------------------------------------------------


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of total degree exactly `degree`, grevlex-descending."""
    out = []
    for factors in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in factors:
            exps[i] += 1
        out.append(tuple(exps))
    out.sort(key=grevlex_key, reverse=True)
    return out


def monomials_up_to_degree(nvars: int, degree: int):
    """All exponent tuples of total degree <= degree, grevlex-descending."""
    out = []
    for d in range(degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    out.sort(key=grevlex_key, reverse=True)
    return out


class GradedSpace:
    """A coefficient space: either the homogeneous degree-l piece or the
    full space of total degree <= l, over a fixed variable count."""

    HOMOGENEOUS = "homogeneous"
    AT_MOST = "at_most"

    def __init__(self, field: PrimeField, num_vars: int, degree: int, mode: str):
        if mode not in (self.HOMOGENEOUS, self.AT_MOST):
            raise ValidationError(f"unknown graded-space mode {mode!r}")
        if degree < 0 or num_vars < 1:
            raise ValidationError("need degree >= 0 and at least one variable")
        homogeneous = mode == self.HOMOGENEOUS
        check_cap(
            comb(num_vars - homogeneous + degree, degree),
            what=f"the monomial list of a degree-{degree} space in {num_vars} variables",
        )
        self.field = field
        self.num_vars = num_vars
        self.degree = degree
        self.mode = mode
        if homogeneous:
            self._monomials = tuple(monomials_of_degree(num_vars, degree))
        else:
            self._monomials = tuple(monomials_up_to_degree(num_vars, degree))

    @property
    def monomials(self):
        return self._monomials

    def dim(self) -> int:
        return len(self._monomials)

    def sample(self, rng) -> Poly:
        """Uniform over the full coefficient space, zero included."""
        p = self.field.p
        coeffs = [rng.randrange(p) for _ in self._monomials]
        return Poly(self.field, self.num_vars, zip(self._monomials, coeffs))

    def sample_nonzero(self, rng) -> Poly:
        while True:
            f = self.sample(rng)
            if not f.is_zero:
                return f

    def iter_all(self):
        """Every polynomial in the space, ordered by the base-p digit code of
        its coefficient vector over the grevlex-descending monomial list."""
        p = self.field.p
        mons = self._monomials
        total = p ** len(mons)
        for code in range(total):
            coeffs = []
            c = code
            for _ in mons:
                coeffs.append(c % p)
                c //= p
            yield Poly(self.field, self.num_vars, zip(mons, coeffs))

    def size(self) -> int:
        return self.field.p ** len(self._monomials)
