import random
from itertools import combinations

import pytest

from singcensus.algebra.field import PrimeField
from singcensus.algebra.poly import GradedSpace, Poly, parse_poly
from singcensus.errors import ValidationError
from singcensus.groebner import (
    MonomialOrder,
    affine_dimension,
    buchberger,
    graded_piece_dimension,
    ideal_membership,
    intersect_ideals,
    intersect_many,
    projective_dimension_degree,
    sing_dim_deg,
    singular_locus_ideal,
)
from singcensus.groebner.hilbert import (
    _shave_pole,
    dimension_degree_from_leads,
    hilbert_numerator,
    staircase_dimension,
)
from singcensus.groebner.orders import OrderContext


def _polys(texts, nvars, field):
    return [parse_poly(t, nvars, field) for t in texts]


def _spoly_normal_forms_vanish(gb):
    """Buchberger criterion, checked post-hoc at the polynomial level."""
    gens = list(gb)
    leads = gb.lead_exponents()
    for i in range(len(gens)):
        for j in range(i):
            f, g = gens[i], gens[j]
            lf, lg = leads[i], leads[j]
            lcm = tuple(max(a, b) for a, b in zip(lf, lg))
            mf = Poly(f.field, f.nvars, {tuple(l - a for l, a in zip(lcm, lf)): 1})
            mg = Poly(g.field, g.nvars, {tuple(l - a for l, a in zip(lcm, lg)): 1})
            if not gb.normal_form(mf * f - mg * g).is_zero:
                return False
    return True


# ---------------------------------------------------------------- bases


def test_single_generator_is_its_own_basis(F5):
    f = parse_poly("x0^2 + x1*x2", 3, F5)
    gb = buchberger([f])
    assert list(gb) == [f]
    assert _spoly_normal_forms_vanish(gb)


def test_twisted_cubic_basis_and_dimension(F5):
    gens = _polys(["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"], 4, F5)
    gb = buchberger(gens)
    assert len(gb) == 3
    assert _spoly_normal_forms_vanish(gb)
    dd = projective_dimension_degree(gens)
    assert (dd.projective_dim, dd.degree) == (1, 3)


def test_unit_ideal(F3):
    gb = buchberger(_polys(["x0", "x0 + 1"], 2, F3))
    assert gb.lead_exponents() == [(0, 0)]
    assert affine_dimension(gb) == -1
    # irrelevant ideal: projectively empty
    dd = projective_dimension_degree(_polys(["x0", "x1"], 2, F3))
    assert (dd.projective_dim, dd.degree) == (-1, 0)


def test_zero_ideal_needs_explicit_order(F3):
    with pytest.raises(ValidationError):
        buchberger([])
    gb = buchberger([], MonomialOrder("grevlex", 3))
    assert len(gb) == 0
    assert affine_dimension(gb) == 3


def test_membership_is_characteristic_sensitive():
    # x0^2 + x1^2 = (x0 + x1)^2 over F2 but not over F5
    for p, expected in ((2, True), (5, False)):
        field = PrimeField(p)
        gb = buchberger(_polys(["x0 + x1"], 2, field))
        f = parse_poly("x0^2 + x1^2", 2, field)
        assert ideal_membership(f, gb) is expected


def test_normal_form_is_idempotent_and_linear(F5, rng):
    space = GradedSpace(F5, 3, 3, GradedSpace.AT_MOST)
    gens = [space.sample_nonzero(rng) for _ in range(3)]
    gb = buchberger(gens)
    for _ in range(20):
        f = space.sample(rng)
        g = space.sample(rng)
        nf = gb.normal_form(f)
        assert gb.normal_form(nf) == nf
        assert gb.normal_form(f + g) == gb.normal_form(
            gb.normal_form(f) + gb.normal_form(g)
        )


def test_buchberger_criterion_on_random_ideals(F3, rng):
    space = GradedSpace(F3, 3, 3, GradedSpace.AT_MOST)
    for _ in range(15):
        gens = [space.sample_nonzero(rng) for _ in range(rng.randrange(2, 4))]
        gb = buchberger(gens)
        assert _spoly_normal_forms_vanish(gb)
        for g in gens:
            assert ideal_membership(g, gb)


def test_lex_order_eliminates(F5):
    # lex basis of a zero-dimensional ideal contains a univariate polynomial
    gens = _polys(["x0^2 + x1 - 1", "x0 + x1^2"], 2, F5)
    gb = buchberger(gens, "lex")
    assert _spoly_normal_forms_vanish(gb)
    assert any(all(e[0] == 0 for e in g.terms) for g in gb)


def test_lead_exponents_follow_the_basis_order(F5):
    f = parse_poly("x0 + x1^2", 2, F5)
    assert buchberger([f], "lex").lead_exponents() == [(1, 0)]
    assert buchberger([f], "grevlex").lead_exponents() == [(0, 2)]


def test_affine_dimension_agrees_across_orders(F5):
    gens = _polys(["x0 - x1^2", "x0*x2 - x1^3"], 3, F5)
    assert affine_dimension(buchberger(gens, "grevlex")) == 1
    assert affine_dimension(buchberger(gens, "lex")) == 1


@pytest.mark.parametrize("kind", ["grevlex", "lex", "elim0"])
def test_basis_terms_descend_in_their_own_order(F3, rng, kind):
    space = GradedSpace(F3, 3, 2, GradedSpace.AT_MOST)
    for _ in range(15):
        gens = [space.sample_nonzero(rng) for _ in range(rng.randrange(1, 4))]
        order = MonomialOrder(kind, 3)
        gb = buchberger(gens, order)
        key = OrderContext(3, order.code).key
        for terms, lead in zip(gb.terms, gb.lead_exponents()):
            keys = [key(e) for e, _ in terms]
            assert keys == sorted(keys, reverse=True)
            assert lead == max((e for e, _ in terms), key=key)
            assert terms[0][1] == 1
        assert [key(l) for l in gb.lead_exponents()] == sorted(
            (key(l) for l in gb.lead_exponents()), reverse=True
        )
        assert affine_dimension(gb) == affine_dimension(buchberger(gens))


# ---------------------------------------------------------- intersections


def test_intersection_of_principal_ideals(F5):
    a = _polys(["x0"], 2, F5)
    b = _polys(["x1"], 2, F5)
    inter = intersect_ideals(a, b)
    gb = buchberger(inter)
    assert ideal_membership(parse_poly("x0*x1", 2, F5), gb)
    assert not ideal_membership(parse_poly("x0", 2, F5), gb)
    assert not ideal_membership(parse_poly("x1", 2, F5), gb)


def test_intersection_two_lines_in_projective_space(F3):
    line_a = _polys(["x1", "x3"], 4, F3)
    line_b = _polys(["x2", "x3"], 4, F3)
    inter = intersect_many([line_a, line_b])
    gb = buchberger(inter)
    assert ideal_membership(parse_poly("x3", 4, F3), gb)
    assert ideal_membership(parse_poly("x1*x2", 4, F3), gb)
    assert not ideal_membership(parse_poly("x1", 4, F3), gb)
    assert graded_piece_dimension(inter, 2) == 5


def test_intersection_respects_membership_randomized(F3, rng):
    space = GradedSpace(F3, 3, 2, GradedSpace.AT_MOST)
    for _ in range(10):
        a = [space.sample_nonzero(rng) for _ in range(2)]
        b = [space.sample_nonzero(rng) for _ in range(2)]
        inter = intersect_ideals(a, b)
        gba = buchberger(a, MonomialOrder("grevlex", 3))
        gbb = buchberger(b, MonomialOrder("grevlex", 3))
        for f in inter:
            assert ideal_membership(f, gba)
            assert ideal_membership(f, gbb)


def test_graded_piece_dimension_monomial_ideal(F5):
    gens = _polys(["x0"], 3, F5)
    # multiples of x0 of degree 2 in 3 variables: x0*{x0,x1,x2}
    assert graded_piece_dimension(gens, 2) == 3
    assert graded_piece_dimension(gens, 1) == 1
    assert graded_piece_dimension([], 2) == 0


# ------------------------------------------------------ dimension / degree


def test_hypersurface_dimension_and_degree(F5, rng):
    for nvars, l in ((3, 2), (4, 3), (4, 5)):
        space = GradedSpace(F5, nvars, l, GradedSpace.HOMOGENEOUS)
        f = space.sample_nonzero(rng)
        dd = projective_dimension_degree([f])
        assert (dd.projective_dim, dd.degree) == (nvars - 2, l)


def test_point_schemes(F5):
    one_point = _polys(["x0", "x1"], 3, F5)
    dd = projective_dimension_degree(one_point)
    assert (dd.projective_dim, dd.degree) == (0, 1)
    two_points = _polys(["x0", "x1*x2"], 3, F5)
    dd = projective_dimension_degree(two_points)
    assert (dd.projective_dim, dd.degree) == (0, 2)


def test_affine_dimension_matches_hand_checks(F3):
    gb = buchberger(_polys(["x0*x1"], 3, F3))
    assert affine_dimension(gb) == 2
    gb = buchberger(_polys(["x0", "x1", "x2"], 3, F3))
    assert affine_dimension(gb) == 0


# ------------------------------------------------------- singular loci


def test_singular_locus_ideal_shape(F5):
    f = parse_poly("x0^3 + x1^3 + x2^3", 3, F5)
    gens = singular_locus_ideal(f)
    assert len(gens) == 4  # f itself plus three partials
    assert gens[0] == f


@pytest.mark.parametrize("p, degree", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 4)])
def test_partials_alone_give_the_singular_locus_when_p_does_not_divide_l(
    monkeypatch, p, degree
):
    # Euler's identity l*f = sum x_i df/dx_i: for p not dividing l the kernel
    # sees the partials only, and the ideal's reduced basis is unchanged
    from singcensus.groebner import kernel

    inputs = []
    reduced_groebner = kernel.reduced_groebner

    def recording(gens, *args):
        inputs.append(len(gens))
        return reduced_groebner(gens, *args)

    rng = random.Random(100 * p + degree)
    space = GradedSpace(PrimeField(p), 4, degree, GradedSpace.HOMOGENEOUS)
    for _ in range(15):
        f = space.sample_nonzero(rng)
        gens = singular_locus_ideal(f)
        want = projective_dimension_degree(gens)
        if degree % p:
            assert buchberger(gens[1:]).terms == buchberger(gens).terms
        inputs.clear()
        monkeypatch.setattr(kernel, "reduced_groebner", recording)
        assert sing_dim_deg(f) == want
        monkeypatch.undo()
        nonzero = sum(not g.is_zero for g in gens[1:])
        assert inputs == [nonzero + (degree % p == 0)]


def test_smooth_surfaces_have_empty_singular_locus(F5):
    fermat = parse_poly("x0^4 + x1^4 + x2^4 + x3^4", 4, F5)
    dd = sing_dim_deg(fermat)
    assert (dd.projective_dim, dd.degree) == (-1, 0)


def test_smooth_conic_char2(F2):
    dd = sing_dim_deg(parse_poly("x0^2 + x1*x2", 3, F2))
    assert dd.projective_dim == -1


def test_rank3_quadric_is_singular_at_a_point(F3):
    dd = sing_dim_deg(parse_poly("x0^2 + x1^2 + x2^2", 4, F3))
    assert (dd.projective_dim, dd.degree) == (0, 1)


def test_cuspidal_cubic_singular_point(F5):
    dd = sing_dim_deg(parse_poly("x1^2*x2 - x0^3", 3, F5))
    assert dd.projective_dim == 0
    assert dd.degree >= 1


def test_square_factor_forces_big_singular_locus(F3):
    # (x0 x1)... a doubled line: V(x0^2 x1) is singular along V(x0)
    dd = sing_dim_deg(parse_poly("x0^2*x1", 3, F3))
    assert dd.projective_dim == 1


def test_krull_lower_bound_randomized(F3, rng):
    # i+1 forms in n+1 variables: nonempty projective locus has dim >= n-i-1
    nvars = 4
    for _ in range(20):
        count = rng.randrange(1, 4)
        space = GradedSpace(F3, nvars, 2, GradedSpace.HOMOGENEOUS)
        gens = [space.sample_nonzero(rng) for _ in range(count)]
        dd = projective_dimension_degree(gens)
        if dd.projective_dim >= 0:
            assert dd.projective_dim >= nvars - 1 - count


# ----------------------------------------------------------- hilbert layer


def test_staircase_dimension_fixtures():
    assert staircase_dimension([(0, 0, 1, 0), (0, 0, 0, 1)], 4) == 2
    assert staircase_dimension([(1, 1, 0, 0)], 4) == 3
    assert staircase_dimension([], 3) == 3
    assert staircase_dimension([(0, 0, 0)], 3) == -1  # unit ideal


def _tuple_minimalize(gens):
    gens = sorted(set(gens), key=sum)
    out = []
    for g in gens:
        if not any(all(a <= b for a, b in zip(m, g)) for m in out):
            out.append(g)
    return out


def _tuple_hilbert_numerator(leads):
    """Reference: the pivot recursion on exponent tuples, as it ran before
    monomials were packed into ints."""

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return out

    def add_shifted(a, b):
        out = list(a) + [0] * max(0, 1 + len(b) - len(a))
        for j, y in enumerate(b):
            out[1 + j] += y
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def rec(gens):
        if not gens:
            return [1]
        if any(not any(g) for g in gens):
            return [0]
        supports = [[i for i, e in enumerate(g) if e] for g in gens]
        flat = [i for sup in supports for i in sup]
        if len(set(flat)) == len(flat):
            res = [1]
            for g in gens:
                res = mul(res, [1] + [0] * (sum(g) - 1) + [-1])
            return res
        counts = [sum(1 for g in gens if g[i]) for i in range(len(gens[0]))]
        piv = counts.index(max(counts))
        unit = tuple(int(i == piv) for i in range(len(gens[0])))
        plus = _tuple_minimalize([g for g in gens if g[piv] == 0] + [unit])
        colon = _tuple_minimalize(
            [tuple(e - (i == piv and e > 0) for i, e in enumerate(g)) for g in gens]
        )
        return add_shifted(rec(plus), rec(colon))

    return rec(_tuple_minimalize([tuple(g) for g in leads]))


def _random_monomial_ideal(rng, nvars):
    gens = [
        [rng.choice([0, 0, 0, 1, 2, 3]) for _ in range(nvars)]
        for _ in range(rng.randrange(0, 7))
    ]
    if gens and rng.random() < 0.3:
        # one exponent past the kernel's 15-bit slot; only one, so that no
        # chain of colon ideals has to peel it off one degree at a time
        rng.choice(gens)[rng.randrange(nvars)] = rng.randint(1 << 15, 70000)
    return [tuple(g) for g in gens]


def test_packed_hilbert_numerator_matches_the_tuple_recursion():
    rng = random.Random(11)
    for _ in range(400):
        nvars = rng.randrange(1, 7)
        gens = _random_monomial_ideal(rng, nvars)
        num = hilbert_numerator(gens, nvars)
        assert num == _tuple_hilbert_numerator(gens), gens
        # the staircase dimension is the order of the pole at t = 1
        dim = staircase_dimension(gens, nvars)
        if dim >= 0:
            mult, _ = _shave_pole(num)
            assert dim == nvars - mult, gens
        else:
            assert num == [0]


def test_hilbert_numerator_fixtures():
    assert hilbert_numerator([(2, 0), (0, 3)], 2) == [1, 0, -1, -1, 0, 1]
    assert hilbert_numerator([(1, 0, 0), (0, 1, 1)], 3) == [1, -1, -1, 1]
    assert hilbert_numerator([], 2) == [1]


def _inclusion_exclusion_numerator(gens, nvars):
    """Sum over subsets S of the generators of (-1)^|S| t^deg lcm(S)
    (Taylor's resolution), trimmed of trailing zeros."""
    coeffs = {}
    for size in range(len(gens) + 1):
        for subset in combinations(gens, size):
            deg = sum(max((g[i] for g in subset), default=0) for i in range(nvars))
            coeffs[deg] = coeffs.get(deg, 0) + (-1) ** size
    top = max((d for d, c in coeffs.items() if c), default=0)
    return [coeffs.get(d, 0) for d in range(top + 1)]


def test_hilbert_numerator_pivots_on_a_power():
    # a pivot on x_0 alone would peel x_0^2500 one degree per recursion level
    num = hilbert_numerator([(3000, 1, 0), (2500, 0, 1)], 3)
    want = [0] * 3003
    want[0], want[2501], want[3001], want[3002] = 1, -1, -1, 1
    assert num == want
    # generators sharing one variable at exponents near 2^16
    rng = random.Random(17)
    for _ in range(40):
        nvars = rng.randrange(2, 6)
        shared = rng.randrange(nvars)
        gens = []
        for _ in range(rng.randrange(2, 8)):
            ex = [rng.randrange(4) for _ in range(nvars)]
            ex[shared] = rng.randrange(1 << 15, 70_000)
            gens.append(tuple(ex))
        assert hilbert_numerator(gens, nvars) == _inclusion_exclusion_numerator(
            gens, nvars
        ), gens


def test_dimension_degree_fixtures():
    assert dimension_degree_from_leads([(0, 0, 1, 0), (0, 0, 0, 1)], 4) == (2, 1)
    assert dimension_degree_from_leads([(1, 1, 0, 0)], 4) == (3, 2)
    assert dimension_degree_from_leads([(2, 0, 0, 0), (1, 1, 0, 0)], 4) == (3, 1)
    # two skew supports: the regression that once recursed forever
    assert dimension_degree_from_leads([(1, 0, 0), (0, 1, 1)], 3) == (1, 2)


def test_degree_is_positive_whenever_nonempty(F3, rng):
    space = GradedSpace(F3, 3, 2, GradedSpace.AT_MOST)
    for _ in range(20):
        gens = [space.sample_nonzero(rng) for _ in range(rng.randrange(1, 4))]
        gb = buchberger(gens)
        dim = affine_dimension(gb)
        if dim >= 0:  # -1 exactly for the unit ideal
            leads = gb.lead_exponents()
            d, deg = dimension_degree_from_leads(leads, 3)
            assert d == dim
            assert deg >= 1
