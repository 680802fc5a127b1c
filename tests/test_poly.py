"""Exact polynomial arithmetic: worked examples first, then random laws."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from polydiff.poly import (
    EVAL_BLOCK,
    MonomialBasis,
    NEG_INF,
    Polynomial,
    PolyParseError,
    eval_floats,
    exact_divide,
    format_poly,
    parse_poly,
    poly_divmod,
    tensor_grid,
)

X2 = Polynomial.variable(2, 0)
Y2 = Polynomial.variable(2, 1)

DELTOID_PRINTED = parse_poly("(x^2+y^2)^2 + 18*(x^2+y^2) - 8*x^3 + 24*x*y^2 - 27", 2)


def test_mul_difference_of_squares():
    assert (X2 + Y2) * (X2 - Y2) == X2**2 - Y2**2


def test_constructor_sums_repeated_pairs_and_drops_zeros():
    pairs = [((1, 0), 1), ((0, 1), 2), ((1, 0), -1), ((0, 1), Fraction(1, 2))]
    assert Polynomial(2, pairs).terms == {(0, 1): Fraction(5, 2)}
    assert Polynomial(2, {(1, 0): 0, (0, 1): "1/3"}).terms == {(0, 1): Fraction(1, 3)}
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})


@pytest.mark.parametrize("exponent", [(1.5,), (1.0,), (np.float64(2.0),), ("2",), (Fraction(2),)])
def test_constructor_rejects_non_integer_exponents(exponent):
    with pytest.raises(ValueError, match="non-integer exponent"):
        Polynomial(1, {exponent: 1})
    with pytest.raises(ValueError, match="non-integer exponent"):
        Polynomial(1, [(exponent, 1)])


def test_constructor_takes_python_and_numpy_integer_exponents():
    for exponent in [(2,), (np.int64(2),), (np.intp(2),), (np.int32(2),)]:
        p = Polynomial(1, {exponent: 3})
        assert p.terms == {(2,): Fraction(3)}
        assert type(next(iter(p.terms))[0]) is int
        assert Polynomial(1, [(exponent, 3)]) == p


def test_add_zero_is_identity():
    p = parse_poly("3*x^2*y - 7/2*y + 1", 2)
    assert p + Polynomial.zero(2) == p


def test_square_boundary_product_expansion():
    # direct expansion oracle
    product = parse_poly("(1-x)*(1+x)*(1-y)*(1+y)", 2)
    assert product == parse_poly("1 - x^2 - y^2 + x^2*y^2", 2)


def test_derivative_power_rule():
    assert parse_poly("1-x^2-y^2", 2).derivative(0) == parse_poly("-2*x", 2)
    assert Polynomial.constant(2, 5).derivative(1).is_zero


def test_derivative_deltoid_term_by_term():
    expected = parse_poly("4*x*(x^2+y^2) + 36*x - 24*x^2 + 24*y^2", 2)
    assert DELTOID_PRINTED.derivative(0) == expected


def test_eval_deltoid_vertex_on_curve():
    assert DELTOID_PRINTED((3, 0)) == 0


def test_eval_at_origin_gives_constant_term():
    p = parse_poly("7/3 - x + 5*x*y^2", 2)
    assert p((0, 0)) == Fraction(7, 3)


def test_eval_unit_circle_point():
    assert parse_poly("1-x^2-y^2", 2)((1, 0)) == 0


def test_compose_shift():
    p = X2**2
    shifted = p.compose([X2 + 1, Y2])
    assert shifted == parse_poly("x^2 + 2*x + 1", 2)


def test_compose_identity():
    p = parse_poly("x^2*y - y^3 + 4", 2)
    assert p.compose([X2, Y2]) == p


def test_compose_coaxial_change_of_coordinates():
    # the substitution X -> 2X, Y -> Y + 3X^2 carries the a=0 boundary factors
    # onto the a=3 family factors (rational square-root case)
    lower_a0 = parse_poly("1 + y - x^2", 2)
    upper_a0 = parse_poly("1 - y", 2)
    change = [2 * X2, Y2 + 3 * X2**2]
    assert lower_a0.compose(change) == parse_poly("1 + y - x^2", 2)
    assert upper_a0.compose(change) == parse_poly("1 - 3*x^2 - y", 2)


def _random_poly(rng, dim, degree):
    terms = {}
    basis = MonomialBasis(dim, degree)
    for exponent in basis.exponents:
        if rng.random() < 0.4:
            terms[exponent] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
    return Polynomial(dim, terms)


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(25):
        dim = rng.randint(1, 3)
        p = _random_poly(rng, dim, 4)
        q = _random_poly(rng, dim, 3)
        r = _random_poly(rng, dim, 3)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


def test_derivative_and_eval_are_linear():
    rng = random.Random(99)
    for _ in range(10):
        p = _random_poly(rng, 2, 5)
        q = _random_poly(rng, 2, 5)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert (p + q).derivative(0) == p.derivative(0) + q.derivative(0)
        assert (p * c).derivative(1) == p.derivative(1) * c
        point = (Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3))
        assert (p + q)(point) == p(point) + q(point)
        assert (p * c)(point) == p(point) * c


def test_total_degree_multiplicative():
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(rng, 2, 4)
        q = _random_poly(rng, 2, 4)
        if p.is_zero or q.is_zero:
            continue
        assert (p * q).total_degree == p.total_degree + q.total_degree
    assert Polynomial.zero(2).total_degree == NEG_INF


def test_monomial_basis_counts():
    from math import comb

    for d in (1, 2, 3):
        for n in range(13):
            assert len(MonomialBasis(d, n)) == comb(n + d, d)


def test_monomial_basis_graded_lex_order():
    basis = MonomialBasis(2, 2)
    assert basis.exponents == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_exact_division_roundtrip():
    rng = random.Random(3)
    for _ in range(15):
        p = _random_poly(rng, 2, 3)
        q = _random_poly(rng, 2, 2)
        if q.is_zero:
            continue
        quotient = exact_divide(p * q, q)
        assert quotient == p
    quotient, remainder = poly_divmod(parse_poly("x^2+y", 2), parse_poly("x+1", 2))
    assert quotient * parse_poly("x+1", 2) + remainder == parse_poly("x^2+y", 2)
    assert exact_divide(parse_poly("x^2+y", 2), parse_poly("x+1", 2)) is None


def test_parse_format_roundtrip():
    texts = [
        "1 - x^2 - y^2",
        "x^2*y - 7/2*y + 1/3",
        "2x^2y - y",          # '*' optional
        "-x + y^1",           # '^1' optional in output
        " 4*x^2  -27 * x^4 + 16*y ",
    ]
    for text in texts:
        p = parse_poly(text, 2)
        assert parse_poly(format_poly(p), 2) == p


def test_parse_rejects_garbage():
    with pytest.raises(PolyParseError):
        parse_poly("x + $", 2)
    with pytest.raises(PolyParseError):
        parse_poly("z", 2)
    with pytest.raises(PolyParseError):
        parse_poly("x^(2)", 2)


def test_parse_many_variables():
    p = parse_poly("x1*x4 - 2*x2^3", 4)
    assert p.dim == 4
    assert p((1, 1, 1, 1)) == -1


# ----------------------------------------------------------------------
# float evaluation against a naive per-monomial reference


def _naive_monomials(exponents, points):
    """Column j = prod_i x_i ** e_ji, one monomial at a time."""
    out = np.ones((points.shape[0], len(exponents)))
    for j, exponent in enumerate(exponents):
        for axis, e in enumerate(exponent):
            out[:, j] *= points[:, axis] ** e
    return out


@pytest.mark.parametrize("dim,degree", [(1, 13), (2, 13), (3, 8)])
def test_monomial_basis_eval_float_matches_naive(dim, degree):
    rng = np.random.default_rng(dim)
    points = rng.uniform(-1.5, 1.5, size=(1000, dim))
    basis = MonomialBasis(dim, degree)
    got = basis.eval_float(points)
    expected = _naive_monomials(basis.exponents, points)
    assert got.shape == (1000, len(basis))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("count", [0, 1, EVAL_BLOCK + 123])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_polynomial_eval_float_matches_naive(dim, count):
    p = _random_poly(random.Random(dim), dim, 7)
    points = np.random.default_rng(dim).uniform(-1.5, 1.5, size=(count, dim))
    terms = np.array([float(c) * np.prod(points ** np.array(e), axis=1) for e, c in p.terms.items()])
    expected = terms.sum(axis=0)
    scale = np.abs(terms).sum(axis=0)
    got = p.eval_float(points)
    assert got.shape == (count,)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


def _termwise(p, points):
    """Reference float evaluation, one term at a time: each term starts from
    its coefficient and is multiplied by its powers in axis order, each power
    built by repeated multiplication; the terms are summed in their order."""
    out = np.zeros(points.shape[0])
    for exponent, coeff in p.terms.items():
        term = np.full(points.shape[0], float(coeff))
        for axis, e in enumerate(exponent):
            if e:
                power = points[:, axis]
                for _ in range(e - 1):
                    power = power * points[:, axis]
                term *= power
        out += term
    return out


def _catalog_polynomials():
    """Every catalog boundary factor, density factor and exp part, and every
    cover map, grouped by dimension."""
    from polydiff.catalog import get_model, model_names
    from polydiff.quadrature import COVER_SAMPLERS

    groups: dict[int, list[Polynomial]] = {}
    for name in model_names():
        model = get_model(name)
        polys = list(model.boundary.factors) + [f for f, _ in model.measure.factor_exponents]
        if model.measure.exp_poly is not None:
            polys.append(model.measure.exp_poly)
        groups.setdefault(model.dim, []).extend(polys)
    for cover in COVER_SAMPLERS.values():
        groups.setdefault(cover.maps[0].dim, []).extend(cover.maps)
    return groups


_CATALOG_POLYNOMIALS = sorted(_catalog_polynomials().items())


@pytest.mark.parametrize(
    "dim,polys", _CATALOG_POLYNOMIALS, ids=[f"dim{d}" for d, _ in _CATALOG_POLYNOMIALS]
)
def test_shared_evaluator_is_bit_identical_to_termwise_evaluation(dim, polys):
    polys = polys + [
        Polynomial.zero(dim),
        Polynomial.constant(dim, Fraction(-7, 3)),
        Polynomial.constant(dim, 2) + Polynomial.variable(dim, dim - 1) ** 3,
    ]
    points = np.random.default_rng(dim).uniform(-1.5, 1.5, size=(EVAL_BLOCK + 123, dim))
    values = eval_floats(polys, points.T)
    assert values.shape == (len(polys), points.shape[0])
    # alone, beside the others, in columns or rows: the same floats
    columns = np.ascontiguousarray(points.T)
    for p, shared, in_columns in zip(polys, values, eval_floats(polys, columns)):
        expected = _termwise(p, points)
        assert np.array_equal(shared, expected)
        assert np.array_equal(in_columns, expected)
        assert np.array_equal(p.eval_float(points), expected)


def test_shared_evaluator_checks_the_point_width():
    with pytest.raises(ValueError, match="wrong width"):
        eval_floats([X2], np.zeros((3, 5)))
    assert eval_floats([], np.zeros((2, 5))).shape == (0, 5)


@pytest.mark.parametrize("degree", [0, 1, 6, 13, 26])
def test_one_variable_basis_is_the_power_table(degree):
    x = np.random.default_rng(degree).uniform(-1.5, 1.5, size=1000)
    table = [np.ones_like(x)]
    for _ in range(degree):
        table.append(table[-1] * x)
    got = MonomialBasis(1, degree).eval_float(x[:, None])
    assert got.shape == (1000, degree + 1)
    assert np.array_equal(got, np.column_stack(table))


def _sympy_expr(sympy, p, symbols):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
            for e, c in p.terms.items()
        )
    )


def _from_sympy(sympy, expr, symbols):
    terms = sympy.Poly(expr, *symbols, domain="QQ").terms()
    return Polynomial(len(symbols), {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


def _random_coordinate(rng):
    if rng.random() < 0.2:
        return rng.randint(-4, 4)  # plain ints take the same path
    return Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 2, 3, 7, 10**6 + 3)))


def test_exact_evaluation_matches_sympy_at_points_and_on_grids():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1858)
    kinds = set()
    for trial in range(120):
        dim = rng.randint(1, 3)
        symbols = sympy.symbols(f"x0:{dim}")
        if trial % 10 == 0:
            p, kind = Polynomial.zero(dim), "zero"
        elif trial % 10 == 1:
            p, kind = Polynomial.constant(dim, Fraction(rng.randint(-9, 9), rng.randint(1, 9))), "constant"
        else:
            p, kind = _random_poly(rng, dim, rng.randint(1, 5)), "random"
        kinds.add(kind)
        oracle = sympy.Poly(_sympy_expr(sympy, p, symbols), *symbols, domain="QQ")

        def expected(node):
            value = oracle.eval(dict(zip(symbols, (sympy.Rational(v) for v in node))))
            return Fraction(int(value.p), int(value.q))

        point = tuple(_random_coordinate(rng) for _ in range(dim))
        value = p(point)
        assert type(value) is Fraction
        assert value == expected(point), (p, point)
        axes = [[_random_coordinate(rng) for _ in range(rng.randint(1, 3))] for _ in range(dim)]
        numerators, denominator = p.grid_values(axes)
        nodes = list(itertools.product(*axes))
        assert type(denominator) is int and denominator > 0
        assert len(numerators) == len(nodes)
        assert all(type(n) is int for n in numerators)
        for n, node in zip(numerators, nodes):
            assert Fraction(n, denominator) == expected(node), (p, node)
        # the grid nodes in reverse, one repeated, then a point off the grid
        points = nodes[::-1] + [nodes[-1], point]
        grid, indices = tensor_grid(points, dim)
        # each axis holds every distinct coordinate on it once
        assert [sorted(axis) for axis in grid] == [
            sorted({q[a] for q in points}) for a in range(dim)
        ]
        numerators, denominator = p.grid_values(grid)
        for index, node in zip(indices, points):
            assert Fraction(numerators[index], denominator) == expected(node), (p, node)
    assert kinds == {"zero", "constant", "random"}


def test_poly_divmod_matches_sympy_single_divisor_reduction():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1965)
    divisible = set()
    for trial in range(80):
        dim = rng.randint(1, 3)
        symbols = sympy.symbols(f"x0:{dim}")
        divisor = _random_poly(rng, dim, rng.randint(0, 3))
        if divisor.is_zero:
            divisor = Polynomial.constant(dim, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        p = _random_poly(rng, dim, rng.randint(0, 5))
        if trial % 3 == 0:
            p = p * divisor
        quotient, remainder = poly_divmod(p, divisor)
        quotients, expected_r = sympy.reduced(
            _sympy_expr(sympy, p, symbols),
            [_sympy_expr(sympy, divisor, symbols)],
            *symbols,
            order="grlex",
        )
        expected_q = quotients[0] if quotients else 0  # sympy returns no quotient for p = 0
        assert quotient == _from_sympy(sympy, expected_q, symbols), (p, divisor)
        assert remainder == _from_sympy(sympy, expected_r, symbols), (p, divisor)
        assert quotient * divisor + remainder == p
        divisible.add(remainder.is_zero)
    assert divisible == {True, False}


def _sympy_terms(sympy, expr, symbols):
    """The expansion of expr as {exponent: Fraction}, zero terms left out."""
    poly = sympy.Poly(sympy.expand(expr), *symbols, domain="QQ")
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms() if c}


def test_arithmetic_matches_sympy_expansion():
    # products run on integer numerators over one denominator and every
    # result skips re-validation, so each stored coefficient must still be a
    # nonzero Fraction; q is sometimes built to cancel terms of p
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2112)
    cancelled = 0
    for trial in range(100):
        dim = rng.randint(1, 3)
        symbols = sympy.symbols(f"x0:{dim}")
        p = _random_poly(rng, dim, rng.randint(0, 4))
        q = _random_poly(rng, dim, rng.randint(0, 3))
        if trial % 3 == 0:
            q = q - p * Fraction(rng.randint(1, 3), rng.randint(1, 3))
        c = rng.choice((0, 1, -3, Fraction(-2, 7), Fraction(5, 3)))
        sp, sq = _sympy_expr(sympy, p, symbols), _sympy_expr(sympy, q, symbols)
        sc = sympy.Rational(c.numerator, c.denominator)
        cases = [
            (p * q, sp * sq),
            (p + q, sp + sq),
            (p - q, sp - sq),
            (-p, -sp),
            (p * c, sp * sc),
            (c - p, sc - sp),
        ] + [(p.derivative(axis), sympy.diff(sp, s)) for axis, s in enumerate(symbols)]
        for got, expected in cases:
            assert got.dim == dim
            assert got.terms == _sympy_terms(sympy, expected, symbols), (p, q, c)
            assert all(type(v) is Fraction and v for v in got.terms.values())
            assert all(type(e) is tuple and all(type(k) is int for k in e) for e in got.terms)
        cancelled += len((p + q).terms) < len(set(p.terms) | set(q.terms))
    assert cancelled
