"""Operator construction: drifts from measures, Gamma, graded matrices."""

import random
from fractions import Fraction
from math import comb, prod

import pytest

from polydiff import linalg
from polydiff.boundary import det_divisibility_check
from polydiff.catalog import ParameterError, get_descriptor, get_model, model_names
from polydiff.operator import (
    CoMetric,
    DegreeViolationError,
    DiffusionOperator,
    GradedOperatorMatrix,
    InadmissibleMeasureError,
    MeasureSpec,
    drift_from_measure,
    gamma,
    product_operator,
)
from polydiff.poly import MonomialBasis, Polynomial, parse_poly
from polydiff.quadrature import COVER_SAMPLERS


def test_jacobi_drift_formula():
    model = get_model("jacobi1d", {"a": "3/2", "b": "2"})
    assert model.operator.drift[0] == parse_poly("1/2 - 7/2*x", 1)  # (b-a) - (a+b)x


def test_nodal_inverse_sqrt_det_rejected():
    model = get_model("nodal_cubic")
    quotient = det_divisibility_check(model.cometric, model.boundary).quotient
    measure = MeasureSpec(
        2,
        (
            (model.boundary.factors[0], Fraction(-1, 2)),
            (quotient, Fraction(-1, 2)),
        ),
    )
    with pytest.raises(InadmissibleMeasureError):
        drift_from_measure(model.cometric, measure)


def test_gaussian_plane_drift():
    model = get_model("gaussian_plane", {"A0": "2", "B0": "1/2", "C0": "1"})
    assert model.operator.drift[0] == parse_poly("-3*x - 1/2*y", 2)
    assert model.operator.drift[1] == parse_poly("-2*y - 1/2*x", 2)


def test_apply_kills_constants():
    for name in ("hermite1d", "deltoid", "triangle_cover_3d"):
        op = get_model(name).operator
        assert op.apply(Polynomial.constant(op.dim, 417)).is_zero


def test_ou_drift_is_minus_x():
    op = get_model("hermite1d").operator
    assert op.apply(Polynomial.variable(1, 0)) == parse_poly("-x", 1)


def test_deltoid_drift_at_default():
    op = get_model("deltoid").operator  # p = -1/2: -2(5+6p) = -4
    assert op.apply(Polynomial.variable(2, 0)) == parse_poly("-4*x", 2)


def test_gamma_of_constant_vanishes():
    model = get_model("square")
    f = parse_poly("x^2*y - y", 2)
    assert gamma(model.cometric, f, Polynomial.constant(2, 3)).is_zero


def test_gamma_disk_coordinates():
    model = get_model("disk", {"a": "0", "b": "0", "c": "1", "p": "0"})
    x = Polynomial.variable(2, 0)
    assert gamma(model.cometric, x, x) == parse_poly("1 - x^2", 2)


def test_gamma_matches_defining_identity():
    # Gamma(f, h) = (L(fh) - f L(h) - h L(f)) / 2 exactly
    model = get_model("square")
    op = model.operator
    rng = random.Random(41)
    basis = MonomialBasis(2, 3)
    for _ in range(6):
        f = Polynomial(
            2, {e: Fraction(rng.randint(-4, 4), 2) for e in basis.exponents if rng.random() < 0.5}
        )
        h = Polynomial(
            2, {e: Fraction(rng.randint(-4, 4), 3) for e in basis.exponents if rng.random() < 0.5}
        )
        lhs = gamma(model.cometric, f, h) * 2
        rhs = op.apply(f * h) - f * op.apply(h) - h * op.apply(f)
        assert lhs == rhs


def test_chain_rule_exact():
    model = get_model("disk")
    op = model.operator
    f = parse_poly("x*y - 1/2*x", 2)
    phi2, phi1 = Fraction(3, 2), Fraction(-2)
    phi_of_f = f * f * phi2 + f * phi1
    lhs = op.apply(phi_of_f)
    rhs = gamma(model.cometric, f, f) * (2 * phi2) + op.apply(f) * (f * 2 * phi2 + phi1)
    assert lhs == rhs


def test_graded_matrix_ou():
    op = get_model("hermite1d").operator
    graded = GradedOperatorMatrix(op, 2)
    entries = dense_rows(graded)
    # basis {1, x, x^2}: L(x^2) = 2 - 2 x^2
    assert [entries[i][i] for i in range(3)] == [0, -1, -2]
    assert entries[0][2] == 2
    assert graded.scale == 1 and graded.columns == [{}, {1: -1}, {0: 2, 2: -2}]
    assert graded.strictly_lower_block_entries() == []


def test_graded_matrix_square_is_tensor_data():
    left = get_model("jacobi1d", {"a": "1", "b": "1"})
    square = get_model("square", {"a": "0", "b": "0", "c": "0", "d": "0"})
    g1 = GradedOperatorMatrix(left.operator, 2)
    g2 = GradedOperatorMatrix(square.operator, 2)
    # degree-2 block of the square contains the 1D eigenvalues as sums
    from polydiff.spectra import graded_eigenvalues

    s1 = graded_eigenvalues(left.operator, 2)
    s2 = graded_eigenvalues(square.operator, 2)
    assert s2.multiset(2) == sorted(
        [s1.multiset(2)[0], s1.multiset(1)[0] * 2, s1.multiset(2)[0]],
        key=float,
    )


def test_graded_matrix_rejects_degree_raising():
    x = Polynomial.variable(1, 0)
    with pytest.raises(ValueError):
        # drift of degree 2 is rejected at construction
        DiffusionOperator(CoMetric([[Polynomial.constant(1, 1)]]), (x * x,))


def test_block_triangular_at_degree_12():
    for name in ("deltoid", "triangle_cover_3d"):
        op = get_model(name).operator
        graded = GradedOperatorMatrix(op, 12)
        assert graded.strictly_lower_block_entries() == []


def dense_rows(graded):
    """The graded matrix as rows of Fractions, from its integer columns."""
    return [
        [Fraction(column.get(r, 0), graded.scale) for column in graded.columns]
        for r in range(len(graded.basis))
    ]


def _reference_graded_entries(op, max_degree):
    """Column k holds the basis coordinates of op.apply(m_k)."""
    basis = MonomialBasis(op.dim, max_degree)
    columns = [
        basis.coordinates(op.apply(Polynomial.monomial(op.dim, exponent)))
        for exponent in basis.exponents
    ]
    return [[column[r] for column in columns] for r in range(len(basis))]


def _generic_params(rng, descriptor):
    """A rational point strictly inside each parameter's range, never zero
    when unbounded, redrawn until the catalog accepts it."""
    offsets = [
        Fraction(v) for v in ("1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "3/2", "2", "5/2", "3")
    ]
    for _ in range(100):
        params = {}
        for spec in descriptor.param_specs:
            lower = spec.gt if spec.gt is not None else spec.ge
            upper = spec.lt if spec.lt is not None else spec.le
            if lower is not None and upper is not None:
                value = lower + (upper - lower) * Fraction(rng.randint(1, 7), 8)
            elif lower is not None:
                value = lower + rng.choice(offsets)
            elif upper is not None:
                value = upper - rng.choice(offsets)
            else:
                value = rng.choice(offsets) * rng.choice((1, -1))
            params[spec.name] = str(value)
        try:
            descriptor.instantiate(params)
        except ParameterError:
            continue
        return params
    raise RuntimeError(f"no parameter point for {descriptor.name}")


def _catalog_operator_cases():
    rng = random.Random(4)
    for name in model_names():
        yield name, None
        descriptor = get_descriptor(name)
        if descriptor.param_specs:
            yield name, _generic_params(rng, descriptor)


@pytest.mark.parametrize("name,params", list(_catalog_operator_cases()))
def test_graded_matrix_matches_apply_reference(name, params):
    op = get_model(name, params).operator
    degree = 4 if op.dim == 3 else 6
    graded = GradedOperatorMatrix(op, degree)
    assert dense_rows(graded) == _reference_graded_entries(op, degree)
    assert all(all(column.values()) for column in graded.columns)  # no stored zeros
    assert graded.strictly_lower_block_entries() == []


@pytest.mark.parametrize("name,params", list(_catalog_operator_cases()))
def test_graded_matrix_to_twice_the_degree_extends_it(name, params):
    # L keeps every V_n, so the matrix to degree 2n holds the matrix to
    # degree n as its first columns, over the same scale: eigenbasis reads
    # both from one matrix
    op = get_model(name, params).operator
    for degree in (3, 6):
        small = GradedOperatorMatrix(op, degree)
        big = GradedOperatorMatrix(op, 2 * degree)
        assert big.scale == small.scale
        assert big.columns[: len(small.basis)] == small.columns
        assert big.basis.exponents[: len(small.basis)] == small.basis.exponents


def test_graded_matrix_raises_on_degree_violation():
    # the constructors reject a quadratic drift, so force one in afterwards:
    # L(x) = x^2 still fits the degree-3 basis and must not be stored
    x = Polynomial.variable(1, 0)
    op = DiffusionOperator(CoMetric([[Polynomial.constant(1, 1)]]), (x,))
    object.__setattr__(op, "drift", (x * x,))
    with pytest.raises(DegreeViolationError):
        GradedOperatorMatrix(op, 3)


def test_strictly_lower_block_entries_lists_entries_below_the_blocks():
    model = get_model("square", {"a": "1/3", "b": "2/5", "c": "1/2", "d": "0"})
    graded = GradedOperatorMatrix(model.operator, 3)
    assert graded.scale == 30
    # plant entries below the blocks: row of degree 2 in a degree-1 column,
    # row of degree 3 in the degree-0 column; a block-diagonal entry is not listed
    graded.columns[1][3] = 5 * 30
    graded.columns[0][9] = -15
    graded.columns[1][2] = 7 * 30
    entries = graded.strictly_lower_block_entries()
    assert entries == [(9, 0, -15), (3, 1, 5 * 30)]
    assert [(r, c, Fraction(v, graded.scale)) for r, c, v in entries] == [
        (9, 0, Fraction(-1, 2)), (3, 1, Fraction(5))
    ]


def test_product_operator_block_structure():
    left = get_model("jacobi1d", {"a": "1", "b": "1"}).operator
    right = get_model("hermite1d").operator
    product = product_operator(left, right)
    assert product.dim == 2
    assert product.cometric[0, 0] == parse_poly("1-x^2", 2)
    assert product.cometric[1, 1] == parse_poly("1", 2)
    assert product.cometric[0, 1].is_zero
    assert product.drift == (parse_poly("-2*x", 2), parse_poly("-y", 2))


def test_product_operator_eigenvalue_sums():
    from polydiff.spectra import graded_eigenvalues

    left = get_model("jacobi1d", {"a": "3/2", "b": "2"}).operator
    right = get_model("jacobi1d", {"a": "1", "b": "1"}).operator
    product = product_operator(left, right)
    s_left = graded_eigenvalues(left, 5)
    s_right = graded_eigenvalues(right, 5)
    s_prod = graded_eigenvalues(product, 5)
    for n in range(6):
        expected = sorted(
            (s_left.multiset(k)[0] + s_right.multiset(n - k)[0] for k in range(n + 1)),
            key=float,
        )
        assert s_prod.multiset(n) == expected


def test_drift_degree_bound_all_catalog_models():
    from polydiff.catalog import model_names
    from polydiff.poly import NEG_INF

    for name in model_names():
        model = get_model(name)
        for b in model.operator.drift:
            assert b.total_degree in (NEG_INF, 0, 1)
        for i in range(model.dim):
            for j in range(model.dim):
                entry = model.cometric[i, j]
                assert entry.total_degree in (NEG_INF,) or entry.total_degree <= 2


# ----------------------------------------------------------------------
# exact moments of the invariant measure


def _rising(x, k):
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def _beta_interval_moments(alpha, beta, degree):
    """E[x^k] for the density (1 - x)^alpha (1 + x)^beta on [-1, 1]: with
    u = (1 + x) / 2 ~ Beta(beta + 1, alpha + 1), x = 2u - 1."""
    from math import comb

    u = [_rising(beta + 1, j) / _rising(alpha + beta + 2, j) for j in range(degree + 1)]
    return [
        sum(comb(k, j) * 2**j * u[j] * (-1) ** (k - j) for j in range(k + 1))
        for k in range(degree + 1)
    ]


def _exact_moments(name, params, degree):
    graded = GradedOperatorMatrix(get_model(name, params).operator, degree)
    return _moment_fractions(graded)


def _moment_fractions(graded):
    """The exact moments as Fractions, from their integers over one positive
    denominator."""
    numerators, denominator = graded.moments()
    assert denominator > 0 and all(type(n) is int for n in numerators)
    return {e: Fraction(n, denominator) for e, n in zip(graded.basis.exponents, numerators)}


def test_moments_of_hermite1d_are_the_standard_normal_ones():
    assert list(_exact_moments("hermite1d", None, 4).values()) == [1, 0, 1, 0, 3]


def test_moments_of_laguerre1d_are_gamma_moments():
    # density x^(a-1) e^-x: E[x^k] = a (a + 1) ... (a + k - 1)
    a = Fraction(3, 2)
    moments = _exact_moments("laguerre1d", {"a": "3/2"}, 8)
    assert [moments[(k,)] for k in range(9)] == [_rising(a, k) for k in range(9)]


def test_moments_of_jacobi1d_are_beta_moments():
    # density (1 - x)^(a-1) (1 + x)^(b-1)
    moments = _exact_moments("jacobi1d", {"a": "5/2", "b": "3"}, 10)
    expected = _beta_interval_moments(Fraction(3, 2), Fraction(2), 10)
    assert [moments[(k,)] for k in range(11)] == expected


def test_moments_of_square_are_product_beta_moments():
    a, b, c, d = Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(0)
    moments = _exact_moments("square", {"a": "1/3", "b": "2/5", "c": "1/2", "d": "0"}, 8)
    x = _beta_interval_moments(a, b, 8)
    y = _beta_interval_moments(c, d, 8)
    assert moments == {(i, j): x[i] * y[j] for i, j in moments}


def test_moments_of_triangle_are_dirichlet_moments():
    # density x^p y^q (1 - x - y)^r: E[x^i y^j] = (p+1)_i (q+1)_j / (p+q+r+3)_(i+j),
    # whatever the cometric's own parameters
    p, q, r = Fraction(1, 2), Fraction(-1, 3), Fraction(2)
    params = {"a": "1/2", "b": "1/3", "c": "2", "p": "1/2", "q": "-1/3", "r": "2"}
    moments = _exact_moments("triangle", params, 8)
    assert moments == {
        (i, j): _rising(p + 1, i) * _rising(q + 1, j) / _rising(p + q + r + 3, i + j)
        for i, j in moments
    }


def _sphere_moment(exponent):
    """E[x^a] under the uniform probability on the unit sphere of R^n:
    prod (a_i - 1)!! / (n (n + 2) ... (n + |a| - 2)) when every a_i is even,
    else 0 (G. B. Folland, Amer. Math. Monthly 108, 2001)."""
    if any(k % 2 for k in exponent):
        return Fraction(0)
    numerator = prod(prod(range(1, k, 2)) for k in exponent)
    n = len(exponent)
    return Fraction(numerator, prod(n + 2 * k for k in range(sum(exponent) // 2)))


def _cover_moment(name, exponent):
    """E[x^a] under the uniform probability of the cover of model `name`."""
    if name == "parabola_two_tangents":
        # cos u with u uniform on [0, pi]: E[x^k] = C(k, k/2) / 2^k for even k
        return prod(Fraction(comb(k, k // 2), 2**k) if k % 2 == 0 else 0 for k in exponent)
    if name == "deltoid":
        # the torus in circle coordinates (cos s, sin s, cos t, sin t)
        return _sphere_moment(exponent[:2]) * _sphere_moment(exponent[2:])
    # swallowtail's sphere has radius sqrt(2)
    radius_squared = 2 if name == "swallowtail" else 1
    return radius_squared ** (sum(exponent) // 2) * _sphere_moment(exponent)


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_moments_equal_the_pushforward_of_the_cover_measure(name):
    # at its cover point the model's measure is the pushforward of the
    # cover's uniform probability under the two maps, so each plane moment
    # is its monomial composed with the maps, integrated in closed form
    cover = COVER_SAMPLERS[name]
    graded = GradedOperatorMatrix(get_model(name, dict(cover.required_params)).operator, 6)
    powers = [[f**k for k in range(7)] for f in cover.maps]
    for (i, j), moment in _moment_fractions(graded).items():
        image = powers[0][i] * powers[1][j]
        expected = sum((c * _cover_moment(name, e) for e, c in image.terms.items()), Fraction(0))
        assert moment == expected, (i, j)


def _reference_moments(graded):
    """Test-only copy of the per-degree solve that `moments()` made before
    the echelon engine: one Gauss-Jordan RREF of [M_nn^t | rhs] per degree,
    by the dense reference loop, the moments as Fractions in basis order."""
    from test_linalg import _dense_rref

    moments = [Fraction(1)]
    for n, block in enumerate(graded.basis.degree_slices[1:], start=1):
        columns = graded.columns[block]
        rows = [
            [column.get(r, 0) for r in range(block.start, block.stop)]
            + [-sum((v * moments[r] for r, v in column.items() if r < block.start), Fraction(0))]
            for column in columns
        ]
        reduced, pivots, d = _dense_rref(rows)
        if pivots != list(range(len(columns))):
            raise ValueError(f"the degree-{n} diagonal block is singular")
        moments += [Fraction(row[-1], d) for row in reduced[: len(columns)]]
    return moments


@pytest.mark.parametrize("name,params", list(_catalog_operator_cases()))
def test_moments_match_the_per_degree_rref_solves(name, params):
    # every model at its defaults and at one generic point, to degree 12:
    # triangular blocks, deltoid's and the covers' non-triangular ones
    graded = GradedOperatorMatrix(get_model(name, params).operator, 12)
    assert list(_moment_fractions(graded).values()) == _reference_moments(graded)


def test_moments_of_triangular_blocks_take_no_elimination_step(monkeypatch):
    # each M_nn of this model is lower triangular, so each M_nn^t the engine
    # solves is upper triangular: back substitution alone, no row is stepped
    graded = GradedOperatorMatrix(get_model("parabola_tangent_secant").operator, 12)
    expected = graded.moments()

    def forbidden(*args):
        raise AssertionError("elimination step on a triangular block")

    monkeypatch.setattr(linalg, "_content_free_step", forbidden)
    assert graded.moments() == expected


def test_moments_raise_naming_a_singular_degree():
    # L = (1 - x^2) d^2/dx^2 + 0 d/dx: L x = 0, so M_11 = 0 and nothing fixes
    # the first moment, though the system M_11 m_1 = 0 is consistent
    x = Polynomial.variable(1, 0)
    op = DiffusionOperator(CoMetric([[1 - x * x]]), (Polynomial.zero(1),))
    graded = GradedOperatorMatrix(op, 3)
    assert 1 not in graded.columns[1]
    with pytest.raises(ValueError, match="degree-1 diagonal block is singular"):
        graded.moments()
