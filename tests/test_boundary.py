"""Admissibility system assembly, kernels, ellipticity, divisibility."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from polydiff.boundary import (
    BoundarySpec,
    _unknowns,
    build_admissibility_system,
    check_ellipticity,
    det_divisibility_check,
    interior_grid,
    solve_admissibility,
)
from polydiff.catalog import get_model, model_names
from polydiff.geometry import INTERIOR_MARGIN
from polydiff.operator import CoMetric, DegenerateMetricError, boundary_first_order
from polydiff.poly import MonomialBasis, Polynomial, TensorGrid, parse_poly
from test_poly import fraction_terms, integer_axes, point_grid


def spec2(*factor_texts, witness=("0", "0")):
    return BoundarySpec(
        2,
        tuple(parse_poly(t, 2) for t in factor_texts),
        tuple(Fraction(w) for w in witness),
    )


def test_unknown_count_single_quadratic_factor():
    # three quadratic cometric entries (6 coefficients each) plus two affine
    # multipliers (3 coefficients each), the entries in row-major order
    spec = spec2("1-x^2-y^2")
    quadratic = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    affine = [(0, 0), (0, 1), (1, 0)]
    assert _unknowns(spec) == [
        *(("g", a, b, m) for a, b in [(0, 0), (0, 1), (1, 1)] for m in quadratic),
        *(("S", 0, i, m) for i in range(2) for m in affine),
    ]
    assert len(_unknowns(spec)) == 3 * 6 + 2 * 3 == 24
    assert build_admissibility_system(spec).cols == 24


def test_jacobi_boundary_recovers_interval_metric():
    spec = BoundarySpec(
        1, (parse_poly("1-x", 1), parse_poly("1+x", 1)), (Fraction(0),)
    )
    solution = solve_admissibility(spec)
    assert solution.dimension == 1
    g = solution.g_basis[0][0, 0]
    target = parse_poly("1-x^2", 1)
    # proportional to 1 - x^2
    ratio = g.constant_term / target.constant_term
    assert g == target * ratio


def test_triangle_dimension_three():
    model = get_model("triangle")
    assert solve_admissibility(model.boundary).dimension == 3


def test_deltoid_unique_and_proportional_to_catalog():
    model = get_model("deltoid")
    solution = solve_admissibility(model.boundary)
    assert solution.dimension == 1
    g = solution.g_basis[0]
    catalog = model.cometric
    ratio = None
    for i in range(2):
        for j in range(2):
            if not catalog[i, j].is_zero:
                exponent, coeff = catalog[i, j].leading_term()
                ratio = fraction_terms(g[i, j]).get(exponent, 0) / coeff
                break
        if ratio is not None:
            break
    assert ratio != 0
    for i in range(2):
        for j in range(2):
            assert g[i, j] == catalog[i, j] * ratio


def test_quartic_boundary_has_no_solution():
    solution = solve_admissibility(spec2("1-x^4-y^4"))
    assert solution.dimension == 0


def test_solution_satisfies_first_order_identity_exactly():
    model = get_model("parabola_two_tangents")
    solution = solve_admissibility(model.boundary)
    for g in solution.g_basis:
        for factor in model.boundary.factors:
            grad = factor.gradient()
            for i in range(2):
                lhs = Polynomial.zero(2)
                for j in range(2):
                    lhs = lhs + g[i, j] * grad[j]
                assert lhs == boundary_first_order(g, factor)[i] * factor


def test_affine_covariance_of_solution_dimension():
    base = get_model("triangle").boundary
    # rational invertible affine map (x, y) -> (x + 2y + 1/3, -y + 1/2)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    fwd = [x + 2 * y + Fraction(1, 3), -y + Fraction(1, 2)]
    inv = [x + 2 * y - Fraction(4, 3), -y + Fraction(1, 2)]
    factors = tuple(f.compose(inv) for f in base.factors)
    witness = tuple(p(base.witness) for p in fwd)
    transformed = BoundarySpec(2, factors, witness)
    assert (
        solve_admissibility(transformed).dimension
        == solve_admissibility(base).dimension
    )


def test_summed_identity_matches_product():
    model = get_model("triangle")
    solution = solve_admissibility(model.boundary)
    g = solution.g_basis[0]
    product = model.boundary.product()
    grad = product.gradient()
    total = [Polynomial.zero(2), Polynomial.zero(2)]
    for factor in model.boundary.factors:
        for i in range(2):
            total[i] = total[i] + boundary_first_order(g, factor)[i]
    for i in range(2):
        lhs = Polynomial.zero(2)
        for j in range(2):
            lhs = lhs + g[i, j] * grad[j]
        assert lhs == total[i] * product


def test_ellipticity_circle_catalog_metric():
    model = get_model("disk", {"a": "0", "b": "0", "c": "1", "p": "0"})
    grid = model.interior_points(per_axis=5)
    assert len(grid) >= 20
    assert check_ellipticity(model.cometric, grid).elliptic


def test_ellipticity_fails_below_range():
    disk = get_model("disk")
    # a = -2 violates the ellipticity range, so bypass the catalog guard and
    # build the cometric directly
    a = Fraction(-2)
    one = Polynomial.constant(2, 1)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    radial = one - x * x - y * y
    from polydiff.operator import CoMetric

    g = CoMetric(
        [
            [radial * a + (one - x * x), -(x * y)],
            [-(x * y), radial * a + (one - y * y)],
        ]
    )
    report = check_ellipticity(g, disk.interior_points(per_axis=5))
    assert not report.elliptic
    assert report.first_failure is not None


def test_batch_ellipticity_first_failure_matches_pointwise_minors():
    from polydiff.linalg import poly_matrix_det

    # not elliptic on the 3D claim grid at these parameters
    model = get_model("nodal_cubic_cover_3d", {"A": "2", "a": "-1/3"})
    grid = model.interior_points(per_axis=5)
    g = model.cometric

    def elliptic_at(point):
        values = [[p(point) for p in row] for row in g.entries]
        return all(poly_matrix_det([row[:k] for row in values[:k]]) > 0 for k in range(1, 4))

    failures = [point for point in grid if not elliptic_at(point)]
    # several samples fail, none of them first, so sample order decides
    assert len(failures) > 1 and failures[0] != list(grid)[0]
    report = check_ellipticity(g, grid)
    assert not report.elliptic
    assert report.first_failure == failures[0]
    # on the line y = 0 the 1 x 1 minor fails first at x = -1, where the
    # 2 x 2 minor is positive, and the 2 x 2 minor first at x = 1: a larger
    # minor failing later must not move the first failure
    zero = Polynomial.zero(2)
    a, b = parse_poly("-x-3/2", 2), parse_poly("x^2+x-3/4", 2)
    line = TensorGrid(*integer_axes([[-2, -1, 1, 2], [0]]), [0, 1, 2, 3])
    report = check_ellipticity(CoMetric([[a, zero], [zero, b]]), line)
    assert report.first_failure == (-1, 0) == list(line)[1]


def test_zero_cometric_fails_everywhere():
    from polydiff.operator import CoMetric

    zero = Polynomial.zero(2)
    g = CoMetric([[zero, zero], [zero, zero]])
    report = check_ellipticity(g, point_grid((0, 0)))
    assert not report.elliptic
    with pytest.raises(ValueError, match="at least one sample point"):
        check_ellipticity(g, TensorGrid([[0], [0]], 1, []))


def test_det_divisibility_square():
    model = get_model("square")
    report = det_divisibility_check(model.cometric, model.boundary)
    assert report.divides and report.quotient_degree == 0


def test_det_divisibility_nodal_quotient_degree_one():
    model = get_model("nodal_cubic")
    report = det_divisibility_check(model.cometric, model.boundary)
    assert report.divides and report.quotient_degree == 1
    # the quotient is the extra determinant factor 4(4 - 3x)
    assert report.quotient == parse_poly("16 - 12*x", 2)


def test_det_divisibility_deltoid_full_degree():
    model = get_model("deltoid")
    report = det_divisibility_check(model.cometric, model.boundary)
    assert report.divides and report.quotient_degree == 0


def test_det_divisibility_degenerate_metric():
    from polydiff.operator import CoMetric

    x = Polynomial.variable(2, 0)
    zero = Polynomial.zero(2)
    g = CoMetric([[x, zero], [zero, zero]])
    with pytest.raises(DegenerateMetricError):
        det_divisibility_check(g, get_model("nodal_cubic").boundary)


def test_boundary_spec_validation():
    with pytest.raises(ValueError):
        spec2("x^2+y^2-1")  # negative at the witness
    with pytest.raises(ValueError):
        spec2("1-x^2", "1-y^2", "1-x-y", witness=("0", "0"))  # degree 5 > 2d
    with pytest.raises(ValueError):
        BoundarySpec(2, (Polynomial.constant(2, 2),), (Fraction(0), Fraction(0)))


def test_interior_grid_clipped():
    spec = spec2("1-x^2-y^2")
    grid = interior_grid(spec, [(-1, 1), (-1, 1)], per_axis=10)
    assert 0 < len(grid) < 100
    for point in grid:
        assert spec.factors[0](point) > 0


def test_ellipticity_verdicts_match_sympy_leading_minors():
    sympy = pytest.importorskip("sympy")
    import random

    from polydiff.operator import CoMetric
    from polydiff.poly import MonomialBasis

    def sympy_elliptic(g, point):
        values = [[p(point) for p in row] for row in g.entries]
        matrix = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in values]
        )
        return all(matrix[:k, :k].det() > 0 for k in range(1, g.dim + 1))

    rng = random.Random(17)
    quadratics = [Polynomial.monomial(2, e) for e in MonomialBasis(2, 2).exponents]

    def perturbation():
        return sum(
            (m * Fraction(rng.randint(-6, 6), 4) for m in quadratics), Polynomial.zero(2)
        )

    verdicts = set()
    for name in ("disk", "deltoid"):
        model = get_model(name)
        grid = model.interior_points(per_axis=6)
        assert grid
        base = model.cometric
        cometrics = [base, CoMetric([[-p for p in row] for row in base.entries])]
        for _ in range(6):
            off = perturbation()
            cometrics.append(
                CoMetric(
                    [
                        [base[0, 0] + perturbation(), base[0, 1] + off],
                        [base[1, 0] + off, base[1, 1] + perturbation()],
                    ]
                )
            )
        for g in cometrics:
            expected = [sympy_elliptic(g, point) for point in grid]
            for point, verdict in zip(grid, expected):
                assert check_ellipticity(g, point_grid(point)).elliptic == verdict
            report = check_ellipticity(g, grid)
            assert report.elliptic == all(expected)
            if not report.elliptic:
                assert report.first_failure == list(grid)[expected.index(False)]
            verdicts.update(expected)
    # the perturbed cometrics make both verdicts occur
    assert verdicts == {True, False}


def _fraction_value(f, node):
    """Reference value of f at a node, summed term by term in Fractions."""
    total = Fraction(0)
    for exponent, coeff in fraction_terms(f).items():
        for v, e in zip(node, exponent):
            coeff *= v**e
        total += coeff
    return total


def _fraction_grid(spec, box, per_axis):
    """Reference: every node's factors evaluated in Fraction arithmetic."""
    axes = []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        axes.append([lo + (hi - lo) * Fraction(2 * k + 1, 2 * per_axis) for k in range(per_axis)])
    return [
        tuple(node)
        for node in itertools.product(*axes)
        if all(_fraction_value(f, node) > 0 for f in spec.factors)
    ]


@pytest.mark.parametrize("per_axis", [8, 10])
def test_interior_grid_matches_fraction_reference(per_axis):
    checked = 0
    for name in model_names():
        model = get_model(name)
        if not model.boundary.factors:
            continue
        grid = interior_grid(model.boundary, model.box, per_axis)
        assert list(grid) == _fraction_grid(model.boundary, model.box, per_axis), name
        assert all(type(v) is Fraction for node in grid for v in node)
        checked += 1
    assert checked == 22  # every catalog model but the two on the whole space


def _screened_fraction_grid(spec, box, per_axis):
    """`_fraction_grid` for grids too large to evaluate node by node in
    Fractions: a factor's sign at a node is read from its float value where
    that exceeds 1e-9 times the float sum of its terms' absolute values,
    far above the rounding error of either sum, and in Fractions elsewhere."""
    axes = []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        axes.append([lo + (hi - lo) * Fraction(2 * k + 1, 2 * per_axis) for k in range(per_axis)])
    nodes = list(itertools.product(*axes))
    floats = np.array(list(itertools.product(*[[float(v) for v in axis] for axis in axes])))
    keep = np.ones(len(nodes), dtype=bool)
    for f in spec.factors:
        value, size = np.zeros(len(nodes)), np.zeros(len(nodes))
        for exponent, coeff in fraction_terms(f).items():
            term = float(coeff) * np.prod(floats ** np.array(exponent), axis=1)
            value += term
            size += np.abs(term)
        sure = np.abs(value) > 1e-9 * size
        positive = sure & (value > 0)
        for i in np.flatnonzero(~sure & keep):
            positive[i] = _fraction_value(f, nodes[i]) > 0
        keep &= positive
    return [nodes[i] for i in np.flatnonzero(keep)]


@pytest.mark.parametrize("per_axis", [16, 32, 64])
def test_interior_grid_at_the_curvature_margin_matches_fraction_reference(per_axis):
    # the grids curvature_constancy chooses from, at every size it reaches
    checked = 0
    for name in model_names():
        model = get_model(name)
        if not model.boundary.factors:
            continue
        # the factors less INTERIOR_MARGIN times their witness values
        witness = model.boundary.witness
        shifted = tuple(f - f(witness) * INTERIOR_MARGIN for f in model.boundary.factors)
        spec = BoundarySpec(model.dim, shifted, witness)
        reference = _fraction_grid if per_axis**model.dim <= 4096 else _screened_fraction_grid
        expected = reference(spec, model.box, per_axis)
        assert list(model.interior_points(per_axis, INTERIOR_MARGIN)) == expected, name
        checked += 1
    assert checked == 22


@pytest.mark.parametrize("per_axis", [4, 7, 10])
def test_interior_grid_keeps_every_node_of_a_box_the_domain_fills_in_part(per_axis):
    # the triangle x, y, 1 - x - y > 0 fills one corner of [-1, 1]^2; the
    # grid is returned as built, with per_axis nodes on each side at
    # (2k+1)/(2n) of it, the nodes no inside point uses among them, and its
    # points are the inside nodes in product order
    spec = spec2("x", "y", "1-x-y", witness=("1/4", "1/4"))
    box = [(-1, 1), (-1, 1)]
    grid = interior_grid(spec, box, per_axis)
    side = [-1 + 2 * Fraction(2 * k + 1, 2 * per_axis) for k in range(per_axis)]
    assert [[Fraction(x, grid.denominator) for x in axis] for axis in grid.axes] == [side, side]
    expected = _fraction_grid(spec, box, per_axis)
    assert expected and list(grid) == expected
    cells = list(itertools.product(side, side))
    assert [cells[node] for node in grid.nodes] == expected


def test_interior_grid_sign_test_sees_nodes_on_the_boundary():
    # on this box the 10 diagonal nodes of the 10-grid satisfy 3x = 2y: they
    # lie on the factor's zero set and must be dropped, not rounded to
    # either side; the other nodes are kept iff they sit below the diagonal
    spec = spec2("x/2-y/3", witness=("1", "-1"))
    box = [(-2, 2), (-3, 3)]
    grid = interior_grid(spec, box, per_axis=10)
    assert len(grid) == 45
    assert list(grid) == _fraction_grid(spec, box, 10)


def _fraction_unknowns(spec):
    """Reference column order: each cometric entry (a, b), a <= b, row by
    row, times each quadratic monomial, then each factor k and axis i times
    each affine monomial."""
    d = spec.dim
    entries = [(a, b) for a in range(d) for b in range(a, d)]
    g = [("g", a, b, m) for a, b in entries for m in MonomialBasis(d, 2).exponents]
    pairs = [(k, i) for k in range(len(spec.factors)) for i in range(d)]
    return g + [("S", k, i, m) for k, i in pairs for m in MonomialBasis(d, 1).exponents]


def _fraction_admissibility_rows(spec):
    """Reference: the admissibility rows in Fractions, each residual
    coefficient read off a Polynomial product per unknown."""
    unknowns = _fraction_unknowns(spec)
    d = spec.dim
    rows = []
    for k, factor in enumerate(spec.factors):
        grad = factor.gradient()
        residual_basis = MonomialBasis(d, int(factor.total_degree) + 1)
        for i in range(d):
            row_of = {e: [Fraction(0)] * len(unknowns) for e in residual_basis.exponents}
            for slot, (kind, a, b, m_exp) in enumerate(unknowns):
                monomial = Polynomial.monomial(d, m_exp)
                contributions = []
                if kind == "S":
                    if (a, b) == (k, i):
                        contributions.append(-(monomial * factor))
                else:
                    if a == i:
                        contributions.append(monomial * grad[b])
                    if b == i and b != a:
                        contributions.append(monomial * grad[a])
                for contrib in contributions:
                    for e, c in fraction_terms(contrib).items():
                        row_of[e][slot] += c
            rows.extend(row_of[e] for e in residual_basis.exponents)
    return rows, unknowns


def _catalog_boundaries():
    import random

    from polydiff.catalog import get_descriptor
    from test_operator import _generic_params

    rng = random.Random(8)
    for name in model_names():
        descriptor = get_descriptor(name)
        if not descriptor.factor_templates:
            continue
        yield name, None
        if descriptor.param_specs:
            yield name, _generic_params(rng, descriptor)


def test_admissibility_rows_hold_only_nonzero_ints():
    # each row is sparse: column -> nonzero int, every column an unknown
    for name, params in _catalog_boundaries():
        spec = get_model(name, params).boundary
        matrix = build_admissibility_system(spec)
        assert matrix.cols == len(_unknowns(spec))
        for row in matrix.data:
            assert all(type(v) is int and v for v in row.values()), name
            assert all(0 <= j < matrix.cols for j in row), name


def test_an_empty_boundary_has_no_admissibility_system():
    # no factor, no equation: the system is refused, not read as
    # unconstraining every cometric
    with pytest.raises(ValueError, match="at least one row"):
        solve_admissibility(BoundarySpec(2, (), (Fraction(0), Fraction(0))))


@pytest.mark.parametrize("name,params", list(_catalog_boundaries()))
def test_admissibility_matches_fraction_row_reference(name, params):
    # the integer rows are the Fraction rows scaled by their factor's lcm
    # denominator, so the kernel, and the cometrics read from it, equal the
    # dense Gauss-Jordan reference's kernel of the Fraction rows; the S
    # coordinates of each kernel vector equal the exact quotients S_k
    from test_linalg import _dense_kernel

    spec = get_model(name, params).boundary
    reference, unknowns = _fraction_admissibility_rows(spec)
    assert _unknowns(spec) == unknowns
    matrix = build_admissibility_system(spec)
    start = 0
    for factor in spec.factors:
        scale = factor.denominator
        count = spec.dim * len(MonomialBasis(spec.dim, int(factor.total_degree) + 1))
        for row, expected in zip(matrix.data[start : start + count], reference[start:]):
            assert row == {j: v * scale for j, v in enumerate(expected) if v}
        start += count
    assert start == len(reference) == matrix.rows

    def fractions(nullspace):
        vectors, d = nullspace
        assert d > 0
        return [[Fraction(v, d) for v in vector] for vector in vectors]

    kernel = fractions(_dense_kernel(reference))
    assert fractions(matrix.nullspace()) == kernel
    solution = solve_admissibility(spec)
    assert solution.dimension == len(kernel)
    for g, vector in zip(solution.g_basis, kernel):
        s_for = [boundary_first_order(g, factor) for factor in spec.factors]
        for (kind, a, b, m_exp), value in zip(unknowns, vector):
            polynomial = g[a, b] if kind == "g" else s_for[a][b]
            assert fraction_terms(polynomial).get(m_exp, 0) == value
