"""Curvature values and pullback identity checks."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from polydiff.catalog import get_descriptor, get_model, model_names
from polydiff.geometry import INTERIOR_MARGIN, CurvatureEvaluator, curvature_constancy, verify_pullback
from polydiff.operator import CoMetric, cometric_gradient, gamma, sphere_operator
from polydiff.poly import Polynomial, TensorGrid, exact_divide
from polydiff.quadrature import COVER_SAMPLERS
from polydiff.rng import sphere_points
from test_poly import fraction_terms, integer_axes, point_grid

PLANE_MODELS = [name for name in model_names() if get_model(name).dim == 2]


def _curvature_cases():
    """Every 2D catalog model at its defaults and at three generic points."""
    from test_operator import _generic_params

    rng = random.Random(8)
    for name in PLANE_MODELS:
        yield name, None
        descriptor = get_descriptor(name)
        if descriptor.param_specs:
            for _ in range(3):
                yield name, _generic_params(rng, descriptor)


def _curvature(evaluator, grid):
    """CurvatureEvaluator.curvature_exact on a grid as Fractions, from its
    integer numerators over positive integer denominators."""
    pairs = evaluator.curvature_exact(grid)
    assert all(type(n) is int and type(d) is int and d > 0 for n, d in pairs)
    return [Fraction(n, d) for n, d in pairs]


def _interior_sample(model, count):
    """Up to `count` rational interior points spread over a curvature grid."""
    points = list(model.interior_points(per_axis=8, margin=INTERIOR_MARGIN))
    step = max(1, len(points) // count)
    return points[::step][:count]


def test_disk_catalog_metric_is_round_sphere():
    model = get_model("disk", {"a": "0", "b": "0", "c": "1", "p": "0"})
    evaluator = CurvatureEvaluator(model.cometric)
    for point in ((0, 0), (Fraction(1, 10), Fraction(1, 5)), (Fraction(-3, 5), Fraction(1, 2))):
        assert _curvature(evaluator, point_grid(point)) == [2]


def test_coaxial_curvature_family():
    for a in ("0", "1", "3"):
        model = get_model("coaxial_parabolas", {"a": a})
        report = curvature_constancy(model)
        assert report.value == 1 + Fraction(a)
        assert abs(report.mean - (1.0 + float(Fraction(a)))) < 1e-9


def test_flat_models():
    for name in ("deltoid", "parabola_two_tangents"):
        report = curvature_constancy(get_model(name))
        assert report.value == 0 and abs(report.mean) < 1e-9


def test_unit_sphere_image_models():
    for name in ("parabola_tangent_secant", "cuspidal_cubic_secant",
                  "cuspidal_cubic_tangent", "swallowtail"):
        report = curvature_constancy(get_model(name))
        assert report.value == 2 and abs(report.mean - 2.0) < 1e-9, name


def test_non_constant_curvature_models():
    for name, params in (("nodal_cubic", None), ("disk", {"a": "1", "b": "1"})):
        report = curvature_constancy(get_model(name, params))
        assert report.value is None and not report.constant
        assert report.spread > 1e-3


def test_curvature_exact_at_rational_points():
    evaluator = CurvatureEvaluator(get_model("deltoid").cometric)
    assert _curvature(evaluator, point_grid((Fraction(1, 3), Fraction(1, 7)))) == [0]
    evaluator = CurvatureEvaluator(get_model("swallowtail").cometric)
    assert _curvature(evaluator, point_grid((Fraction(0), Fraction(1, 8)))) == [2]


def test_curvature_outside_elliptic_region_rejected():
    evaluator = CurvatureEvaluator(get_model("deltoid").cometric)
    with pytest.raises(ValueError):
        evaluator.curvature_exact(point_grid((Fraction(10), Fraction(0))))


@pytest.mark.parametrize("name,params", list(_curvature_cases()))
def test_exact_constancy_agrees_with_grid_values(name, params):
    # the collapse verdict against the values curvature_constancy samples:
    # constant c exactly when every grid value is c
    model = get_model(name, params)
    evaluator = CurvatureEvaluator(model.cometric)
    values = set(_curvature(evaluator, curvature_constancy(model).grid))
    if evaluator.constant is None:
        assert len(values) >= 2
    else:
        assert values == {evaluator.constant}
    assert curvature_constancy(model).value == evaluator.constant


@pytest.mark.parametrize("name", PLANE_MODELS)
def test_batch_curvature_matches_pointwise_quotient(name):
    model = get_model(name)
    evaluator = CurvatureEvaluator(model.cometric)
    grid = curvature_constancy(model).grid
    assert len(grid) >= 100
    expected = [evaluator.k_num(p) / evaluator.det(p) ** evaluator.k_pow for p in grid]
    assert _curvature(evaluator, grid) == expected


def _fraction_point_curvature_report(model, min_points=100):
    """curvature_constancy as it was written on lists of Fraction points:
    each grid, discarded or kept, built node by node as lo + (hi - lo) *
    (2k+1)/(2n) on every side and clipped point by point on the shifted
    factors, and the reported coordinates converted by two float(Fraction)
    per point."""
    spec = model.boundary
    shifted = [f - f(spec.witness) * INTERIOR_MARGIN for f in spec.factors]

    def grid(per_axis):
        axes = []
        for lo, hi in model.box:
            lo, hi = Fraction(lo), Fraction(hi)
            axes.append([lo + (hi - lo) * Fraction(2 * k + 1, 2 * per_axis) for k in range(per_axis)])
        values = [f.grid_values(*integer_axes(axes))[0] for f in shifted]
        inside = [k for k in range(per_axis**2) if all(v[k] > 0 for v in values)]
        return axes, inside

    per_axis = 16
    axes, inside = grid(per_axis)
    while len(inside) < min_points and per_axis < 128:
        per_axis *= 2
        axes, inside = grid(per_axis)
    if len(inside) < min_points:
        raise ValueError("too few interior points")
    cells = list(itertools.product(*axes))
    array = np.array([[float(c) for c in cells[k]] for k in inside])
    evaluator = CurvatureEvaluator(model.cometric)
    grid = TensorGrid(*integer_axes(axes), inside)
    values = np.array([float(v) for v in _curvature(evaluator, grid)])
    return array, values, float(values.mean()), evaluator.constant


def _defaults_and_one_generic_point():
    from test_operator import _generic_params

    rng = random.Random(25)
    for name in PLANE_MODELS:
        yield name, None
        descriptor = get_descriptor(name)
        if descriptor.param_specs:
            yield name, _generic_params(rng, descriptor)


@pytest.mark.parametrize("name,params", list(_defaults_and_one_generic_point()))
def test_curvature_report_is_bit_identical_to_the_fraction_point_algorithm(name, params):
    model = get_model(name, params)
    try:
        points, values, mean, value = _fraction_point_curvature_report(model)
    except ValueError:
        # outside the elliptic region both refuse
        with pytest.raises(ValueError):
            curvature_constancy(model)
        return
    report = curvature_constancy(model)
    assert report.points.dtype == points.dtype and report.points.shape == points.shape
    assert report.points.tobytes() == points.tobytes()
    assert report.values.dtype == values.dtype and report.values.tobytes() == values.tobytes()
    assert repr(report.mean) == repr(mean)
    assert report.value == value


def test_every_grid_is_read_as_interior_grid_built_it(monkeypatch):
    # curvature_constancy and Model.interior_points take each grid from
    # boundary.interior_grid, one call per doubling, and check_ellipticity
    # evaluates each cometric entry at most once, on that grid's own
    # integer axes
    import sys

    from polydiff import boundary
    from polydiff.boundary import check_ellipticity

    original = boundary.interior_grid
    calls = []  # (per_axis, the grid built)

    def counted(spec, box, per_axis):
        calls.append((per_axis, original(spec, box, per_axis)))
        return calls[-1][1]

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "polydiff" and getattr(module, "interior_grid", None) is original:
            monkeypatch.setattr(module, "interior_grid", counted)
    doublings = {"disk": [16], "deltoid": [16, 32], "cuspidal_cubic_tangent": [16, 32, 64]}
    for name, per_axis in doublings.items():
        calls.clear()
        report = curvature_constancy(get_model(name))
        assert [size for size, _ in calls] == per_axis, name
        assert report.grid is calls[-1][1] and len(report.values) == len(report.grid) >= 100
    model = get_model("nodal_cubic_cover_3d")
    calls.clear()
    grid = model.interior_points(per_axis=5)
    assert len(calls) == 1 and calls[0][0] == 5 and calls[0][1] is grid

    grid_values = Polynomial.grid_values
    evaluated = []

    def recorded(self, axes, denominator):
        evaluated.append((self, axes, denominator))
        return grid_values(self, axes, denominator)

    monkeypatch.setattr(Polynomial, "grid_values", recorded)
    g = model.cometric
    assert check_ellipticity(g, grid).elliptic
    # each minor's last column, in order of size
    assert [p for p, _, _ in evaluated] == [g[i, j] for j in range(3) for i in range(j + 1)]
    assert all(axes is grid.axes and den == grid.denominator for _, axes, den in evaluated)
    # failing at the first point on its first entry, -g reads no other entry
    evaluated.clear()
    negated = CoMetric([[-p for p in row] for row in g.entries])
    assert check_ellipticity(negated, grid).first_failure == next(iter(grid))
    assert [p for p, _, _ in evaluated] == [-g[0, 0]]


def _gamma_collapse(cometric):
    """CurvatureEvaluator's (k_num, k_pow), with Gamma_h(delta, delta) taken
    from `operator.gamma` as its own product of gradients."""
    delta = cometric.det()
    half = Fraction(1, 2)
    e, f, g = cometric[1, 1], -cometric[0, 1], cometric[0, 0]
    e_u, e_v = e.gradient()
    f_u, f_v = f.gradient()
    g_u, g_v = g.gradient()
    corner = f_u.derivative(1) - (e_v.derivative(1) + g_u.derivative(0)) * half
    det1 = (
        corner * delta
        - e_u * (f_v * g - (g_u * g + f * g_v) * half) * half
        + (f_u - e_v * half) * (f_v * f - (g_u * f + e * g_v) * half)
    )
    det2 = (e_v * f * g_u * 2 - e_v * e_v * g - e * g_u * g_u) * Fraction(1, 4)
    rows = cometric_gradient(cometric, delta)
    divergence = rows[0].derivative(0) + rows[1].derivative(1)
    numerator = delta * (det1 - det2 + divergence * half) - gamma(cometric, delta, delta) * Fraction(3, 4)
    k = 2
    while k > 0:
        reduced = exact_divide(numerator, delta)
        if reduced is None:
            break
        numerator = reduced
        k -= 1
    return numerator * 2, k


@pytest.mark.parametrize("name,params", list(_curvature_cases()))
def test_carre_du_champ_from_the_gradient_rows_matches_gamma(name, params):
    cometric = get_model(name, params).cometric
    evaluator = CurvatureEvaluator(cometric)
    assert (evaluator.k_num, evaluator.k_pow) == _gamma_collapse(cometric)


def test_batch_curvature_rejects_one_point_outside_the_elliptic_region():
    model = get_model("deltoid")
    evaluator = CurvatureEvaluator(model.cometric)
    grid = curvature_constancy(model).grid
    evaluator.curvature_exact(grid)
    # a node at x = 10 appended to the first axis, which keeps every node
    # index, and its point (10, y0) put among the others
    (first, second), denominator = grid.axes, grid.denominator
    nodes = list(grid.nodes)
    nodes.insert(len(nodes) // 2, len(first) * len(second))
    wider = TensorGrid([first + [10 * denominator], second], denominator, nodes)
    assert list(wider)[len(nodes) // 2] == (10, Fraction(second[0], denominator))
    with pytest.raises(ValueError, match="outside the elliptic region"):
        evaluator.curvature_exact(wider)


def test_curvature_affine_invariance():
    # map every 2D model through y = A x + b: the cometric becomes
    # A g A^T composed with the inverse map, and the scalar curvature at
    # A p + b must equal the curvature at p exactly
    rng = random.Random(11)
    pool = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    checks = 0
    for name in PLANE_MODELS:
        model = get_model(name)
        g = model.cometric
        det = 0
        while not det:
            a = [[rng.choice(pool) for _ in range(2)] for _ in range(2)]
            det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        b = [rng.choice(pool) for _ in range(2)]
        a_inv = [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]
        shifted = [Polynomial.variable(2, i) - b[i] for i in range(2)]
        inverse = [shifted[0] * a_inv[i][0] + shifted[1] * a_inv[i][1] for i in range(2)]
        pulled = [[g[k, l].compose(inverse) for l in range(2)] for k in range(2)]
        transformed = CoMetric(
            [
                [
                    sum(pulled[k][l] * (a[i][k] * a[j][l]) for k in range(2) for l in range(2))
                    for j in range(2)
                ]
                for i in range(2)
            ]
        )
        old, new = CurvatureEvaluator(g), CurvatureEvaluator(transformed)
        for p in _interior_sample(model, 6):
            q = tuple(a[i][0] * p[0] + a[i][1] * p[1] + b[i] for i in range(2))
            assert _curvature(new, point_grid(q)) == _curvature(old, point_grid(p)), (name, p)
            checks += 1
    assert checks >= 100


def test_sphere_samples_unit_norm_and_gamma_identity():
    pts = sphere_points(3, 500, 3)
    norms = np.linalg.norm(pts, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-14
    # the sphere Laplacian on the coordinates, exactly:
    # Gamma(x_i, x_j) = delta_ij - x_i x_j and L(x_i) = -d x_i
    for sphere_dim in (1, 2, 3):
        op = sphere_operator(sphere_dim)
        x = [Polynomial.variable(op.dim, i) for i in range(op.dim)]
        for i in range(op.dim):
            assert op.apply(x[i]) == x[i] * -sphere_dim
            for j in range(op.dim):
                assert gamma(op.cometric, x[i], x[j]) == int(i == j) - x[i] * x[j]


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_cover_realization_is_an_exact_identity(name):
    report = verify_pullback(get_model(name))
    assert (report.gamma_residual_terms, report.l_residual_terms) == (0, 0)
    assert report.exact and report.in_domain
    assert report.scale == (Fraction(1, 2) if name == "parabola_two_tangents" else 1)


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_mutated_cover_map_breaks_the_identity(name, monkeypatch):
    # on coaxial_parabolas this is 3*x*y in place of 2*x*y
    cover = COVER_SAMPLERS[name]
    first, second = cover.maps
    exponent, coeff = second.leading_term()
    bumped = second + Polynomial.monomial(second.dim, exponent) * (coeff / 2)
    monkeypatch.setitem(COVER_SAMPLERS, name, replace(cover, maps=(first, bumped)))
    report = verify_pullback(get_model(name))
    assert not report.exact
    assert not report.in_domain


def test_domain_check_is_independent_of_the_identity(monkeypatch):
    # y = x*y lands inside the coaxial domain but is not a realization
    cover = COVER_SAMPLERS["coaxial_parabolas"]
    halved = (cover.maps[0], cover.maps[1] * Fraction(1, 2))
    monkeypatch.setitem(COVER_SAMPLERS, "coaxial_parabolas", replace(cover, maps=halved))
    report = verify_pullback(get_model("coaxial_parabolas"))
    assert report.in_domain and not report.exact


# ----------------------------------------------------------------------
# independent derivations of the same curvature and sphere data


def _brioschi_on_inverse(cometric):
    """Brioschi's formula on the rational entries of h^-1, each held as a
    pair (P, k) meaning P / det^k; returns the collapsed (numerator, power)."""
    delta = cometric.det()

    def deriv(term, axis):
        p, k = term
        return (p.derivative(axis) * delta - p * delta.derivative(axis) * k, k + 1)

    def mul(t1, t2):
        return (t1[0] * t2[0], t1[1] + t2[1])

    def scale(term, c):
        return (term[0] * c, term[1])

    def add(*terms):
        k_max = max(k for _, k in terms)
        total = Polynomial.zero(2)
        for p, k in terms:
            total = total + p * delta ** (k_max - k)
        return (total, k_max)

    half = Fraction(1, 2)
    e = (cometric[1, 1], 1)
    f = (-cometric[0, 1], 1)
    g = (cometric[0, 0], 1)
    e_u, e_v = deriv(e, 0), deriv(e, 1)
    f_u, f_v = deriv(f, 0), deriv(f, 1)
    g_u, g_v = deriv(g, 0), deriv(g, 1)
    corner = add(scale(deriv(e_v, 1), -half), deriv(f_u, 1), scale(deriv(g_u, 0), -half))
    m11 = add(mul(e, g), scale(mul(f, f), -1))
    det1 = add(
        mul(corner, m11),
        scale(mul(e_u, add(mul(f_v, g), scale(mul(g_u, g), -half), scale(mul(f, g_v), -half))), -half),
        mul(
            add(f_u, scale(e_v, -half)),
            add(mul(f_v, f), scale(mul(g_u, f), -half), scale(mul(e, g_v), -half)),
        ),
    )
    det2 = add(
        scale(mul(e_v, add(scale(mul(e_v, g), half), scale(mul(f, g_u), -half))), -half),
        scale(mul(g_u, add(scale(mul(e_v, f), half), scale(mul(e, g_u), -half))), half),
    )
    numerator, k = add(det1, scale(det2, -1))
    # divide by (EG - F^2)^2 = delta^2 / delta^4, i.e. multiply by delta^2
    numerator = numerator * delta * delta
    while k > 0:
        reduced = exact_divide(numerator, delta)
        if reduced is None:
            break
        numerator = reduced
        k -= 1
    return numerator * 2, k


@pytest.mark.parametrize("name,params", list(_curvature_cases()))
def test_conformal_curvature_matches_brioschi_on_inverse(name, params):
    cometric = get_model(name, params).cometric
    evaluator = CurvatureEvaluator(cometric)
    assert (evaluator.k_num, evaluator.k_pow) == _brioschi_on_inverse(cometric)


def _radial_sphere_fields(maps, sphere_dim, radius_sq):
    """Gamma and L of the maps on the sphere |x|^2 = radius_sq, in the
    unit-sphere normalization, from ambient radial derivatives r = x . grad:
    Gamma(f, h) = radius_sq grad f . grad h - r(f) r(h) and
    L f = radius_sq Lap f - r(r(f)) - (d - 1) r(f)."""
    ambient = maps[0].dim
    x = [Polynomial.variable(ambient, i) for i in range(ambient)]

    def radial(f):
        return sum(x[i] * f.derivative(i) for i in range(ambient))

    gammas = {
        (a, b): sum(maps[a].derivative(i) * maps[b].derivative(i) for i in range(ambient))
        * radius_sq
        - radial(maps[a]) * radial(maps[b])
        for a in range(len(maps))
        for b in range(a, len(maps))
    }
    laplacians = [
        sum(f.derivative(i).derivative(i) for i in range(ambient)) * radius_sq
        - radial(radial(f))
        - radial(f) * (sphere_dim - 1)
        for f in maps
    ]
    return gammas, laplacians


@pytest.mark.parametrize(
    "name",
    [
        "coaxial_parabolas",
        "parabola_tangent_secant",
        "nodal_cubic",
        "cuspidal_cubic_secant",
        "cuspidal_cubic_tangent",
        "swallowtail",
    ],
)
def test_sphere_operator_matches_radial_fields(name):
    cover = COVER_SAMPLERS[name]
    (sphere,) = cover.ideal
    ambient = sphere.dim
    x = [Polynomial.variable(ambient, i) for i in range(ambient)]
    radius_sq = -sphere.constant_term
    assert sphere == sum(xi * xi for xi in x) - radius_sq
    gammas, laplacians = _radial_sphere_fields(cover.maps, ambient - 1, radius_sq)
    op = cover.operator
    for (a, b), expected in gammas.items():
        assert gamma(op.cometric, cover.maps[a], cover.maps[b]) == expected
    assert [op.apply(f) for f in cover.maps] == laplacians


def _sympy_scalar_curvature(cometric):
    """Scalar curvature of the metric h^-1 from its Christoffel symbols, as an
    exact function of a rational point; Ricci is the contraction R^r_srn."""
    sympy = pytest.importorskip("sympy")
    coords = sympy.symbols("u v")

    def entry(p):
        return sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator) * coords[0] ** e[0] * coords[1] ** e[1]
                for e, c in fraction_terms(p).items()
            )
        )

    h = sympy.Matrix(2, 2, lambda i, j: entry(cometric[i, j]))
    g = h.adjugate() / h.det()
    dg = [[[sympy.diff(g[i, j], c) for c in coords] for j in range(2)] for i in range(2)]
    # christoffel[r][i][j] = Gamma^r_ij
    christoffel = [
        [
            [
                sum(h[r, l] * (dg[l][j][i] + dg[l][i][j] - dg[i][j][l]) for l in range(2)) / 2
                for j in range(2)
            ]
            for i in range(2)
        ]
        for r in range(2)
    ]
    scalar = 0
    for s in range(2):
        for n in range(2):
            ricci = sum(
                sympy.diff(christoffel[r][n][s], coords[r])
                - sympy.diff(christoffel[r][r][s], coords[n])
                + sum(
                    christoffel[r][r][l] * christoffel[l][n][s]
                    - christoffel[r][n][l] * christoffel[l][r][s]
                    for l in range(2)
                )
                for r in range(2)
            )
            scalar += h[s, n] * ricci

    def at(point):
        value = scalar.xreplace(
            {c: sympy.Rational(p.numerator, p.denominator) for c, p in zip(coords, point)}
        )
        return Fraction(int(value.p), int(value.q))

    return at


@pytest.mark.parametrize("name", PLANE_MODELS)
def test_curvature_exact_matches_sympy_christoffel_curvature(name):
    model = get_model(name)
    oracle = _sympy_scalar_curvature(model.cometric)
    evaluator = CurvatureEvaluator(model.cometric)
    for point in _interior_sample(model, 2):
        assert _curvature(evaluator, point_grid(point)) == [oracle(point)], point
