"""Catalog registry: instantiation, parameter ranges, tabulated claims."""

import json
import random
from fractions import Fraction
from importlib import resources

import pytest

from polydiff.boundary import check_ellipticity, det_divisibility_check, interior_grid
from polydiff.catalog import (
    ClaimNotApplicableError,
    ParameterError,
    get_descriptor,
    get_model,
    model_names,
)
from polydiff.poly import parse_poly
from test_poly import point_grid


def _descriptors():
    return [get_descriptor(name) for name in model_names()]


def test_registry_contains_required_models():
    names = set(model_names())
    required = {
        "hermite1d", "laguerre1d", "jacobi1d", "square", "disk", "triangle",
        "coaxial_parabolas", "parabola_tangent_secant", "parabola_two_tangents",
        "nodal_cubic", "cuspidal_cubic_secant", "cuspidal_cubic_tangent",
        "swallowtail", "deltoid", "gaussian_plane", "noncompact_cusp",
        "noncompact_parabola_halfplane", "laguerre_hermite_product",
        "triangle_cover_3d", "nodal_cubic_cover_3d",
    }
    assert required <= names


def test_bounded_2d_count_is_eleven():
    rows = [r for r in _descriptors() if r.dim == 2 and r.compact]
    assert len(rows) == 11


def test_bounded_2d_boundary_degree_at_most_four():
    for row in _descriptors():
        if row.dim == 2 and row.compact:
            assert row.boundary_degree <= 4


def test_gaussian_plane_has_empty_boundary():
    assert get_model("gaussian_plane").boundary.factors == ()


def test_deltoid_cometric_entries():
    model = get_model("deltoid", {"p": "-1/2"})
    assert model.cometric[0, 0] == parse_poly("9 + 6*x + y^2 - 3*x^2", 2)
    assert model.cometric[0, 1] == parse_poly("-2*y*(2*x+3)", 2)


def test_triangle_cometric_entries():
    model = get_model("triangle", {"a": "0", "b": "0", "c": "1"})
    assert model.cometric[0, 0] == parse_poly("x*(1-x)", 2)
    assert model.cometric[0, 1] == parse_poly("-x*y", 2)


def test_swallowtail_boundary_polynomial():
    model = get_model("swallowtail", {"p": "-1/2"})
    expected = parse_poly("4*x^2 - 27*x^4 + 16*y - 128*y^2 - 144*x^2*y + 256*y^3", 2)
    assert model.boundary.factors[0] == expected


def test_parameter_range_enforced():
    with pytest.raises(ParameterError):
        get_model("coaxial_parabolas", {"a": "-1"})
    with pytest.raises(ParameterError):
        get_model("deltoid", {"p": "-3/2"})
    with pytest.raises(ParameterError):
        get_model("gaussian_plane", {"A0": "1", "B0": "2", "C0": "1"})
    with pytest.raises(ParameterError):
        get_model("disk", {"nosuch": "1"})
    with pytest.raises(KeyError):
        get_model("dodecahedron")


def test_claimed_drift_examples():
    coaxial = get_model("coaxial_parabolas", {"a": "1", "p": "0", "q": "0"})
    assert coaxial.claimed_drift()[1] == parse_poly("-6*y", 2)

    swallowtail = get_model("swallowtail", {"p": "-1/2"})
    assert swallowtail.claimed_drift()[1] == parse_poly("1 - 20*y", 2)

    nodal = get_model("nodal_cubic", {"p": "1/4"})
    assert nodal.claimed_drift()[1] == parse_poly("-57/2*y", 2)  # -6(4+3p)y


def test_claim_requires_guard():
    disk = get_model("disk", {"c": "2"})
    with pytest.raises(ClaimNotApplicableError):
        disk.claimed_drift()


def test_every_bounded_model_passes_instantiation_invariants():
    for row in _descriptors():
        if not row.compact:
            continue
        model = get_model(row.name)
        per_axis = 8 if model.dim <= 2 else 5
        grid = model.interior_points(per_axis=per_axis)
        assert grid, row.name
        assert check_ellipticity(model.cometric, grid).elliptic, row.name
        assert det_divisibility_check(model.cometric, model.boundary).divides, row.name


def test_descriptor_rationals_roundtrip():
    raw = json.loads(resources.files("polydiff").joinpath("data/models.json").read_text())
    entry = next(m for m in raw["models"] if m["name"] == "deltoid")
    assert Fraction(entry["params"][0]["default"]) == Fraction(-1, 2)
    assert entry["witness"] == ["0", "0"]


def test_deterministic_listing_order():
    # the registry, and so `models list`, keeps the order of the catalog file
    raw = json.loads(resources.files("polydiff").joinpath("data/models.json").read_text())
    assert model_names() == [m["name"] for m in raw["models"]]
    assert [d.name for d in _descriptors()] == model_names()


def test_coaxial_box_tracks_parameter():
    narrow = get_model("coaxial_parabolas", {"a": "3"})
    wide = get_model("coaxial_parabolas", {"a": "-1/2"})
    assert narrow.box[0][1] == Fraction(3, 2)
    assert wide.box[0][1] == Fraction(4)  # 2/(1+a) at a = -1/2
    assert wide.box[1][1] == Fraction(3)  # (1-a)/(1+a)


def test_claimed_spectrum_deltoid_scheme():
    model = get_model("deltoid", {"p": "-1/2"})
    spectrum = model.claimed_spectrum()
    assert spectrum.eigenvalue(1, 0) == Fraction(-4)
    values = spectrum.eigenvalues_at_degree(2)
    assert values == sorted([Fraction(-16), Fraction(-12), Fraction(-16)])


def test_laguerre_hermite_product_drift():
    model = get_model("laguerre_hermite_product", {"a": "2"})
    assert model.operator.drift[0] == parse_poly("2 - x", 2)
    assert model.operator.drift[1] == parse_poly("-y", 2)


def _catalog_cases():
    """Every catalog model at its defaults and at one generic parameter point."""
    from test_operator import _generic_params

    rng = random.Random(12)
    for name in model_names():
        yield name, None
        yield name, _generic_params(rng, get_descriptor(name))


def _two_pass_interior_points(model, per_axis, margin):
    """Reference: the clipped grid, then each factor against its threshold."""
    factors = model.boundary.factors
    thresholds = [f(model.boundary.witness) * margin for f in factors]
    return [
        point
        for point in interior_grid(model.boundary, model.box, per_axis)
        if all(f(point) > t for f, t in zip(factors, thresholds))
    ]


@pytest.mark.parametrize("name,params", list(_catalog_cases()))
def test_interior_points_margin_matches_two_pass_filter(name, params):
    model = get_model(name, params)
    per_axis = 16 if model.dim <= 2 else 6
    for margin in (Fraction(1, 1000), Fraction(1, 10), Fraction(9, 10)):
        expected = _two_pass_interior_points(model, per_axis, margin)
        assert list(model.interior_points(per_axis=per_axis, margin=margin)) == expected, margin
    if model.compact:
        # on a bounded domain a margin near 1 keeps only points deep inside,
        # so the comparison is not vacuous
        assert len(expected) < len(model.interior_points(per_axis=per_axis))
    for margin in (Fraction(-1, 10), Fraction(1)):
        with pytest.raises(ValueError, match="margin"):
            model.interior_points(per_axis=per_axis, margin=margin)


# ----------------------------------------------------------------------
# ellipticity across the declared parameter ranges
#
# disk: g = (1 - r^2) diag(a, b) + c (I - x x^T), and I - x x^T >= (1 - r^2) I,
# so g >= (1 - r^2)(diag(a, b) + c I) is positive definite on the open disk
# when a + c > 0 and b + c > 0; at the origin g = diag(a + c, b + c).
#
# triangle: with D = diag(x, y), z = 1 - x - y and q = (sqrt x, sqrt y),
# g = D^(1/2) (diag(c + a z, c + b z) - c q q^T) D^(1/2).  By the matrix
# determinant lemma this is positive definite on the open triangle exactly
# when a + c >= 0, b + c >= 0 and not both are 0 (then det g = 0
# everywhere).  If a + c < 0, g11 = t ((a + c) - t (c + 2 a)) < 0 at (t, t)
# for small t; likewise g22 if b + c < 0.


def _draw_in_range(rng, spec) -> Fraction:
    lower = spec.gt if spec.gt is not None else spec.ge
    upper = spec.lt if spec.lt is not None else spec.le
    if lower is not None and upper is not None:
        return lower + (upper - lower) * Fraction(rng.randint(1, 15), 16)
    step = Fraction(rng.randint(1, 32), 8)
    if lower is not None:
        return lower + step
    if upper is not None:
        return upper - step
    return step if rng.random() < 0.5 else -step


def _disk_elliptic_set(v) -> tuple[bool, list]:
    return v["a"] + v["c"] > 0 and v["b"] + v["c"] > 0, [(Fraction(0), Fraction(0))]


def _triangle_elliptic_set(v) -> tuple[bool, list]:
    a, b, c = v["a"], v["b"], v["c"]
    inside = a + c >= 0 and b + c >= 0 and (a + c, b + c) != (0, 0)
    ts = [abs(s + c) / (2 * (abs(c + 2 * s) + 1)) for s in (a, b) if s + c < 0]
    t = min(ts, default=Fraction(1, 4))
    return inside, [(t, t)]


ELLIPTIC_SETS = {"disk": _disk_elliptic_set, "triangle": _triangle_elliptic_set}
# the edges of both sets: a + c = 0 alone, and with b + c = 0
EDGES = [
    {"a": Fraction(-1, 2), "b": Fraction(1, 4), "c": Fraction(1, 2)},
    {"a": Fraction(-1, 2), "b": Fraction(-1, 2), "c": Fraction(1, 2)},
    {"a": Fraction(-1, 2), "b": Fraction(-5, 8), "c": Fraction(1, 2)},
]
# nodal_cubic_cover_3d also admits non-elliptic points (A = 2, a = -1/3, for
# one) and is not characterized here
UNCHARACTERIZED = {"nodal_cubic_cover_3d"}


@pytest.mark.parametrize(
    "name",
    [n for n in model_names() if get_descriptor(n).factor_templates and n not in UNCHARACTERIZED],
)
def test_ellipticity_on_the_grid_matches_the_derived_parameter_set(name):
    descriptor = get_descriptor(name)
    rng = random.Random(f"ellipticity:{name}")
    draws = [
        {spec.name: _draw_in_range(rng, spec) for spec in descriptor.param_specs}
        for _ in range(40)
    ]
    if name in ELLIPTIC_SETS:
        draws += [{**draws[0], **edge} for edge in EDGES]
    verdicts = set()
    for values in draws:
        model = descriptor.instantiate({k: str(v) for k, v in values.items()})
        expected, witnesses = ELLIPTIC_SETS.get(name, lambda v: (True, []))(values)
        grids = [model.interior_points(per_axis=10 if model.dim <= 2 else 5)]
        grids += [point_grid(point) for point in witnesses]
        elliptic = all(check_ellipticity(model.cometric, grid).elliptic for grid in grids)
        assert elliptic == expected, values
        verdicts.add(expected)
    if name in ELLIPTIC_SETS:
        assert verdicts == {True, False}
