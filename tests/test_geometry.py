"""Curvature values and pullback identity checks."""

from fractions import Fraction

import numpy as np
import pytest

from polydiff.catalog import get_model
from polydiff.geometry import (
    PULLBACKS,
    CurvatureEvaluator,
    curvature_constancy,
    verify_pullback,
)
from polydiff.operator import CoMetric
from polydiff.rng import sphere_points


def test_disk_catalog_metric_is_round_sphere():
    model = get_model("disk", {"a": "0", "b": "0", "c": "1", "p": "0"})
    evaluator = CurvatureEvaluator(model.cometric)
    for point in ((0, 0), (Fraction(1, 10), Fraction(1, 5)), (Fraction(-3, 5), Fraction(1, 2))):
        assert evaluator.curvature_exact(point) == 2


def test_coaxial_curvature_family():
    for a in ("0", "1", "3"):
        model = get_model("coaxial_parabolas", {"a": a})
        report = curvature_constancy(model)
        assert report.constant
        assert abs(report.mean - (1.0 + float(Fraction(a)))) < 1e-9


def test_flat_models():
    for name in ("deltoid", "parabola_two_tangents"):
        report = curvature_constancy(get_model(name))
        assert report.constant and abs(report.mean) < 1e-9


def test_unit_sphere_image_models():
    for name in ("parabola_tangent_secant", "cuspidal_cubic_secant",
                  "cuspidal_cubic_tangent", "swallowtail"):
        report = curvature_constancy(get_model(name))
        assert report.constant and abs(report.mean - 2.0) < 1e-9, name


def test_non_constant_curvature_models():
    for name, params in (("nodal_cubic", None), ("disk", {"a": "1", "b": "1"})):
        report = curvature_constancy(get_model(name, params))
        assert not report.constant
        assert report.spread > 1e-3


def test_curvature_exact_at_rational_points():
    evaluator = CurvatureEvaluator(get_model("deltoid").cometric)
    assert evaluator.curvature_exact((Fraction(1, 3), Fraction(1, 7))) == 0
    evaluator = CurvatureEvaluator(get_model("swallowtail").cometric)
    assert evaluator.curvature_exact((Fraction(0), Fraction(1, 8))) == 2


def test_curvature_outside_elliptic_region_rejected():
    evaluator = CurvatureEvaluator(get_model("deltoid").cometric)
    with pytest.raises(ValueError):
        evaluator.curvature_exact((Fraction(10), Fraction(0)))


def test_curvature_affine_invariance():
    # express the coaxial a=1 metric in new coordinates u = phi(y) with
    # phi(y) = (y1/2, y2 - y1); curvature must agree at corresponding points
    from polydiff.poly import Polynomial

    g = get_model("coaxial_parabolas", {"a": "1"}).cometric
    u, v = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    inverse = [u * 2, v + u * 2]  # phi^{-1}(u, v)
    jac = [[Fraction(1, 2), Fraction(0)], [Fraction(-1), Fraction(1)]]
    entries = [[Polynomial.zero(2) for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            total = Polynomial.zero(2)
            for a_ in range(2):
                for b_ in range(2):
                    total = total + g[a_, b_].compose(inverse) * (jac[i][a_] * jac[j][b_])
            entries[i][j] = total
    transformed = CoMetric(entries)
    y0 = (Fraction(1, 5), Fraction(1, 7))
    u0 = (y0[0] / 2, y0[1] - y0[0])
    k_old = CurvatureEvaluator(g).curvature_exact(y0)
    k_new = CurvatureEvaluator(transformed).curvature_exact(u0)
    assert abs(float(k_old) - float(k_new)) < 1e-8


def test_sphere_samples_unit_norm_and_gamma_identity():
    pts = sphere_points(3, 500, 3)
    norms = np.linalg.norm(pts, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-14
    # restricted carre du champ of the coordinates: delta_ij - x_i x_j
    for i in range(3):
        for j in range(3):
            gamma_value = (1.0 if i == j else 0.0) - pts[:, i] * pts[:, j]
            direct = (np.eye(3)[i] * np.eye(3)[j]).sum() - pts[:, i] * pts[:, j]
            assert np.abs(gamma_value - direct).max() < 1e-14


def test_pullback_residuals_tiny():
    for name, spec in PULLBACKS.items():
        report = verify_pullback(spec, sample_count=1000, seed=0)
        assert report.max_gamma_residual < 1e-10, name
        assert report.max_l_residual < 1e-10, name
        assert abs(report.scale - 1.0) < 1e-12, name


def test_pullback_determinism():
    spec = PULLBACKS["plane_deltoid"]
    r1 = verify_pullback(spec, sample_count=500, seed=9)
    r2 = verify_pullback(spec, sample_count=500, seed=9)
    assert r1.max_gamma_residual == r2.max_gamma_residual
    assert r1.scale == r2.scale
