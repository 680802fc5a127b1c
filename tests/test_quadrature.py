"""Quadrature: deterministic RNG, Gauss exactness, Monte Carlo behavior."""

import copy
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from polydiff.catalog import get_model, model_names
from polydiff.operator import GradedOperatorMatrix, gamma
from polydiff.poly import MonomialBasis, Polynomial, parse_poly
from polydiff import quadrature
from polydiff.claims import MC_Z_GATE
from polydiff.quadrature import (
    COVER_SAMPLERS,
    POINT_CHUNK,
    DomainSampler,
    Moments,
    SamplerConfigError,
    WeightedPoints,
    check_box_encloses,
    cover_cross_check,
    eval_floats,
    gamma_form_matrix,
    gram_matrix,
    moment_z_scores,
    operator_moment_matrix,
    rule_moment_gap,
    sample_domain,
    symmetry_defect,
)
from polydiff.rng import (
    normal_block,
    normal_points,
    stream_uniform,
    stream_value,
    uniform_block,
    unit_rows,
)
from test_poly import _termwise, fraction_terms


def sampler_points(model, sampler: DomainSampler, degree: int = 0) -> WeightedPoints:
    """The sampler's own points: for cover-mc its Monte Carlo draw with
    weights 1/N, the points `cover_cross_check` streams, held at once; for
    every other kind the rule `sample_domain` returns for `degree`."""
    if sampler.kind != "cover-mc":
        return sample_domain(model, sampler, degree)
    n = sampler.sample_count
    cover = quadrature._applicable_cover(model)
    blocks = [
        quadrature._accept(
            model.boundary.factors,
            cover.generate(sampler.seed, block.start, block.stop - block.start).T,
        )[0]
        for block in quadrature.point_chunks(n)
    ]
    points = np.hstack(blocks).T
    return WeightedPoints(points, np.full(points.shape[0], 1.0 / n), proposals=n)


def moments_of(model, degree: int, sample: WeightedPoints) -> Moments:
    """The `Moments` of a given point set: `Moments` of the model with
    `quadrature.sample_domain` patched to return `sample` as its rule."""
    with mock.patch.object(quadrature, "sample_domain", return_value=sample):
        return Moments(model, degree, None)


def test_rng_scalar_matches_vectorized():
    seed = 0xD0F5EEDD
    block = uniform_block(seed, 5, 64)
    scalars = [stream_uniform(seed, 5 + i) for i in range(64)]
    assert np.array_equal(block, np.array(scalars))


def test_rng_streams_differ_by_seed_and_index():
    assert stream_value(1, 0) != stream_value(2, 0)
    assert stream_value(1, 0) != stream_value(1, 1)
    # counter-based: prefix stability under different block sizes
    assert uniform_block(9, 0, 10)[3] == uniform_block(9, 0, 100)[3]


def test_rng_blocks_match_the_scalar_stream_across_a_block_boundary():
    seed = 0xD0F5EEDD
    start = POINT_CHUNK - 3
    assert uniform_block(seed, start, 0).shape == normal_block(seed, start, 0).shape == (0,)
    assert uniform_block(seed, start, 1)[0] == (stream_value(seed, start) >> 11) * 2.0**-53
    uniforms = np.concatenate([uniform_block(seed, start, 3), uniform_block(seed, POINT_CHUNK, 5)])
    assert np.array_equal(uniforms, [stream_uniform(seed, start + i) for i in range(8)])
    # pair j reads slots 2j and 2j + 1; numpy's log1p and cos may round
    # differently from the math module's, by an ulp
    reference = [
        math.sqrt(-2.0 * math.log1p(-stream_uniform(seed, 2 * j)))
        * math.cos(2.0 * math.pi * stream_uniform(seed, 2 * j + 1))
        for j in range(start, start + 8)
    ]
    normals = np.concatenate([normal_block(seed, start, 3), normal_block(seed, POINT_CHUNK, 5)])
    assert np.allclose(normals, reference, rtol=1e-15, atol=1e-15)
    assert normals.tobytes() == normal_block(seed, start, 8).tobytes()
    assert normal_block(seed, start, 1)[0] == normals[0]


def test_unit_rows_match_the_norm_formula_bit_for_bit():
    # the squares summed one axis at a time are the sum np.linalg.norm adds,
    # on the transposed draw and on a C-ordered copy alike
    for dim in (3, 4):
        points = normal_points(11, 4096, dim, 3)
        reference = points / np.linalg.norm(points, axis=1)[:, None]
        for block in (points, np.ascontiguousarray(points)):
            assert unit_rows(block).tobytes() == reference.tobytes()
    points[7] = 0.0
    assert unit_rows(points)[7].tobytes() == points[7].tobytes()


def test_disk_mc_acceptance_fraction():
    model = get_model("disk", {"p": "0"})
    sampler = DomainSampler("mc-rejection", sample_count=100_000, seed=7)
    sample = sample_domain(model, sampler, 0)
    fraction = sample.accepted / sample.proposals
    target = math.pi / 4
    sigma = math.sqrt(target * (1 - target) / sample.proposals)
    assert abs(fraction - target) < 3 * sigma


def test_all_sampler_points_inside_domain():
    for name in ("deltoid", "nodal_cubic", "triangle"):
        model = get_model(name)
        sample = sampler_points(model, model.sampler(seed=3), 13)
        pts = sample.points[:20000]
        for factor in model.boundary.factors:
            assert (eval_floats([factor], pts.T) > 0).all()


def _integral(f: Polynomial, moments: Moments) -> float:
    return sum(float(c) * moments.monomial(e) for e, c in fraction_terms(f).items())


def test_integrate_disk_area():
    model = get_model("disk", {"p": "0"})
    moments = Moments(model, 0, model.sampler())
    assert abs(moments.monomial((0, 0)) - math.pi) < 1e-12


def test_integrate_square_uniform_mass():
    model = get_model("square", {"a": "0", "b": "0", "c": "0", "d": "0"})
    moments = Moments(model, 0, model.sampler())
    assert abs(moments.monomial((0, 0)) - 4.0) < 1e-12


def test_integrate_triangle_first_moment():
    model = get_model("triangle", {"p": "0", "q": "0", "r": "0"})
    moments = Moments(model, 1, model.sampler())
    assert abs(_integral(parse_poly("x", 2), moments) - 1.0 / 6.0) < 1e-12


def _beta_moments(alpha: float, beta: float, count: int) -> np.ndarray:
    """int_0^1 u^k (1-u)^alpha u^beta du = B(beta + k + 1, alpha + 1) for
    k < count: B(beta + 1, alpha + 1) from math.lgamma, then stepped up by
    B(x + 1, y) = B(x, y) x / (x + y), since lgamma near k = 160 is about
    650 and its exp would carry 1e-13 of error of its own."""
    log_beta = math.lgamma(beta + 1) + math.lgamma(alpha + 1) - math.lgamma(alpha + beta + 2)
    values = [math.exp(log_beta)]
    for k in range(count - 1):
        values.append(values[-1] * (beta + 1 + k) / (alpha + beta + 2 + k))
    return np.array(values)


@pytest.mark.parametrize("n", [1, 2, 14, 79])
@pytest.mark.parametrize(
    "alpha, beta",
    # alpha + beta = -1, where the first off-diagonal entry of the Jacobi
    # matrix is 0/0, and alpha + beta = 0, where the first diagonal one is
    [(-0.5, -0.5), (-0.25, -0.75), (-0.75, -0.25), (0.0, 0.0), (0.5, -0.5), (-0.5, 0.5)]
    + [(1.5, 2.5)],
)
def test_gauss_jacobi_rule_matches_the_beta_moments(alpha, beta, n):
    # an n-node Gauss rule integrates u^k exactly for k < 2n; n = 79 is the
    # largest node count the battery asks for
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, w = quadrature._jacobi_rule_01(n, alpha, beta)
    assert u.shape == w.shape == (n,) and np.all(np.diff(u) > 0)
    assert np.all((u > 0) & (u < 1) & (w > 0))
    exact = _beta_moments(alpha, beta, 2 * n)
    gap = np.abs((u[None, :] ** np.arange(2 * n)[:, None]) @ w - exact)
    assert np.all(gap <= 1e-13 * exact), float((gap / exact).max())


@pytest.mark.parametrize("degree", [0, 1, 13, 26, 156])
@pytest.mark.parametrize(
    "name, mass",
    # at the defaults: (1 - x^2)^0 on [-1, 1]; the arcsine weight on both
    # axes of the square; (1 - r^2)^(-1/2) on the disk; and
    # (x y (1 - x - y))^(-1/2) on the triangle, Gamma(1/2)^3 / Gamma(3/2)
    [("jacobi1d", 2.0), ("square", math.pi**2), ("disk", 2 * math.pi), ("triangle", 2 * math.pi)],
)
def test_gauss_rule_mass_matches_its_closed_form(name, mass, degree):
    # every verdict divides by the mass, so a wrong mu_0 would show nowhere else
    model = get_model(name)
    weights = sample_domain(model, model.sampler(), degree).weights
    assert abs(weights.sum() - mass) <= 1e-13 * mass


def test_integrate_mc_within_error_bars():
    # the mass is volume * accepted / proposals with a binomial acceptance
    # count, so its standard deviation is volume * sqrt(p (1 - p) / n)
    model = get_model("disk", {"p": "0"})
    sampler = DomainSampler("mc-rejection", sample_count=200_000, seed=5)
    sample = sample_domain(model, sampler, 0)
    n = sample.proposals
    volume = float(sample.weights[0]) * n
    p = sample.accepted / n
    sigma = volume * math.sqrt(p * (1 - p) / n)
    mass = Moments(model, 0, sampler).monomial((0, 0))
    assert abs(mass - math.pi) < 3 * sigma


def test_mc_deterministic_for_fixed_seed():
    model = get_model("deltoid")
    sampler = model.sampler(seed=99, sample_count=50_000)
    sample = sampler_points(model, sampler)
    first = moments_of(model, 2, sample)
    second = moments_of(model, 2, sampler_points(model, sampler))
    assert sample.proposals == 50_000
    assert np.array_equal(first.values, second.values)


def test_gram_square_uniform_low_degree():
    model = get_model("square", {"a": "0", "b": "0", "c": "0", "d": "0"})
    b = gram_matrix(Moments(model, 2, model.sampler()), 1)
    expected = np.diag([4.0, 4.0 / 3.0, 4.0 / 3.0])
    assert np.abs(b - expected).max() < 1e-12


def test_gram_odd_moments_vanish_by_symmetry():
    for name in ("square", "disk"):
        model = get_model(name, {"p": "0"} if name == "disk" else None)
        b = gram_matrix(Moments(model, 2, model.sampler()), 1)
        assert abs(b[0, 1]) < 1e-12 and abs(b[0, 2]) < 1e-12


def test_gram_disk_mass_is_pi():
    model = get_model("disk", {"p": "0"})
    b = gram_matrix(Moments(model, 0, model.sampler()), 0)
    assert abs(b[0, 0] - math.pi) < 1e-12


def test_gauss_rules_exact_for_polynomials():
    # a random-ish degree-10 polynomial integrates identically on the rule
    # sized for degree 10 and on the finer one sized for degree 26, on all
    # three mapped rules
    f = parse_poly("x^4*y^6 - 3*x^2*y + 1/2*y^3 + 2", 2)
    for name in ("square", "disk", "triangle"):
        model = get_model(name)
        coarse = _integral(f, Moments(model, 10, model.sampler()))
        fine = _integral(f, Moments(model, 26, model.sampler()))
        assert abs(coarse - fine) < 1e-12 * max(1.0, abs(fine))


def test_symmetry_defect_examples():
    square = get_model("square")
    assert symmetry_defect(square, 4, square.sampler()) < 1e-10
    # a cover-mc sampler is integrated by the exact cover rule
    deltoid = get_model("deltoid")
    assert symmetry_defect(deltoid, 3, deltoid.sampler(seed=7)) < 1e-12


def test_symmetry_defect_detects_broken_drift():
    square = get_model("square")

    class Perturbed:
        def __init__(self, op):
            self.op = op
            self.extra = Polynomial.monomial(2, (2, 0))

        def apply(self, f):
            return self.op.apply(f) + self.extra * f.derivative(0)

    defect = symmetry_defect(square, 3, square.sampler(), operator=Perturbed(square.operator))
    assert defect > 0.1


def test_symmetry_defect_applies_the_operator_once_per_monomial():
    disk = get_model("disk")

    class Counting:
        calls = 0

        def apply(self, f):
            Counting.calls += 1
            return disk.operator.apply(f)

    defect = symmetry_defect(disk, 3, disk.sampler(), operator=Counting())
    assert Counting.calls == 10  # the degree-3 basis in 2D has 10 monomials
    assert defect == symmetry_defect(disk, 3, disk.sampler())


@pytest.mark.parametrize("name", ["disk", "cuspidal_cubic_tangent", "swallowtail"])
def test_operator_moment_matrix_does_not_depend_on_the_term_order_of_the_images(name):
    # each image is summed in graded-lex order, so images that hold the same
    # terms in reverse order give the same floats bit for bit
    model = get_model(name)
    moments = Moments(model, 2 * 6, model.sampler(seed=7))
    images = [
        model.operator.apply(Polynomial.monomial(model.dim, e))
        for e in MonomialBasis(model.dim, 6).exponents
    ]
    reversed_images = [
        Polynomial._new(p.dim, dict(reversed(p.numerators.items())), p.denominator)
        for p in images
    ]
    assert np.array_equal(
        operator_moment_matrix(moments, 6, images),
        operator_moment_matrix(moments, 6, reversed_images),
    )


def _with_density(name, params=None, extra_factor=None, exp_poly=None):
    """The catalog model with one more density factor (exponent 1) or an exp
    part."""
    model = get_model(name, params)
    factors = model.measure.factor_exponents
    if extra_factor is not None:
        factors += ((parse_poly(extra_factor, model.dim), Fraction(1)),)
    model.measure = replace(
        model.measure,
        factor_exponents=factors,
        exp_poly=parse_poly(exp_poly, model.dim) if exp_poly else None,
    )
    return model


@pytest.mark.parametrize(
    "model, kind, match",
    [
        (get_model("disk"), "tensor-gauss-square", "domain"),
        (get_model("disk", {"p": "0"}), "tensor-gauss-square", "domain"),
        (get_model("square"), "polar-gauss-disk", "domain"),
        (get_model("square"), "duffy-gauss-triangle", "domain"),
        (get_model("triangle"), "tensor-gauss-square", "domain"),
        (_with_density("jacobi1d", extra_factor="2 - x"), "tensor-gauss-square", "factor 2 - x"),
        (_with_density("square", exp_poly="-x"), "tensor-gauss-square", "exp part"),
        (_with_density("disk", extra_factor="2 + x"), "polar-gauss-disk", r"factor 2 \+ x"),
        (_with_density("disk", exp_poly="x"), "polar-gauss-disk", "exp part"),
        (_with_density("triangle", extra_factor="x + 1"), "duffy-gauss-triangle", r"factor 1 \+ x"),
        (_with_density("triangle", exp_poly="-y"), "duffy-gauss-triangle", "exp part"),
    ],
    ids=[
        "disk-on-square",
        "uniform-disk-on-square",
        "square-on-disk",
        "square-on-triangle",
        "triangle-on-square",
        "jacobi1d-extra-factor",
        "square-exp",
        "disk-extra-factor",
        "disk-exp",
        "triangle-extra-factor",
        "triangle-exp",
    ],
)
def test_gauss_rules_refuse_what_they_cannot_absorb(model, kind, match):
    # a Gauss rule integrates its own domain with its own weight factors; a
    # model cut out by other factors, or with a density part the weights do
    # not absorb, would be integrated wrongly without a word
    with pytest.raises(SamplerConfigError, match=match):
        sample_domain(model, DomainSampler(kind), 8)


def test_box_edge_detection():
    model = get_model("disk", {"p": "0"})
    check_box_encloses(model)
    model.box = [(-0.5, 0.5), (-1, 1)]
    with pytest.raises(SamplerConfigError):
        check_box_encloses(model)


@pytest.mark.parametrize(
    "name,cut,message",
    [
        ("jacobi1d", [(Fraction(-1, 2), 1)], "x1=-0.5"),
        (
            "triangle_cover_3d",
            [(0, 1), (0, 1), (Fraction(-1, 20), Fraction(1, 20))],
            "x3=-0.05",
        ),
    ],
)
def test_box_edge_detection_in_one_and_three_dimensions(name, cut, message):
    # a face of the box is a single point in 1D and a grid of a plane in 3D
    model = get_model(name)
    check_box_encloses(model)
    model.box = cut
    with pytest.raises(SamplerConfigError, match=message):
        check_box_encloses(model)


@pytest.mark.parametrize("degree", [0, 5, 13, 26])
def test_triangle_rule_equals_the_meshgrid_construction(degree):
    # the Duffy rule from the tensor-product builder against its direct
    # construction: the u and v rules crossed by meshgrid, the weights by
    # their outer product, bit for bit
    model = get_model("triangle")
    rule = sample_domain(model, model.sampler(), degree)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p, q, r = quadrature._gauss_exponents(model, [x, y, 1 - x - y], "Duffy Gauss")
    n = degree // 2 + 1
    u, wu = quadrature._jacobi_rule_01(n, float(q + r + 1), float(p))
    v, wv = quadrature._jacobi_rule_01(n, float(r), float(q))
    uu, vv = np.meshgrid(u, v, indexing="ij")
    points = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    assert np.array_equal(rule.points, points)
    assert np.array_equal(rule.weights, np.outer(wu, wv).ravel())


def test_deltoid_box_encloses_curve():
    model = get_model("deltoid")
    check_box_encloses(model)
    assert model.boundary.factors[0]((3, 0)) == 0


def test_cover_sampler_falls_back_off_tabulated_point():
    model = get_model("deltoid", {"p": "0"})
    assert model.sampler().kind == "mc-rejection"
    default = get_model("deltoid")
    assert default.sampler().kind == "cover-mc"


def test_noncompact_models_refuse_quadrature():
    from polydiff.catalog import CatalogError

    model = get_model("gaussian_plane")
    with pytest.raises(CatalogError):
        model.sampler()


@pytest.mark.parametrize(
    "name, kind, field",
    [
        ("disk", "mc-rejection", "sample_count"),
        ("deltoid", "cover-mc", "sample_count"),
    ],
)
def test_sampler_rejects_counts_below_one(name, kind, field):
    for count in (0, -1):
        with pytest.raises(SamplerConfigError, match=f"{field} must be at least 1"):
            DomainSampler(kind, **{field: count})
        with pytest.raises(SamplerConfigError, match=f"{field} must be at least 1"):
            get_model(name).sampler(**{field: count})
    # the smallest valid count still samples
    assert sampler_points(get_model(name), DomainSampler(kind, **{field: 1})).accepted in (0, 1)


def _naive_moments(moments: Moments) -> tuple[np.ndarray, np.ndarray]:
    """Plain weighted sums of x**a per exponent, and the sums of |terms|."""
    values, scales = [], []
    for exponent in moments.basis.exponents:
        terms = moments.weights * np.prod(moments.points ** np.array(exponent), axis=1)
        values.append(terms.sum())
        scales.append(np.abs(terms).sum())
    return np.array(values), np.array(scales)


@pytest.mark.parametrize(
    "name,sampler",
    [
        ("jacobi1d", None),
        ("square", None),
        ("triangle", None),
        ("disk", DomainSampler("mc-rejection", sample_count=40_000, seed=5)),
        ("deltoid", DomainSampler("cover-mc", sample_count=40_000, seed=5)),
        ("triangle_cover_3d", DomainSampler("mc-rejection", sample_count=60_000, seed=5)),
    ],
)
def test_moments_match_naive_weighted_sums(name, sampler):
    model = get_model(name)
    sampler = sampler or model.sampler()
    # the sampler's own points, which for deltoid are its Monte Carlo draw
    moments = moments_of(model, 8, sampler_points(model, sampler, 8))
    expected, scale = _naive_moments(moments)
    assert moments.values.shape == (len(moments.basis),)
    assert np.all(np.abs(moments.values - expected) <= 1e-12 * scale)
    assert moments.monomial((0,) * model.dim) == moments.values[0]


def test_moments_refuse_a_degree_above_the_rule():
    # the table holds x^a for every a_i <= 4, but the rule is exact only to
    # total degree 4: a Gram of degree 3 would read x^6 terms
    model = get_model("triangle")
    moments = Moments(model, 4, model.sampler())
    assert moments.table.shape == (5, 5)
    assert gram_matrix(moments, 2).shape == (6, 6)
    with pytest.raises(IndexError, match="above degree 4"):
        gram_matrix(moments, 3)
    with pytest.raises(IndexError, match="above degree 4"):
        moments.monomial((3, 2))


def test_moments_of_empty_sample_are_zero():
    model = get_model("disk", {"p": "0"})
    sampler = DomainSampler("mc-rejection", sample_count=2)
    empty = WeightedPoints(np.empty((0, 2)), np.empty(0), proposals=2)
    moments = moments_of(model, 6, empty)
    assert moments.points.shape == (0, 2)
    assert np.array_equal(moments.values, np.zeros(len(moments.basis)))


def test_symmetry_defect_refuses_moments_of_another_model():
    square, disk = get_model("square"), get_model("disk")
    with pytest.raises(ValueError, match="moments of Model\\(disk"):
        symmetry_defect(square, 3, square.sampler(), moments=Moments(disk, 6, disk.sampler()))
    # the same model at other parameters integrates another measure
    other = get_model("disk", {"p": "0"})
    assert other.params != disk.params
    with pytest.raises(ValueError, match="given for Model\\(disk"):
        symmetry_defect(disk, 3, disk.sampler(), moments=Moments(other, 6, other.sampler()))
    moments = Moments(get_model("disk"), 6, disk.sampler())
    assert symmetry_defect(disk, 3, disk.sampler(), moments=moments) == symmetry_defect(
        disk, 3, disk.sampler(), moments=Moments(disk, 6, disk.sampler())
    )


@pytest.mark.parametrize("count", [1, 2, 3])
def test_rejection_refuses_an_empty_sample(count):
    model = get_model("cuspidal_cubic_secant", {"p1": "2", "p2": "-1/2"})
    sampler = model.sampler(seed=5, sample_count=count)
    assert sampler.kind == "mc-rejection"
    message = f"none of the {count} proposals for cuspidal_cubic_secant"
    with pytest.raises(SamplerConfigError, match=message):
        sample_domain(model, sampler, 3)
    with pytest.raises(SamplerConfigError, match="landed in its domain"):
        symmetry_defect(model, 3, sampler)


def test_symmetry_defect_refuses_a_rule_without_positive_norms():
    # a rule whose weights are all zero gives every monomial norm zero: the
    # defect would divide by it and come out nan
    model = get_model("disk", {"p": "0"})
    rule = sample_domain(model, DomainSampler("polar-gauss-disk"), 6)
    moments = moments_of(model, 6, WeightedPoints(rule.points, 0.0 * rule.weights))
    with pytest.raises(ArithmeticError, match="no positive squared norm"):
        symmetry_defect(model, 3, None, moments=moments)


def _rowwise_rejection(model, sampler):
    """Reference rejection sample, a row per proposal: each block of
    (count, dim) proposals is masked factor by factor, the kept rows are
    stacked, and the density is evaluated afresh on them."""
    lo = np.array([float(a) for a, _ in model.box])
    span = np.array([float(b) for _, b in model.box]) - lo
    d, n = model.dim, sampler.sample_count
    kept = []
    for block in quadrature.point_chunks(n):
        count = block.stop - block.start
        u = uniform_block(sampler.seed, d * block.start, d * count)
        points = lo + span * u.reshape(count, d)
        mask = np.ones(count, dtype=bool)
        for f in model.boundary.factors:
            mask &= _termwise(f, points) > 0.0
        kept.append(points[mask])
    points = np.vstack(kept)
    density = np.ones(points.shape[0])
    for f, exponent in model.measure.factor_exponents:
        if exponent != 0:
            density *= np.power(np.abs(_termwise(f, points)), float(exponent))
    if model.measure.exp_poly is not None:
        density *= np.exp(_termwise(model.measure.exp_poly, points))
    return points, float(np.prod(span)) / n * density


def _off_boundary_density_model():
    """The unit disk with density (1 - r^2)^(-1/2) (2 + x)^(3/2) exp(-y^2):
    one density factor is no boundary factor, and the density has an exp
    part, so the sampler evaluates both itself."""
    from polydiff.operator import MeasureSpec

    model = copy.copy(get_model("disk", {"p": "-1/2"}))
    (disk,) = model.boundary.factors
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    model.measure = MeasureSpec(
        2, ((disk, Fraction(-1, 2)), (2 + x, Fraction(3, 2))), -(y * y)
    )
    return model


_GENERIC = ("1/3", "1/4", "3/2")


def _generic(name):
    from polydiff.catalog import get_descriptor

    specs = get_descriptor(name).param_specs
    return get_model(name, {s.name: _GENERIC[i % 3] for i, s in enumerate(specs)})


@pytest.mark.parametrize(
    "name", sorted(COVER_SAMPLERS) + ["triangle_cover_3d", "off-boundary density"]
)
def test_rejection_is_bit_identical_to_the_rowwise_reference(name):
    model = _off_boundary_density_model() if name == "off-boundary density" else _generic(name)
    # more than two blocks, the last one partial
    sampler = DomainSampler("mc-rejection", sample_count=2 * POINT_CHUNK + 777, seed=11)
    sample = sample_domain(model, sampler, 3)
    points, weights = _rowwise_rejection(model, sampler)
    assert 0 < sample.accepted < sampler.sample_count
    assert np.array_equal(sample.points, points)
    assert np.array_equal(sample.weights, weights)
    assert (sample.proposals, sample.accepted) == (sampler.sample_count, points.shape[0])


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS) + ["off-boundary density"])
def test_rejection_moments_do_not_depend_on_the_rule_layout(name):
    # the rule is a transposed view of per-axis rows sized by the proposal
    # count; the same points and weights copied to fresh contiguous arrays
    # must give the same moments bit for bit
    model = _off_boundary_density_model() if name == "off-boundary density" else _generic(name)
    sampler = DomainSampler("mc-rejection", sample_count=2 * POINT_CHUNK + 777, seed=11)
    sample = sample_domain(model, sampler, 6)
    copied = WeightedPoints(np.ascontiguousarray(sample.points), sample.weights.copy())
    assert not sample.points.flags.c_contiguous and copied.points.flags.c_contiguous
    in_place = moments_of(model, 6, sample)
    assert np.array_equal(in_place.table, moments_of(model, 6, copied).table)


def _symbolic_gamma_form(model, degree, moments):
    """Reference: operator.gamma per basis pair, summed against the moments
    term by term; also the sums of |terms|."""
    basis = MonomialBasis(model.dim, degree)
    size = len(basis)
    values, scales = np.empty((size, size)), np.empty((size, size))
    for k, ek in enumerate(basis.exponents):
        for l, el in enumerate(basis.exponents):
            p = gamma(
                model.cometric,
                Polynomial.monomial(model.dim, ek),
                Polynomial.monomial(model.dim, el),
            )
            terms = [float(c) * moments.monomial(e) for e, c in fraction_terms(p).items()]
            values[k, l] = sum(terms)
            scales[k, l] = sum(abs(t) for t in terms)
    return values, scales


@pytest.mark.parametrize("degree", [0, 1, 2, 13, 26])
@pytest.mark.parametrize("name", [n for n in model_names() if get_model(n).has_sampler])
def test_rule_moments_match_the_operators_exact_moments(name, degree):
    # every default rule, sized for the degree (13 is the claims'), against
    # the moments the operator fixes (GradedOperatorMatrix.moments): the
    # rule integrates the measure L is symmetric for, to roundoff relative
    # to E|x^a|, floored at 1 for the odd moments that vanish exactly
    model = get_model(name)
    moments = Moments(model, degree, model.sampler())
    assert sample_domain(model, model.sampler(), degree).proposals is None
    graded = GradedOperatorMatrix(model.operator, degree)
    numerators, denominator = graded.moments()
    exact = np.array([n / denominator for n in numerators])
    basis = moments.basis
    mass = moments.values[0]
    absolute = basis.eval_float(np.abs(moments.points)).T @ moments.weights / mass
    scale = np.maximum(absolute, 1.0)
    gap = np.abs(moments.values / mass - exact)
    assert np.all(gap <= 1e-12 * scale), float((gap / scale).max())


@pytest.mark.parametrize("name", [n for n in model_names() if get_model(n).has_sampler])
def test_gamma_form_matrix_matches_symbolic_reference(name):
    model = get_model(name)
    sampler = model.sampler(seed=3, sample_count=20_000)
    # the sampler's own points: the Monte Carlo draw on the covers
    moments = moments_of(model, 12, sampler_points(model, sampler, 12))
    basis = MonomialBasis(model.dim, 6)
    a, gram = gamma_form_matrix(basis, np.eye(len(basis)), moments)
    expected, term_scale = _symbolic_gamma_form(model, 6, moments)
    # the pointwise sum and the moment sum round differently; both are
    # bounded by the terms' magnitudes and, by Cauchy-Schwarz, by the
    # diagonal's
    diagonal = np.sqrt(np.abs(np.diag(a)))
    scale = np.maximum(term_scale, np.outer(diagonal, diagonal))
    assert np.all(np.abs(a - expected) <= 1e-12 * scale)
    assert np.array_equal(a, a.T)
    # the same pass integrates the Gram: the monomial moments, to the
    # roundoff of the same sums
    diagonal = np.sqrt(np.diag(gram))
    expected = gram_matrix(moments, 6)
    assert np.all(np.abs(gram - expected) <= 1e-12 * np.outer(diagonal, diagonal))
    assert np.array_equal(gram, gram.T)


# ----------------------------------------------------------------------
# exact cover rules and the Monte Carlo cross-check

def _sphere_moment(n: int, a) -> Fraction:
    """E[x^a] for x uniform on the unit sphere of R^n:
    prod (a_i - 1)!! / (n (n + 2) ... (n + |a| - 2)) when every a_i is even,
    else 0 (G. B. Folland, Amer. Math. Monthly 108, 2001)."""
    if any(k % 2 for k in a):
        return Fraction(0)
    numerator = math.prod(math.prod(range(k - 1, 0, -2)) for k in a)
    return Fraction(numerator, math.prod(n + 2 * i for i in range(sum(a) // 2)))


def _arcsine_moment(j: int) -> Fraction:
    """E[cos^j u] for u uniform on [0, pi]."""
    return Fraction(math.comb(j, j // 2), 2**j) if j % 2 == 0 else Fraction(0)


def _factor_moment(name: str, a) -> Fraction:
    """E[x^a] over one factor of the cover: an arcsine axis of the Chebyshev
    square, the sphere |u|^2 = 2 of swallowtail, one circle of the deltoid
    torus, or the unit sphere."""
    if name == "parabola_two_tangents":
        return _arcsine_moment(*a)
    if name == "swallowtail":
        return 2 ** Fraction(sum(a), 2) * _sphere_moment(3, a)
    return _sphere_moment(len(a), a)


def _ambient_rule_errors(name: str, exactness: int) -> list[float]:
    """|rule - exact| for every cover monomial of degree <= exactness in each
    factor's coordinates."""
    cover = COVER_SAMPLERS[name]
    points, weights = cover.nodes(exactness)
    assert points.shape == (weights.shape[0], sum(cover.factor_dims))
    errors = []
    for parts in itertools.product(*(MonomialBasis(d, exactness).exponents for d in cover.factor_dims)):
        exact = math.prod(_factor_moment(name, part) for part in parts)
        a = np.array(sum(parts, ()))
        errors.append(abs(weights @ np.prod(points**a, axis=1) - float(exact)))
    return errors


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_cover_rule_ambient_moments_are_exact(name):
    degree = COVER_SAMPLERS[name].degree
    for moment_degree in (1, 2):
        assert max(_ambient_rule_errors(name, moment_degree * degree)) < 1e-14


def test_sphere_moment_oracle_on_known_values():
    assert _sphere_moment(3, (2, 0, 0)) == Fraction(1, 3)
    assert _sphere_moment(3, (2, 2, 0)) == Fraction(1, 15)
    assert _sphere_moment(4, (4, 0, 0, 0)) == Fraction(1, 8)
    assert _sphere_moment(2, (2, 0)) == Fraction(1, 2)  # E[cos^2 s]
    assert _factor_moment("swallowtail", (2, 0, 0)) == Fraction(2, 3)  # |u|^2 = 2 over 3 axes
    assert _factor_moment("parabola_two_tangents", (4,)) == Fraction(3, 8)


# plane nodes of the default deterministic rules at the moment degree the
# claims integrate (13) and twice that (26)
RULE_NODE_COUNTS = {
    "jacobi1d": (7, 14),
    "square": (49, 196),
    "disk": (56, 189),
    "triangle": (49, 196),
    "coaxial_parabolas": (378, 1431),
    "parabola_tangent_secant": (1431, 5565),
    "nodal_cubic": (16000, 124820),
    "cuspidal_cubic_secant": (800, 3160),
    "cuspidal_cubic_tangent": (3160, 12403),
    "swallowtail": (1431, 5565),
    "parabola_two_tangents": (49, 196),
    "deltoid": (196, 729),
}


def test_rule_node_counts():
    counts = {}
    for name in RULE_NODE_COUNTS:
        model = get_model(name)
        counts[name] = tuple(
            sample_domain(model, model.sampler(), degree).accepted for degree in (13, 26)
        )
    assert counts == RULE_NODE_COUNTS


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_cover_rule_is_exact_at_its_plane_degree(name):
    # the rule for degree 13 keeps every node, and its plane moments equal
    # those of the rule for twice the degree
    model = get_model(name)
    sampler = model.sampler()
    rule = sample_domain(model, sampler, 13)
    assert rule.points.shape == (rule.weights.shape[0], 2)
    assert abs(rule.weights.sum() - 1.0) < 1e-14
    moments = moments_of(model, 13, rule)
    finer = moments_of(model, 13, sample_domain(model, sampler, 26))
    _, scale = _naive_moments(finer)
    assert np.all(np.abs(moments.values - finer.values) <= 1e-12 * scale)


def test_cover_rule_refuses_models_off_the_cover_point():
    with pytest.raises(SamplerConfigError):
        sample_domain(get_model("deltoid", {"p": "0"}), DomainSampler("cover-mc"), 3)
    with pytest.raises(SamplerConfigError):
        cover_cross_check(get_model("disk"), 3, DomainSampler("mc-rejection", sample_count=10))


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_cover_moments_integrate_the_exact_rule(name):
    # given only a cover-mc sampler, Moments integrates the cover rule: the
    # same moment table bit for bit as the cover's rule passed in as the
    # sample
    model = get_model(name)
    sampler = model.sampler()
    assert sampler.kind == "cover-mc"
    moments = Moments(model, 13, sampler)
    rule = moments_of(model, 13, WeightedPoints(*COVER_SAMPLERS[name].rule(13)))
    assert sample_domain(model, sampler, 13).proposals is None
    assert moments.table.tobytes() == rule.table.tobytes()
    assert moments.points.tobytes() == rule.points.tobytes()
    assert moments.weights.tobytes() == rule.weights.tobytes()


def exact_moments(model, degree: int) -> tuple[list[int], int]:
    """The model measure's exact moments to `degree`, as integer
    numerators over one denominator."""
    return GradedOperatorMatrix(model.operator, degree).moments()


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_exact_moments_match_the_degree_26_cover_rule(name):
    # the identity the cross-check's reference rests on: at its cover point
    # the model measure is the pushforward of the cover's, so the moments
    # that L fixes are those the cover's product rule integrates, here to
    # twice the claims' degree, on the scale of the claims' rule gate.  The
    # float rule's own roundoff is allowed beside it: deltoid's odd moments
    # of degree 26 are 0 while their |x^a| integrals reach 7e8, so the
    # rule's sums cancel to 2.2e-7 on the gate's scale alone
    model = get_model(name)
    sampler = model.sampler()
    rule = Moments(model, 26, sampler)
    numerators, denominator = exact_moments(model, 26)
    exact = np.array([n / denominator for n in numerators])
    assert numerators[0] == denominator
    absolute = moments_of(model, 26, WeightedPoints(np.abs(rule.points), rule.weights))
    error = np.abs(rule.values - exact)
    assert np.all(error <= 1e-10 * np.maximum(np.abs(exact), 1.0) + 1e-14 * absolute.values)
    # through the claims' degree the gate's scale alone holds
    assert rule_moment_gap(Moments(model, 13, sampler), (numerators, denominator)) < 1e-10
    if name != "deltoid":
        assert rule_moment_gap(rule, (numerators, denominator)) < 1e-10


def test_rule_moment_gap_is_the_largest_relative_moment_error():
    # a rule with its points moved out by 1% and its mass 0.1% high, against
    # Fractions of its moments and the exact ones
    model = get_model("coaxial_parabolas")
    sampler = model.sampler()
    rule = sample_domain(model, sampler, 4)
    moved = moments_of(model, 4, WeightedPoints(1.01 * rule.points, 1.001 * rule.weights))
    numerators, denominator = exact_moments(model, 6)
    gaps = [
        abs(Fraction(value) - Fraction(n, denominator)) / max(abs(Fraction(n, denominator)), 1)
        for value, n in zip(moved.values, numerators)
    ]
    assert max(gaps) > 2e-3
    assert rule_moment_gap(moved, (numerators, denominator)) == pytest.approx(
        float(max(gaps)), rel=1e-12, abs=0.0
    )
    # the rule is not divided by its mass: twice the weights read 1 at x^0
    doubled = moments_of(model, 4, WeightedPoints(rule.points, 2.0 * rule.weights))
    assert rule_moment_gap(doubled, (numerators, denominator)) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="stop below"):
        rule_moment_gap(moved, exact_moments(model, 3))


def test_moment_z_scores_refuse_a_variance_that_is_not_positive():
    # E[x^2] = E[x]^2: a point mass at x = 1/2 on the 1D basis
    basis = MonomialBasis(1, 1)
    exact = ([4, 2, 1], 4)
    with pytest.raises(ArithmeticError, match="no positive variance"):
        moment_z_scores(basis, np.array([1.0, 0.5]), exact, 10)
    z = moment_z_scores(basis, np.array([1.0, 0.6]), ([4, 2, 2], 4), 100)
    # variance 1/2 - 1/4
    assert z == pytest.approx([(0.6 - 0.5) / math.sqrt(0.25 / 100)], rel=1e-15)


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_cover_mc_moments_within_gate_and_bias_trips_it(name):
    model = get_model(name)
    sampler = model.sampler(seed=7)
    sample = sampler_points(model, sampler)
    exact = exact_moments(model, 26)
    mc = moments_of(model, 13, sample)
    assert np.abs(moment_z_scores(mc.basis, mc.values, exact, sample.proposals)).max() < MC_Z_GATE
    biased = WeightedPoints(sample.points, sample.weights * 1.01, sample.proposals)
    mc_biased = moments_of(model, 13, biased)
    z_biased = moment_z_scores(mc.basis, mc_biased.values, exact, sample.proposals)
    assert np.abs(z_biased).max() > MC_Z_GATE


@pytest.mark.parametrize("name", ["deltoid", "nodal_cubic"])
def test_moment_z_scores_match_naive_reference(name, monkeypatch):
    # z_a = (MC mean - exact mean) / sqrt(exact variance / proposals), with
    # the Monte Carlo mean a plain weighted sum over the draw and the exact
    # mean and variance Fractions; plain weighted sums over the degree-12
    # cover rule give the same z to roundoff
    model = get_model(name)
    sampler = model.sampler(seed=5, sample_count=50_000)
    sample = sampler_points(model, sampler)
    rule = sample_domain(model, sampler, 12)
    mc = moments_of(model, 6, sample)
    exact = exact_moments(model, 12)
    z = moment_z_scores(mc.basis, mc.values, exact, sample.proposals)
    numerators, denominator = exact
    index = MonomialBasis(2, 12).index
    expected, from_rule = [], []
    for a in MonomialBasis(2, 6).exponents[1:]:
        mean = Fraction(numerators[index[a]], denominator)
        second = Fraction(numerators[index[tuple(2 * e for e in a)]], denominator)
        a = np.array(a)
        mc = sample.weights @ np.prod(sample.points**a, axis=1)
        expected.append((mc - float(mean)) / math.sqrt(float(second - mean**2) / sample.proposals))
        mean = rule.weights @ np.prod(rule.points**a, axis=1)
        second = rule.weights @ np.prod(rule.points ** (2 * a), axis=1)
        from_rule.append((mc - mean) / math.sqrt((second - mean**2) / sample.proposals))
    assert np.allclose(z, expected, rtol=1e-8, atol=1e-8)
    assert np.allclose(z, from_rule, rtol=1e-8, atol=1e-8)
    # the cross-check integrates no rule for its reference
    def no_rule(*args):
        raise AssertionError("a rule was built")

    monkeypatch.setattr(quadrature, "sample_domain", no_rule)
    check = cover_cross_check(model, 6, sampler)
    assert (check.proposals, check.accepted) == (50_000, sample.accepted)
    assert check.max_z == np.abs(z).max()
    assert check.exact == exact


# at seed 7 and 100k proposals these covers drop boundary grazers, so the
# block tests below also cover blocks that lose points
GRAZED_AT_SEED_7 = ("cuspidal_cubic_tangent", "swallowtail")


@pytest.mark.parametrize(
    "name,params", [(name, None) for name in sorted(COVER_SAMPLERS)] + [("deltoid", {"p": "0"})]
)
def test_sample_is_invariant_under_the_block_size(name, params, monkeypatch):
    model = get_model(name, params)
    sampler = model.sampler(seed=7, sample_count=100_000)
    assert sampler.kind == ("mc-rejection" if params else "cover-mc")
    monkeypatch.setattr(quadrature, "POINT_CHUNK", sampler.sample_count)
    one_shot = sampler_points(model, sampler)
    if name in GRAZED_AT_SEED_7 and not params:
        assert one_shot.accepted < one_shot.proposals
    for rows in (4096, 6151):
        monkeypatch.setattr(quadrature, "POINT_CHUNK", rows)
        blocks = sampler_points(model, sampler)
        assert blocks.points.tobytes() == one_shot.points.tobytes()
        assert blocks.weights.tobytes() == one_shot.weights.tobytes()


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_streamed_cross_check_matches_the_materialized_sample(name):
    model = get_model(name)
    sampler = model.sampler(seed=7, sample_count=100_000)
    sample = sampler_points(model, sampler)
    mc = moments_of(model, 6, sample)
    exact = exact_moments(model, 12)
    max_z = np.abs(moment_z_scores(mc.basis, mc.values, exact, sample.proposals)).max()
    check = cover_cross_check(model, 6, sampler)
    assert (check.proposals, check.accepted) == (sample.proposals, sample.accepted)
    assert abs(check.max_z - max_z) <= 1e-9 * max_z


@pytest.mark.parametrize("name", ["deltoid", "nodal_cubic"])
def test_cross_check_never_holds_the_sample(name, monkeypatch):
    # the battery's cross-check: 1M proposals, moments to degree 13 against
    # the exact moments to degree 26, on two CPUs (one helper thread) so
    # that two blocks are in flight whatever the host has; each further CPU
    # adds about 4 MB.  Holding the 1M-point sample with its draw and moment
    # temporaries peaked at 61 MB (deltoid) and 92 MB (nodal_cubic); the
    # degree-26 cover rule the reference once integrated (124,820 nodes on
    # nodal_cubic) lifted the streamed peak there to 14.0 MB.  Now the peaks
    # are 9.7 MB (deltoid) and 9.1 MB (nodal_cubic); the bound leaves 2.3 MB
    # above them, more than one block's 1.8 MB power table.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    model = get_model(name)
    sampler = model.sampler(seed=7)
    assert sampler.sample_count == 1_000_000
    tracemalloc.start()
    try:
        check = cover_cross_check(model, 13, sampler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.proposals == 1_000_000
    assert peak < 12e6


def _cross_check_one_block_at_a_time(model, sampler, degree):
    """cover_cross_check's accepted count, Monte Carlo moments and max_z from
    its own block steps, the accept step and `_block_moments`, run on this
    thread one block after another and added in block order."""
    cover = COVER_SAMPLERS[model.name]
    n = sampler.sample_count
    table = np.zeros((degree + 1,) * model.dim)
    accepted = 0
    for block in quadrature.point_chunks(n):
        draw = cover.generate(sampler.seed, block.start, block.stop - block.start)
        coordinates, _ = quadrature._accept(model.boundary.factors, draw.T)
        kept = coordinates.shape[1]
        table += quadrature._block_moments(coordinates, np.full(kept, 1.0 / n), degree)
        accepted += kept
    basis = MonomialBasis(model.dim, degree)
    values = table[basis.exponent_columns]
    z = moment_z_scores(basis, values, exact_moments(model, 2 * degree), n)
    return accepted, values, float(np.abs(z).max())


@pytest.mark.parametrize("name", sorted(COVER_SAMPLERS))
def test_threaded_cross_check_adds_its_blocks_in_block_order(name, monkeypatch):
    # four CPUs whatever the host has, so three helper threads share the four
    # blocks with this one, and each block is drawn later than the next one:
    # the blocks finish in reverse order, and a sum taken in the order they
    # finish differs from the one in block order
    model = get_model(name)
    sampler = model.sampler(seed=7, sample_count=3 * POINT_CHUNK + 777)
    accepted, values, max_z = _cross_check_one_block_at_a_time(model, sampler, 13)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cover = COVER_SAMPLERS[name]
    threads = set()

    def generate(seed, start, count):
        threads.add(threading.get_ident())
        time.sleep(0.1 * (3 - start // POINT_CHUNK))
        return cover.generate(seed, start, count)

    # the Monte Carlo moments the pass scores, every one bit for bit
    scored = []

    def z_scores(basis, values, exact, proposals):
        scored.append(values)
        return moment_z_scores(basis, values, exact, proposals)

    monkeypatch.setitem(COVER_SAMPLERS, name, replace(cover, generate=generate))
    monkeypatch.setattr(quadrature, "moment_z_scores", z_scores)
    before = threading.active_count()
    check = cover_cross_check(model, 13, sampler)
    assert threading.active_count() == before
    assert len(threads) > 1
    assert check.accepted == accepted
    assert scored[0].tobytes() == values.tobytes()
    assert check.max_z.hex() == max_z.hex()

    def fail_on_block_2(seed, start, count):
        if start == 2 * POINT_CHUNK:
            raise RuntimeError("block 2")
        return cover.generate(seed, start, count)

    monkeypatch.setitem(COVER_SAMPLERS, name, replace(cover, generate=fail_on_block_2))
    with pytest.raises(RuntimeError, match="block 2"):
        cover_cross_check(model, 13, sampler)
    assert threading.active_count() == before


def test_block_sharing_takes_each_block_once_under_fast_thread_switches(monkeypatch):
    # eight threads on however many cores, switching every microsecond, over
    # 3,000 one-row blocks: a block taken twice or lost shows in the calls,
    # a result in the wrong slot in the list
    monkeypatch.setattr(quadrature, "POINT_CHUNK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    calls = []

    def task(block):
        calls.append(block.start)
        return block.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = quadrature._in_block_order(task, 3000)
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(3000))
    assert sorted(calls) == list(range(3000))
