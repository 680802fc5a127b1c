"""Scalar curvature of the 2D metrics and pullback identity checks.

Curvature treats the metric (g^ij)^-1 = adj(g^ij) / det as a conformal change
of the polynomial metric adj(g^ij) and collapses it, with the operator
layer's cometric rows, into one exact rational function evaluated at
rational sample points, each value an integer numerator over a positive
integer denominator.  The sample points are one interior grid
(`Model.interior_points`, a `poly.TensorGrid` of integer axes over one
denominator): the grid's sign test, the curvature numerator and the
determinant all read those axes, and the points become float tuples only
when a report's points are read.  In dimension 2 the scalar curvature is
twice the Gaussian curvature, which is what gets reported.

Pullback checks take a model's cover from `quadrature.COVER_SAMPLERS` (its
polynomial operator, ideal and maps) and decide the realization exactly:
the cover's carre du champ and Laplacian of the maps must equal one
rational multiple of the model's cometric and drift at the maps, modulo the
cover's ideal.  The multiple is reported, because image identities are only
ever tabulated up to normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .catalog import Model
from .operator import CoMetric, cometric_gradient, gamma
from .poly import Polynomial, TensorGrid, exact_divide, poly_divmod
from .quadrature import _applicable_cover, eval_floats

INTERIOR_MARGIN = Fraction(1, 1000)
#: nodes per axis of the first interior grid `curvature_constancy` tries
CURVATURE_GRID = 16


class CurvatureEvaluator:
    """Scalar curvature of the metric h^-1 for a 2D cometric h.

    With delta = det h, the metric h^-1 = adj(h) / delta is the conformal
    change by 1/delta of the polynomial metric adj(h), whose entries are
    E = h^11, F = -h^01, G = h^00 with EG - F^2 = delta.  The conformal
    change formula K(e^(2 phi) g) = e^(-2 phi) (K(g) - Lap_g phi) then gives

        K = [delta (det1 - det2 + div(h grad delta) / 2)
             - 3/4 Gamma_h(delta, delta)] / delta^2

    with det1, det2 the Brioschi determinants of the polynomials E, F, G.
    The quotient is collapsed into one N / delta^k once per metric, so the
    near-boundary cancellations happen in exact arithmetic and points only
    ever see a small numerator and a power of the determinant.

    `constant` is the exact constant curvature, or None.  The collapse
    divides delta out of N for as long as the division is exact, so when
    k > 0, delta does not divide N and N / delta^k is not a polynomial,
    let alone a constant.  K is therefore constant exactly when k == 0 and
    N has degree <= 0.
    """

    def __init__(self, cometric: CoMetric):
        if cometric.dim != 2:
            raise ValueError("curvature is implemented for 2D metrics only")
        self.cometric = cometric
        delta = cometric.det()
        self.det = delta

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
        # Gamma_h(delta, delta) = sum_i rows_i d_i delta, from the rows above
        d_u, d_v = delta.gradient()
        carre = rows[0] * d_u + rows[1] * d_v
        numerator = delta * (det1 - det2 + divergence * half) - carre * Fraction(3, 4)
        k = 2
        while k > 0:
            reduced = exact_divide(numerator, delta)
            if reduced is None:
                break
            numerator = reduced
            k -= 1
        self.k_num = numerator * 2  # scalar curvature is twice the Gaussian
        self.k_pow = k
        is_constant = self.k_pow == 0 and self.k_num.total_degree <= 0
        self.constant = self.k_num.constant_term if is_constant else None

    def curvature_exact(self, grid: TensorGrid) -> list[tuple[int, int]]:
        """Exact scalar curvature at the rational interior points of a
        tensor grid, in order, each as (integer numerator, integer
        denominator > 0), not reduced.

        The numerator and det are each evaluated in one `grid_values` pass
        over the grid's integer axes.
        """
        k_nums, k_den = self.k_num.grid_values(grid.axes, grid.denominator)
        dets, det_den = self.det.grid_values(grid.axes, grid.denominator)
        if any(dets[node] <= 0 for node in grid.nodes):
            raise ValueError("curvature sample outside the elliptic region")
        # (n / k_den) / (d / det_den)^k with k_den, det_den > 0
        scale = det_den**self.k_pow
        return [(k_nums[node] * scale, k_den * dets[node] ** self.k_pow) for node in grid.nodes]


@dataclass
class CurvatureReport:
    grid: TensorGrid  # the interior points sampled
    values: np.ndarray
    mean: float
    value: Fraction | None  # the exact constant curvature, None if not constant

    @property
    def points(self) -> np.ndarray:
        """The sample points as floats, built only when read: the verdict
        and the values never need them."""
        return np.array(list(self.grid), dtype=float)

    @property
    def constant(self) -> bool:
        return self.value is not None

    @property
    def spread(self) -> float:
        return float(self.values.max() - self.values.min())


def curvature_constancy(model: Model, min_points: int = 100) -> CurvatureReport:
    """The exact constancy verdict, with curvature values over an interior grid.

    The verdict is `CurvatureEvaluator.constant`; the grid supplies the
    reported values, their mean and spread.  Each grid tried is
    `Model.interior_points(per_axis, INTERIOR_MARGIN)`, so sample points
    keep every boundary factor above 1e-3 of its witness value and the
    metric stays uniformly elliptic.  It starts at CURVATURE_GRID nodes per
    axis and doubles, up to 128, until `min_points` lie inside.  The chosen
    grid feeds `curvature_exact` as it was built.
    """
    per_axis = CURVATURE_GRID
    grid = model.interior_points(per_axis, INTERIOR_MARGIN)
    while len(grid) < min_points and per_axis < 128:
        per_axis *= 2
        grid = model.interior_points(per_axis, INTERIOR_MARGIN)
    if len(grid) < min_points:
        raise ValueError(f"could not place {min_points} interior points for {model.name}")
    evaluator = CurvatureEvaluator(model.cometric)
    # grid points are rational, so evaluate the collapsed quotient exactly;
    # int / int is correctly rounded, as float(Fraction) is
    values = np.array([n / d for n, d in evaluator.curvature_exact(grid)])
    return CurvatureReport(grid, values, float(values.mean()), evaluator.constant)


def export_curvature_csv(path, report: CurvatureReport) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        points = report.points
        writer.writerow([f"x{i + 1}" for i in range(points.shape[1])] + ["scalar_curvature"])
        for row, value in zip(points, report.values):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(value))])


# ----------------------------------------------------------------------
# pullback verification

#: plane degree of the cover rule whose nodes the domain check maps
DOMAIN_CHECK_DEGREE = 13


@dataclass
class PullbackReport:
    scale: Fraction
    gamma_residual_terms: int
    l_residual_terms: int
    in_domain: bool

    @property
    def exact(self) -> bool:
        return not (self.gamma_residual_terms or self.l_residual_terms)


def _normal_form(p: Polynomial, ideal: Sequence[Polynomial]) -> Polynomial:
    """Remainder of p modulo the cover ideal.

    Every cover ideal is generated by polynomials with pairwise coprime
    leading monomials (one sphere equation, or one circle equation per torus
    factor), so they form a Groebner basis and dividing by one after the
    other leaves the unique normal form: zero iff p is in the ideal.
    """
    for generator in ideal:
        p = poly_divmod(p, generator)[1]
    return p


def verify_pullback(model: Model) -> PullbackReport:
    """The model's cover realization as an exact polynomial identity.

    With f the cover's maps, Gamma_cover(f_a, f_b) - s g^ab(f) and
    L_cover f_a - s b^a(f) must vanish modulo the cover's ideal for one
    rational scale s, which is read off the leading term of the reduced
    g^00(f); the report counts the terms of the reduced differences.  It
    also says whether the maps land in the closed target domain at the
    nodes of the cover rule.
    """
    cover = _applicable_cover(model)
    maps, op = cover.maps, cover.operator
    pairs = [(a, b) for a in range(2) for b in range(a, 2)]
    ambient = [gamma(op.cometric, maps[a], maps[b]) for a, b in pairs]
    ambient += [op.apply(f) for f in maps]
    target = [model.cometric[a, b].compose(maps) for a, b in pairs]
    target += [b.compose(maps) for b in model.operator.drift]
    ambient = [_normal_form(p, cover.ideal) for p in ambient]
    target = [_normal_form(p, cover.ideal) for p in target]
    exponent, coeff = target[0].leading_term()
    scale = Fraction(ambient[0].numerators.get(exponent, 0), ambient[0].denominator) / coeff
    residuals = [len((p - q * scale).numerators) for p, q in zip(ambient, target)]

    # every boundary factor stays >= 0, up to roundoff, at the mapped nodes
    points, _ = cover.rule(DOMAIN_CHECK_DEGREE)
    factors = model.boundary.factors
    in_domain = all(
        values.min() >= -1e-12 * max(float(factor(model.boundary.witness)), 1.0)
        for factor, values in zip(factors, eval_floats(factors, points.T))
    )
    split = len(pairs)
    return PullbackReport(scale, sum(residuals[:split]), sum(residuals[split:]), in_domain)
