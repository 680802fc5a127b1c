"""Scalar curvature of the 2D metrics and pullback identity checks.

Curvature treats the metric (g^ij)^-1 = adj(g^ij) / det as a conformal change
of the polynomial metric adj(g^ij) and collapses it, with the operator
layer's carre du champ and cometric rows, into one exact rational function
evaluated at rational sample points.  In dimension 2 the scalar curvature is
twice the Gaussian curvature, which is what gets reported.

Pullback checks evaluate an ambient Laplace operator (the unit sphere's as a
DiffusionOperator, or the flat plane's) on explicit component functions and
compare against the target model's cometric and drift at the mapped points,
after fitting a single positive scale: image identities are only ever
tabulated up to normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .catalog import Model, get_model
from .operator import CoMetric, DiffusionOperator, cometric_gradient, gamma
from .poly import Polynomial, exact_divide, parse_poly
from .rng import sphere_points, uniform_block

INTERIOR_MARGIN = Fraction(1, 1000)
CONSTANCY_TOL = 1e-6


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
        numerator = (
            delta * (det1 - det2 + divergence * half)
            - gamma(cometric, delta, delta) * Fraction(3, 4)
        )
        k = 2
        while k > 0:
            reduced = exact_divide(numerator, delta)
            if reduced is None:
                break
            numerator = reduced
            k -= 1
        self.k_num = numerator * 2  # scalar curvature is twice the Gaussian
        self.k_pow = k

    def curvature_exact(self, point: Sequence[Fraction]) -> Fraction:
        """Exact scalar curvature at a rational interior point."""
        den = self.det(point)
        if den <= 0:
            raise ValueError("curvature sample outside the elliptic region")
        return self.k_num(point) / den**self.k_pow


@dataclass
class CurvatureReport:
    points: np.ndarray
    values: np.ndarray
    mean: float
    max_deviation: float
    constant: bool

    @property
    def spread(self) -> float:
        return float(self.values.max() - self.values.min())


def curvature_constancy(model: Model, min_points: int = 100, per_axis: int = 16) -> CurvatureReport:
    """Verdict on curvature constancy over an interior grid.

    Constant iff max deviation from the mean is below 1e-6 * (1 + |mean|).
    Sample points keep every boundary factor above 1e-3 of its witness value
    so the metric stays uniformly elliptic.
    """
    points = model.interior_points(per_axis=per_axis, margin=INTERIOR_MARGIN)
    while len(points) < min_points and per_axis < 128:
        per_axis *= 2
        points = model.interior_points(per_axis=per_axis, margin=INTERIOR_MARGIN)
    if len(points) < min_points:
        raise ValueError(f"could not place {min_points} interior points for {model.name}")
    array = np.array([[float(c) for c in p] for p in points])
    evaluator = CurvatureEvaluator(model.cometric)
    # grid points are rational, so evaluate the collapsed quotient exactly
    values = np.array([float(evaluator.curvature_exact(p)) for p in points])
    mean = float(values.mean())
    deviation = float(np.abs(values - mean).max())
    return CurvatureReport(
        points=array,
        values=values,
        mean=mean,
        max_deviation=deviation,
        constant=deviation <= CONSTANCY_TOL * (1.0 + abs(mean)),
    )


def export_curvature_csv(path, report: CurvatureReport) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        dim = report.points.shape[1]
        writer.writerow([f"x{i + 1}" for i in range(dim)] + ["scalar_curvature"])
        for row, value in zip(report.points, report.values):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(value))])


# ----------------------------------------------------------------------
# pullback verification


@dataclass
class TrigComponent:
    """Finite sum of c * cos(f . z) / c * sin(f . z) terms on the plane."""

    terms: list[tuple[float, str, float, float]]  # (coef, kind, fx, fy)

    def eval(self, points: np.ndarray) -> np.ndarray:
        out = np.zeros(points.shape[0])
        for coef, kind, fx, fy in self.terms:
            phase = fx * points[:, 0] + fy * points[:, 1]
            out += coef * (np.cos(phase) if kind == "cos" else np.sin(phase))
        return out

    def derivative(self, axis: int) -> TrigComponent:
        new = []
        for coef, kind, fx, fy in self.terms:
            f = fx if axis == 0 else fy
            if kind == "cos":
                new.append((-coef * f, "sin", fx, fy))
            else:
                new.append((coef * f, "cos", fx, fy))
        return TrigComponent(new)

    def laplacian(self) -> TrigComponent:
        return TrigComponent(
            [(-coef * (fx * fx + fy * fy), kind, fx, fy) for coef, kind, fx, fy in self.terms]
        )


@dataclass
class PullbackSpec:
    """An ambient Laplace operator and a two-component map onto a model."""

    name: str
    ambient: str                     # "sphere" | "plane"
    target_model: str
    target_params: dict[str, str]
    sphere_dim: int | None = None
    sphere_maps: tuple[Polynomial, Polynomial] | None = None
    plane_maps: tuple[TrigComponent, TrigComponent] | None = None


@dataclass
class PullbackReport:
    name: str
    scale: float
    max_gamma_residual: float
    max_l_residual: float
    samples: int

    @property
    def max_residual(self) -> float:
        return max(self.max_gamma_residual, self.max_l_residual)


def sphere_operator(sphere_dim: int) -> DiffusionOperator:
    """Laplacian of the unit sphere S^d in ambient coordinates x of R^(d+1).

    Its cometric is delta_ij - x_i x_j and its drift is -d x, so restricted
    to the sphere it is the Laplace-Beltrami operator of the round metric.
    """
    n = sphere_dim + 1
    x = [Polynomial.variable(n, i) for i in range(n)]
    cometric = CoMetric([[int(i == j) - x[i] * x[j] for j in range(n)] for i in range(n)])
    return DiffusionOperator(cometric, tuple(xi * -sphere_dim for xi in x))


def verify_pullback(spec: PullbackSpec, sample_count: int = 1000, seed: int = 0) -> PullbackReport:
    """Compare ambient Gamma/Laplace values with the target model's data.

    One positive scalar s (applied to the whole target operator) is fitted by
    least squares on the Gamma entries before residuals are reported.
    """
    model = get_model(spec.target_model, spec.target_params)
    if spec.ambient == "sphere":
        sphere = sphere_operator(spec.sphere_dim)
        maps = spec.sphere_maps
        pts = sphere_points(seed, sample_count, sphere.dim)
        xy = np.column_stack([f.eval_float(pts) for f in maps])
        amb_gamma = {
            (a, b): gamma(sphere.cometric, maps[a], maps[b]).eval_float(pts)
            for a in range(2)
            for b in range(a, 2)
        }
        amb_l = [sphere.apply(f).eval_float(pts) for f in maps]
    elif spec.ambient == "plane":
        u = uniform_block(seed, 0, 2 * sample_count).reshape(sample_count, 2)
        pts = (2.0 * u - 1.0) * np.pi
        comps = spec.plane_maps
        xy = np.column_stack([c.eval(pts) for c in comps])
        grads = [[c.derivative(0), c.derivative(1)] for c in comps]
        amb_gamma = {}
        for a in range(2):
            for b in range(a, 2):
                amb_gamma[(a, b)] = (
                    grads[a][0].eval(pts) * grads[b][0].eval(pts)
                    + grads[a][1].eval(pts) * grads[b][1].eval(pts)
                )
        amb_l = [c.laplacian().eval(pts) for c in comps]
    else:
        raise ValueError(f"unknown ambient {spec.ambient!r}")

    # the map must land in the closed target domain
    for factor in model.boundary.factors:
        values = factor.eval_float(xy)
        witness_scale = float(factor(model.boundary.witness))
        if values.min() < -1e-12 * max(witness_scale, 1.0):
            raise ValueError(
                f"pullback map leaves the target domain (factor minimum {values.min()})"
            )

    target_gamma = {
        (a, b): model.cometric[a, b].eval_float(xy) for a in range(2) for b in range(a, 2)
    }
    numer = sum(float(np.dot(amb_gamma[k], target_gamma[k])) for k in amb_gamma)
    denom = sum(float(np.dot(target_gamma[k], target_gamma[k])) for k in target_gamma)
    scale = numer / denom if denom else 1.0
    max_gamma = max(
        float(np.abs(amb_gamma[k] - scale * target_gamma[k]).max()) for k in amb_gamma
    )
    drift = model.operator.drift
    max_l = max(
        float(np.abs(amb_l[a] - scale * drift[a].eval_float(xy)).max()) for a in range(2)
    )
    return PullbackReport(spec.name, scale, max_gamma, max_l, sample_count)


def _pullback_registry() -> dict[str, PullbackSpec]:
    sqrt3 = float(np.sqrt(3.0))
    specs = [
        PullbackSpec(
            name="sphere_coaxial",
            ambient="sphere",
            target_model="coaxial_parabolas",
            target_params={"a": "1", "p": "0", "q": "0"},
            sphere_dim=2,
            sphere_maps=(parse_poly("z", 3), parse_poly("2*x*y", 3)),
        ),
        PullbackSpec(
            name="sphere_cuspidal_secant",
            ambient="sphere",
            target_model="cuspidal_cubic_secant",
            target_params={"p1": "-1/2", "p2": "-1/2"},
            sphere_dim=2,
            sphere_maps=(parse_poly("x^2+y^2", 3), parse_poly("x^3-3*x*y^2", 3)),
        ),
        PullbackSpec(
            name="plane_deltoid",
            ambient="plane",
            target_model="deltoid",
            target_params={"p": "-1/2"},
            plane_maps=(
                TrigComponent(
                    [
                        (1.0, "cos", 2.0, 0.0),
                        (1.0, "cos", -1.0, sqrt3),
                        (1.0, "cos", -1.0, -sqrt3),
                    ]
                ),
                TrigComponent(
                    [
                        (1.0, "sin", 2.0, 0.0),
                        (1.0, "sin", -1.0, sqrt3),
                        (1.0, "sin", -1.0, -sqrt3),
                    ]
                ),
            ),
        ),
    ]
    return {s.name: s for s in specs}


PULLBACKS = _pullback_registry()
