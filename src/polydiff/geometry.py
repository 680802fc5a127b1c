"""Scalar curvature of the 2D metrics and pullback identity checks.

Curvature works on the metric g_ij = (g^ij)^-1 held as exact rational
functions (adjugate over determinant); all partial derivatives are taken
symbolically on those, and the collapsed Brioschi quotient is evaluated
exactly at rational sample points.  In dimension 2 the scalar curvature is
twice the Gaussian curvature, which is what gets reported.

Pullback checks evaluate an ambient Laplace operator (sphere or flat plane)
on explicit component functions and compare against the target model's
cometric and drift at the mapped points, after fitting a single positive
scale: image identities are only ever tabulated up to normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .catalog import Model, get_model
from .operator import CoMetric
from .poly import Polynomial, exact_divide, parse_poly
from .rng import sphere_points, uniform_block

INTERIOR_MARGIN = Fraction(1, 1000)
CONSTANCY_TOL = 1e-6


class CurvatureEvaluator:
    """Brioschi scalar curvature for a 2D cometric.

    The metric is the inverse cometric, so every entry and every derivative
    in the Brioschi determinants is (polynomial) / det^k for the exact
    cometric determinant.  The whole combination is collapsed symbolically
    into a single quotient N / det^k once per metric; the massive near-
    boundary cancellations therefore happen in exact arithmetic, and points
    only ever see a small numerator and a power of the determinant.
    """

    def __init__(self, cometric: CoMetric):
        if cometric.dim != 2:
            raise ValueError("curvature is implemented for 2D metrics only")
        self.cometric = cometric
        delta = cometric.det()
        self.det = delta

        # values are pairs (P, k) meaning P / delta^k
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
        m11 = add(mul(e, g), scale(mul(f, f), -1))  # = delta / delta^2
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


def _sphere_fields(maps: Sequence[Polynomial], sphere_dim: int):
    """Exact ambient polynomials needed for the restricted Laplace/Gamma."""
    ambient = maps[0].dim
    grads = [f.gradient() for f in maps]
    radial = []
    for f, grad in zip(maps, grads):
        r = Polynomial.zero(ambient)
        for i in range(ambient):
            r = r + Polynomial.variable(ambient, i) * grad[i]
        radial.append(r)
    radial2 = []
    for r in radial:
        rr = Polynomial.zero(ambient)
        for i in range(ambient):
            rr = rr + Polynomial.variable(ambient, i) * r.derivative(i)
        radial2.append(rr)
    lap = []
    for f in maps:
        l = Polynomial.zero(ambient)
        for i in range(ambient):
            l = l + f.derivative(i).derivative(i)
        lap.append(l)
    gamma_e = {}
    for a in range(2):
        for b in range(a, 2):
            g = Polynomial.zero(ambient)
            for i in range(ambient):
                g = g + grads[a][i] * grads[b][i]
            gamma_e[(a, b)] = g
    return radial, radial2, lap, gamma_e


def verify_pullback(spec: PullbackSpec, sample_count: int = 1000, seed: int = 0) -> PullbackReport:
    """Compare ambient Gamma/Laplace values with the target model's data.

    One positive scalar s (applied to the whole target operator) is fitted by
    least squares on the Gamma entries before residuals are reported.
    """
    model = get_model(spec.target_model, spec.target_params)
    if spec.ambient == "sphere":
        ambient_dim = spec.sphere_maps[0].dim
        pts = sphere_points(seed, sample_count, ambient_dim)
        radial, radial2, lap, gamma_e = _sphere_fields(spec.sphere_maps, spec.sphere_dim)
        d = spec.sphere_dim
        xy = np.column_stack([f.eval_float(pts) for f in spec.sphere_maps])
        amb_gamma = {}
        rvals = [r.eval_float(pts) for r in radial]
        for (a, b), g in gamma_e.items():
            amb_gamma[(a, b)] = g.eval_float(pts) - rvals[a] * rvals[b]
        amb_l = [
            lap[a].eval_float(pts)
            - radial2[a].eval_float(pts)
            - (d - 1) * rvals[a]
            for a in range(2)
        ]
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
