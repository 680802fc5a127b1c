"""Executable reconciliation of every tabulated catalog claim.

Each Claim binds one machine-checkable statement (an exact polynomial
identity, an exact eigenvalue table, a numeric tolerance, or a negative
control that must fail) to a runner.  The registry is the package's coverage
ledger: every catalog model contributes at least one claim, and the claim id
list is pinned by a checked-in manifest.

Where the source tables print a garbled drift, the catalog keeps that text
as an erratum beside the corrected formulas: the claim gates on the
corrected ones and reports the paper's text as `tabulated`.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import count
from math import lcm
from pathlib import Path
from typing import Callable

from .boundary import (
    AdmissibilitySolution,
    BoundarySpec,
    check_ellipticity,
    det_divisibility_check,
    det_power_measure,
    solve_admissibility,
)
from .catalog import DEFAULT_SEED, Model, get_model, model_names
from .geometry import curvature_constancy, verify_pullback
from .linalg import RationalMatrix
from .operator import (
    CoMetric,
    DiffusionOperator,
    GradedOperatorMatrix,
    InadmissibleMeasureError,
    boundary_first_order,
    cometric_gradient,
    drift_from_measure,
    gamma,
    product_operator,
)
from .poly import MonomialBasis, Polynomial, format_poly, parse_poly, parse_rational
from .quadrature import Moments, cover_cross_check, rule_moment_gap, symmetry_defect
from .rng import stream_uniform
from .spectra import compare_closed_form, eigenbasis, graded_eigenvalues, pencil_gaps

DEFECT_TOL = 1e-8
# gate on the largest |z| of 104 correlated, about standard-normal moment
# errors (3.4 at most over 17 seeds); a 1% bias in the Monte Carlo weights
# reads 9 to 22 at 1M proposals
MC_Z_GATE = 5.0
# gate on a cover rule's largest relative moment error against the exact
# moments (at most 8.5e-12, on deltoid); dropping its boundary nodes reads
# 1e-3 or more
RULE_GAP_TOL = 1e-10
GRAM_TOL = 1e-6
# relative gap between the energy pencil and the graded spectrum, on every
# sampled model
CROSS_TOL = 1e-6
RESIDUAL_TOL = 1e-7
TRIANGULARITY_DEGREE = 12
_PACKAGE_DIR = Path(__file__).resolve().parent


@dataclass
class ClaimResult:
    id: str
    model: str
    kind: str
    status: str  # "pass" | "fail" | "skip"
    detail: dict
    note: str | None = None

    def to_jsonable(self) -> dict:
        out = {
            "id": self.id,
            "model": self.model,
            "kind": self.kind,
            "status": self.status,
            "detail": self.detail,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class Claim:
    id: str
    model: str
    kind: str
    run: Callable[["RunContext"], tuple[bool, dict]]
    note: str | None = None

    def execute(self, ctx: RunContext) -> ClaimResult:
        try:
            ok, detail = self.run(ctx)
        except Exception as exc:  # a crash is a failed claim, not a crashed run
            return ClaimResult(
                self.id, self.model, self.kind, "fail",
                {"error": f"{type(exc).__name__}: {exc}", "frame": _crash_frame(exc)},
                self.note,
            )
        return ClaimResult(
            self.id, self.model, self.kind, "pass" if ok else "fail", detail, self.note
        )


def _crash_frame(exc: BaseException) -> str:
    """The innermost traceback frame inside the package, as
    "polydiff/<module>.py:<line> in <function>", independent of the checkout."""
    frames = [(Path(f.filename).resolve(), f) for f in traceback.extract_tb(exc.__traceback__)]
    # Claim.execute itself is always one
    path, frame = [(p, f) for p, f in frames if p.is_relative_to(_PACKAGE_DIR)][-1]
    return f"{path.relative_to(_PACKAGE_DIR.parent).as_posix()}:{frame.lineno} in {frame.name}"


class RunContext:
    """Shared caches so one verify run integrates each model once.

    `moments` integrate the model's default rule, which for a cover-mc
    model is its exact cover rule (`quadrature.Moments`); its Monte Carlo
    sample is drawn only by the symmetry-defect claim's cross-check, which
    streams it block by block into a moment table, so no point cloud is
    held or cached, and holds it against the exact moments of the measure.
    The claim tolerances are those of a deterministic rule, so a model
    whose rule is mc-rejection raises before any point is drawn.
    """

    def __init__(self, seed: int = DEFAULT_SEED):
        self.seed = seed
        self._models: dict = {}
        self._moments: dict = {}

    def model(self, name: str, params: dict | None = None) -> Model:
        key = (name, tuple(sorted((params or {}).items())))
        if key not in self._models:
            self._models[key] = get_model(name, params)
        return self._models[key]

    def moments(self, model: Model, degree: int) -> Moments:
        key = (model.name, tuple(sorted(model.params.items())))
        cached = self._moments.get(key)
        if cached is None or cached.basis.max_degree < degree:
            sampler = model.sampler(seed=self.seed)
            if sampler.kind == "mc-rejection":
                raise ValueError(f"{model.name} has no deterministic rule at these parameters")
            cached = Moments(model, degree, sampler)
            self._moments[key] = cached
        return cached


# ----------------------------------------------------------------------
# per-model claims, each bound to its model's name in build_claims


def _boundary_residual(ctx: RunContext, name: str):
    model = ctx.model(name)
    g = model.cometric
    detail = {"factors": len(model.boundary.factors), "first_order": []}
    for factor in model.boundary.factors:
        s = boundary_first_order(g, factor)
        if s is None:
            return False, {"factor": str(factor), "error": "no affine multiplier"}
        for i, lhs in enumerate(cometric_gradient(g, factor)):
            if lhs - s[i] * factor != Polynomial.zero(g.dim):
                return False, {"factor": str(factor), "axis": i, "error": "nonzero residual"}
        detail["first_order"].append([str(p) for p in s])
    return True, detail


def _det_divisibility(ctx: RunContext, name: str):
    model = ctx.model(name)
    report = det_divisibility_check(model.cometric, model.boundary)
    detail = {"divides": report.divides, "quotient_degree": report.quotient_degree}
    return report.divides, detail


def _ellipticity(ctx: RunContext, name: str):
    model = ctx.model(name)
    per_axis = 10 if model.dim <= 2 else 5
    points = model.interior_points(per_axis=per_axis)
    if not points:
        return False, {"error": "no interior grid points"}
    report = check_ellipticity(model.cometric, points)
    if report.elliptic:
        return True, {"checked": len(points), "elliptic": True}
    return False, {"elliptic": False, "first_failure": [str(v) for v in report.first_failure]}


def _drift_degree(ctx: RunContext, name: str):
    model = ctx.model(name)
    drift = model.operator.drift
    degrees = [int(b.total_degree) if not b.is_zero else 0 for b in drift]
    return all(d <= 1 for d in degrees), {
        "drift": [str(b) for b in drift],
        "degrees": degrees,
    }


def _drift_claim(ctx: RunContext, name: str):
    model = ctx.model(name)
    derived = model.operator.drift
    claimed = model.claimed_drift()
    erratum = model.drift_erratum()
    detail = {"derived": [str(b) for b in derived]}
    if erratum is None:
        detail["tabulated"] = [str(c) for c in claimed]
    else:
        # the paper's text, kept beside the corrected formulas the claim gates on
        detail["tabulated"] = [str(c) for c in erratum]
        detail["erratum"] = True
        detail["corrected"] = [str(c) for c in claimed]
    matches = [c == d for c, d in zip(claimed, derived)]
    detail["matches"] = matches
    return all(matches), detail


def _spectrum_claim(ctx: RunContext, name: str):
    model = ctx.model(name)
    degree = 12 if model.dim == 1 else 8
    mismatched = compare_closed_form(model, degree)
    return not mismatched, {"max_degree": degree, "mismatched_degrees": mismatched}


def _graded_triangularity(ctx: RunContext, name: str):
    model = ctx.model(name)
    graded = GradedOperatorMatrix(model.operator, TRIANGULARITY_DEGREE)
    bad = graded.strictly_lower_block_entries()
    return not bad, {"max_degree": TRIANGULARITY_DEGREE, "violations": len(bad)}


def _curvature_claim(ctx: RunContext, name: str):
    model = ctx.model(name)
    kind, value = model.claimed_curvature()
    report = curvature_constancy(model)
    detail = {
        "verdict": "constant" if report.constant else "non-constant",
        "mean": report.mean,
        "value": None if report.value is None else str(report.value),
        "spread": report.spread,
        "points": int(len(report.values)),
    }
    if kind == "constant":
        detail["tabulated"] = str(value)
    # value is None for a non-constant tabulation
    return report.value == value, detail


def _pullback_claim(ctx: RunContext, name: str):
    model = ctx.model(name)
    report = verify_pullback(model)
    detail = {
        "map": model.pullback_name(),
        "scale": str(report.scale),
        "gamma_residual_terms": report.gamma_residual_terms,
        "L_residual_terms": report.l_residual_terms,
        "in_domain": report.in_domain,
    }
    return report.exact and report.in_domain, detail


def _symmetry_defect_claim(ctx: RunContext, name: str):
    model = ctx.model(name)
    sampler = model.sampler(seed=ctx.seed)
    moments = ctx.moments(model, 2 * 6 + 1)
    defect = symmetry_defect(model, 6, sampler, moments=moments)
    ok = defect < DEFECT_TOL
    detail = {"degree": 6, "defect": defect, "tolerance": DEFECT_TOL}
    if sampler.kind == "cover-mc":
        # the Monte Carlo run and the rule are both held against the exact
        # moments of the measure, the rule through their degree-13 prefix
        check = cover_cross_check(model, moments.basis.max_degree, sampler)
        gap = rule_moment_gap(moments, check.exact)
        ok = ok and check.max_z < MC_Z_GATE and gap < RULE_GAP_TOL
        detail.update(
            mc_proposals=check.proposals,
            mc_accepted=check.accepted,
            mc_max_z=check.max_z,
            mc_z_gate=MC_Z_GATE,
            rule_moment_gap=gap,
            rule_gap_tolerance=RULE_GAP_TOL,
        )
    return ok, detail


def _eigenbasis_claim(ctx: RunContext, name: str):
    eb = eigenbasis(ctx.moments(ctx.model(name), 2 * 6 + 1), 6)
    gram_dev = eb.gram_deviation()
    residual = max(eb.residuals())
    cross = float(pencil_gaps(eb).max())
    ok = gram_dev < GRAM_TOL and residual < RESIDUAL_TOL and cross < CROSS_TOL
    return ok, {
        "gram_deviation": gram_dev,
        "gram_tolerance": GRAM_TOL,
        "max_residual": residual,
        "numeric_block_functions": sum(not f.exact for f in eb.all_functions()),
        "pencil_cross_check": cross,
    }


# ----------------------------------------------------------------------
# global claims


def _unique_metric_dimensions(ctx: RunContext):
    expected = {
        "deltoid": 1,
        "nodal_cubic": 1,
        "swallowtail": 1,
        "parabola_two_tangents": 1,
        "cuspidal_cubic_secant": 1,
        "cuspidal_cubic_tangent": 1,
        "parabola_tangent_secant": 1,
        "triangle": 3,
    }
    detail = {}
    ok = True
    for name, dim in expected.items():
        solution = solve_admissibility(ctx.model(name).boundary)
        detail[name] = {"dimension": solution.dimension}
        ok = ok and solution.dimension == dim
    return ok, detail


def _square_disk_regression(ctx: RunContext):
    # raw kernel dimensions established by this solver and frozen
    frozen = {"square": 2, "disk": 4}
    detail = {}
    ok = True
    for name, dim in frozen.items():
        solution = solve_admissibility(ctx.model(name).boundary)
        detail[name] = solution.dimension
        ok = ok and solution.dimension == dim
    return ok, detail


def _coaxial_extra_family(ctx: RunContext):
    spec = BoundarySpec(
        2,
        (parse_poly("1+y-x^2", 2), parse_poly("1-y", 2)),
        (Fraction(0), Fraction(0)),
    )
    solution = solve_admissibility(spec)
    return solution.dimension >= 2, {"dimension": solution.dimension}


def _in_span(solution: AdmissibilitySolution, g: CoMetric) -> bool:
    """Is the cometric g a combination of the admissible kernel basis?"""
    d = g.dim
    entries = [(i, j) for i in range(d) for j in range(i, d)]
    # one equation per cometric entry and monomial: the coefficients there of
    # each basis cometric and of g, as (numerator, denominator) pairs
    equations: dict[tuple, dict[int, tuple[int, int]]] = {}
    for column, h in enumerate([*solution.g_basis, g]):
        for i, j in entries:
            p = h[i, j]
            for exponent, n in p.numerators.items():
                equations.setdefault((i, j, exponent), {})[column] = (n, p.denominator)
    rows = []
    for equation in equations.values():
        # each equation scaled to integers, which keeps its solutions
        scale = lcm(*(den for _, den in equation.values()))
        rows.append({k: n * (scale // den) for k, (n, den) in equation.items()})
    # the g-parts of the kernel basis are independent, since S_k^i F_k =
    # sum_j g^ij d_j F_k fixes S from g, so a weight vector is unique
    solved = RationalMatrix(rows, len(solution.g_basis) + 1).solve()
    if solved is None:
        return False
    weights, den = solved
    return solution.combination([Fraction(w, den) for w in weights]) == g


def _catalog_metric_in_span(ctx: RunContext):
    names = [
        "jacobi1d", "square", "disk", "triangle", "coaxial_parabolas",
        "parabola_tangent_secant", "parabola_two_tangents", "nodal_cubic",
        "cuspidal_cubic_secant", "cuspidal_cubic_tangent", "swallowtail",
        "deltoid", "triangle_cover_3d", "nodal_cubic_cover_3d",
    ]
    detail = {}
    ok = True
    for name in names:
        model = ctx.model(name)
        solution = solve_admissibility(model.boundary)
        member = _in_span(solution, model.cometric)
        detail[name] = {"dimension": solution.dimension, "in_span": member}
        ok = ok and member
    return ok, detail


def _sum_identity(ctx: RunContext):
    # summing the per-factor first-order data reproduces the identity for the
    # full boundary product
    detail = {}
    ok = True
    for name in ["triangle", "square", "parabola_two_tangents", "cuspidal_cubic_secant"]:
        model = ctx.model(name)
        g = model.cometric
        product = model.boundary.product()
        total = [Polynomial.zero(model.dim) for _ in range(model.dim)]
        for factor in model.boundary.factors:
            s = boundary_first_order(g, factor)
            for i in range(model.dim):
                total[i] = total[i] + s[i]
        good = all(
            lhs == total[i] * product for i, lhs in enumerate(cometric_gradient(g, product))
        )
        detail[name] = good
        ok = ok and good
    return ok, detail


def _quartic_boundary_negative(ctx: RunContext):
    spec = BoundarySpec(2, (parse_poly("1-x^4-y^4", 2),), (Fraction(0), Fraction(0)))
    solution = solve_admissibility(spec)
    # no nonzero admissible cometric at all, so none is elliptic
    return solution.dimension == 0, {"dimension": solution.dimension}


def _nodal_inverse_sqrt_det(ctx: RunContext):
    model = ctx.model("nodal_cubic")
    measure = det_power_measure(model.cometric, model.boundary, Fraction(-1, 2))
    try:
        drift_from_measure(model.cometric, measure)
    except InadmissibleMeasureError as exc:
        return True, {"rejected": True, "reason": str(exc)}
    return False, {"rejected": False}


def _perturbed_drift_negative(ctx: RunContext):
    model = ctx.model("square")

    class Perturbed:
        def __init__(self, op: DiffusionOperator):
            self.op = op
            self.extra = Polynomial.monomial(op.dim, (2, 0))

        def apply(self, f: Polynomial) -> Polynomial:
            return self.op.apply(f) + self.extra * f.derivative(0)

    defect = symmetry_defect(
        model, 3, model.sampler(seed=ctx.seed), operator=Perturbed(model.operator)
    )
    return defect > 0.1, {"defect": defect}


def _corrupted_spectrum_negative(ctx: RunContext):
    model = ctx.model("deltoid")
    claimed = model.claimed_spectrum()
    mismatched = graded_eigenvalues(model.operator, 6).mismatched_degrees(
        lambda n: sorted(v + 1 for v in claimed.eigenvalues_at_degree(n)), range(1, 7)
    )
    return mismatched == list(range(1, 7)), {"mismatched_degrees": mismatched}


def _ellipticity_partway_negative(ctx: RunContext):
    # 2 g0 - 2 g1 + g2 in the disk's kernel basis: admissible (S = (-2x, y)),
    # elliptic at the first 12 points of the disk's grid, not at the 13th
    model = ctx.model("disk")
    rows = [["1 - x^2 + y^2/2", "-3*x*y/2"], ["-3*x*y/2", "2*x^2 + y^2/2 - 1/2"]]
    g = CoMetric([[parse_poly(text, 2) for text in row] for row in rows])
    admissible = all(boundary_first_order(g, f) is not None for f in model.boundary.factors)
    points = model.interior_points(per_axis=10)
    failure = check_ellipticity(g, points).first_failure
    index = None if failure is None else list(points).index(failure)
    detail = {
        "admissible": admissible,
        "checked": len(points),
        "first_failure": None if failure is None else [str(v) for v in failure],
        "index": index,
    }
    return admissible and index is not None and index > 0, detail


def _cometric_outside_span_negative(ctx: RunContext):
    # the square's catalog cometric diag(1 - x^2, 1 - y^2) maps grad(1 - x^2
    # - y^2) to (-2x (1 - x^2), -2y (1 - y^2)), no multiple of the disk's
    # boundary factor, so it is no combination of the disk's kernel basis
    solution = solve_admissibility(ctx.model("disk").boundary)
    g = ctx.model("square").cometric
    in_span = _in_span(solution, g)
    kernel = [
        [[format_poly(h[i, j]) for j in range(h.dim)] for i in range(h.dim)]
        for h in solution.g_basis
    ]
    return not in_span, {"kernel": kernel, "in_span": in_span}


def _gaussian_decomposition(ctx: RunContext):
    triples = [("1", "0", "1"), ("2", "1/2", "1"), ("3/2", "-1/3", "2")]
    detail = {}
    ok = True
    for a0, b0, c0 in triples:
        model = ctx.model("gaussian_plane", {"A0": a0, "B0": b0, "C0": c0})
        av, bv, cv = (parse_rational(v) for v in (a0, b0, c0))
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        one = Polynomial.constant(2, 1)
        ou = DiffusionOperator(
            CoMetric([[one * av, one * bv], [one * bv, one * cv]]),
            (x * -av - y * bv, y * -cv - x * bv),
        )
        rot = DiffusionOperator(
            CoMetric([[y * y, -(x * y)], [-(x * y), x * x]]),
            (-x, -y),
        )
        same_metric = all(
            model.cometric[i, j] == ou.cometric[i, j] + rot.cometric[i, j]
            for i in range(2)
            for j in range(2)
        )
        same_drift = all(
            model.operator.drift[i] == ou.drift[i] + rot.drift[i] for i in range(2)
        )
        key = f"A0={a0},B0={b0},C0={c0}"
        detail[key] = {"metric": same_metric, "drift": same_drift}
        ok = ok and same_metric and same_drift
    return ok, detail


def _product_structure(ctx: RunContext):
    left = ctx.model("jacobi1d", {"a": "3/2", "b": "2"})
    right = ctx.model("jacobi1d", {"a": "1", "b": "1"})
    product = product_operator(left.operator, right.operator)
    square = ctx.model(
        "square", {"a": "1/2", "b": "1", "c": "0", "d": "0"}
    )  # exponents a-1, b-1 of the two 1D factors
    same_metric = all(
        product.cometric[i, j] == square.cometric[i, j] for i in range(2) for j in range(2)
    )
    same_drift = all(product.drift[i] == square.operator.drift[i] for i in range(2))

    spectrum = graded_eigenvalues(product, 6)
    s_left = graded_eigenvalues(left.operator, 6)
    s_right = graded_eigenvalues(right.operator, 6)
    sums_ok = True
    for n in range(7):
        expected = sorted(
            s_left.multiset(k)[0] + s_right.multiset(n - k)[0] for k in range(n + 1)
        )
        sums_ok = sums_ok and expected == spectrum.multiset(n)

    ou = product_operator(ctx.model("hermite1d").operator, ctx.model("hermite1d").operator)
    ou_ok = ou.drift == (
        -Polynomial.variable(2, 0),
        -Polynomial.variable(2, 1),
    )
    detail = {
        "jacobi_product_is_square_model": same_metric and same_drift,
        "eigenvalue_sums_exact": sums_ok,
        "ou_product_drift": ou_ok,
    }
    return same_metric and same_drift and sums_ok and ou_ok, detail


def _cover_family_residuals(ctx: RunContext):
    detail = {}
    ok = True
    for a_val in ["1", "-3", "7/2"]:
        model = ctx.model("nodal_cubic_cover_3d", {"A": a_val})
        good = True
        g = model.cometric
        for factor in model.boundary.factors:
            s = boundary_first_order(g, factor)
            good = good and s is not None
        detail[f"A={a_val}"] = good
        ok = ok and good
    return ok, detail


def _deltoid_spectrum_family(ctx: RunContext):
    detail = {}
    ok = True
    for p in ["0", "1/2"]:
        model = ctx.model("deltoid", {"p": p})
        good = not compare_closed_form(model, 8)
        detail[f"p={p}"] = good
        ok = ok and good
    return ok, detail


def _coaxial_curvature_family(ctx: RunContext):
    detail = {}
    ok = True
    for a in ["0", "3"]:
        model = ctx.model("coaxial_parabolas", {"a": a})
        report = curvature_constancy(model)
        detail[f"a={a}"] = {"mean": report.mean, "constant": report.constant}
        ok = ok and report.value == 1 + parse_rational(a)
    return ok, detail


def _disk_curvature_nonconstant(ctx: RunContext):
    model = ctx.model("disk", {"a": "1", "b": "1"})
    report = curvature_constancy(model)
    return report.value is None, {
        "spread": report.spread,
        "constant": report.constant,
    }


def _diffusion_chain_rule(ctx: RunContext):
    # second-order chain rule at polynomial level on the square model
    model = ctx.model("square")
    op = model.operator
    g = model.cometric
    streams = count(1)

    def coefficient() -> Fraction:
        # a multiple of 1/8 in [-2, 2] from the next stream
        return Fraction(round((stream_uniform(ctx.seed, next(streams)) * 4 - 2) * 8), 8)

    ok = True
    for _ in range(4):
        f = Polynomial(2, {e: coefficient() for e in MonomialBasis(2, 2).exponents})
        phi_coeffs = [coefficient() for _ in range(4)]
        phi_of_f = sum((c * f**k for k, c in enumerate(phi_coeffs)), Polynomial.zero(2))
        phi_p = sum(
            (c * k * f ** (k - 1) for k, c in enumerate(phi_coeffs) if k >= 1),
            Polynomial.zero(2),
        )
        phi_pp = sum(
            (c * k * (k - 1) * f ** (k - 2) for k, c in enumerate(phi_coeffs) if k >= 2),
            Polynomial.zero(2),
        )
        lhs = op.apply(phi_of_f)
        rhs = phi_pp * gamma(g, f, f) + phi_p * op.apply(f)
        ok = ok and lhs == rhs
    return ok, {"trials": 4}


# ----------------------------------------------------------------------
# registry


def build_claims() -> list[Claim]:
    claims: list[Claim] = []

    def add(claim_id, model, kind, runner, note=None):
        claims.append(Claim(claim_id, model, kind, runner, note))

    for name in model_names():
        model = get_model(name)
        if model.boundary.factors:
            add(f"{name}.boundary-residual", name, "exact-polynomial-identity",
                partial(_boundary_residual, name=name))
            add(f"{name}.det-divisibility", name, "exact-polynomial-identity",
                partial(_det_divisibility, name=name))
            add(f"{name}.ellipticity", name, "exact-polynomial-identity",
                partial(_ellipticity, name=name))
        add(f"{name}.drift-degree", name, "exact-polynomial-identity",
            partial(_drift_degree, name=name))
        if model.claim_applies("drift"):
            add(f"{name}.drift-tabulated", name, "exact-polynomial-identity",
                partial(_drift_claim, name=name), note=model.claim_note("drift"))
        if model.claim_applies("eigenvalue"):
            add(f"{name}.spectrum-closed-form", name, "exact-eigenvalue",
                partial(_spectrum_claim, name=name), note=model.claim_note("eigenvalue"))
        add(f"{name}.graded-triangularity", name, "exact-polynomial-identity",
            partial(_graded_triangularity, name=name))
        if model.claim_applies("curvature"):
            add(f"{name}.curvature", name, "exact-polynomial-identity",
                partial(_curvature_claim, name=name))
        if model.claim_applies("pullback"):
            add(f"{name}.pullback", name, "exact-polynomial-identity",
                partial(_pullback_claim, name=name))
        if model.has_sampler:
            add(f"{name}.symmetry-defect", name, "numeric-tolerance",
                partial(_symmetry_defect_claim, name=name))
            add(f"{name}.eigenbasis-quality", name, "numeric-tolerance",
                partial(_eigenbasis_claim, name=name))

    add("admissibility.unique-metrics", "global", "exact-polynomial-identity",
        _unique_metric_dimensions)
    add("admissibility.square-disk-regression", "global", "exact-polynomial-identity",
        _square_disk_regression)
    add("admissibility.coaxial-extra-family", "global", "exact-polynomial-identity",
        _coaxial_extra_family)
    add("admissibility.catalog-metric-in-span", "global", "exact-polynomial-identity",
        _catalog_metric_in_span)
    add("boundary.sum-identity", "global", "exact-polynomial-identity", _sum_identity)
    add("operator.chain-rule", "global", "exact-polynomial-identity", _diffusion_chain_rule)
    add("gaussian_plane.decomposition", "gaussian_plane", "exact-polynomial-identity",
        _gaussian_decomposition)
    add("product.structure", "global", "exact-eigenvalue", _product_structure)
    add("nodal_cubic_cover_3d.family-residuals", "nodal_cubic_cover_3d",
        "exact-polynomial-identity", _cover_family_residuals)
    add("deltoid.spectrum-family", "deltoid", "exact-eigenvalue", _deltoid_spectrum_family)
    add("coaxial_parabolas.curvature-family", "coaxial_parabolas",
        "exact-polynomial-identity", _coaxial_curvature_family)
    add("disk.curvature-nonconstant", "disk", "exact-polynomial-identity",
        _disk_curvature_nonconstant)
    add("negative.quartic-boundary", "global", "negative-control", _quartic_boundary_negative)
    add("negative.nodal-inverse-sqrt-det", "nodal_cubic", "negative-control",
        _nodal_inverse_sqrt_det)
    add("negative.perturbed-drift", "square", "negative-control", _perturbed_drift_negative)
    add("negative.corrupted-spectrum", "deltoid", "negative-control",
        _corrupted_spectrum_negative)
    add("negative.ellipticity-partway", "disk", "negative-control",
        _ellipticity_partway_negative)
    add("negative.cometric-outside-span", "disk", "negative-control",
        _cometric_outside_span_negative)
    return claims


@dataclass
class ClaimReport:
    seed: int
    results: list[ClaimResult] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == "skip")

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "summary": {
                "passed": self.passed,
                "failed": self.failed,
                "skipped": self.skipped,
            },
            "claims": [r.to_jsonable() for r in self.results],
        }


def run_claims(model_filter: str = "all", seed: int = DEFAULT_SEED) -> ClaimReport:
    """Execute the registry, optionally restricted to one model's claims.

    Ordering is the registry order, so reports are deterministic for a fixed
    seed.  Claims whose model does not match the filter are reported as
    skipped (with the reason) rather than dropped, keeping coverage visible.
    """
    ctx = RunContext(seed=seed)
    report = ClaimReport(seed=seed)
    for claim in build_claims():
        if model_filter != "all" and claim.model not in (model_filter, "global"):
            report.results.append(
                ClaimResult(
                    claim.id, claim.model, claim.kind, "skip",
                    {"reason": f"filtered to model {model_filter}"},
                )
            )
            continue
        report.results.append(claim.execute(ctx))
    return report
