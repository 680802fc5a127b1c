"""Seeded request streams for the sweep workloads and the code that serves them.

A schedule is a list of rounds.  Every round holds each (kind, model) slot of
the workload exactly once, in a seeded order, and every request carries its
own freshly drawn parameter point, so two seeds give the same per-model and
per-kind counts at different parameter points.  Parameter values come from a
small grid of rationals strictly inside each parameter's catalog range, and
a parameter without bounds is never zero, so the points are generic (A = 0
would keep every block of ``nodal_cubic_cover_3d`` triangular, for example).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

SPECTRUM_DEGREE = {1: 12, 2: 8, 3: 6}
GRADED_DEGREE = 12
SAMPLING_DEGREE = 3
SAMPLING_PROPOSALS = 500_000
ADMISSIBLE_GRID_PER_AXIS = 8
CURVATURE_MIN_POINTS = 100
OFFSETS = tuple(
    Fraction(v) for v in ("1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "3/2", "2", "5/2", "3")
)
MAX_DRAWS = 100


@dataclass(frozen=True)
class Request:
    index: int
    round: int
    kind: str
    model: str
    params: tuple[tuple[str, str], ...]
    sampler_seed: int = 0

    def label(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{self.model}({params})"


def draw_value(rng: random.Random, spec) -> Fraction:
    """A generic rational inside the open range given by the ParamSpec bounds."""
    lower = spec.gt if spec.gt is not None else spec.ge
    upper = spec.lt if spec.lt is not None else spec.le
    if lower is not None and upper is not None:
        return lower + (upper - lower) * Fraction(rng.randint(1, 7), 8)
    offset = rng.choice(OFFSETS)
    if lower is not None:
        return lower + offset
    if upper is not None:
        return upper - offset
    return offset if rng.random() < 0.5 else -offset


def _any(model) -> bool:
    return True


def draw_params(rng: random.Random, descriptor, accept=_any) -> dict[str, str]:
    """Draw until the catalog accepts the point and `accept(model)` holds."""
    from polydiff.catalog import ParameterError

    for _ in range(MAX_DRAWS):
        params = {spec.name: str(draw_value(rng, spec)) for spec in descriptor.param_specs}
        try:
            model = descriptor.instantiate(params)
        except ParameterError:
            continue
        if accept(model):
            return params
    raise RuntimeError(f"no acceptable parameter point for {descriptor.name}")


def slots(workload: str) -> list[tuple[str, str]]:
    """The (kind, model) pairs that make up one round of a sweep."""
    from polydiff.catalog import get_descriptor, model_names

    out = []
    for name in model_names():
        descriptor = get_descriptor(name)
        if workload == "exact-sweep":
            out.append(("spectrum", name))
            out.append(("graded", name))
            if descriptor.factor_templates:
                out.append(("admissible", name))
            if descriptor.dim == 2:
                out.append(("curvature", name))
        elif workload == "sampling-sweep":
            if (descriptor.sampler_spec or {}).get("kind") == "cover-mc":
                out.append(("orthogonality", name))
        else:
            raise ValueError(f"no request stream for workload {workload!r}")
    return out


def _off_cover(model) -> bool:
    from polydiff.quadrature import cover_applies

    return not cover_applies(model)


def _elliptic_on_curvature_grid(model) -> bool:
    """Is det(g) > 0 at every point curvature_constancy samples?

    The catalog ranges admit points where it is not (triangle and disk with
    some negative a or b); curvature is undefined there and raises.
    """
    from polydiff.geometry import INTERIOR_MARGIN

    per_axis = 16
    points = model.interior_points(per_axis=per_axis, margin=INTERIOR_MARGIN)
    while len(points) < CURVATURE_MIN_POINTS and per_axis < 128:
        per_axis *= 2
        points = model.interior_points(per_axis=per_axis, margin=INTERIOR_MARGIN)
    det = model.cometric.det()
    return bool(points) and all(det(point) > 0 for point in points)


def schedule(workload: str, seed: int, rounds: int) -> list[Request]:
    from polydiff.catalog import get_descriptor

    rng = random.Random(f"{workload}:{seed}")
    round_slots = slots(workload)
    # sampling requests must take mc-rejection, so their points avoid the
    # one parameter point where the covering sampler applies
    accept = {"orthogonality": _off_cover, "curvature": _elliptic_on_curvature_grid}
    out: list[Request] = []
    for r in range(rounds):
        order = list(round_slots)
        rng.shuffle(order)
        for kind, name in order:
            params = draw_params(rng, get_descriptor(name), accept.get(kind, _any))
            out.append(
                Request(
                    index=len(out),
                    round=r,
                    kind=kind,
                    model=name,
                    params=tuple(sorted(params.items())),
                    sampler_seed=rng.getrandbits(32) if kind == "orthogonality" else 0,
                )
            )
    return out


# ----------------------------------------------------------------------
# serving one request


def serve(request: Request) -> dict:
    """Run one request through the public API and return its output.

    Raises on an output that breaks an invariant the request must keep.
    """
    from polydiff import catalog

    model = catalog.get_model(request.model, dict(request.params))
    return _HANDLERS[request.kind](model, request)


def _spectrum(model, request) -> dict:
    from polydiff import spectra

    degree = SPECTRUM_DEGREE[model.dim]
    result = spectra.graded_eigenvalues(model.operator, degree).to_jsonable()
    for level in result["degrees"]:
        expected = math.comb(level["n"] + model.dim - 1, level["n"])
        if sum(level["multiplicities"]) != expected:
            raise ValueError(f"degree {level['n']} block has the wrong multiplicity sum")
    return result


def _graded(model, request) -> dict:
    from polydiff import operator

    matrix = operator.GradedOperatorMatrix(model.operator, GRADED_DEGREE)
    violations = len(matrix.strictly_lower_block_entries())
    if violations:
        raise ValueError(f"{violations} entries below the degree blocks")
    return {"size": len(matrix.basis)}


def _admissible(model, request) -> dict:
    from polydiff import boundary

    solution = boundary.solve_admissibility(model.boundary)
    if solution.dimension < 1:
        raise ValueError("the catalog cometric must lie in the admissible kernel")
    grid = boundary.interior_grid(model.boundary, model.box, per_axis=ADMISSIBLE_GRID_PER_AXIS)
    verdicts = [boundary.check_ellipticity(g, grid).elliptic for g in solution.g_basis]
    return {"dimension": solution.dimension, "elliptic": verdicts, "grid": len(grid)}


def _curvature(model, request) -> dict:
    from polydiff import geometry

    report = geometry.curvature_constancy(model)
    if not math.isfinite(report.mean):
        raise ValueError("curvature mean is not finite")
    return {"constant": report.constant, "points": int(len(report.values))}


def _orthogonality(model, request) -> dict:
    from polydiff import quadrature

    sampler = model.sampler(seed=request.sampler_seed, sample_count=SAMPLING_PROPOSALS)
    if sampler.kind != "mc-rejection":
        raise ValueError(f"expected mc-rejection, got {sampler.kind}")
    defect = quadrature.symmetry_defect(model, SAMPLING_DEGREE, sampler)
    if not math.isfinite(defect):
        raise ValueError("symmetry defect is not finite")
    return {"defect": defect}


_HANDLERS = {
    "spectrum": _spectrum,
    "graded": _graded,
    "admissible": _admissible,
    "curvature": _curvature,
    "orthogonality": _orthogonality,
}


def _rounded(value):
    # numeric-block eigenvalues and defects are floats from LAPACK/BLAS;
    # ten significant digits keep a digest stable against last-bit noise
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def digest(outputs) -> str:
    text = json.dumps(_rounded(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
