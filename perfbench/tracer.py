"""Per-layer spans and counters, recorded from outside the program.

`install` replaces public functions, methods and constructors of the
polydiff modules with wrappers that record one span per call: name, start,
end, parent span and request id.  Modules that bound a name with
``from .x import y`` hold their own reference, so every binding of the
original object in every loaded polydiff module is replaced, not only the
defining module's.  Counters are computed from the public return values and
arguments after each span has closed, so their cost stays out of the span.

Spans are kept in memory and written out when the run ends.  A layer's self
time is its span's duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute); an attribute "Class.method" wraps that method in place,
# and "Class.__init__" is reported under the class name
TARGETS = (
    ("rng", "uniform_block"),
    ("rng", "normal_block"),
    ("quadrature", "sample_domain"),
    ("quadrature", "Moments.__init__"),
    ("quadrature", "gram_matrix"),
    ("quadrature", "gamma_form_matrix"),
    ("quadrature", "operator_moment_matrix"),
    ("quadrature", "symmetry_defect"),
    ("poly", "MonomialBasis.eval_float"),
    ("linalg", "RationalMatrix.rref"),
    ("linalg", "generalized_sym_eig"),
    ("boundary", "solve_admissibility"),
    ("boundary", "interior_grid"),
    ("boundary", "check_ellipticity"),
    ("operator", "GradedOperatorMatrix.__init__"),
    ("operator", "operator_from_measure"),
    ("spectra", "eigenbasis"),
    ("spectra", "block_eigenvalues"),
    ("geometry", "CurvatureEvaluator.__init__"),
    ("geometry", "CurvatureEvaluator.curvature_exact"),
    ("geometry", "curvature_constancy"),
    ("geometry", "verify_pullback"),
    ("catalog", "get_model"),
    ("claims", "Claim.execute"),
)
COVER_SPAN = "quadrature.cover_generate"
CLAIM_KINDS = (
    "exact-polynomial-identity",
    "exact-eigenvalue",
    "numeric-tolerance",
    "negative-control",
)
COUNTS = (
    "rng.values_drawn",
    "quadrature.proposals",
    "quadrature.accepted",
    "quadrature.grazers_dropped",
    "quadrature.moment_cells",
    "poly.eval_rows",
    "poly.eval_bytes_computed",
    "linalg.rref_cells",
    "operator.graded_columns",
    "spectra.blocks_triangular",
    "spectra.blocks_nontriangular",
    "spectra.numeric_block_fallbacks",
    "spectra.pencil_directions_cut",
    "claims.failed",
)

# A wrapped function that records no call on a workload the layer matters to
# is a gap in the trace: the run fails instead of reporting a silent zero.
EXPECTED_CALLS = {
    "battery": (
        "rng.uniform_block",
        "rng.normal_block",
        "quadrature.sample_domain",
        COVER_SPAN,
        "quadrature.Moments",
        "quadrature.gram_matrix",
        "quadrature.gamma_form_matrix",
        "quadrature.operator_moment_matrix",
        "quadrature.symmetry_defect",
        "poly.MonomialBasis.eval_float",
        "linalg.RationalMatrix.rref",
        "linalg.generalized_sym_eig",
        "boundary.solve_admissibility",
        "boundary.interior_grid",
        "boundary.check_ellipticity",
        "operator.GradedOperatorMatrix",
        "operator.operator_from_measure",
        "spectra.eigenbasis",
        "spectra.block_eigenvalues",
        "geometry.CurvatureEvaluator",
        "geometry.CurvatureEvaluator.curvature_exact",
        "geometry.curvature_constancy",
        "geometry.verify_pullback",
        "catalog.get_model",
        "claims.Claim.execute",
    ),
    "exact-sweep": (
        "linalg.RationalMatrix.rref",
        "boundary.solve_admissibility",
        "boundary.interior_grid",
        "boundary.check_ellipticity",
        "operator.GradedOperatorMatrix",
        "operator.operator_from_measure",
        "spectra.block_eigenvalues",
        "geometry.CurvatureEvaluator",
        "geometry.CurvatureEvaluator.curvature_exact",
        "geometry.curvature_constancy",
        "catalog.get_model",
    ),
    "sampling-sweep": (
        "rng.uniform_block",
        "quadrature.sample_domain",
        "quadrature.Moments",
        "quadrature.gram_matrix",
        "quadrature.operator_moment_matrix",
        "quadrature.symmetry_defect",
        "poly.MonomialBasis.eval_float",
        "operator.operator_from_measure",
        "catalog.get_model",
    ),
}


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.removesuffix('.__init__')}"


def span_names() -> list[str]:
    return sorted({span_name(m, a) for m, a in TARGETS} | {COVER_SPAN})


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = None

    def wrap(self, name: str, fn, observe=None):
        """`observe(bound_arguments, result, seconds)` runs after the span closes."""
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [name, self.clock(), None, parent, self.request]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self.stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments, result, record[2] - record[1])
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"], "spans": self.spans}, handle)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, summed self time) over a span log."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - _covered(children.get(index, []), start, end)
    return {name: (calls, seconds) for name, (calls, seconds) in out.items()}


def is_triangular(block) -> bool:
    n = len(block)
    upper = all(block[i][j] == 0 for i in range(n) for j in range(i))
    lower = all(block[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    return upper or lower


def _observers(counts: Counter) -> dict:
    def uniform_block(args, result, _):
        counts["rng.values_drawn"] += int(result.size)

    def sample_domain(args, result, _):
        if result.proposals:
            counts["quadrature.proposals"] += result.proposals
            counts["quadrature.accepted"] += result.accepted
            if args["sampler"].kind == "cover-mc":
                counts["quadrature.grazers_dropped"] += result.proposals - result.accepted

    def moments(args, result, _):
        self = args["self"]
        counts["quadrature.moment_cells"] += len(self.basis) * int(self.points.shape[0])

    def eval_float(args, result, _):
        counts["poly.eval_rows"] += int(result.shape[0])
        counts["poly.eval_bytes_computed"] += int(result.nbytes)

    def rref(args, result, _):
        counts["linalg.rref_cells"] += args["self"].rows * args["self"].cols

    def graded(args, result, _):
        counts["operator.graded_columns"] += len(args["self"].basis)

    def block_eigenvalues(args, result, _):
        if is_triangular(args["block"]):
            counts["spectra.blocks_triangular"] += 1
        else:
            counts["spectra.blocks_nontriangular"] += 1
        if any(entry.source == "numeric-block" for entry in result):
            counts["spectra.numeric_block_fallbacks"] += 1
        if all(entry.is_exact for entry in result):
            counts["spectra.blocks_exact"] += 1

    def eigenbasis(args, result, _):
        cut = len(result.graded_values) - len(result.pencil_eigenvalues)
        counts["spectra.pencil_directions_cut"] += cut

    def claim(args, result, seconds):
        counts["claims.failed"] += result.status == "fail"
        counts[f"claims.{result.kind}.total_s"] += seconds

    return {
        "rng.uniform_block": uniform_block,
        "quadrature.sample_domain": sample_domain,
        "quadrature.Moments": moments,
        "poly.MonomialBasis.eval_float": eval_float,
        "linalg.RationalMatrix.rref": rref,
        "operator.GradedOperatorMatrix": graded,
        "spectra.block_eigenvalues": block_eigenvalues,
        "spectra.eigenbasis": eigenbasis,
        "claims.Claim.execute": claim,
    }


def _rebind(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "polydiff" or module_name.startswith("polydiff."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target in the loaded polydiff modules."""
    import importlib
    from dataclasses import replace

    observers = _observers(tracer.counts)
    for module_name, attribute in TARGETS:
        module = importlib.import_module(f"polydiff.{module_name}")
        name = span_name(module_name, attribute)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = getattr(owner, method)
            setattr(owner, method, tracer.wrap(name, original, observers.get(name)))
        else:
            original = getattr(module, attribute)
            _rebind(original, tracer.wrap(name, original, observers.get(name)))
    quadrature = importlib.import_module("polydiff.quadrature")
    covers = quadrature.COVER_SAMPLERS
    for key, cover in list(covers.items()):
        covers[key] = replace(cover, generate=tracer.wrap(COVER_SPAN, cover.generate))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric: calls and self time per span name, plus counts."""
    times = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in span_names():
        calls, seconds = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = seconds
    counts = tracer.counts
    for name in COUNTS:
        out[name] = counts[name]
    for kind in CLAIM_KINDS:
        out[f"claims.{kind}.total_s"] = counts[f"claims.{kind}.total_s"]
    proposals = counts["quadrature.proposals"]
    out["quadrature.accept_ratio"] = counts["quadrature.accepted"] / proposals if proposals else 0.0
    blocks = counts["spectra.blocks_triangular"] + counts["spectra.blocks_nontriangular"]
    out["spectra.exact_block_ratio"] = counts["spectra.blocks_exact"] / blocks if blocks else 0.0
    return out


def missing_calls(workload: str, metrics: dict[str, float]) -> list[str]:
    return [name for name in EXPECTED_CALLS[workload] if not metrics[f"{name}.calls"]]
