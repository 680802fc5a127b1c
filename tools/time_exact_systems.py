"""Time the exact linear systems behind admissibility, moments and
eigenvectors on the catalog models.

    python3 tools/time_exact_systems.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Its `src` goes
first on sys.path, so the script times whichever checkout it is given.  The
BLAS thread variables are set to 1 before numpy loads, as `polydiff.cli`
and perfbench set them.  At each model's default parameters it times

- `solve_admissibility` on the boundary of each of the 22 bounded models,
- `GradedOperatorMatrix(op, 12).moments()` on all 24 models, the graded
  matrix built outside the timer,
- the exact eigenvector kernels of the 12 degree-6 eigenbases (the models
  with a quadrature rule): `spectra._lifted_eigenvectors` on every exact
  eigenvalue of the degree blocks 0..6 of GradedOperatorMatrix(op, 12),
  the calls `eigenbasis` makes, their inputs built outside the timer.

It prints one JSON line: per job, the per-model minimum over REPEATS runs
in ms and the sum of those minima, and one sha256 over every result, which
is equal across checkouts whose results are equal.
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

REPEATS = 5
GRADED_DEGREE = 12
EIGENBASIS_DEGREE = 6


def min_ms(call) -> tuple[float, object]:
    """The fastest of REPEATS runs of call() in ms, and its last result."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return round(1000 * min(times), 3), result


def main() -> None:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout.resolve() / "src"))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from polydiff import spectra
    from polydiff.boundary import solve_admissibility
    from polydiff.catalog import get_model, model_names
    from polydiff.operator import GradedOperatorMatrix

    jobs = {"admissibility": {}, "moments": {}, "eigenvector_kernels": {}}
    digest = hashlib.sha256()
    for name in model_names():
        model = get_model(name)
        if model.boundary.factors:
            ms, solution = min_ms(lambda: solve_admissibility(model.boundary))
            jobs["admissibility"][name] = ms
            digest.update(repr((name, [str(g.entries) for g in solution.g_basis])).encode())
        graded = GradedOperatorMatrix(model.operator, GRADED_DEGREE)
        ms, moments = min_ms(graded.moments)
        jobs["moments"][name] = ms
        digest.update(repr((name, moments)).encode())
        if not model.has_sampler:
            continue
        size = graded.basis.degree_slices[EIGENBASIS_DEGREE].stop
        calls = []
        polys = spectra.orthogonal_polynomials(graded, EIGENBASIS_DEGREE)
        for degree, poly in enumerate(polys):
            block = graded.diagonal_block(degree)
            for entry in spectra.block_eigenvalues(block, graded.scale):
                if entry.is_exact:
                    mu = entry.value * graded.scale
                    calls.append((block, mu.numerator, poly, size))
        ms, vectors = min_ms(lambda: [spectra._lifted_eigenvectors(*call) for call in calls])
        jobs["eigenvector_kernels"][name] = ms
        digest.update(repr((name, vectors)).encode())
    out = {"checkout": checkout.resolve().name}
    for job, per_model in jobs.items():
        out[job] = {"min_ms": per_model, "total_ms": round(sum(per_model.values()), 3)}
    out["results_sha256"] = digest.hexdigest()
    out["repeats"] = REPEATS
    print(json.dumps(out))


if __name__ == "__main__":
    main()
