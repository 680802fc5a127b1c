"""Time the two readers of a diffusion operator's action on monomials.

    python3 tools/time_graded_matrix.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Its `src` goes
first on sys.path, so the script times whichever checkout it is given.  The
BLAS thread variables are set to 1 before numpy loads, as `polydiff.cli`
and perfbench set them.  For each of the 24 catalog models at its default
parameters it times GradedOperatorMatrix(op, 12), the matrix behind the
battery's spectra and the exact sweep's graded requests, and `op.apply` on
each monomial of total degree <= 6.  Every run takes a fresh copy of the
operator, so any table an operator keeps is built inside the timed region,
as it is for a model drawn at new parameters.  It prints one JSON line: the
per-model minimum over REPEATS runs in ms and the sums of those minima, and
one sha256 over every model's scale, columns and images, which is equal
across checkouts whose results are equal.
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

REPEATS = 5
GRADED_DEGREE = 12
APPLY_DEGREE = 6


def main() -> None:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout.resolve() / "src"))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from polydiff.catalog import get_model, model_names
    from polydiff.operator import DiffusionOperator, GradedOperatorMatrix
    from polydiff.poly import MonomialBasis, Polynomial

    graded_ms, apply_ms = {}, {}
    digest = hashlib.sha256()
    for name in model_names():
        op = get_model(name).operator
        monomials = [
            Polynomial.monomial(op.dim, e) for e in MonomialBasis(op.dim, APPLY_DEGREE).exponents
        ]
        graded_times, apply_times = [], []
        for _ in range(REPEATS):
            fresh = DiffusionOperator(op.cometric, op.drift)
            start = time.perf_counter()
            graded = GradedOperatorMatrix(fresh, GRADED_DEGREE)
            graded_times.append(time.perf_counter() - start)
            fresh = DiffusionOperator(op.cometric, op.drift)
            start = time.perf_counter()
            images = [fresh.apply(m) for m in monomials]
            apply_times.append(time.perf_counter() - start)
        graded_ms[name] = round(1000 * min(graded_times), 3)
        apply_ms[name] = round(1000 * min(apply_times), 3)
        columns = [sorted(column.items()) for column in graded.columns]
        images = [(p.denominator, sorted(p.numerators.items())) for p in images]
        digest.update(repr((name, graded.scale, columns, images)).encode())
    print(json.dumps({
        "checkout": checkout.resolve().name,
        "graded_min_ms": graded_ms,
        "graded_total_ms": round(sum(graded_ms.values()), 3),
        "apply_min_ms": apply_ms,
        "apply_total_ms": round(sum(apply_ms.values()), 3),
        "results_sha256": digest.hexdigest(),
        "repeats": REPEATS,
    }))


if __name__ == "__main__":
    main()
