"""Time `spectra.orthogonal_polynomials` on the sampled catalog models.

    python3 tools/time_orthogonal_polynomials.py

Run it from the root of a source checkout.  For each catalog model with a
sampler, at its default parameters, it times
orthogonal_polynomials(GradedOperatorMatrix(op, 12), 6), the call each
eigenbasis-quality claim makes (the exact moments included, the graded
matrix built outside the timer), and prints one JSON line: the per-model
minimum over REPEATS runs in ms, and their sum.
"""

import json
import sys
import time

sys.path[:0] = ["src"]

from polydiff.catalog import get_model, model_names  # noqa: E402
from polydiff.operator import GradedOperatorMatrix  # noqa: E402
from polydiff.spectra import orthogonal_polynomials  # noqa: E402

REPEATS = 5


def main() -> None:
    per_model = {}
    for name in model_names():
        model = get_model(name)
        if not model.has_sampler:
            continue
        times = []
        for _ in range(REPEATS):
            graded = GradedOperatorMatrix(model.operator, 12)
            start = time.perf_counter()
            orthogonal_polynomials(graded, 6)
            times.append(time.perf_counter() - start)
        per_model[name] = round(1000 * min(times), 2)
    total = round(sum(per_model.values()), 2)
    print(json.dumps({"min_ms": per_model, "total_ms": total, "repeats": REPEATS}))


if __name__ == "__main__":
    main()
