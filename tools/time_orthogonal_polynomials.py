"""Time `spectra.orthogonal_polynomials` and the exact moments on every
catalog model.

    python3 tools/time_orthogonal_polynomials.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Its `src` goes
first on sys.path, so the script times whichever checkout it is given.  For
each of the 24 catalog models, at its default parameters, it times
orthogonal_polynomials(GradedOperatorMatrix(op, 12), 6), the call each
eigenbasis-quality claim makes (the exact moments included), and
GradedOperatorMatrix(op, 12).moments(), each time with the graded matrix
built outside the timer.  It prints one JSON line: the per-model minimum
over REPEATS runs in ms and their sum, the bit length of each model's
degree-6 `scale` under "scale_bits", and under "moments" the same timings
for the moments.
"""

import json
import sys
import time
from pathlib import Path

CHECKOUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
sys.path[:0] = [str(CHECKOUT.resolve() / "src")]

from polydiff.catalog import get_model, model_names  # noqa: E402
from polydiff.operator import GradedOperatorMatrix  # noqa: E402
from polydiff.spectra import orthogonal_polynomials  # noqa: E402

REPEATS = 5


def min_ms(model, call) -> float:
    """The fastest of REPEATS runs of call(graded), in ms, each on a graded
    matrix of the model to degree 12 built outside the timer."""
    times = []
    for _ in range(REPEATS):
        graded = GradedOperatorMatrix(model.operator, 12)
        start = time.perf_counter()
        call(graded)
        times.append(time.perf_counter() - start)
    return round(1000 * min(times), 2)


def main() -> None:
    per_model, scale_bits, moments = {}, {}, {}
    for name in model_names():
        model = get_model(name)
        per_model[name] = min_ms(model, lambda graded: orthogonal_polynomials(graded, 6))
        top = orthogonal_polynomials(GradedOperatorMatrix(model.operator, 12), 6)[6]
        scale_bits[name] = top.scale.bit_length()
        moments[name] = min_ms(model, GradedOperatorMatrix.moments)
    print(json.dumps({
        "min_ms": per_model,
        "total_ms": round(sum(per_model.values()), 2),
        "scale_bits": scale_bits,
        "repeats": REPEATS,
        "moments": {"min_ms": moments, "total_ms": round(sum(moments.values()), 2)},
    }))


if __name__ == "__main__":
    main()
