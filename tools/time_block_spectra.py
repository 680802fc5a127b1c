"""Time the block spectra: `graded_eigenvalues` per model and degree.

    python3 tools/time_block_spectra.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Its `src` and
`perfbench` go first on sys.path, so the script times whichever checkout it
is given.  The BLAS thread variables are set to 1 before numpy loads, as
`polydiff.cli` and perfbench set them.  The cases are the 24 catalog models,
each at one generic parameter point drawn as perfbench's exact sweep draws
its spectrum requests (seeded; a model without parameters at its defaults),
at the sweep's spectrum degree for its dimension and, in 2D and 3D, at the
larger degree of LARGE_DEGREE.  Per case it times
`graded_eigenvalues(model.operator, degree)`, graded matrix included.  It
prints one JSON line: the per-case minimum over REPEATS runs in ms, the sums
of those minima, the count of numeric-block entries, and one sha256 over
every result's `to_jsonable()`, which is equal across checkouts whose
results are equal.
"""

import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

REPEATS = 5
SEED = 43
LARGE_DEGREE = {2: 16, 3: 12}


def main() -> None:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(checkout.resolve() / "src"), str(checkout.resolve() / "perfbench")]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    import workloads
    from polydiff.catalog import get_descriptor, get_model, model_names
    from polydiff.spectra import graded_eigenvalues

    rng = random.Random(SEED)
    cases = []
    for name in model_names():
        descriptor = get_descriptor(name)
        params = workloads.draw_params(rng, descriptor)
        for degree in (workloads.SPECTRUM_DEGREE[descriptor.dim], LARGE_DEGREE.get(descriptor.dim)):
            if degree is not None:
                cases.append((name, params, degree))

    spectrum_ms = {}
    numeric = 0
    digest = hashlib.sha256()
    for name, params, degree in cases:
        model = get_model(name, params)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = graded_eigenvalues(model.operator, degree)
            times.append(time.perf_counter() - start)
        label = f"{name} {json.dumps(params, sort_keys=True)} degree {degree}"
        spectrum_ms[label] = round(1000 * min(times), 3)
        numeric += sum(e.source == "numeric-block" for level in result.per_degree for e in level)
        digest.update(json.dumps([label, result.to_jsonable()], sort_keys=True).encode())
    print(json.dumps({
        "checkout": checkout.resolve().name,
        "cases": len(cases),
        "spectrum_min_ms": spectrum_ms,
        "spectrum_total_ms": round(sum(spectrum_ms.values()), 3),
        "numeric_block_entries": numeric,
        "results_sha256": digest.hexdigest(),
        "repeats": REPEATS,
    }))


if __name__ == "__main__":
    main()
