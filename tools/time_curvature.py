"""Time the curvature requests: the interior-grid pass and the collapse.

    python3 tools/time_curvature.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Its `src` and
`perfbench` go first on sys.path, so the script times whichever checkout it
is given.  The BLAS thread variables are set to 1 before numpy loads, as
`polydiff.cli` and perfbench set them.  The cases are the 19 plane catalog
models at their defaults, plus one generic parameter point each for the
models that have parameters, drawn as perfbench's exact sweep draws its
curvature requests (seeded, and elliptic on the curvature grid).  Per case
it times `curvature_constancy(model)`, the whole request, and
`CurvatureEvaluator(model.cometric)`, the collapse inside it.  It prints one
JSON line: the per-case minimum over REPEATS runs in ms, the sums of those
minima, and one sha256 over every report's point count, values bytes,
repr(mean) and exact value, which is equal across checkouts whose results
are equal.
"""

import hashlib
import json
import os
import random
import sys
import time
from pathlib import Path

REPEATS = 5
SEED = 40


def main() -> None:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(checkout.resolve() / "src"), str(checkout.resolve() / "perfbench")]
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    import workloads
    from polydiff.catalog import get_descriptor, get_model, model_names
    from polydiff.geometry import CurvatureEvaluator, curvature_constancy

    rng = random.Random(SEED)
    cases = []
    for name in model_names():
        descriptor = get_descriptor(name)
        if descriptor.dim != 2:
            continue
        cases.append((name, {}))
        if descriptor.param_specs:
            params = workloads.draw_params(rng, descriptor, workloads._elliptic_on_curvature_grid)
            cases.append((name, params))

    constancy_ms, evaluator_ms = {}, {}
    digest = hashlib.sha256()
    for name, params in cases:
        model = get_model(name, params)
        constancy_times, evaluator_times = [], []
        for _ in range(REPEATS):
            start = time.perf_counter()
            report = curvature_constancy(model)
            constancy_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            CurvatureEvaluator(model.cometric)
            evaluator_times.append(time.perf_counter() - start)
        label = f"{name} {json.dumps(params, sort_keys=True)}" if params else name
        constancy_ms[label] = round(1000 * min(constancy_times), 3)
        evaluator_ms[label] = round(1000 * min(evaluator_times), 3)
        digest.update(repr((label, len(report.values), report.values.tobytes(),
                            repr(report.mean), report.value)).encode())
    print(json.dumps({
        "checkout": checkout.resolve().name,
        "cases": len(cases),
        "constancy_min_ms": constancy_ms,
        "constancy_total_ms": round(sum(constancy_ms.values()), 3),
        "evaluator_min_ms": evaluator_ms,
        "evaluator_total_ms": round(sum(evaluator_ms.values()), 3),
        "results_sha256": digest.hexdigest(),
        "repeats": REPEATS,
    }))


if __name__ == "__main__":
    main()
