"""Time the cover Monte Carlo cross-checks of the claim battery.

    python3 tools/time_cover_cross_check.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Its `src` goes
first on sys.path, so the script times whichever checkout it is given.  The
BLAS thread variables are set to 1 before numpy loads, as `polydiff.cli`
and perfbench set them.  For each cover in `quadrature.COVER_SAMPLERS`, at
its default parameters, it times cover_cross_check(model, 13,
model.sampler(seed=7)), the call each cover's symmetry-defect claim makes:
1M proposals, moments to degree 13 against the exact moments to degree 26.
It prints one JSON line: per cover the first call in ms (`cold_ms`, the one
call the battery makes, which pays for whatever the process has not built
or touched yet) and the minimum over REPEATS further calls, and their sums;
each cover's max_z as a hex float (equal across checkouts when the pass
computes the same floats); the number of CPUs the process may use; and,
from getrusage over the whole process, its peak RSS (ru_maxrss) in MB, its
minor page faults and its system CPU seconds.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

REPEATS = 5
SEED = 7
DEGREE = 13


def main() -> None:
    checkout = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout.resolve() / "src"))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from polydiff.catalog import get_model
    from polydiff.quadrature import COVER_SAMPLERS, cover_cross_check

    cold_ms, min_ms, max_z = {}, {}, {}
    for name in sorted(COVER_SAMPLERS):
        model = get_model(name)
        times = []
        for _ in range(1 + REPEATS):
            start = time.perf_counter()
            check = cover_cross_check(model, DEGREE, model.sampler(seed=SEED))
            times.append(time.perf_counter() - start)
        cold_ms[name] = round(1000 * times[0], 1)
        min_ms[name] = round(1000 * min(times[1:]), 1)
        max_z[name] = check.max_z.hex()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "checkout": checkout.resolve().name,
        "cold_ms": cold_ms,
        "cold_total_ms": round(sum(cold_ms.values()), 1),
        "min_ms": min_ms,
        "total_ms": round(sum(min_ms.values()), 1),
        "max_z": max_z,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "repeats": REPEATS,
        # ru_maxrss is in KiB on Linux
        "ru_maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "minor_faults": usage.ru_minflt,
        "system_s": round(usage.ru_stime, 3),
    }))


if __name__ == "__main__":
    main()
