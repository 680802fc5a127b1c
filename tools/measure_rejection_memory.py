"""Measure the peak memory of Monte Carlo rejection sampling.

    python3 tools/measure_rejection_memory.py [CHECKOUT]

CHECKOUT is the root of a source tree (default: this one).  Every number
comes from a fresh child process whose `sys.path` starts with the
checkout's `src`, with the BLAS thread variables set to 1 before numpy
loads, as `polydiff.cli` and perfbench set them.  The children are:

- one per cover model (`quadrature.COVER_SAMPLERS`) and proposal count in
  COUNTS: the model at a generic parameter point off its cover point, where
  `symmetry_defect(model, 3, mc-rejection)` samples by rejection;
- `polydiff orthogonality --model nodal_cubic --param p=1/3`, the CLI path
  off a cover point, at its default proposal count;
- a baseline that imports the package and builds one model, and samples
  nothing.

Each child reports its own peak RSS (ru_maxrss) in MB.  RSS is the measure,
not tracemalloc: the rejection rule lives in buffers sized by the proposal
count, and tracemalloc counts every byte of a buffer when it is allocated,
pages the pass never writes included, while the operating system backs only
the pages that are written (in 2 MB units where transparent huge pages are
on, so each buffer's written front rounds up to one).  It prints one JSON
line: the peak RSS of each child, each defect as a hex float and the orthogonality stdout's sha256,
which are equal across checkouts that compute the same floats.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

COUNTS = (500_000, 1_000_000)
DEGREE = 3
SEED = 7
# the parameter values dealt out in turn, as the quadrature tests do: all
# inside every cover model's range, none at its cover point
GENERIC = ("1/3", "1/4", "3/2")
ORTHOGONALITY = ["orthogonality", "--model", "nodal_cubic", "--param", "p=1/3"]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)


def child(job: list[str]) -> dict:
    """Run one job in this process and return what it measured."""
    from polydiff.catalog import get_descriptor, get_model

    if job[0] == "baseline":
        get_model("nodal_cubic", {"p": "1/3"})
        return {"peak_rss_mb": peak_rss_mb()}
    if job[0] == "orthogonality":
        from polydiff.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(ORTHOGONALITY)
        return {
            "peak_rss_mb": peak_rss_mb(),
            "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        }
    from polydiff.quadrature import symmetry_defect

    name, count = job[1], int(job[2])
    specs = get_descriptor(name).param_specs
    model = get_model(name, {s.name: GENERIC[i % 3] for i, s in enumerate(specs)})
    sampler = model.sampler(seed=SEED, sample_count=count)
    if sampler.kind != "mc-rejection":
        raise SystemExit(f"{name} takes {sampler.kind} at its generic point")
    defect = symmetry_defect(model, DEGREE, sampler)
    return {"peak_rss_mb": peak_rss_mb(), "defect": defect.hex()}


def run_child(checkout: Path, job: list[str]) -> dict:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    done = subprocess.run(
        [sys.executable, __file__, str(checkout), "--child", *job],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    args = sys.argv[1:]
    checkout = Path(args[0]) if args else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout.resolve() / "src"))
    if args[1:2] == ["--child"]:
        print(json.dumps(child(args[2:])))
        return
    from polydiff.quadrature import COVER_SAMPLERS

    defects, rss = {}, {}
    for name in sorted(COVER_SAMPLERS):
        defects[name], rss[name] = {}, {}
        for count in COUNTS:
            result = run_child(checkout, ["defect", name, str(count)])
            defects[name][count] = result["defect"]
            rss[name][count] = result["peak_rss_mb"]
    print(json.dumps({
        "checkout": checkout.resolve().name,
        "baseline_peak_rss_mb": run_child(checkout, ["baseline"])["peak_rss_mb"],
        "defect_peak_rss_mb": rss,
        "orthogonality": run_child(checkout, ORTHOGONALITY[:1]),
        "defects": defects,
    }))


if __name__ == "__main__":
    main()
