"""One benchmark child process: set up, then optionally run one workload.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at T [--setup-only] [--trace] [--trace-out PATH]

`run.py` starts it with the BLAS thread variables set to 1 and `src` on
PYTHONPATH.  It prints one JSON object on stdout and nothing else; the
battery's own stdout is captured in memory.  Only the standard library is
imported before the set-up clock marks below, so they split set-up time into
numpy/scipy import, polydiff import and catalog parse.  A host probe runs
just before each request and once after the last; its time is left out of
the work and latency figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# A sweep serves whole rounds, so every run has the same per-kind mix and two
# traced runs of one seed do the same work: --seconds becomes a round count
# through the typical round time on a 2-core x86 host, raised so that a run
# has at least MIN_REQUESTS latencies and ten of them lie beyond p90.
ROUND_SECONDS = {"exact-sweep": 11.0, "sampling-sweep": 1.5}
MIN_REQUESTS = 100


def _setup(workload: str, spawned_at: float) -> dict:
    entered = time.monotonic()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    numerics = time.monotonic()
    import polydiff.claims  # noqa: F401  (imports every other module)
    import polydiff.cli  # noqa: F401

    package = time.monotonic()
    from polydiff.catalog import model_names

    model_names()
    catalog = time.monotonic()
    claims = None
    if workload == "battery":
        from polydiff.claims import build_claims

        claims = build_claims()
    ready = time.monotonic()
    return {
        "setup_s": ready - spawned_at,
        "start_s": entered - spawned_at,
        "import_numpy_scipy_s": numerics - entered,
        "import_polydiff_s": package - numerics,
        "catalog_parse_s": catalog - package,
        "claim_registry_s": ready - catalog if claims is not None else 0.0,
    }


def rounds_for(workload: str, seconds: float, slots: int) -> int:
    return max(math.ceil(seconds / ROUND_SECONDS[workload]), math.ceil(MIN_REQUESTS / slots))


class HostProbe:
    """Times a fixed kernel that uses no polydiff code, as a gauge of host speed.

    One sample takes about 15 ms on a 2-core x86 host, in parts timed apart
    (see run.request_costs): a Fraction sum, a sparse polynomial product on
    dicts, like the exact layers, and a matrix product and exp over 100k
    points and a symmetric eigensolve, like the numeric layers.
    """

    PARTS = ("fraction", "dict", "stream", "eigh")

    def __init__(self):
        import numpy

        self.samples: list[list[float]] = []  # [start, seconds per part...]
        rng = numpy.random.default_rng(0)
        self.points = rng.random((100_000, 3))
        self.weights = rng.random((3, 10))
        gram = rng.random((100, 100))
        self.gram = gram @ gram.T

    def sample(self) -> None:
        import numpy

        marks = [time.perf_counter()]
        total = Fraction(0)
        for k in range(1, 1001):
            total += Fraction(1, k % 97 + 1)
        marks.append(time.perf_counter())
        product = {(0, 0, 0): 1}
        factor = {(1, 0, 0): 2, (0, 1, 0): -3, (0, 0, 1): 5, (0, 0, 0): 7}
        for _ in range(12):
            step: dict = {}
            for (a, b, c), u in product.items():
                for (d, e, f), v in factor.items():
                    key = (a + d, b + e, c + f)
                    step[key] = step.get(key, 0) + u * v
            product = step
        marks.append(time.perf_counter())
        values = self.points @ self.weights
        numpy.exp(values, out=values)
        values.sum(axis=0)
        marks.append(time.perf_counter())
        numpy.linalg.eigh(self.gram)
        marks.append(time.perf_counter())
        self.samples.append([marks[0]] + [b - a for a, b in zip(marks, marks[1:])])


class Meter:
    """Times each request, with a host probe just before it and one after the last."""

    def __init__(self, tracer, probe: HostProbe):
        self.tracer = tracer
        self.probe = probe
        self.latencies: list[float] = []

    def timed(self, request_id, fn, *args):
        if self.tracer is not None:
            self.tracer.request = request_id
        self.probe.sample()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.latencies.append(time.perf_counter() - start)

    def probe_s(self) -> float:
        return sum(sum(sample[1:]) for sample in self.probe.samples)

    def finish(self) -> dict:
        self.probe.sample()
        return {
            "latencies": self.latencies,
            "probes": self.probe.samples,
            "probe_parts": list(self.probe.PARTS),
        }


def run_battery(seed: int, meter: Meter) -> dict:
    from polydiff import claims, cli

    execute = claims.Claim.execute

    def timed_execute(self, ctx):
        return meter.timed(self.id, execute, self, ctx)

    claims.Claim.execute = timed_execute
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["verify", "--model", "all", "--seed", str(seed), "--format", "json"])
    work_s = time.perf_counter() - start - meter.probe_s()
    return {"work_s": work_s, "exit_code": code, "stdout": stdout.getvalue(), **meter.finish()}


def run_sweep(requests, meter: Meter) -> dict:
    import workloads

    outputs: list = []
    failures: list[dict] = []
    start = time.perf_counter()
    for request in requests:
        try:
            output = meter.timed(request.index, workloads.serve, request)
        except Exception as exc:  # a failed request is counted, never retried
            failures.append({"request": request.label(), "error": f"{type(exc).__name__}: {exc}"})
            output = None
        outputs.append(output)
    work_s = time.perf_counter() - start - meter.probe_s()
    per_round: dict[int, list] = {}
    for request, output in zip(requests, outputs):
        per_round.setdefault(request.round, []).append([request.label(), output])
    return {
        "work_s": work_s,
        "failures": failures,
        "round_digests": [workloads.digest(per_round[r]) for r in sorted(per_round)],
        "outputs": [[request.label(), output] for request, output in zip(requests, outputs)],
        **meter.finish(),
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    result: dict = {"setup": _setup(args.workload, args.spawned_at)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    meter = Meter(tracer, HostProbe())
    if args.workload == "battery":
        if tracer is not None:
            tracing.install(tracer)
        result.update(run_battery(args.seed, meter))
    else:
        import workloads

        rounds = rounds_for(args.workload, args.seconds, len(workloads.slots(args.workload)))
        # drawn before the wrappers go in, so drawing leaves no calls in the trace
        requests = workloads.schedule(args.workload, args.seed, rounds)
        if tracer is not None:
            tracing.install(tracer)
        result.update(run_sweep(requests, meter))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["trace_spans"] = len(tracer.spans)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
