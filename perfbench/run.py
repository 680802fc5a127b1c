"""polydiff benchmark: one workload per call, measured in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  Workloads (closed loop: one
client, no think time, one request at a time):

  battery         `polydiff verify --model all --seed N --format json`, in
                  process; a request is one claim.
  exact-sweep     rounds of spectrum / graded / admissible / curvature
                  requests over all 24 models at seeded generic parameter
                  points; no quadrature, and generic points force the
                  characteristic-polynomial path in non-triangular blocks.
  sampling-sweep  rounds of symmetry-defect requests on the 8 cover-MC models
                  off their cover point, so every request takes mc-rejection
                  sampling with 500k proposals each and no exact work.

The battery is fixed work (one whole verify run) and ignores --seconds; a
sweep turns --seconds into a whole number of rounds (see worker.py).

Times are reported in host-probe units ("ref").  The 2-core shared hosts
this runs on change speed by up to 2x over minutes, so no run length
averages wall time out.  The worker therefore times a fixed probe
(worker.HostProbe: pure-Python and numpy parts, no polydiff code) just
before every request and once after the last, and `request_costs` divides
each request's latency by the time of the workload's PROBE_PARTS measured
around it.  work_ref is the sum of these costs over the requests (for the
battery, its claims); the latency percentiles are Harrell-Davis estimates
over them (see `percentile`).  The wall-clock values are kept in the run
record and, with --trace 1, reported as wall.* metrics beside
host.probe_ms.

Each child runs single-threaded (BLAS thread variables set to 1 before numpy
loads) and workloads never run concurrently.  Set-up time stays in
seconds: it is measured in set-up-only children before and after the
workload child and in the workload child itself, and the median is
reported.  With --trace 1 a second, traced child runs the same work with
wrappers installed from outside (see tracer.py) and the per-layer metrics
are printed instead; tracing overhead is the traced minus the untraced work
time, in seconds and, as a share, in probe units.

Outputs are checked in every run: a failed claim or request counts against
`failed` and is never retried; results that must repeat for one build and
seed (battery stdout sha256, exact-sweep round digests, traced counts) are
compared between the traced and untraced child and with earlier runs in
this checkout, kept under .perfbench/.  The last stdout line is one JSON
object; the exit code is 1 when a check fails and 2 when the run could not
be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("battery", "exact-sweep", "sampling-sweep")
CHILD_TIMEOUT_S = 160
# set-up-only children on each side of the workload child
SETUP_CHILDREN = 2
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MANIFEST = os.path.join("tests", "data", "claims_manifest.txt")
STATE_DIR = ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_ref": "ref",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
}
# probes on each side of a request whose median sets its host speed
PROBE_WINDOW = 5
# The probe parts (worker.HostProbe.PARTS) that run the same kind of code as
# a workload's layers: a slow host phase slows pure-Python code (the exact
# layers) and numpy code (sampling, moments, eigenbasis) by different amounts.
PROBE_PARTS = {
    "battery": ("fraction", "dict", "stream", "eigh"),
    "exact-sweep": ("fraction", "dict"),
    "sampling-sweep": ("stream", "eigh"),
}
SETUP_PARTS = ("import_numpy_scipy_s", "import_polydiff_s", "catalog_parse_s", "claim_registry_s")


class RunError(Exception):
    """The run could not be made; no result is printed."""


def percentile(values, q: float, min_beyond: int = 10) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights, so one request whose time a slow host phase stretched moves the
    estimate less than it moves a single order statistic.  Like the
    nearest-rank percentile it needs `min_beyond` samples above rank ceil(pn).
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    p = q / 100.0
    if n - max(1, math.ceil(p * n)) < min_beyond:
        raise RunError(f"p{q:g} of {n} samples has fewer than {min_beyond} samples beyond it")
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered)))


def request_costs(work: dict, parts: tuple[str, ...]) -> list[float]:
    """Each request's latency in units of the host probe timed around it.

    `work["probes"][i]` holds the start and the seconds of each part (named
    in `work["probe_parts"]`) of the probe run just before request i, and
    the last probe follows the last request.  The unit is the geometric
    mean, over the given parts, of each part's median over the PROBE_WINDOW
    probes on each side of the request; medians, so that one probe a short
    stall hit does not set it.
    """
    latencies, probes = work["latencies"], work["probes"]
    if len(probes) != len(latencies) + 1:
        raise RunError(f"{len(probes)} host probes for {len(latencies)} requests")
    columns = [1 + work["probe_parts"].index(name) for name in parts]
    costs = []
    for i, latency in enumerate(latencies):
        window = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 2]
        unit = statistics.geometric_mean([statistics.median(p[k] for p in window) for k in columns])
        costs.append(latency / unit)
    return costs


def host_reference_ms(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python Fraction loop: a host-speed
    diagnostic stored beside each run, never used to scale a metric."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = Fraction(0)
        for k in range(1, 20001):
            total += Fraction(1, k % 97 + 1)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def source_digest(root: str) -> str:
    """sha256 over the program's source files: one value per build."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(base)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: str, args, *extra: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        *extra,
    ]
    spawned_at = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"child timed out after {CHILD_TIMEOUT_S} s: {' '.join(extra)}") from exc
    if done.returncode != 0:
        raise RunError(f"child exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Records:
    """Values that must repeat for one build, kept across runs in a checkout."""

    def __init__(self, path: str):
        self.path = path
        self.values = {}
        if os.path.exists(path):
            with open(path) as handle:
                self.values = json.load(handle)

    def check(self, key: str, value) -> bool:
        """Store the first value for a key; later values must equal it."""
        if key in self.values:
            return self.values[key] == value
        self.values[key] = value
        return True

    def save(self) -> None:
        with open(self.path, "w") as handle:
            json.dump(self.values, handle, indent=1, sort_keys=True)


def check_work(workload: str, work: dict, manifest: list[str] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one workload child's outputs."""
    problems: list[str] = []
    if workload == "battery":
        report = json.loads(work["stdout"])
        statuses = {c["id"]: c["status"] for c in report["claims"]}
        ids = [c["id"] for c in report["claims"]]
        failed = sum(1 for s in statuses.values() if s != "pass")
        missing = [i for i in manifest if i not in statuses]
        failed += len(missing)
        if ids != manifest:
            problems.append("claim ids differ from the manifest")
        if work["exit_code"] != 0:
            problems.append(f"verify exited with {work['exit_code']}")
        for claim in report["claims"]:
            if claim["status"] != "pass":
                problems.append(f"claim {claim['id']} {claim['status']}: {claim['detail']}")
        return max(len(ids), len(manifest)), failed, problems
    for failure in work["failures"]:
        problems.append(f"request {failure['request']} failed: {failure['error']}")
    return len(work["latencies"]), len(work["failures"]), problems


def end_to_end(workload: str, work: dict, setups: list[dict]) -> dict[str, float]:
    costs = request_costs(work, PROBE_PARTS[workload])
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": work["peak_rss_mb"],
        "work_ref": math.fsum(costs),
        "latency_p50_ref": percentile(costs, 50),
        "latency_p90_ref": percentile(costs, 90),
    }


def wall_clock(work: dict) -> dict[str, float]:
    """The untraced child's wall-clock times, which the host's speed moves."""
    latencies = work["latencies"]
    return {
        "wall.work_s": work["work_s"],
        "wall.latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "wall.latency_p90_ms": percentile(latencies, 90) * 1000.0,
        "host.probe_ms": statistics.median(math.fsum(p[1:]) for p in work["probes"]) * 1000.0,
    }


def per_layer(workload: str, traced: dict, untraced: dict, setups: list[dict]) -> dict[str, float]:
    out = dict(traced["layers"])
    out.update(wall_clock(untraced))
    for part in SETUP_PARTS:
        out[f"cli.setup.{part}"] = statistics.median(s[part] for s in setups)
    out["trace.overhead_s"] = traced["work_s"] - untraced["work_s"]
    # in probe units, so a change of host speed between the children cancels
    traced_ref = math.fsum(request_costs(traced, PROBE_PARTS[workload]))
    untraced_ref = math.fsum(request_costs(untraced, PROBE_PARTS[workload]))
    out["trace.overhead_share"] = traced_ref / untraced_ref - 1.0
    out["trace.spans"] = traced["trace_spans"]
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes_computed"):
        return "bytes"
    return "count"


def fingerprint(workload: str, child: dict):
    """What a child's outputs must repeat as, for one build and seed."""
    if workload == "battery":
        return hashlib.sha256(child["stdout"].encode()).hexdigest()
    return child["round_digests"]


def repeat_keys(args, tree: str, child: dict, layers: dict | None) -> dict:
    """Values that must be identical in every run of this build and seed."""
    keys = {}
    # sampling-sweep defects are floats from the numeric layers; only their
    # finiteness is a correctness condition, so they are recorded, not compared
    if args.workload != "sampling-sweep":
        keys[f"{args.workload}.outputs:{tree}:{args.seed}:{args.seconds}"] = fingerprint(
            args.workload, child
        )
    if layers is not None:
        counts = {
            k: v for k, v in layers.items()
            if layer_unit(k) not in ("s", "ms") and not k.startswith("trace.overhead")
        }
        keys[f"{args.workload}.traced_counts:{tree}:{args.seed}:{args.seconds}"] = counts
    return keys


def measure(args, root: str) -> tuple[dict, dict]:
    import tracer as tracing

    manifest = None
    if args.workload == "battery":
        with open(os.path.join(root, MANIFEST)) as handle:
            manifest = [line.strip() for line in handle if line.strip()]
    state = os.path.join(root, STATE_DIR)
    os.makedirs(os.path.join(state, "runs"), exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"

    host_before = host_reference_ms()
    # set-up children on both sides of the workload child, so that the
    # median spans the host's state over the whole run
    setups = [run_child(root, args, "--setup-only")["setup"] for _ in range(SETUP_CHILDREN)]
    work = run_child(root, args)
    setups.append(work["setup"])
    setups += [run_child(root, args, "--setup-only")["setup"] for _ in range(SETUP_CHILDREN)]
    traced = None
    if args.trace:
        trace_path = os.path.join(state, "runs", f"{name}.spans.json")
        traced = run_child(root, args, "--trace", "--trace-out", trace_path)
    host_after = host_reference_ms()

    reported = traced or work
    attempted, failed, problems = check_work(args.workload, reported, manifest)
    layers = None
    if traced is not None:
        problems += check_work(args.workload, work, manifest)[2]
        layers = per_layer(args.workload, traced, work, setups)
        missing = tracing.missing_calls(args.workload, layers)
        if missing:
            problems.append(f"trace gap: no calls recorded for {missing}")
        if args.workload != "sampling-sweep" and (
            fingerprint(args.workload, traced) != fingerprint(args.workload, work)
        ):
            problems.append("traced outputs differ from untraced outputs")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        values = end_to_end(args.workload, work, setups)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    tree = source_digest(root)
    records = Records(os.path.join(state, "records.json"))
    for key, value in repeat_keys(args, tree, reported, layers).items():
        if not records.check(key, value):
            problems.append(f"{key.split(':')[0]} differs from an earlier run of this build and seed")
    records.save()

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "problems": problems,
        "host.ref_ms": {"before": host_before, "after": host_after},
        "environment": {
            **work["environment"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(root),
            "source_sha256": tree,
        },
        "setups": setups,
        "wall_clock": wall_clock(work),
        "latencies_s": work["latencies"],
        "probes": work["probes"],
        "outputs": work.get("outputs"),
        "fingerprint": fingerprint(args.workload, work),
    }
    with open(os.path.join(state, "runs", f"{name}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "polydiff", "__init__.py")]
    if args.workload == "battery":
        needed.append(MANIFEST)
    absent = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if absent:
        sys.stderr.write(f"error: run from a polydiff source checkout; missing {absent}\n")
        return 2
    sys.path.insert(0, HERE)
    try:
        result, record = measure(args, root)
    except RunError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    host = record["host.ref_ms"]
    print(f"host.ref_ms before={host['before']:.1f} after={host['after']:.1f}")
    print("wall clock " + " ".join(f"{k}={v:.6g}" for k, v in record["wall_clock"].items()))
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
