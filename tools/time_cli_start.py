"""Time the CLI's cold start and count the numpy and scipy modules it loads.

    python3 tools/time_cli_start.py [CHECKOUT ...]

Each CHECKOUT is the root of a source tree (default: this one).  Per round,
and alternating between the checkouts in that round, it runs
`python -m polydiff.cli models list` in a fresh interpreter with the
checkout's `src` first on PYTHONPATH, and records its wall time and peak RSS.
After ROUNDS rounds it prints one JSON object keyed by checkout directory
name: the median and the quartiles of both over the rounds, every run,
whether (and how many) `numpy` modules are in `sys.modules` after an
in-process `models list`, and the same for `scipy` after
`import polydiff.claims, polydiff.cli` (claims loads the float layer, so
numpy, but no scipy).  With PYTHONDONTWRITEBYTECODE set, every run compiles
the sources it imports, which the report records.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 21
COMMAND = [sys.executable, "-m", "polydiff.cli", "models", "list"]
# each probe prints the modules of one package loaded after its statement
PROBES = {
    "numpy": "import os, polydiff.cli; polydiff.cli.main(['models', 'list', '--out', os.devnull])",
    "scipy": "import polydiff.claims, polydiff.cli",
}
LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {!r})))"


def environment(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def cold_start(checkout: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one `models list` run."""
    start = time.perf_counter()
    child = subprocess.Popen(COMMAND, env=environment(checkout), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    elapsed = time.perf_counter() - start
    # wait4 reaped the child, so Popen must not wait for it again
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise SystemExit(f"{checkout}: models list exited {child.returncode}")
    # ru_maxrss is in KiB on Linux
    return elapsed, usage.ru_maxrss / 1024


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4), "runs": [round(v, 4) for v in values]}


def main() -> None:
    checkouts = [Path(arg).resolve() for arg in sys.argv[1:]]
    checkouts = checkouts or [Path(__file__).resolve().parents[1]]
    runs = {checkout: [] for checkout in checkouts}
    for _ in range(ROUNDS):
        for checkout in checkouts:
            runs[checkout].append(cold_start(checkout))
    report = {}
    for checkout, timings in runs.items():
        entry = report[checkout.name] = {
            "models_list_s": summary([t for t, _ in timings]),
            "peak_rss_mb": summary([m for _, m in timings]),
        }
        for package, statement in PROBES.items():
            probe = subprocess.run(
                [sys.executable, "-c", f"{statement}; {LOADED.format(package)}"],
                env=environment(checkout), capture_output=True, text=True, check=True,
            )
            modules = json.loads(probe.stdout)
            entry[f"{package}_loaded"] = bool(modules)
            entry[f"{package}_modules"] = len(modules)
    compiles = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    print(json.dumps(
        {"rounds": ROUNDS, "command": COMMAND[1:], "compiles_every_run": compiles, "checkouts": report},
        indent=2,
    ))


if __name__ == "__main__":
    main()
