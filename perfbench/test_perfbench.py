"""Tests of the benchmark's own logic: percentiles, self time, schedules.

Run with `PYTHONPATH=src python -m pytest perfbench -q` from the repo root.
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_percentile_weights_order_statistics_around_the_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert 89.0 < run.percentile(values, 90) < 92.0
    assert run.percentile([7.0] * 11, 0) == pytest.approx(7.0)
    # one outlier far above the rank barely moves the estimate
    stretched = list(range(1, 101)) + [10_000]
    assert run.percentile(stretched, 50) == pytest.approx(51.0, abs=0.01)


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(run.RunError):
        run.percentile(list(range(99)), 90)
    run.percentile(list(range(100)), 90)


def test_request_costs_follow_the_host_speed_around_each_request():
    # the host halves its speed from probe 30 on: every part, probe and
    # request alike, takes twice as long, so the costs stay the same, except
    # for request 29 between the last fast probe and the first slow one
    speed = [1.0] * 30 + [2.0] * 31
    work = {
        "latencies": [0.1 * s for s in speed[:-1]],
        "probes": [[float(i), 0.004 * s, 0.016 * s, 1.0] for i, s in enumerate(speed)],
        "probe_parts": ["fast", "slow", "unused"],
    }
    costs = run.request_costs(work, ("fast", "slow"))
    del costs[29]
    assert costs == pytest.approx([0.1 / 0.008] * 59)
    assert run.request_costs(work, ("slow",))[:29] == pytest.approx([0.1 / 0.016] * 29)
    # one probe that a stall stretched tenfold does not move its neighbours
    work["probes"][10][1] *= 10
    assert run.request_costs(work, ("fast", "slow"))[8:13] == pytest.approx([12.5] * 5)
    work["probes"].pop()
    with pytest.raises(run.RunError):
        run.request_costs(work, ("fast", "slow"))


def test_self_time_subtracts_covered_child_time():
    # name, start, end, parent, request
    spans = [
        ["outer", 0.0, 10.0, None, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["child", 3.0, 6.0, 0, 0],  # overlaps its sibling: covered once
        ["leaf", 2.0, 3.0, 1, 0],
        ["outer", 20.0, 21.0, None, 1],
    ]
    times = tracer.self_times(spans)
    assert times["outer"] == (2, pytest.approx(5.0 + 1.0))
    assert times["child"] == (2, pytest.approx((3.0 - 1.0) + 3.0))
    assert times["leaf"] == (1, pytest.approx(1.0))


def test_tracer_nests_spans_and_tags_requests():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    t.request = "r1"
    assert outer(1) == 4
    (o_name, o_start, o_end, o_parent, o_req), (i_name, i_start, i_end, i_parent, i_req) = t.spans
    assert (o_name, o_parent, o_req) == ("outer", None, "r1")
    assert (i_name, i_parent, i_req) == ("inner", 0, "r1")
    assert o_start < i_start < i_end < o_end
    times = tracer.self_times(t.spans)
    assert times["outer"][1] == pytest.approx((o_end - o_start) - (i_end - i_start))


@pytest.mark.parametrize("workload", ["exact-sweep", "sampling-sweep"])
def test_schedule_repeats_per_seed_and_keeps_counts_across_seeds(workload):
    first = workloads.schedule(workload, 11, 2)
    assert workloads.schedule(workload, 11, 2) == first
    other = workloads.schedule(workload, 12, 2)
    count = lambda reqs: Counter((r.kind, r.model) for r in reqs)  # noqa: E731
    assert count(other) == count(first)
    assert count(first) == Counter({slot: 2 for slot in workloads.slots(workload)})
    assert [r.params for r in other] != [r.params for r in first]


def test_sampling_requests_avoid_the_cover_point():
    from polydiff.catalog import get_model
    from polydiff.quadrature import cover_applies

    for request in workloads.schedule("sampling-sweep", 5, 1):
        assert not cover_applies(get_model(request.model, dict(request.params)))


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS) == set(run.PROBE_PARTS)
    assert all(set(parts) <= set(worker.HostProbe.PARTS) for parts in run.PROBE_PARTS.values())
    layers = {f"{n}.{field}" for n in tracer.span_names() for field in ("calls", "self_s")}
    layers |= set(tracer.COUNTS)
    layers |= {f"claims.{kind}.total_s" for kind in tracer.CLAIM_KINDS}
    layers |= {"quadrature.accept_ratio", "spectra.exact_block_ratio"}
    layers |= {f"cli.setup.{part}" for part in run.SETUP_PARTS}
    layers |= {"trace.overhead_s", "trace.overhead_share", "trace.spans"}
    layers |= {"wall.work_s", "wall.latency_p50_ms", "wall.latency_p90_ms", "host.probe_ms"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers
    }


def test_install_rebinds_from_imports_and_counts_blocks():
    # in a child process, so the wrappers never reach this test session
    script = """
import json, tracer
import polydiff.claims, polydiff.spectra
t = tracer.Tracer()
tracer.install(t)
from polydiff import catalog, claims, quadrature, spectra
assert claims.get_model is catalog.get_model
assert spectra.gram_matrix is quadrature.gram_matrix
assert quadrature.gram_matrix.__wrapped__ is not None
model = catalog.get_model("nodal_cubic_cover_3d", {"A": "1"})
spectra.graded_eigenvalues(model.operator, 3)
print(json.dumps(tracer.layer_metrics(t)))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(ROOT, "src")]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout)
    assert metrics["catalog.get_model.calls"] == 1
    assert metrics["operator.GradedOperatorMatrix.calls"] == 1
    assert metrics["spectra.block_eigenvalues.calls"] == 4
    assert metrics["spectra.blocks_triangular"] + metrics["spectra.blocks_nontriangular"] == 4
    assert metrics["spectra.blocks_nontriangular"] >= 1
    assert metrics["linalg.RationalMatrix.rref.calls"] == 0
