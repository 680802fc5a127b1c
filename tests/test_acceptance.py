"""Acceptance criteria, one test per criterion, one printed verdict line each.

The full claim battery runs once per session (seed 7) and most criteria read
their evidence from that report; the determinism criterion re-runs the CLI
end to end.  Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from polydiff.boundary import solve_admissibility
from polydiff.catalog import get_descriptor, get_model, model_names
from polydiff.claims import run_claims
from polydiff.spectra import graded_eigenvalues

SEED = 7
PINNED = pathlib.Path(__file__).parent / "data" / "battery_seed7_exact.json"


# the battery fixture's first failure and its traceback, re-raised to every
# later test
_BATTERY_FAILURE: list[tuple[BaseException, object]] = []


@pytest.fixture(scope="module")
def battery():
    """The seed-7 report's results by claim id.

    pytest keeps an Exception from a module fixture's set-up for the
    module's later tests, but not a BaseException such as the suite's time
    limit: each later test would run the battery again until it too ran out
    of time.  The fixture keeps its first failure of any kind and re-raises
    it instead.
    """
    if _BATTERY_FAILURE:
        # the first traceback, so that each re-raise does not lengthen it
        failure, traceback = _BATTERY_FAILURE[0]
        raise failure.with_traceback(traceback)
    try:
        report = run_claims(seed=SEED)
    except BaseException as failure:
        _BATTERY_FAILURE.append((failure, failure.__traceback__))
        raise
    return {result.id: result for result in report.results}


def verdict(criterion: str, ok: bool, summary: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"{criterion} failed: {summary}"


def _status(battery, claim_id: str) -> bool:
    return battery[claim_id].status == "pass"


def test_a1_admissibility_dimensions(battery):
    unique = battery["admissibility.unique-metrics"]
    frozen = battery["admissibility.square-disk-regression"]
    extra = battery["admissibility.coaxial-extra-family"]
    ok = (
        unique.status == "pass"
        and frozen.status == "pass"
        and extra.status == "pass"
        and extra.detail["dimension"] >= 2
    )
    dims = {name: info["dimension"] for name, info in unique.detail.items()}
    # each of the claim's eight solves, timed here so that the report holds
    # no wall-clock value
    timing = True
    for name in unique.detail:
        boundary = get_model(name).boundary
        start = time.perf_counter()
        solve_admissibility(boundary)
        timing = timing and time.perf_counter() - start < 1.0
    verdict(
        "A1",
        ok and timing,
        f"kernel dimensions {dims}, square/disk frozen {frozen.detail}, "
        f"coaxial a=0 dimension {extra.detail['dimension']}, all solves < 1 s",
    )


def test_a2_exact_boundary_residuals(battery):
    names = [n for n in model_names() if get_model(n).boundary.factors]
    ok = all(_status(battery, f"{n}.boundary-residual") for n in names)
    family = _status(battery, "nodal_cubic_cover_3d.family-residuals")
    verdict(
        "A2",
        ok and family,
        f"first-order boundary identity exactly zero for {len(names)} factored "
        f"models incl. both 3D covers and the cover metric family",
    )


def test_a3_degree_preservation(battery):
    ok = all(_status(battery, f"{n}.graded-triangularity") for n in model_names())
    verdict("A3", ok, "graded matrices block-upper-triangular to degree 12, all models")


def test_a4_closed_form_spectra(battery):
    deltoid_default = _status(battery, "deltoid.spectrum-closed-form")
    deltoid_family = _status(battery, "deltoid.spectrum-family")

    disk = get_model("disk")
    spectrum = graded_eigenvalues(disk.operator, 8)
    disk_ok = all(
        spectrum.multiset(k) == [Fraction(-k * (k + 1))] * (k + 1) for k in range(9)
    )

    jacobi_ok = True
    for a, b in (("1", "1"), ("5/2", "3")):
        model = get_model("jacobi1d", {"a": a, "b": b})
        s = graded_eigenvalues(model.operator, 12)
        av, bv = Fraction(a), Fraction(b)
        jacobi_ok = jacobi_ok and all(
            s.multiset(n) == [-n * (n + av + bv - 1)] for n in range(13)
        )

    products = _status(battery, "product.structure")
    ok = deltoid_default and deltoid_family and disk_ok and jacobi_ok and products
    verdict(
        "A4",
        ok,
        "deltoid closed form exact to degree 8 at p in {-1/2, 0, 1/2}; disk "
        "spectrum -k(k+1); 1D interval family exact to degree 12; product sums exact",
    )


def test_a5_self_adjointness(battery):
    gauss = ["square", "disk", "triangle"]
    mc = ["deltoid", "swallowtail", "nodal_cubic", "coaxial_parabolas"]
    gauss_ok = all(_status(battery, f"{n}.symmetry-defect") for n in gauss)
    mc_ok = all(_status(battery, f"{n}.symmetry-defect") for n in mc)
    control = _status(battery, "negative.perturbed-drift")
    defects = {
        n: battery[f"{n}.symmetry-defect"].detail["defect"] for n in gauss + mc
    }
    verdict(
        "A5",
        gauss_ok and mc_ok and control,
        f"defects {{{', '.join(f'{k}: {v:.1e}' for k, v in defects.items())}}}, "
        f"perturbed control {battery['negative.perturbed-drift'].detail['defect']:.2f} > 0.1",
    )


def test_a6_eigenbasis_quality(battery):
    descriptors = [get_descriptor(name) for name in model_names()]
    bounded = [d.name for d in descriptors if d.compact and d.dim <= 2]
    ok = True
    worst_gram = worst_residual = worst_cross = 0.0
    for name in bounded:
        result = battery[f"{name}.eigenbasis-quality"]
        ok = ok and result.status == "pass"
        worst_gram = max(worst_gram, result.detail["gram_deviation"])
        worst_residual = max(worst_residual, result.detail["max_residual"])
        worst_cross = max(worst_cross, result.detail["pencil_cross_check"])
    verdict(
        "A6",
        ok and worst_cross < 1e-6,
        f"{len(bounded)} bounded models, worst Gram deviation {worst_gram:.1e}, "
        f"worst operator residual {worst_residual:.1e}, "
        f"worst energy-pencil gap {worst_cross:.1e}",
    )


def test_a7_curvature(battery):
    constants = {
        "disk.curvature": 2,
        "coaxial_parabolas.curvature": 2,  # 1 + a at the default a = 1
        "parabola_tangent_secant.curvature": 2,
        "parabola_two_tangents.curvature": 0,
        "cuspidal_cubic_secant.curvature": 2,
        "cuspidal_cubic_tangent.curvature": 2,
        "swallowtail.curvature": 2,
        "deltoid.curvature": 0,
    }
    ok = True
    for claim_id, value in constants.items():
        result = battery[claim_id]
        ok = ok and result.status == "pass" and result.detail["value"] == str(value)
    ok = ok and _status(battery, "coaxial_parabolas.curvature-family")
    nodal = battery["nodal_cubic.curvature"]
    ok = ok and nodal.status == "pass" and nodal.detail["value"] is None
    ok = ok and _status(battery, "disk.curvature-nonconstant")
    verdict(
        "A7",
        ok,
        "exact constant values match (incl. coaxial 1+a for a in {0,1,3}); nodal "
        "cubic and disk(1,1) are exactly non-constant",
    )


def test_a8_pullbacks(battery):
    ids = ["coaxial_parabolas.pullback", "cuspidal_cubic_secant.pullback", "deltoid.pullback"]
    ok = all(_status(battery, i) for i in ids)
    scales = {i.split(".")[0]: battery[i].detail["scale"] for i in ids}
    residual_terms = sum(
        battery[i].detail["gamma_residual_terms"] + battery[i].detail["L_residual_terms"]
        for i in ids
    )
    verdict(
        "A8",
        ok and residual_terms == 0 and set(scales.values()) == {"1"},
        f"three cover maps verified exactly, {residual_terms} residual terms, scales {scales}",
    )


def test_a9_measure_admissibility(battery):
    rejected = _status(battery, "negative.nodal-inverse-sqrt-det")
    accepted = all(_status(battery, f"{n}.drift-degree") for n in model_names())
    verdict(
        "A9",
        rejected and accepted,
        "nodal inverse-sqrt-determinant measure rejected; every catalog default "
        "yields an affine drift",
    )


def test_a10_gaussian_plane_decomposition(battery):
    result = battery["gaussian_plane.decomposition"]
    verdict(
        "A10",
        result.status == "pass",
        f"exact splitting into constant-coefficient part plus squared rotation "
        f"for {len(result.detail)} parameter triples",
    )


def test_a11_negative_boundary(battery):
    result = battery["negative.quartic-boundary"]
    verdict(
        "A11",
        result.status == "pass" and result.detail["dimension"] == 0,
        f"quartic boundary: kernel dimension {result.detail['dimension']}, "
        f"so no elliptic combination",
    )


def test_a12_determinism_and_runtime():
    command = [
        sys.executable, "-m", "polydiff.cli", "verify", "--model", "all",
        "--seed", "7", "--format", "json",
    ]
    # the child imports polydiff from this checkout's src, whatever the
    # caller's PYTHONPATH holds
    source = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    first = subprocess.run(command, env=env, capture_output=True, text=True)
    elapsed_first = time.perf_counter() - start
    second = subprocess.run(command, env=env, capture_output=True, text=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and elapsed_first < 300.0
    )
    payload = json.loads(first.stdout)
    verdict(
        "A12",
        ok and payload["summary"]["failed"] == 0,
        f"two runs byte-identical ({len(first.stdout)} bytes), "
        f"{payload['summary']['passed']} claims green in {elapsed_first:.0f}s < 300s",
    )


def exact_part(results) -> list[dict]:
    """The exact part of a battery report, as `tests/data` pins it: each
    claim's id, kind and status, and every detail leaf that is not a float
    as a [path, value] pair, the path the keys and list indices leading to
    it."""

    def leaves(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                yield from leaves(item, path + [key])
        elif isinstance(value, list):
            for index, item in enumerate(value):
                yield from leaves(item, path + [index])
        elif not isinstance(value, float):
            yield [path, value]

    return [
        {
            "id": result.id,
            "kind": result.kind,
            "status": result.status,
            # through JSON, as `verify --format json` writes the detail
            "detail": list(leaves(json.loads(json.dumps(result.detail)), [])),
        }
        for result in results
    ]


def test_battery_exact_output_is_pinned(battery):
    # Floats are left out: their last digits follow the array layout of the
    # float sums that make them, not the claim.  Everything else must equal
    # the checked-in file, which `python3 tools/pin_battery_output.py`
    # rewrites after a change that moves a value on purpose.
    pinned = {claim["id"]: claim for claim in json.loads(PINNED.read_text())}
    actual = {claim["id"]: claim for claim in exact_part(battery.values())}
    moved = [f"{i}: not in this run" for i in pinned if i not in actual]
    moved += [f"{i}: not pinned" for i in actual if i not in pinned]
    for claim_id in (i for i in pinned if i in actual):
        was, now = pinned[claim_id], actual[claim_id]
        for key in ("kind", "status"):
            if was[key] != now[key]:
                moved.append(f"{claim_id}: {key} {was[key]!r} -> {now[key]!r}")
        # as JSON text, so that true and 1 differ
        was_leaves, now_leaves = (
            {json.dumps(path): json.dumps(value) for path, value in claim["detail"]}
            for claim in (was, now)
        )
        for path in sorted(was_leaves.keys() | now_leaves.keys()):
            before, after = was_leaves.get(path, "absent"), now_leaves.get(path, "absent")
            if before != after:
                moved.append(f"{claim_id}: detail {path} {before} -> {after}")
    if not moved and list(pinned) != list(actual):
        moved.append("the claims are in another order")
    verdict(
        "pinned output",
        not moved,
        f"{len(actual)} claims' ids, kinds, statuses and exact detail equal the pinned file"
        if not moved
        else "moved:\n" + "\n".join(moved),
    )
