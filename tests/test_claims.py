"""The claim registry: coverage, negative controls, report determinism."""

import json
import pathlib
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from polydiff import quadrature, spectra
from polydiff.catalog import get_model, model_names
from polydiff.claims import RunContext, build_claims, run_claims
from polydiff.operator import CoMetric, MeasureSpec

MANIFEST = pathlib.Path(__file__).parent / "data" / "claims_manifest.txt"


def test_registry_matches_checked_in_manifest():
    recorded = MANIFEST.read_text().split()
    assert [c.id for c in build_claims()] == recorded


def test_claim_kind_tally():
    # only the sampled models' quadrature claims decide by a float tolerance
    claims = build_claims()
    kinds = Counter(c.kind for c in claims)
    assert kinds == {
        "exact-polynomial-identity": 152,
        "exact-eigenvalue": 9,
        "numeric-tolerance": 24,
        "negative-control": 6,
    }
    numeric = [c.id for c in claims if c.kind == "numeric-tolerance"]
    assert all(i.endswith((".symmetry-defect", ".eigenbasis-quality")) for i in numeric), numeric


def test_claim_moments_refuse_monte_carlo():
    # off the cover point deltoid falls back to rejection sampling, whose
    # moments the deterministic-rule tolerances do not fit
    ctx = RunContext(seed=7)
    with pytest.raises(ValueError, match="no deterministic rule"):
        ctx.moments(get_model("deltoid", {"p": "0"}), 3)
    model = get_model("deltoid")
    rule = quadrature.sample_domain(model, model.sampler(seed=7), 3)
    assert rule.proposals is None
    assert ctx.moments(model, 3).points.tobytes() == rule.points.tobytes()


def test_claim_moments_refuse_monte_carlo_before_drawing(monkeypatch):
    def drawn(*args):
        raise AssertionError("sample_domain was called")

    monkeypatch.setattr(quadrature, "sample_domain", drawn)
    with pytest.raises(ValueError, match="no deterministic rule"):
        RunContext(seed=7).moments(get_model("deltoid", {"p": "0"}), 13)


def test_every_model_contributes_a_claim():
    claims = build_claims()
    covered = {c.model for c in claims}
    for name in model_names():
        assert name in covered, f"{name} has no claim"


def test_claim_ids_unique():
    ids = [c.id for c in build_claims()]
    assert len(ids) == len(set(ids))


def test_each_per_model_claim_reads_its_own_model():
    # a runner that looked its model name up when it ran, rather than when
    # it was registered, would check the registry's last model under every
    # model's id and still pass
    asked: list[str] = []

    class Recording(RunContext):
        def model(self, name, params=None):
            asked.append(name)
            raise LookupError("only the first model asked for is needed")

    claims = [c for c in build_claims() if c.model != "global"]
    assert claims
    for claim in claims:
        asked.clear()
        claim.execute(Recording())
        assert asked[:1] == [claim.model], claim.id


def test_negative_controls_pass_as_expected_failures():
    ctx = RunContext(seed=3)
    by_id = {c.id: c for c in build_claims()}
    for claim_id in (
        "negative.nodal-inverse-sqrt-det",
        "negative.corrupted-spectrum",
    ):
        result = by_id[claim_id].execute(ctx)
        assert result.status == "pass", result.detail


def test_corrupted_spectrum_never_matches_a_numeric_block(monkeypatch):
    # degree 3 reported as a numeric fallback at floats equal to the shifted
    # table: equal as a float is not a match, so the control still lists it
    original = spectra.block_eigenvalues

    def numeric_shifted_degree_three(block, scale):
        entries = original(block, scale)
        if len(block) != 4:
            return entries
        return [
            spectra.EigenvalueEntry(float(e.value) + 1, e.multiplicity, "numeric-block")
            for e in entries
        ]

    monkeypatch.setattr(spectra, "block_eigenvalues", numeric_shifted_degree_three)
    claim = {c.id: c for c in build_claims()}["negative.corrupted-spectrum"]
    result = claim.execute(RunContext(seed=3))
    assert result.status == "pass", result.detail
    assert result.detail["mismatched_degrees"] == [1, 2, 3, 4, 5, 6]


def test_catalog_metric_outside_its_admissible_span_fails_the_span_claim():
    # g + I is a valid cometric, but the square's admissible span holds g
    # and not the identity, whose row d_x (1 - x) = -1 is no affine multiple
    # of the boundary factor 1 - x, so g + I lies outside the span
    claim = {c.id: c for c in build_claims()}["admissibility.catalog-metric-in-span"]
    passed = claim.execute(RunContext(seed=7))
    assert passed.status == "pass", passed.detail
    ctx = RunContext(seed=7)
    model = ctx.model("square")
    g = model.cometric
    model.cometric = CoMetric([[g[i, j] + int(i == j) for j in range(2)] for i in range(2)])
    result = claim.execute(ctx)
    assert result.status == "fail", result.detail
    assert result.detail["square"] == {"dimension": 2, "in_span": False}
    assert {k: v for k, v in result.detail.items() if k != "square"} == {
        k: v for k, v in passed.detail.items() if k != "square"
    }


def test_drift_moved_off_the_measure_fails_the_corrected_drift_claim():
    # nodal_cubic's measure exponent raised by one moves the derived drift,
    # while the catalog formulas are read at the model's own p; a claim gated
    # on the corrected formulas fails, where one that only reported the
    # paper's garbled text beside the derived drift passed
    claim = {c.id: c for c in build_claims()}["nodal_cubic.drift-tabulated"]
    passed = claim.execute(RunContext(seed=7))
    assert passed.status == "pass", passed.detail
    assert passed.detail["erratum"] is True
    assert passed.detail["tabulated"] == ["-4*x", "-15*y"]
    ctx = RunContext(seed=7)
    model = ctx.model("nodal_cubic")
    (factor, exponent), = model.measure.factor_exponents
    model.measure = MeasureSpec(model.dim, ((factor, exponent + 1),))
    result = claim.execute(ctx)
    assert result.status == "fail", result.detail
    assert result.detail["derived"] == ["12 - 20*x", "-33*y"]
    assert result.detail["corrected"] == passed.detail["corrected"]
    assert result.detail["matches"] == [False, False]


def test_filter_skips_other_models():
    report = run_claims(model_filter="jacobi1d", seed=5)
    statuses = {r.id: r.status for r in report.results}
    assert statuses["jacobi1d.spectrum-closed-form"] == "pass"
    assert statuses["deltoid.boundary-residual"] == "skip"
    assert report.skipped > 0 and report.failed == 0


def test_exact_claims_report_deterministically():
    first = run_claims(model_filter="square", seed=9)
    second = run_claims(model_filter="square", seed=9)
    a = json.dumps(first.to_jsonable(), sort_keys=True)
    b = json.dumps(second.to_jsonable(), sort_keys=True)
    assert a == b


def test_crashing_claim_reports_failure():
    from polydiff.claims import Claim

    def boom(_ctx):
        raise RuntimeError("intentional")

    claim = Claim("x.boom", "global", "numeric-tolerance", boom)
    result = claim.execute(RunContext())
    assert result.status == "fail"
    assert "intentional" in result.detail["error"]
    # the runner lives outside the package, so the innermost package frame
    # is the call in Claim.execute
    assert re.fullmatch(r"polydiff/claims\.py:\d+ in execute", result.detail["frame"])


def test_crashing_claim_names_innermost_package_frame():
    from polydiff.catalog import CatalogError, get_descriptor
    from polydiff.claims import Claim

    def unknown_model(_ctx):
        return get_descriptor("no-such-model")

    claim = Claim("x.unknown", "global", "numeric-tolerance", unknown_model)
    result = claim.execute(RunContext())
    assert result.status == "fail"
    assert result.detail["error"].startswith(CatalogError.__name__)
    frame = result.detail["frame"]
    assert re.fullmatch(r"polydiff/catalog\.py:\d+ in get_descriptor", frame), frame


def test_cover_symmetry_defect_gates_on_the_monte_carlo_cross_check(monkeypatch):
    from polydiff import claims

    claim = {c.id: c for c in build_claims()}["deltoid.symmetry-defect"]
    ctx = RunContext(seed=7)
    result = claim.execute(ctx)
    detail = result.detail
    assert result.status == "pass", detail
    assert detail["mc_proposals"] == 1_000_000
    assert 0 < detail["mc_accepted"] <= detail["mc_proposals"]
    assert detail["mc_max_z"] < detail["mc_z_gate"] == claims.MC_Z_GATE
    assert detail["rule_moment_gap"] < detail["rule_gap_tolerance"] == claims.RULE_GAP_TOL
    # the claim itself rests on the exact rule, and the Monte Carlo sample
    # is not kept for the rest of the run
    cached = ctx.moments(ctx.model("deltoid"), 13)
    assert cached.points.shape[0] < 10_000
    # the claim builds its cover's rule at degree 13 and no other: the
    # cross-check's reference is the exact moments, not a rule at twice it
    degrees = []
    sample_domain = quadrature.sample_domain

    def recording(model, sampler, degree):
        degrees.append(degree)
        return sample_domain(model, sampler, degree)

    monkeypatch.setattr(quadrature, "sample_domain", recording)
    assert claim.execute(RunContext(seed=7)).detail == detail
    assert degrees == [13]
    monkeypatch.setattr(claims, "MC_Z_GATE", 0.0)
    failed = claim.execute(RunContext(seed=7))
    assert failed.status == "fail"
    assert failed.detail["defect"] == detail["defect"]


def _cover_claim_with_nodes(monkeypatch, name, nodes):
    """`name`'s symmetry-defect claim, run with its cover's product rule
    replaced by `nodes(cover, exactness)`."""
    cover = quadrature.COVER_SAMPLERS[name]
    monkeypatch.setitem(
        quadrature.COVER_SAMPLERS, name, replace(cover, nodes=lambda e: nodes(cover, e))
    )
    claim = {c.id: c for c in build_claims()}[f"{name}.symmetry-defect"]
    return claim.execute(RunContext(seed=7))


def test_rule_gate_fails_a_cover_rule_one_percent_heavy(monkeypatch):
    # the symmetry defect is scale-free and the Monte Carlo draw is held
    # against the exact moments, so neither sees the rule's mass; the rule
    # gate reads it at the constant monomial
    from polydiff import claims

    def heavier(cover, exactness):
        points, weights = cover.nodes(exactness)
        return points, 1.01 * weights

    result = _cover_claim_with_nodes(monkeypatch, "coaxial_parabolas", heavier)
    detail = result.detail
    assert result.status == "fail"
    assert detail["defect"] < claims.DEFECT_TOL
    assert detail["mc_max_z"] < claims.MC_Z_GATE
    assert detail["rule_moment_gap"] == pytest.approx(0.01, rel=1e-9)


@pytest.mark.parametrize("name", ["deltoid", "swallowtail", "cuspidal_cubic_tangent"])
def test_rule_gate_fails_a_cover_rule_without_its_boundary_nodes(name, monkeypatch):
    from polydiff import claims

    model = get_model(name)

    def inside(cover, exactness):
        points, weights = cover.nodes(exactness)
        plane = quadrature._realize(cover.maps, points).T
        keep = (quadrature.eval_floats(model.boundary.factors, plane) > 0).all(axis=0)
        assert not keep.all()
        return points[keep], weights[keep]

    result = _cover_claim_with_nodes(monkeypatch, name, inside)
    assert result.status == "fail"
    assert result.detail["mc_max_z"] < claims.MC_Z_GATE
    assert result.detail["rule_moment_gap"] > 1e-4


def test_rule_gate_fails_a_sphere_rule_one_angle_short(monkeypatch):
    # e equispaced angles average trigonometric polynomials of degree < e
    # only: the degree-13 moments on parabola_tangent_secant (map degree 4)
    # lose exactness in their top terms, by 5e-9, which neither the defect
    # nor the Monte Carlo draw resolves
    from polydiff import claims

    def one_angle_short(cover, exactness):
        (z, phi), weights = quadrature._product(
            quadrature._jacobi_rule_01(exactness // 2 + 1, 0.0, 0.0),
            quadrature._equispaced(exactness),
        )
        z = 2.0 * z - 1.0
        r = np.sqrt(1.0 - z * z)
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z]), weights

    result = _cover_claim_with_nodes(monkeypatch, "parabola_tangent_secant", one_angle_short)
    detail = result.detail
    assert result.status == "fail"
    assert detail["defect"] < claims.DEFECT_TOL
    assert detail["mc_max_z"] < claims.MC_Z_GATE
    assert detail["rule_moment_gap"] > 1e-9


def test_gauss_symmetry_defect_has_no_cross_check():
    claim = {c.id: c for c in build_claims()}["disk.symmetry-defect"]
    result = claim.execute(RunContext(seed=7))
    assert result.status == "pass"
    assert not any(key.startswith("mc_") for key in result.detail)


def test_eigenbasis_claim_counts_numeric_block_functions(monkeypatch):
    from polydiff import spectra

    claim = {c.id: c for c in build_claims()}["square.eigenbasis-quality"]
    result = claim.execute(RunContext(seed=7))
    assert result.status == "pass"
    assert result.detail["numeric_block_functions"] == 0
    # every block reported as a numeric fallback at its exact eigenvalues:
    # the functions come from float kernels and each is counted
    original = spectra.block_eigenvalues

    def numeric(block, scale):
        return [
            spectra.EigenvalueEntry(float(e.value), e.multiplicity, "numeric-block")
            for e in original(block, scale)
        ]

    monkeypatch.setattr(spectra, "block_eigenvalues", numeric)
    forced = claim.execute(RunContext(seed=7))
    assert forced.status == "pass", forced.detail
    assert forced.detail["numeric_block_functions"] == 28
    assert forced.detail["max_residual"] < 1e-12
