"""Command-line surface: parsing, exit codes, output round trips."""

import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polydiff import cli, spectra
from polydiff.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_VERIFY, build_parser, main
from polydiff.quadrature import eval_floats


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_models_list():
    args = build_parser().parse_args(["models", "list"])
    assert args.command == "models"


def test_parse_spectrum_plan():
    args = build_parser().parse_args(
        ["spectrum", "--model", "deltoid", "--param", "p=-1/2",
         "--degree", "8", "--format", "json"]
    )
    assert args.model == "deltoid" and args.degree == 8


def test_parse_admissible_plan():
    args = build_parser().parse_args(
        ["admissible", "--factor", "1-x^2-y^2", "--witness", "0,0"]
    )
    assert args.factor == ["1-x^2-y^2"]


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["frobnicate"])
    assert excinfo.value.code == 2


def test_models_list_json(capsys):
    code, out, _ = run_cli(capsys, "models", "list", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert any(row["name"] == "deltoid" for row in payload)


def test_spectrum_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--model", "jacobi1d", "--param", "a=2", "--param", "b=1",
        "--degree", "4", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["params"] == {"a": "2", "b": "1"}
    # rationals string-encoded, exactly re-parseable: -n(n+a+b-1) at n = 3
    assert Fraction(payload["degrees"][3]["eigenvalues"][0]) == Fraction(-15)


def test_unknown_model_is_data_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--model", "nope", "--degree", "2")
    assert code == EXIT_DATA
    assert "unknown model" in err


def test_bad_parameter_is_data_error(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--model", "deltoid", "--param", "p=-2", "--degree", "2"
    )
    assert code == EXIT_DATA


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--model", "disk", "--degree", "2"],
        ["curvature", "--model", "disk", "--format", "json"],
        ["orthogonality", "--model", "disk", "--degree", "1", "--format", "json"],
        ["boundary-points", "--model", "disk", "-n", "4"],
        ["verify", "--model", "disk", "--measure", "det^-1/2"],
        ["verify", "--model", "disk"],
    ],
)
def test_repeated_parameter_is_data_error(capsys, argv):
    # the later value would otherwise overwrite the earlier one silently
    code, out, err = run_cli(capsys, *argv, "--param", "a=1/2", "--param", "b=1", "--param", "a=3")
    assert code == EXIT_DATA
    assert out == ""
    assert "--param a is given more than once" in err


def test_malformed_polynomial_is_data_error(capsys):
    code, _, err = run_cli(capsys, "admissible", "--factor", "x?+1", "--witness", "0,0")
    assert code == EXIT_DATA


def test_admissible_negative_reports_no_solution(capsys):
    code, out, _ = run_cli(
        capsys, "admissible", "--factor", "1-x^4-y^4", "--witness", "0,0",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] == 0
    assert payload["message"] == "no elliptic solution"


def test_admissible_reports_a_grid_that_misses_the_domain(capsys):
    # the disk of radius 1/10 holds none of the 8 x 8 grid nodes around the
    # witness, so no basis element was checked for ellipticity
    code, out, _ = run_cli(
        capsys, "admissible", "--factor", "1/100-x^2-y^2", "--witness", "0,0",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["grid_points"] == 0
    assert payload["dimension"] > 0
    assert all(entry["elliptic_on_grid"] is None for entry in payload["basis"])
    assert payload["message"] == "no sample grid point lies in the domain"
    code, out, _ = run_cli(
        capsys, "admissible", "--factor", "1-x^2-y^2", "--witness", "0,0", "--format", "json",
    )
    # the unit disk holds grid nodes, on which each basis element was checked
    payload = json.loads(out)
    assert payload["grid_points"] > 0
    assert all(entry["elliptic_on_grid"] is False for entry in payload["basis"])
    assert payload["message"] == "no basis element elliptic on the sample grid"


def test_admissible_first_order_pairs_each_factor_with_its_quotient(capsys):
    # on the triangle each basis element's first_order[k] is S_k of the k-th
    # --factor: sum_j g^ij d_j F_k = S_k^i F_k, read back from the json
    from polydiff.poly import Polynomial, parse_poly

    texts = ["x", "y", "1-x-y"]
    argv = ["admissible", "--witness", "1/4,1/4", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, *(a for t in texts for a in ("--factor", t)))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dimension"] > 0
    factors = [parse_poly(t, 2) for t in texts]
    for entry in payload["basis"]:
        g = [[parse_poly(t, 2) for t in row] for row in entry["cometric"]]
        assert len(entry["first_order"]) == len(factors)
        for factor, per_axis in zip(factors, entry["first_order"]):
            grad = factor.gradient()
            for i, text in enumerate(per_axis):
                lhs = sum((g[i][j] * grad[j] for j in range(2)), Polynomial.zero(2))
                assert lhs == parse_poly(text, 2) * factor


def test_verify_single_fast_model(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "gaussian_plane", "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["summary"]["failed"] == 0


@pytest.mark.parametrize("param", ["a=5", "bogus=5"])
def test_verify_rejects_parameters_without_measure(capsys, param):
    # the battery would run the catalog defaults and drop the assignment
    code, out, err = run_cli(capsys, "verify", "--model", "jacobi1d", "--param", param)
    assert code == EXIT_DATA
    assert out == ""
    assert "--param applies only with --measure" in err


def test_verify_inadmissible_measure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "nodal_cubic", "--measure", "det^-1/2",
        "--format", "json",
    )
    assert code == EXIT_VERIFY
    payload = json.loads(out)
    assert payload["admissible"] is False


def test_verify_admissible_measure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "deltoid", "--measure", "det^-1/2",
        "--format", "json",
    )
    assert code == EXIT_OK


def test_curvature_json(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--model", "swallowtail", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["constant"] is True
    assert payload["value"] == "2"
    assert abs(payload["mean"] - 2.0) < 1e-9
    assert "max_deviation" not in payload


@pytest.mark.parametrize("points", ["0", "-3"])
def test_curvature_rejects_fewer_than_one_point(capsys, points):
    code, out, err = run_cli(capsys, "curvature", "--model", "disk", "--points", points)
    assert code == EXIT_DATA
    assert out == ""
    assert "--points must be at least 1" in err


def test_orthogonality_command(capsys):
    code, out, _ = run_cli(
        capsys, "orthogonality", "--model", "square", "--degree", "4",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["symmetry_defect"] < 1e-10


def test_orthogonality_integrates_the_cover_rule(capsys):
    # a cover model is integrated by its exact cover rule, not by its
    # Monte Carlo draw, whose defect was about 2e-3
    code, out, _ = run_cli(capsys, "orthogonality", "--model", "deltoid", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rule"] == "cover-rule" and "seed" not in payload
    assert payload["symmetry_defect"] < 1e-12


def test_orthogonality_of_a_deterministic_rule_ignores_the_seed(capsys):
    outputs = []
    for seed in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "orthogonality", "--model", "disk", "--seed", seed, "--format", "json"
        )
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["rule"] == "polar-gauss-disk"


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary-points", "--model", "deltoid", "-n", "3", "--format", "json"],
        ["verify", "--model", "square", "--format", "csv"],
        ["orthogonality", "--model", "square", "--format", "csv"],
        ["admissible", "--factor", "1-x^2-y^2", "--witness", "0,0", "--format", "csv"],
    ],
)
def test_unwritten_format_is_usage_error(capsys, argv):
    # each subcommand accepts only the formats it writes
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_boundary_points_csv(tmp_path, capsys):
    # every factor of every 2D model with a boundary gives rows, a factor of
    # degree 0 in y (1 - x on the square) included, and each row lies on
    # its factor
    from polydiff.catalog import get_model, model_names

    out_path = tmp_path / "pts.csv"
    checked = 0
    for name in model_names():
        model = get_model(name)
        factors = model.boundary.factors
        if model.dim != 2 or not factors:
            continue
        code, _, _ = run_cli(
            capsys, "boundary-points", "--model", name, "-n", "64", "--out", str(out_path),
        )
        assert code == EXIT_OK
        with open(out_path) as handle:
            rows = list(csv.DictReader(handle))
        assert {int(row["factor"]) for row in rows} == set(range(len(factors))), name
        for row in rows:
            point = np.array([[float(row["x"])], [float(row["y"])]])
            value = eval_floats([factors[int(row["factor"])]], point)[0, 0]
            assert abs(value) < 1e-6, (name, row)
        checked += 1
    assert checked == 18


@pytest.mark.parametrize("count", ["1", "0", "-3"])
def test_boundary_points_rejects_fewer_than_two(capsys, count):
    code, out, err = run_cli(capsys, "boundary-points", "--model", "deltoid", "-n", count)
    assert code == EXIT_DATA
    assert out == ""
    assert "--count must be at least 2" in err


def test_output_file_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "spec.json"
    code, _, _ = run_cli(
        capsys, "spectrum", "--model", "disk", "--degree", "3",
        "--format", "json", "--out", str(out_path),
    )
    assert code == EXIT_OK
    payload = json.loads(out_path.read_text())
    assert payload["model"] == "disk"


def test_internal_error_is_not_a_data_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(cli, "cmd_models_list", broken)
    code, _, err = run_cli(capsys, "models", "list")
    assert code == EXIT_INTERNAL
    assert "Traceback" in err and "RuntimeError: internal fault" in err


def test_internal_fault_in_a_layer_exits_apart_from_data_errors(monkeypatch, capsys):
    def broken(operator, degree):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(spectra, "graded_eigenvalues", broken)
    code, _, err = run_cli(capsys, "spectrum", "--model", "jacobi1d", "--degree", "2")
    assert code == EXIT_INTERNAL
    assert "RuntimeError: internal fault" in err
    # the model lookup fails first: still a data error, with no traceback
    code, _, err = run_cli(capsys, "spectrum", "--model", "nosuch", "--degree", "2")
    assert code == EXIT_DATA
    assert "unknown model" in err and "Traceback" not in err


def test_unwritable_out_path_is_data_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "models", "list", "--out", str(tmp_path / "missing" / "list.txt")
    )
    assert code == EXIT_DATA
    assert "FileNotFoundError" in err


# modules that reading the catalog's descriptors never needs: a Model and
# its interior points need boundary and operator (and through them linalg),
# and only an internal fault needs traceback
MODEL_MODULES = {"polydiff.boundary", "polydiff.operator", "polydiff.linalg", "traceback"}


@pytest.mark.parametrize(
    "argv, code, shown, unused",
    [
        (["models", "list"], EXIT_OK, "deltoid", MODEL_MODULES),
        (["admissible", "--factor", "1-x^2-y^2", "--witness", "0,0"], EXIT_OK, "solution dimension", set()),
        # the nodal cubic's det^-1/2 fails the boundary equation of its extra factor
        (["verify", "--model", "nodal_cubic", "--measure", "det^-1/2"], EXIT_VERIFY, '"admissible": false', set()),
        (["--help"], EXIT_OK, "boundary-points", MODEL_MODULES),
    ],
    ids=["models-list", "admissible", "verify-measure", "help"],
)
def test_models_list_starts_without_the_thread_pool(argv, code, shown, unused):
    # only the cover cross-check uses helper threads, and it imports
    # concurrent.futures where it starts them; the exact commands compute
    # nothing in float, so they load no numpy either, and the commands that
    # only read descriptors load no module of `unused`.  -X importtime names
    # every module the command imports
    source = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "polydiff.cli", *argv],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == code
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines() if "|" in line}
    assert "polydiff" in imported
    assert shown in run.stdout
    assert not {m for m in imported if m == "concurrent" or m.startswith("concurrent.")}
    assert not {m for m in imported if m == "numpy" or m.startswith("numpy.")}
    assert not imported & unused
