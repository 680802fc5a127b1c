"""Command-line surface.

Subcommands: models list, admissible, spectrum, verify, curvature,
orthogonality, boundary-points.  Exit codes: 0 success, 1 data/parameter
error, 2 usage error, 3 verification failure, 4 internal fault (the
traceback goes to stderr).  All randomized subcommands
take --seed (default 0xD0F5EEDD) and are bit-reproducible for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _configure_threads() -> None:
    # BLAS and OpenMP kernels default to one thread; a value the user set
    # wins, since setdefault leaves it in place
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


_configure_threads()

# numpy reads the thread variables when it is first imported, which only the
# float commands do; the catalog and the modules it loads are exact
from .catalog import DEFAULT_SEED  # noqa: E402

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


class CliDataError(Exception):
    pass


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _parse_params(pairs: list[str]) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliDataError(f"--param expects name=value, got {pair!r}")
        name, value = pair.split("=", 1)
        name = name.strip()
        if name in out:
            raise CliDataError(f"--param {name} is given more than once")
        out[name] = value.strip()
    return out


def _load_model(args):
    from .catalog import get_model

    return get_model(args.model, _parse_params(getattr(args, "param", [])))


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_models_list(args) -> int:
    from .catalog import get_descriptor, model_names

    rows = [get_descriptor(name) for name in model_names()]
    if args.format == "json":
        payload = [
            {
                "name": r.name,
                "dim": r.dim,
                "parameters": r.param_names,
                "boundary_degree": r.boundary_degree,
                "compact": r.compact,
            }
            for r in rows
        ]
        _emit(_json_dump(payload), args.out)
    elif args.format == "csv":
        lines = ["name,dim,parameters,boundary_degree,compact"]
        for r in rows:
            lines.append(
                f"{r.name},{r.dim},{'|'.join(r.param_names)},{r.boundary_degree},{r.compact}"
            )
        _emit("\n".join(lines), args.out)
    else:
        width = max(len(r.name) for r in rows)
        lines = [f"{'model':<{width}}  dim  bdeg  compact  parameters"]
        for r in rows:
            lines.append(
                f"{r.name:<{width}}  {r.dim}    {r.boundary_degree}     "
                f"{'yes' if r.compact else 'no ':<7}  {', '.join(r.param_names)}"
            )
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_admissible(args) -> int:
    from .boundary import BoundarySpec, check_ellipticity, interior_grid, solve_admissibility
    from .operator import boundary_first_order
    from .poly import format_poly, parse_poly, parse_rational

    witness = tuple(parse_rational(w) for w in args.witness.split(","))
    dim = len(witness)
    factors = tuple(parse_poly(text, dim) for text in args.factor)
    spec = BoundarySpec(dim, factors, witness)
    solution = solve_admissibility(spec)

    box = [(w - 2, w + 2) for w in witness]
    grid = interior_grid(spec, box, per_axis=8)
    verdicts = []
    for g in solution.g_basis:
        verdicts.append(check_ellipticity(g, grid).elliptic if grid else None)
    payload = {
        "dimension": solution.dimension,
        "basis": [
            {
                "cometric": [[format_poly(g[i, j]) for j in range(dim)] for i in range(dim)],
                "elliptic_on_grid": verdicts[k],
            }
            for k, g in enumerate(solution.g_basis)
        ],
        "grid_points": len(grid),
    }
    if solution.dimension == 0:
        payload["message"] = "no elliptic solution"
    elif not grid:
        payload["message"] = "no sample grid point lies in the domain"
    elif not any(verdicts):
        payload["message"] = "no basis element elliptic on the sample grid"
    if args.format == "json":
        # pretty output lists only the cometrics, so only json pays for the
        # exact quotients S_k
        for entry, g in zip(payload["basis"], solution.g_basis):
            entry["first_order"] = [
                [format_poly(p) for p in boundary_first_order(g, factor)] for factor in factors
            ]
        _emit(_json_dump(payload), args.out)
    else:
        lines = [f"solution dimension: {solution.dimension}"]
        if "message" in payload:
            lines.append(payload["message"])
        for k, entry in enumerate(payload["basis"]):
            lines.append(f"basis[{k}] elliptic_on_grid={entry['elliptic_on_grid']}")
            for row in entry["cometric"]:
                lines.append("    [" + ", ".join(row) + "]")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .spectra import graded_eigenvalues

    model = _load_model(args)
    spectrum = graded_eigenvalues(model.operator, args.degree)
    payload = {
        "model": model.name,
        "params": {k: str(v) for k, v in model.params.items()},
        **spectrum.to_jsonable(),
    }
    if args.format == "csv":
        lines = ["degree,eigenvalue,multiplicity,source"]
        for level in payload["degrees"]:
            for value, mult, source in zip(
                level["eigenvalues"], level["multiplicities"], level["sources"]
            ):
                lines.append(f"{level['n']},{value},{mult},{source}")
        _emit("\n".join(lines), args.out)
    elif args.format == "pretty":
        lines = [f"{model.name} spectrum up to degree {args.degree}"]
        for level in payload["degrees"]:
            pairs = ", ".join(
                f"{v} (x{m})" for v, m in zip(level["eigenvalues"], level["multiplicities"])
            )
            lines.append(f"  degree {level['n']}: {pairs}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .catalog import model_names

    if args.model != "all" and args.model not in model_names():
        raise CliDataError(f"unknown model {args.model!r}")

    # a repeated or malformed --param is named even where none is allowed
    _parse_params(args.param)
    if args.measure is not None:
        return _verify_measure(args)
    if args.param:
        raise CliDataError(
            "--param applies only with --measure; the claim battery runs each "
            "model at its catalog parameters"
        )

    from .claims import run_claims  # the float layer, which --measure does not need

    report = run_claims(model_filter=args.model, seed=args.seed)
    payload = report.to_jsonable()
    if args.format == "pretty":
        lines = []
        for result in report.results:
            if result.status == "skip":
                continue
            lines.append(f"[{result.status.upper():4}] {result.id}")
        lines.append(
            f"passed {report.passed}, failed {report.failed}, skipped {report.skipped}"
        )
        _emit("\n".join(lines), args.out)
    else:
        _emit(_json_dump(payload), args.out)
    return EXIT_OK if report.failed == 0 else EXIT_VERIFY


def _verify_measure(args) -> int:
    from .boundary import det_power_measure
    from .operator import InadmissibleMeasureError, drift_from_measure
    from .poly import parse_rational

    text = args.measure.strip()
    if not text.startswith("det^"):
        raise CliDataError("only measures of the form det^<rational> are supported here")
    exponent = parse_rational(text[len("det^"):])
    model = _load_model(args)
    measure = det_power_measure(model.cometric, model.boundary, exponent)
    try:
        drift = drift_from_measure(model.cometric, measure)
    except InadmissibleMeasureError as exc:
        payload = {
            "model": model.name,
            "measure": text,
            "admissible": False,
            "reason": str(exc),
        }
        _emit(_json_dump(payload) if args.format != "pretty" else f"inadmissible measure: {exc}", args.out)
        return EXIT_VERIFY
    payload = {
        "model": model.name,
        "measure": text,
        "admissible": True,
        "drift": [str(b) for b in drift],
    }
    _emit(_json_dump(payload) if args.format != "pretty" else "admissible measure", args.out)
    return EXIT_OK


def cmd_curvature(args) -> int:
    from .geometry import curvature_constancy, export_curvature_csv

    model = _load_model(args)
    if args.points < 1:
        raise CliDataError(f"--points must be at least 1, got {args.points}")
    report = curvature_constancy(model, min_points=args.points)
    if args.format == "csv":
        if not args.out:
            raise CliDataError("csv curvature output requires --out")
        export_curvature_csv(args.out, report)
        return EXIT_OK
    payload = {
        "model": model.name,
        "params": {k: str(v) for k, v in model.params.items()},
        "constant": report.constant,
        "mean": report.mean,
        "value": None if report.value is None else str(report.value),
        "spread": report.spread,
        "points": int(len(report.values)),
    }
    if args.format == "pretty":
        verdict = f"constant {report.value}" if report.constant else "non-constant"
        _emit(
            f"{model.name}: scalar curvature {verdict}; mean={report.mean:.12g} "
            f"spread={report.spread:.3e} over {len(report.values)} points",
            args.out,
        )
    else:
        _emit(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_orthogonality(args) -> int:
    from .quadrature import symmetry_defect

    model = _load_model(args)
    sampler = model.sampler(seed=args.seed)
    defect = symmetry_defect(model, args.degree, sampler)
    # a cover-mc sampler's moments come from its exact cover rule; only the
    # rejection draw depends on the seed
    rule = "cover-rule" if sampler.kind == "cover-mc" else sampler.kind
    payload = {"model": model.name, "degree": args.degree, "rule": rule}
    if rule == "mc-rejection":
        payload["seed"] = args.seed
    payload["symmetry_defect"] = defect
    if args.format == "pretty":
        _emit(f"{model.name}: symmetry defect {defect:.3e} at degree {args.degree}", args.out)
    else:
        _emit(_json_dump(payload), args.out)
    return EXIT_OK


def cmd_boundary_points(args) -> int:
    import numpy as np

    from .poly import Polynomial

    model = _load_model(args)
    if model.dim != 2:
        raise CliDataError("boundary-points is available for 2D models")
    box = [tuple(float(v) for v in side) for side in model.box]
    if args.count < 2:
        raise CliDataError(f"--count must be at least 2, got {args.count}")
    lines = ["x,y,factor"]
    free = Polynomial.variable(1, 0)
    for index, factor in enumerate(model.boundary.factors):
        # roots in y along vertical lines; a factor of degree 0 in y has
        # none there, so its roots in x are taken along horizontal lines
        fixed = 0 if any(exponent[1] for exponent in factor.numerators) else 1
        lo, hi = box[1 - fixed]
        for value in np.linspace(*box[fixed], args.count):
            point = Polynomial.constant(1, _to_fraction(value))
            slice_poly = factor.compose([point, free] if fixed == 0 else [free, point])
            coeffs = [0.0] * (int(slice_poly.total_degree) + 1 if not slice_poly.is_zero else 1)
            for exponent, n in slice_poly.numerators.items():
                coeffs[exponent[0]] = n / slice_poly.denominator
            if len(coeffs) == 1:
                continue
            for root in np.roots(list(reversed(coeffs))):
                if abs(root.imag) < 1e-9 and lo - 1e-9 <= root.real <= hi + 1e-9:
                    x, y = (value, root.real) if fixed == 0 else (root.real, value)
                    lines.append(f"{float(x)!r},{float(y)!r},{index}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _to_fraction(x: float):
    from fractions import Fraction

    return Fraction(x).limit_denominator(10**9)


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydiff",
        description="diffusion operators with orthogonal-polynomial eigenbases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="catalog inspection")
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_list = models_sub.add_parser("list", help="list catalog models")
    _common_output(models_list)
    models_list.set_defaults(handler=cmd_models_list)

    admissible = sub.add_parser("admissible", help="solve the boundary admissibility system")
    admissible.add_argument("--factor", action="append", required=True,
                            help="boundary factor polynomial (repeatable)")
    admissible.add_argument("--witness", required=True,
                            help="comma-separated rational interior point")
    _common_output(admissible, formats=("json", "pretty"))
    admissible.set_defaults(handler=cmd_admissible)

    spectrum = sub.add_parser("spectrum", help="graded eigenvalues of a model")
    _model_options(spectrum)
    spectrum.add_argument("--degree", type=int, default=8)
    _common_output(spectrum, default_format="json")
    spectrum.set_defaults(handler=cmd_spectrum)

    verify = sub.add_parser("verify", help="run the claim battery")
    verify.add_argument("--model", default="all")
    verify.add_argument("--param", action="append", default=[])
    verify.add_argument("--measure", default=None,
                        help="check a det^p measure for admissibility instead")
    verify.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    _common_output(verify, default_format="json", formats=("json", "pretty"))
    verify.set_defaults(handler=cmd_verify)

    curvature = sub.add_parser("curvature", help="scalar curvature over an interior grid")
    _model_options(curvature)
    curvature.add_argument("--points", type=int, default=100)
    _common_output(curvature)
    curvature.set_defaults(handler=cmd_curvature)

    orthogonality = sub.add_parser("orthogonality", help="quadrature self-adjointness defect")
    _model_options(orthogonality)
    orthogonality.add_argument("--degree", type=int, default=3)
    orthogonality.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    _common_output(orthogonality, formats=("json", "pretty"))
    orthogonality.set_defaults(handler=cmd_orthogonality)

    boundary_points = sub.add_parser("boundary-points", help="CSV points on the boundary curve")
    _model_options(boundary_points)
    boundary_points.add_argument("-n", "--count", type=int, default=256)
    _common_output(boundary_points, formats=())
    boundary_points.set_defaults(handler=cmd_boundary_points)

    return parser


def _model_options(parser) -> None:
    parser.add_argument("--model", required=True)
    parser.add_argument("--param", action="append", default=[],
                        help="model parameter assignment name=value (repeatable)")


def _common_output(
    parser, default_format: str = "pretty", formats: tuple[str, ...] = ("json", "csv", "pretty")
) -> None:
    """--out, and --format over the formats the subcommand writes (none for
    a single-format subcommand)."""
    if formats:
        parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--out", default=None, help="write output to this path")


def main(argv: list[str] | None = None) -> int:
    from .catalog import CatalogError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliDataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except (CatalogError, ValueError, OSError) as exc:
        # every domain error of the package subclasses one of these (catalog
        # lookups are KeyErrors, --out paths raise OSError)
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_DATA
    except Exception:
        # anything else is an internal fault, which keeps its traceback
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
