"""The model catalog: named domains with their cometric and measure families.

Models are data, not code: ``data/models.json`` holds polynomial templates
(strings over x, y, z plus the model's parameter names), exact rational
parameter ranges and the tabulated closed-form claims.  Instantiating a model
substitutes rational parameter values, builds the boundary/cometric/measure
triple, and derives the drift from the measure, which is itself a first
consistency check.  A model's default integration rule is data too: a
`DomainSampler` that `quadrature` runs.  The catalog imports no numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import comb
from typing import TYPE_CHECKING, Mapping, Sequence

from .poly import Exponent, Polynomial, TensorGrid, parse_poly, parse_rational, variable_names

if TYPE_CHECKING:
    from .operator import DiffusionOperator

Rational = int | Fraction

#: documented default seed for all randomized subcommands
DEFAULT_SEED = 0xD0F5EEDD


class CatalogError(KeyError):
    pass


class ParameterError(ValueError):
    pass


class NonIntegrableMeasureError(ValueError):
    pass


class ClaimNotApplicableError(ValueError):
    """A tabulated claim exists but not at these parameter values."""


class SamplerConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DomainSampler:
    """Descriptor for one integration rule, run by `quadrature.sample_domain`.

    Every kind but mc-rejection is sized by the moment degree it integrates
    (`sample_domain`).  sample_count is the number of Monte Carlo proposals
    (accepted points are the subset inside the domain): the mc-rejection
    sample, and for cover-mc the draw that is only cross-checked against
    the exact moments of the measure (`quadrature.cover_cross_check`).
    """

    kind: str
    sample_count: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.sample_count < 1:
            raise SamplerConfigError("sample_count must be at least 1")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: Fraction
    gt: Fraction | None = None
    ge: Fraction | None = None
    lt: Fraction | None = None
    le: Fraction | None = None

    def check(self, value: Fraction) -> None:
        if self.gt is not None and not value > self.gt:
            raise ParameterError(f"{self.name} = {value} must be > {self.gt}")
        if self.ge is not None and not value >= self.ge:
            raise ParameterError(f"{self.name} = {value} must be >= {self.ge}")
        if self.lt is not None and not value < self.lt:
            raise ParameterError(f"{self.name} = {value} must be < {self.lt}")
        if self.le is not None and not value <= self.le:
            raise ParameterError(f"{self.name} = {value} must be <= {self.le}")


class Template:
    """Polynomial template over leading variables plus parameters:
    instantiating it fixes the parameters and leaves a polynomial in the
    variables, a constant one when there are none.  The text is split once
    into terms (variable exponent, parameter exponent, integer numerator)
    over one denominator; a value p/q of a parameter whose top power is t
    enters a term of power k as p^k q^(t-k), over q^t, summed in integers.
    """

    def __init__(self, text: str, variables: Sequence[str], param_names: Sequence[str]):
        n = self.n_variables = len(variables)
        self.param_names = list(param_names)
        poly = parse_poly(text, names=list(variables) + self.param_names)
        self.denominator = poly.denominator
        self.terms = [(e[:n], e[n:], c) for e, c in poly.numerators.items()]
        # each parameter's top power; a template without terms needs none
        self.tops = [max(column) for column in zip(*(powers for _, powers, _ in self.terms))]

    def instantiate(self, values: Mapping[str, Rational]) -> Polynomial:
        denominator = self.denominator
        weights = []
        for name, top in zip(self.param_names, self.tops):
            p, q = values[name].numerator, values[name].denominator
            weights.append([p**k * q ** (top - k) for k in range(top + 1)])
            denominator *= q**top
        numerators: dict[Exponent, int] = {}
        for exponent, powers, n in self.terms:
            for weight, k in zip(weights, powers):
                n *= weight[k]
            total = numerators.get(exponent, 0) + n
            if total:
                numerators[exponent] = total
            else:
                numerators.pop(exponent, None)
        return Polynomial._reduced(self.n_variables, numerators, denominator)


@dataclass
class ClaimedSpectrum:
    """Closed-form eigenvalues, indexed per the model's tabulated scheme."""

    scheme: str
    indices: list[str]
    formula: Polynomial  # over index variables, parameters already substituted
    dim: int

    def eigenvalue(self, *index: int) -> Fraction:
        if len(index) != len(self.indices):
            raise ValueError(f"scheme {self.scheme} expects indices {self.indices}")
        return self.formula([Fraction(i) for i in index])

    def eigenvalues_at_degree(self, degree: int) -> list[Fraction]:
        """Full multiset for the degree block; size = dim of the degree space."""
        block_size = comb(degree + self.dim - 1, degree)
        if self.scheme == "degree":
            values = [self.eigenvalue(degree)]
        elif self.scheme == "degree-scalar":
            values = [self.eigenvalue(degree)] * block_size
        elif self.scheme in ("complex-pair", "bidegree"):
            values = [self.eigenvalue(k, degree - k) for k in range(degree + 1)]
        else:
            raise ValueError(f"unknown spectrum scheme {self.scheme!r}")
        if len(values) != block_size:
            raise ValueError("spectrum scheme does not fill the degree space")
        return sorted(values)


class Model:
    """One instantiated catalog entry."""

    def __init__(self, descriptor: ModelDescriptor, params: dict[str, Fraction]):
        # imported here, not at module level: descriptors and templates need
        # only `poly`, so `models list` and `--help` never load these
        from .boundary import BoundarySpec
        from .operator import CoMetric, MeasureSpec

        self.descriptor = descriptor
        self.name = descriptor.name
        self.dim = descriptor.dim
        self.params = params
        self.compact = descriptor.compact
        values = params
        factors = tuple(t.instantiate(values) for t in descriptor.factor_templates)
        witness = tuple(descriptor.witness)
        self.boundary = BoundarySpec(self.dim, factors, witness)
        entries = [
            [t.instantiate(values) for t in row] for row in descriptor.cometric_templates
        ]
        self.cometric = CoMetric(entries)
        factor_exponents = tuple(
            (t.instantiate(values), exponent.instantiate(values).constant_term)
            for t, exponent in descriptor.measure_templates
        )
        exp_poly = (
            descriptor.exp_poly_template.instantiate(values)
            if descriptor.exp_poly_template is not None
            else None
        )
        self.measure = MeasureSpec(self.dim, factor_exponents, exp_poly)
        self.box = descriptor.box_for(values)
        self._operator: DiffusionOperator | None = None

    @property
    def operator(self) -> DiffusionOperator:
        if self._operator is None:
            from .operator import operator_from_measure

            self._operator = operator_from_measure(self.cometric, self.measure)
        return self._operator

    def sampler(self, seed: int | None = None, sample_count: int | None = None) -> DomainSampler:
        """The catalog rule, with `seed` and `sample_count` where given."""
        spec = self.descriptor.sampler_spec
        if spec is None:
            raise CatalogError(f"model {self.name} has no default quadrature rule")
        kwargs = dict(spec)
        if seed is not None:
            kwargs["seed"] = seed
        if sample_count is not None:
            kwargs["sample_count"] = sample_count
        if kwargs.get("kind") == "cover-mc":
            from .quadrature import cover_applies

            if not cover_applies(self):
                # covering-space sampling only exists at the tabulated
                # parameter point; generic instances fall back to rejection
                kwargs["kind"] = "mc-rejection"
        return DomainSampler(**kwargs)

    @property
    def has_sampler(self) -> bool:
        return self.descriptor.sampler_spec is not None

    def require_finite_mass(self) -> None:
        for factor, exponent in self.measure.factor_exponents:
            if exponent <= -1:
                raise NonIntegrableMeasureError(
                    f"factor exponent {exponent} <= -1 gives infinite mass"
                )
        if not self.compact and self.measure.exp_poly is None:
            raise NonIntegrableMeasureError(
                "non-compact domain with purely polynomial density has infinite mass"
            )

    def interior_points(self, per_axis: int = 10, margin: Fraction = Fraction(0)) -> TensorGrid:
        """Rational interior grid (`boundary.interior_grid`), returned as
        built.  For 0 < margin < 1 its sign test runs on the shifted
        factors f - margin * f(witness), which keeps every factor above
        margin * (its witness value), away from the boundary; margin 0
        clips to the boundary itself."""
        from .boundary import BoundarySpec, interior_grid

        spec = self.boundary
        if margin:
            if not 0 < margin < 1:
                raise ValueError(f"margin {margin} is not in [0, 1)")
            shifted = tuple(f - f(spec.witness) * margin for f in spec.factors)
            spec = BoundarySpec(spec.dim, shifted, spec.witness)
        return interior_grid(spec, self.box, per_axis)

    # ------------------------------------------------------------------
    # tabulated claims

    def _claim(self, key: str) -> dict:
        claims = self.descriptor.claims
        if key not in claims:
            raise CatalogError(f"model {self.name} has no tabulated {key} claim")
        return claims[key]

    def _requires_ok(self, claim: dict) -> bool:
        requires = claim.get("requires", {})
        return all(self.params[name] == parse_rational(v) for name, v in requires.items())

    def _require(self, claim: dict, key: str) -> None:
        if not self._requires_ok(claim):
            raise ClaimNotApplicableError(
                f"{self.name} {key} claim is tabulated only at {claim.get('requires')}"
            )

    def has_claim(self, key: str) -> bool:
        return key in self.descriptor.claims

    def claim_applies(self, key: str) -> bool:
        return self.has_claim(key) and self._requires_ok(self._claim(key))

    def claim_note(self, key: str) -> str | None:
        claim = self._claim(key)
        return claim.get("erratum", claim).get("note")

    def _drift(self, formulas: list[str]) -> tuple[Polynomial, ...]:
        self._require(self._claim("drift"), "drift")
        variables = variable_names(self.dim)
        return tuple(
            Template(text, variables, self.descriptor.param_names).instantiate(self.params)
            for text in formulas
        )

    def claimed_drift(self) -> tuple[Polynomial, ...]:
        """The tabulated drift, corrected where the catalog records an erratum."""
        return self._drift(self._claim("drift")["formulas"])

    def drift_erratum(self) -> tuple[Polynomial, ...] | None:
        """The paper's text of a drift the catalog corrects, or None."""
        erratum = self._claim("drift").get("erratum")
        return None if erratum is None else self._drift(erratum["formulas"])

    def claimed_spectrum(self) -> ClaimedSpectrum:
        claim = self._claim("eigenvalue")
        self._require(claim, "eigenvalue")
        indices = list(claim["indices"])
        template = Template(claim["formula"], indices, self.descriptor.param_names)
        formula = template.instantiate(self.params)
        return ClaimedSpectrum(claim["scheme"], indices, formula, self.dim)

    def claimed_curvature(self) -> tuple[str, Fraction | None]:
        claim = self._claim("curvature")
        self._require(claim, "curvature")
        if claim["kind"] == "constant":
            template = Template(claim["value"], (), self.descriptor.param_names)
            return "constant", template.instantiate(self.params).constant_term
        return "non-constant", None

    def pullback_name(self) -> str:
        claim = self._claim("pullback")
        self._require(claim, "pullback")
        return claim["name"]

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"Model({self.name}, {params})" if params else f"Model({self.name})"


class ModelDescriptor:
    """Parsed but not yet instantiated catalog entry."""

    def __init__(self, raw: dict):
        self.name: str = raw["name"]
        self.dim: int = raw["dim"]
        self.compact: bool = raw["compact"]
        self.param_specs = [
            ParamSpec(
                name=p["name"],
                default=parse_rational(p["default"]),
                gt=parse_rational(p["gt"]) if "gt" in p else None,
                ge=parse_rational(p["ge"]) if "ge" in p else None,
                lt=parse_rational(p["lt"]) if "lt" in p else None,
                le=parse_rational(p["le"]) if "le" in p else None,
            )
            for p in raw.get("params", [])
        ]
        self.param_names = [p.name for p in self.param_specs]
        variables = variable_names(self.dim)
        self.factor_templates = [
            Template(text, variables, self.param_names) for text in raw["factors"]
        ]
        self.witness = [parse_rational(text) for text in raw["witness"]]
        self.cometric_templates = [
            [Template(text, variables, self.param_names) for text in row]
            for row in raw["cometric"]
        ]
        measure = raw["measure"]
        self.measure_templates = [
            (
                Template(factor_text, variables, self.param_names),
                Template(exponent_text, (), self.param_names),
            )
            for factor_text, exponent_text in measure["factor_exponents"]
        ]
        self.exp_poly_template = (
            Template(measure["exp_poly"], variables, self.param_names)
            if measure.get("exp_poly")
            else None
        )
        self.constraints = [
            (Template(c["expr"], (), self.param_names), c)
            for c in raw.get("constraints", [])
        ]
        self.box_raw = [(parse_rational(lo), parse_rational(hi)) for lo, hi in raw["box"]]
        self.box_rule = raw.get("box_rule")
        self.sampler_spec = None
        if raw.get("sampler"):
            spec = dict(raw["sampler"])
            self.sampler_spec = spec
        self.claims: dict = raw.get("claims", {})

    @property
    def boundary_degree(self) -> int:
        values = {p.name: p.default for p in self.param_specs}
        return sum(int(t.instantiate(values).total_degree) for t in self.factor_templates)

    def box_for(self, values: Mapping[str, Fraction]) -> list[tuple[Fraction, Fraction]]:
        if self.box_rule == "coaxial":
            a = values["a"]
            xb = max(Fraction(3, 2), 2 / (1 + a))
            yb = max(Fraction(1), (1 - a) / (1 + a))
            return [(-xb, xb), (Fraction(-1), yb)]
        return list(self.box_raw)

    def resolve_params(self, overrides: Mapping[str, Rational | str]) -> dict[str, Fraction]:
        values: dict[str, Fraction] = {}
        unknown = set(overrides) - set(self.param_names)
        if unknown:
            raise ParameterError(
                f"unknown parameter(s) {sorted(unknown)} for model {self.name}; "
                f"valid: {self.param_names}"
            )
        for spec in self.param_specs:
            if spec.name in overrides:
                v = overrides[spec.name]
                value = parse_rational(v) if isinstance(v, str) else Fraction(v)
            else:
                value = spec.default
            spec.check(value)
            values[spec.name] = value
        for template, c in self.constraints:
            result = template.instantiate(values).constant_term
            if not result > parse_rational(c["gt"]):
                raise ParameterError(f"constraint {c['expr']} > {c['gt']} violated ({result})")
        return values

    def instantiate(self, overrides: Mapping[str, Rational | str] | None = None) -> Model:
        return Model(self, self.resolve_params(overrides or {}))


@lru_cache(maxsize=1)
def _registry() -> dict[str, ModelDescriptor]:
    raw = json.loads(
        resources.files("polydiff").joinpath("data/models.json").read_text()
    )
    out: dict[str, ModelDescriptor] = {}
    for entry in raw["models"]:
        descriptor = ModelDescriptor(entry)
        out[descriptor.name] = descriptor
    return out


def model_names() -> list[str]:
    return list(_registry().keys())


def get_descriptor(name: str) -> ModelDescriptor:
    registry = _registry()
    if name not in registry:
        raise CatalogError(f"unknown model {name!r}; see `models list`")
    return registry[name]


def get_model(name: str, params: Mapping[str, Rational | str] | None = None) -> Model:
    return get_descriptor(name).instantiate(params)
