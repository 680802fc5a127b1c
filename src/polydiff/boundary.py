"""Boundary admissibility: the linear system tying a cometric to a factored
boundary.

For each irreducible boundary factor F the condition is

    sum_j g^ij d_j F  =  S^i F          (S^i affine, one per axis)

Unknowns are the coefficients of the d(d+1)/2 quadratic cometric entries,
then those of every factor's S^i (column order: `_unknowns`); each residual
coefficient contributes one linear equation.  The admissible cometrics are
read off the kernel's cometric coordinates alone: S is fixed by g, as the
exact quotient `operator.boundary_first_order`.  Everything here is exact.

An interior grid is one `poly.TensorGrid` (`interior_grid`): integer node
numerators per axis over one denominator, which the factors' sign test and
the ellipticity test read as they were built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm, prod
from typing import Sequence

from .linalg import RationalMatrix, poly_matrix_det
from .operator import CoMetric, DegenerateMetricError, MeasureSpec
from .poly import Exponent, MonomialBasis, Polynomial, TensorGrid, exact_divide

Rational = int | Fraction


@dataclass(frozen=True)
class BoundarySpec:
    """Factored boundary with an interior witness point.

    Factors must be square-free, pre-factored, and sign-normalized to be
    strictly positive at the witness; the library never factors polynomials.
    """

    dim: int
    factors: tuple[Polynomial, ...]
    witness: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "witness", tuple(Fraction(w) for w in self.witness))
        if len(self.witness) != self.dim:
            raise ValueError("witness length must match dimension")
        total = 0
        for f in self.factors:
            if f.dim != self.dim:
                raise ValueError("factor dimension mismatch")
            degree = f.total_degree
            if degree < 1:
                raise ValueError("boundary factors must have degree >= 1")
            total += degree
            if f(self.witness) <= 0:
                raise ValueError(
                    f"factor {f} is not positive at the interior witness {self.witness}"
                )
        if total > 2 * self.dim:
            raise ValueError(
                f"boundary degree {total} exceeds 2*d = {2 * self.dim}; no solution can exist"
            )

    def product(self) -> Polynomial:
        result = Polynomial.constant(self.dim, 1)
        for f in self.factors:
            result = result * f
        return result


def _unknowns(spec: BoundarySpec) -> list[tuple[str, int, int, Exponent]]:
    """The admissibility system's unknowns in column order.

    First ("g", a, b, m): each cometric entry (a, b) with a <= b, in
    row-major order, times each quadratic monomial m in graded-lex order.
    Then ("S", k, i, m): each factor k and axis i times each affine
    monomial m.
    """
    d = spec.dim
    quadratic, affine = MonomialBasis(d, 2).exponents, MonomialBasis(d, 1).exponents
    return [("g", a, b, m) for a in range(d) for b in range(a, d) for m in quadratic] + [
        ("S", k, i, m) for k in range(len(spec.factors)) for i in range(d) for m in affine
    ]


def build_admissibility_system(spec: BoundarySpec) -> RationalMatrix:
    """Assemble the exact linear system whose kernel is the admissible set.

    One row per monomial coefficient of each residual polynomial
    sum_j g^ij d_j F_k - S_k^i F_k, for every factor k and axis i, as a
    sparse integer row over the unknowns (`_unknowns`).  Each factor enters
    as its integer numerators, which scales its rows by its denominator and
    leaves the kernel unchanged, and each row entry is a coefficient of the
    factor or of its gradient, placed by shifting its exponent by the
    unknown's monomial.  No two of them meet in one entry: for each axis i
    an entry (a, b) of g meets one partial derivative of F_k, whose
    exponents, like F_k's own, are distinct, so every entry is one nonzero
    coefficient.
    """
    unknowns = _unknowns(spec)
    d = spec.dim
    rows: list[dict[int, int]] = []
    for k, factor in enumerate(spec.factors):
        terms = list(factor.numerators.items())
        grad = [
            [(e[:j] + (e[j] - 1,) + e[j + 1 :], c * e[j]) for e, c in terms if e[j]]
            for j in range(d)
        ]
        minus_factor = [(e, -c) for e, c in terms]
        residual_basis = MonomialBasis(d, int(factor.total_degree) + 1)
        for i in range(d):
            # coefficient of each residual monomial as a linear form in unknowns
            row_of = {e: {} for e in residual_basis.exponents}
            for slot, (kind, a, b, m) in enumerate(unknowns):
                if kind == "S":
                    partial = minus_factor if (a, b) == (k, i) else ()
                else:
                    # g^{ab} meets axis i through d_j F, j the entry's other index
                    partial = grad[b] if a == i else grad[a] if b == i else ()
                for e, c in partial:
                    row_of[tuple(map(int.__add__, m, e))][slot] = c
            rows.extend(row_of[e] for e in residual_basis.exponents)
    return RationalMatrix(rows, len(unknowns))


@dataclass
class AdmissibilitySolution:
    """Kernel of the admissibility system, projected onto the cometric part."""

    spec: BoundarySpec
    g_basis: list[CoMetric]

    @property
    def dimension(self) -> int:
        return len(self.g_basis)

    def combination(self, weights: Sequence[Rational]) -> CoMetric:
        if len(weights) != len(self.g_basis):
            raise ValueError("weight length mismatch")
        d = self.spec.dim
        zero = Polynomial.zero(d)
        entries = [[zero] * d for _ in range(d)]
        for w, g in zip(weights, self.g_basis):
            if w == 0:
                continue
            for i in range(d):
                for j in range(d):
                    entries[i][j] = entries[i][j] + g[i, j] * w
        return CoMetric(entries)


def solve_admissibility(spec: BoundarySpec) -> AdmissibilitySolution:
    """Exact kernel basis; deterministic via the RREF pivot convention.

    Only the cometric coordinates of each kernel vector are read: they are
    integers over the nullspace's one denominator, so every entry is built
    from its integer numerators."""
    kernel, denominator = build_admissibility_system(spec).nullspace()
    d = spec.dim
    g_part = [u for u in _unknowns(spec) if u[0] == "g"]
    g_basis: list[CoMetric] = []
    for vector in kernel:
        terms = {(a, b): {} for _, a, b, _ in g_part}
        for (_, a, b, m), coeff in zip(g_part, vector):
            if coeff:
                terms[a, b][m] = coeff
        entries = [[None] * d for _ in range(d)]
        for (a, b), numerators in terms.items():
            entries[a][b] = entries[b][a] = Polynomial._reduced(d, numerators, denominator)
        g_basis.append(CoMetric(entries))
    return AdmissibilitySolution(spec, g_basis)


@dataclass
class EllipticityReport:
    elliptic: bool
    first_failure: tuple[Fraction, ...] | None


def check_ellipticity(g: CoMetric, grid: TensorGrid) -> EllipticityReport:
    """Exact leading-principal-minor test at every point of a grid.

    The minors are taken by size, each at the points before the first
    failure found so far, and the entries of a minor's last column are
    evaluated when it is reached, each in one `grid_values` pass over the
    grid's integer axes.  At each point the entries are brought to one
    positive denominator, so the minors are integer determinants with the
    signs of the rational ones.  A cometric that is not elliptic, such as
    most admissible-kernel basis elements, mostly fails at the first point
    of a small minor, and its other entries are never evaluated.
    """
    if not grid:
        raise ValueError("need at least one sample point")
    values = {}
    failure = len(grid)  # the index of the first point found to fail
    for size in range(1, g.dim + 1):
        if not failure:
            break
        last = size - 1
        for i in range(size):
            values[i, last] = values[last, i] = g[i, last].grid_values(grid.axes, grid.denominator)
        common = lcm(*(den for _, den in values.values()))
        entries = [[values[i, j] for j in range(size)] for i in range(size)]
        for k, node in enumerate(grid.nodes[:failure]):
            minor = [[numerators[node] * (common // den) for numerators, den in row] for row in entries]
            if poly_matrix_det(minor) <= 0:
                failure = k
                break
    if failure < len(grid):
        return EllipticityReport(False, next(islice(grid, failure, None)))
    return EllipticityReport(True, None)


@dataclass
class DivisibilityReport:
    divides: bool
    quotient_degree: int | None
    quotient: Polynomial | None


def det_divisibility_check(g: CoMetric, spec: BoundarySpec) -> DivisibilityReport:
    """Does the boundary product divide det(g)?  Exact division."""
    determinant = g.det()
    if determinant.is_zero:
        raise DegenerateMetricError("det(g) is identically zero")
    remainder = determinant
    for factor in spec.factors:
        quotient = exact_divide(remainder, factor)
        if quotient is None:
            return DivisibilityReport(False, None, None)
        remainder = quotient
    return DivisibilityReport(True, int(remainder.total_degree), remainder)


def det_power_measure(g: CoMetric, spec: BoundarySpec, exponent: Rational) -> MeasureSpec:
    """The measure det(g)^exponent as boundary factors to that power, with
    the quotient Q = det(g) / (product of the factors) as one more factor
    when the factors divide det(g) and Q is not constant."""
    quotient = det_divisibility_check(g, spec).quotient
    factors = spec.factors
    if quotient is not None and quotient.total_degree > 0:
        factors += (quotient,)
    return MeasureSpec(spec.dim, tuple((f, Fraction(exponent)) for f in factors), None)


def interior_grid(
    spec: BoundarySpec,
    box: Sequence[tuple[Rational, Rational]],
    per_axis: int = 10,
) -> TensorGrid:
    """Rational grid over the box, clipped to {all factors > 0}: the
    `TensorGrid` as built, holding every node on every axis and, as its
    points, the nodes inside in ``itertools.product`` order.

    Each side of the box holds `per_axis` nodes strictly inside it, at
    fractions (2k+1)/(2n) of the side, so boundary-of-box artifacts never
    enter.  On the side [lo, hi] the node k is ((2n - j) a + j b) /
    (2n lo.den hi.den) with j = 2k + 1, a = lo.num hi.den and b = hi.num
    lo.den; every side is brought to one common denominator, reduced by
    the content of all the node numerators.  The sign test is exact: each
    factor's values on the whole grid are integer numerators over one
    positive denominator (`Polynomial.grid_values`).
    """
    if len(box) != spec.dim:
        raise ValueError("box must give one interval per axis")
    sides = []
    for lo, hi in box:
        lo, hi = Fraction(lo), Fraction(hi)
        a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        nodes = [(2 * per_axis - j) * a + j * b for j in range(1, 2 * per_axis, 2)]
        sides.append((nodes, 2 * per_axis * lo.denominator * hi.denominator))
    denominator = lcm(*(scale for _, scale in sides))
    axes = [[x * (denominator // scale) for x in nodes] for nodes, scale in sides]
    content = gcd(denominator, *(x for axis in axes for x in axis))
    axes = [[x // content for x in axis] for axis in axes]
    denominator //= content
    inside = range(prod(len(axis) for axis in axes))
    for f in spec.factors:
        values = f.grid_values(axes, denominator)[0]
        inside = [node for node in inside if values[node] > 0]
    return TensorGrid(axes, denominator, list(inside))
