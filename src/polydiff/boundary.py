"""Boundary admissibility: the linear system tying a cometric to a factored
boundary.

For each irreducible boundary factor F the condition is

    sum_j g^ij d_j F  =  S^i F          (S^i affine, one per axis)

Unknowns are the coefficients of the d(d+1)/2 quadratic cometric entries plus
the coefficients of every S^i; each residual coefficient contributes one
linear equation.  Everything here is exact.

An interior grid is one `poly.TensorGrid` (`interior_grid`): integer node
numerators per axis over one denominator, which the factors' sign test and
the ellipticity test read as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .linalg import RationalMatrix, poly_matrix_det
from .operator import CoMetric, DegenerateMetricError
from .poly import MonomialBasis, Polynomial, TensorGrid, exact_divide

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


@dataclass
class SystemLayout:
    """Unknown ordering of the admissibility system.

    Cometric coefficients come first: entries (i, j) with i <= j in row-major
    order, each expanded over the quadratic monomial basis in graded-lex
    order.  Then, for each factor and axis, the affine S coefficients.
    """

    dim: int
    g_basis: MonomialBasis
    s_basis: MonomialBasis
    entry_index: list[tuple[int, int]]
    n_g: int
    n_factors: int

    def g_slot(self, entry: int, monomial: int) -> int:
        return entry * len(self.g_basis) + monomial

    def s_slot(self, factor: int, axis: int, monomial: int) -> int:
        return self.n_g + (factor * self.dim + axis) * len(self.s_basis) + monomial

    @property
    def n_unknowns(self) -> int:
        return self.n_g + self.n_factors * self.dim * len(self.s_basis)


def _make_layout(spec: BoundarySpec) -> SystemLayout:
    d = spec.dim
    entry_index = [(i, j) for i in range(d) for j in range(i, d)]
    g_basis = MonomialBasis(d, 2)
    s_basis = MonomialBasis(d, 1)
    return SystemLayout(
        dim=d,
        g_basis=g_basis,
        s_basis=s_basis,
        entry_index=entry_index,
        n_g=len(entry_index) * len(g_basis),
        n_factors=len(spec.factors),
    )


def build_admissibility_system(spec: BoundarySpec) -> tuple[RationalMatrix, SystemLayout]:
    """Assemble the exact linear system whose kernel is the admissible set.

    One row per monomial coefficient of each residual polynomial
    sum_j g^ij d_j F_k - S_k^i F_k, for every factor k and axis i, as a
    sparse integer row over the unknowns.  Each factor enters as its
    integer numerators, which scales its rows by its denominator and leaves
    the kernel unchanged, and each row entry is a coefficient of the factor
    or of its gradient, placed by shifting its exponent by the unknown's
    monomial.  No two of them meet in one entry: for each axis i an entry
    (a, b) of g meets one partial derivative of F_k, whose exponents, like
    F_k's own, are distinct, so every entry is one nonzero coefficient.
    """
    layout = _make_layout(spec)
    d = spec.dim
    rows: list[dict[int, int]] = []
    for k, factor in enumerate(spec.factors):
        terms = list(factor.numerators.items())
        grad = [
            [(e[:j] + (e[j] - 1,) + e[j + 1 :], c * e[j]) for e, c in terms if e[j]]
            for j in range(d)
        ]
        residual_basis = MonomialBasis(d, int(factor.total_degree) + 1)
        for i in range(d):
            # coefficient of each residual monomial as a linear form in unknowns
            row_of = {e: {} for e in residual_basis.exponents}
            for entry, (a, b) in enumerate(layout.entry_index):
                # g^{ab} contributes to axis i via d_j F with j = the other index
                if a == i:
                    partial = grad[b]
                elif b == i:
                    partial = grad[a]
                else:
                    continue
                for m_idx, m_exp in enumerate(layout.g_basis.exponents):
                    slot = layout.g_slot(entry, m_idx)
                    for e, c in partial:
                        row_of[tuple(map(int.__add__, m_exp, e))][slot] = c
            for m_idx, m_exp in enumerate(layout.s_basis.exponents):
                slot = layout.s_slot(k, i, m_idx)
                for e, c in terms:
                    row_of[tuple(map(int.__add__, m_exp, e))][slot] = -c
            rows.extend(row_of[e] for e in residual_basis.exponents)
    return RationalMatrix(rows, layout.n_unknowns), layout


@dataclass
class AdmissibilitySolution:
    """Kernel of the admissibility system, projected onto the cometric part.

    g_basis[b] carries its exact boundary first-order data in s_for[b][k][i];
    the pair satisfies sum_j g^ij d_j F_k - S_k^i F_k = 0 identically.
    """

    spec: BoundarySpec
    g_basis: list[CoMetric]
    s_for: list[list[list[Polynomial]]]

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

    Each kernel vector is integers over the nullspace's one denominator, so
    every polynomial is built from its integer numerators."""
    matrix, layout = build_admissibility_system(spec)
    kernel, denominator = matrix.nullspace()
    d = spec.dim
    g_basis: list[CoMetric] = []
    s_for: list[list[list[Polynomial]]] = []
    for vector in kernel:
        grid = [[None] * d for _ in range(d)]
        for entry, (a, b) in enumerate(layout.entry_index):
            terms = {}
            for m_idx, m_exp in enumerate(layout.g_basis.exponents):
                coeff = vector[layout.g_slot(entry, m_idx)]
                if coeff:
                    terms[m_exp] = coeff
            p = Polynomial._reduced(d, terms, denominator)
            grid[a][b] = p
            grid[b][a] = p
        g_basis.append(CoMetric(grid))
        per_factor: list[list[Polynomial]] = []
        for k in range(len(spec.factors)):
            per_axis = []
            for i in range(d):
                terms = {}
                for m_idx, m_exp in enumerate(layout.s_basis.exponents):
                    coeff = vector[layout.s_slot(k, i, m_idx)]
                    if coeff:
                        terms[m_exp] = coeff
                per_axis.append(Polynomial._reduced(d, terms, denominator))
            per_factor.append(per_axis)
        s_for.append(per_factor)
    return AdmissibilitySolution(spec, g_basis, s_for)


@dataclass
class EllipticityReport:
    elliptic: bool
    first_failure: tuple[Fraction, ...] | None
    checked: int


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
        return EllipticityReport(False, list(grid)[failure], len(grid))
    return EllipticityReport(True, None, len(grid))


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


def interior_grid(
    spec: BoundarySpec,
    box: Sequence[tuple[Rational, Rational]],
    per_axis: int = 10,
) -> TensorGrid:
    """Rational grid over the box, clipped to {all factors > 0} and trimmed
    to the rows and columns that hold a point (`TensorGrid.trimmed`).

    The nodes on each side of the box lie strictly inside it, at fractions
    (2k+1)/(2n) of the side, so boundary-of-box artifacts never enter.  On
    the side [lo, hi] the node k is ((2n - j) a + j b) / (2n lo.den hi.den)
    with j = 2k + 1, a = lo.num hi.den and b = hi.num lo.den; every side
    is brought to one common denominator, reduced by the content of all
    the node numerators.  The sign test is exact: each factor's values on
    the whole grid are integer numerators over one positive denominator
    (`Polynomial.grid_values`).
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
    return TensorGrid(axes, denominator, list(inside)).trimmed()
