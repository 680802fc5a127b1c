"""Diffusion operators built from a polynomial cometric and a measure.

An operator is L(f) = sum_ij g^ij d2f/dxi dxj + sum_i b^i df/dxi with
quadratic cometric entries and affine drift.  The drift is never free data
here: it is always derived from the measure density via

    b^i = sum_j d_j g^ij + sum_j g^ij d_j log(rho)

which stays polynomial exactly when the measure is admissible for the
cometric.  Everything in this module is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import RationalMatrix, poly_matrix_det
from .poly import NEG_INF, MonomialBasis, Polynomial, exact_divide

Rational = int | Fraction


class InadmissibleMeasureError(ValueError):
    """The measure does not make the drift affine for this cometric."""


class DegreeViolationError(ValueError):
    """Operator application left the graded filtration (internal inconsistency)."""


class DegenerateMetricError(ValueError):
    """det(g) vanishes identically."""


class CoMetric:
    """Symmetric d x d matrix of polynomials of total degree <= 2."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        dim = len(entries)
        grid = tuple(tuple(row) for row in entries)
        if any(len(row) != dim for row in grid):
            raise ValueError("cometric must be square")
        for i in range(dim):
            for j in range(dim):
                p = grid[i][j]
                if p.dim != dim:
                    raise ValueError("entry dimension mismatch")
                if p.total_degree not in (NEG_INF,) and p.total_degree > 2:
                    raise ValueError(f"cometric entry ({i},{j}) has degree > 2")
                if grid[i][j] != grid[j][i]:
                    raise ValueError("cometric must be exactly symmetric")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", grid)

    def __setattr__(self, name, value):
        raise AttributeError("CoMetric is immutable")

    def __getitem__(self, key: tuple[int, int]) -> Polynomial:
        return self.entries[key[0]][key[1]]

    def __eq__(self, other) -> bool:
        return isinstance(other, CoMetric) and self.entries == other.entries

    def det(self) -> Polynomial:
        return poly_matrix_det(self.entries)

    def value_at(self, point: Sequence[Rational]) -> list[list[Fraction]]:
        return [[p(point) for p in row] for row in self.entries]


@dataclass(frozen=True)
class MeasureSpec:
    """Density data: product of factor powers times exp of a polynomial."""

    dim: int
    factor_exponents: tuple[tuple[Polynomial, Fraction], ...] = ()
    exp_poly: Polynomial | None = None


@dataclass(frozen=True)
class DiffusionOperator:
    cometric: CoMetric
    drift: tuple[Polynomial, ...]

    def __post_init__(self):
        d = self.cometric.dim
        if len(self.drift) != d:
            raise ValueError("drift length mismatch")
        for b in self.drift:
            if b.dim != d:
                raise ValueError("drift entry dimension mismatch")
            if b.total_degree not in (NEG_INF,) and b.total_degree > 1:
                raise ValueError("drift entries must have degree <= 1")

    @property
    def dim(self) -> int:
        return self.cometric.dim

    def apply(self, f: Polynomial) -> Polynomial:
        """Exact L(f); preserves total degree."""
        if f.dim != self.dim:
            raise ValueError("dimension mismatch")
        partials = f.gradient()
        result = Polynomial.zero(self.dim)
        for i in range(self.dim):
            row_second = partials[i].gradient()
            for j in range(self.dim):
                result = result + self.cometric[i, j] * row_second[j]
            result = result + self.drift[i] * partials[i]
        return result


def gamma(g: CoMetric, f: Polynomial, h: Polynomial) -> Polynomial:
    """Carre du champ: sum_ij g^ij d_i f d_j h, exact and symmetric in (f, h)."""
    if f.dim != g.dim or h.dim != g.dim:
        raise ValueError("dimension mismatch")
    df = f.gradient()
    dh = h.gradient()
    result = Polynomial.zero(g.dim)
    for i in range(g.dim):
        for j in range(g.dim):
            result = result + g[i, j] * df[i] * dh[j]
    return result


def cometric_gradient(g: CoMetric, f: Polynomial) -> list[Polynomial]:
    """The rows sum_j g^ij d_j f of the cometric applied to the gradient."""
    grad = f.gradient()
    rows = []
    for i in range(g.dim):
        row = Polynomial.zero(g.dim)
        for j in range(g.dim):
            row = row + g[i, j] * grad[j]
        rows.append(row)
    return rows


def boundary_first_order(g: CoMetric, factor: Polynomial) -> list[Polynomial] | None:
    """The affine S^i with sum_j g^ij d_j(factor) = S^i * factor, or None.

    Existence of these polynomials for every boundary factor is exactly the
    admissibility condition on the cometric.
    """
    if factor.dim != g.dim:
        raise ValueError("dimension mismatch")
    if factor.is_zero:
        raise ValueError("zero boundary factor")
    out: list[Polynomial] = []
    for numerator in cometric_gradient(g, factor):
        quotient = exact_divide(numerator, factor)
        if quotient is None:
            return None
        if quotient.total_degree not in (NEG_INF,) and quotient.total_degree > 1:
            return None
        out.append(quotient)
    return out


def drift_from_measure(g: CoMetric, measure: MeasureSpec) -> tuple[Polynomial, ...]:
    """Derive the affine drift from the measure density.

    b^i = sum_j d_j g^ij  +  sum_k a_k S_k^i  +  sum_j g^ij d_j Q
    where a_k are the factor exponents and Q the polynomial exponent part.
    Raises InadmissibleMeasureError when a factor does not satisfy the
    boundary equation for g or when some b^i ends up with degree > 1.
    """
    if measure.dim != g.dim:
        raise ValueError("dimension mismatch")
    d = g.dim
    drift = [Polynomial.zero(d) for _ in range(d)]
    for i in range(d):
        for j in range(d):
            drift[i] = drift[i] + g[i, j].derivative(j)
    for factor, exponent in measure.factor_exponents:
        if exponent == 0:
            continue
        s = boundary_first_order(g, factor)
        if s is None:
            raise InadmissibleMeasureError(
                f"measure factor {factor} does not satisfy the boundary "
                f"equation for this cometric"
            )
        for i in range(d):
            drift[i] = drift[i] + s[i] * exponent
    if measure.exp_poly is not None:
        for i, extra in enumerate(cometric_gradient(g, measure.exp_poly)):
            if extra.total_degree not in (NEG_INF,) and extra.total_degree > 1:
                raise InadmissibleMeasureError(
                    f"exponential measure part gives drift of degree "
                    f"{extra.total_degree} on axis {i}"
                )
            drift[i] = drift[i] + extra
    for i, b in enumerate(drift):
        if b.total_degree not in (NEG_INF,) and b.total_degree > 1:
            raise InadmissibleMeasureError(f"drift degree {b.total_degree} > 1 on axis {i}")
    return tuple(drift)


def operator_from_measure(g: CoMetric, measure: MeasureSpec) -> DiffusionOperator:
    return DiffusionOperator(g, drift_from_measure(g, measure))


def _embed(p: Polynomial, total: int, offset: int) -> Polynomial:
    terms = {}
    for exponent, coeff in p.terms.items():
        padded = (0,) * offset + exponent + (0,) * (total - offset - p.dim)
        terms[padded] = coeff
    return Polynomial(total, terms)


def product_operator(op1: DiffusionOperator, op2: DiffusionOperator) -> DiffusionOperator:
    """Independent product: block-diagonal cometric, concatenated drifts."""
    d1, d2 = op1.dim, op2.dim
    total = d1 + d2
    zero = Polynomial.zero(total)
    entries = [[zero] * total for _ in range(total)]
    for i in range(d1):
        for j in range(d1):
            entries[i][j] = _embed(op1.cometric[i, j], total, 0)
    for i in range(d2):
        for j in range(d2):
            entries[d1 + i][d1 + j] = _embed(op2.cometric[i, j], total, d1)
    drift = tuple(_embed(b, total, 0) for b in op1.drift) + tuple(
        _embed(b, total, d1) for b in op2.drift
    )
    return DiffusionOperator(CoMetric(entries), drift)


def sphere_operator(sphere_dim: int) -> DiffusionOperator:
    """Laplacian of the unit sphere S^d in ambient coordinates x of R^(d+1).

    Its cometric is delta_ij - x_i x_j and its drift is -d x, so restricted
    to the sphere it is the Laplace-Beltrami operator of the round metric.
    """
    n = sphere_dim + 1
    x = [Polynomial.variable(n, i) for i in range(n)]
    cometric = CoMetric([[int(i == j) - x[i] * x[j] for j in range(n)] for i in range(n)])
    return DiffusionOperator(cometric, tuple(xi * -sphere_dim for xi in x))


def _lowered(exponent: tuple[int, ...], *axes: int) -> tuple[int, ...]:
    out = list(exponent)
    for axis in axes:
        out[axis] -= 1
    return tuple(out)


class GradedOperatorMatrix:
    """Exact matrix M of L on a graded monomial basis, as integer columns.

    Column k holds the coordinates of L(m_k) times one common `scale`, the
    lcm of the denominators of all coefficients of L: `columns[k]` maps each
    row with a nonzero entry to that integer, so M[r, k] = columns[k][r] /
    scale.  With g^ij = sum_c g^ij_c x^c and b^i = sum_c b^i_c x^c, each
    column comes from exponent arithmetic:

        L(x^a) = sum_{ij,c} g^ij_c a_i (a_j - delta_ij) x^(a + c - e_i - e_j)
               + sum_{i,c}  b^i_c a_i x^(a + c - e_i)

    A nonzero image coefficient of degree above |a| raises
    DegreeViolationError, so the matrix is block-upper-triangular in the
    degree grading by construction.

    Exponents are coded as integers in base max_degree + 3, so a term's
    target is code(a) + code(shift).  A term with a nonzero factor has a
    target with entries in [0, max_degree + 2], so distinct targets have
    distinct codes, though a shift may have entries down to -2.
    """

    def __init__(self, op: DiffusionOperator, max_degree: int):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.operator = op
        self.basis = MonomialBasis(op.dim, max_degree)
        weights = [(max_degree + 3) ** k for k in range(op.dim)]

        def code(exponent) -> int:
            return sum(w * e for w, e in zip(weights, exponent))

        # (i, j or None for a drift term) -> [(c - e_i [- e_j], coefficient)]
        groups: dict[tuple[int, int | None], list] = {}
        for i in range(op.dim):
            for j in range(op.dim):
                for c, coeff in op.cometric[i, j].terms.items():
                    groups.setdefault((i, j), []).append((_lowered(c, i, j), coeff))
            for c, coeff in op.drift[i].terms.items():
                groups.setdefault((i, None), []).append((_lowered(c, i), coeff))
        self.scale = lcm(*(coeff.denominator for group in groups.values() for _, coeff in group))
        # per group: (code of the shift, whether it raises the degree, integer coefficient)
        coded = [
            (i, j, [
                (code(shift), sum(shift) > 0, coeff.numerator * (self.scale // coeff.denominator))
                for shift, coeff in group
            ])
            for (i, j), group in groups.items()
        ]
        codes = [code(e) for e in self.basis.exponents]
        index = {c: k for k, c in enumerate(codes)}
        self.columns: list[dict[int, int]] = []
        for a, origin in zip(self.basis.exponents, codes):
            image: dict[int, int] = {}
            raised = []
            for i, j, shifts in coded:
                factor = a[i] if j is None else a[i] * (a[j] - (i == j))
                if factor:
                    for shift, raises, coeff in shifts:
                        target = origin + shift
                        image[target] = image.get(target, 0) + factor * coeff
                        if raises:
                            raised.append(target)
            if any(image[target] for target in raised):
                raise DegreeViolationError(
                    f"L raised the degree of monomial {a}: operator "
                    f"was built outside the admissible framework"
                )
            self.columns.append({index[target]: v for target, v in image.items() if v})

    @property
    def max_degree(self) -> int:
        return self.basis.max_degree

    def diagonal_block(self, degree: int) -> list[list[int]]:
        """Action on degree-n monomials modulo lower degree, as the integer
        rows of scale * M_nn."""
        block = self.basis.degree_slices[degree]
        columns = self.columns[block]
        return [[column.get(r, 0) for column in columns] for r in range(block.start, block.stop)]

    def moments(self) -> list[Fraction]:
        """Exact moments of the measure L leaves invariant, normalized to mass
        1: entry k is the mean of the k-th basis monomial.

        The integral of L p vanishes for every polynomial p, and column a holds
        L(x^a), so sum_r M[r, a] m_r = 0.  Degree by degree that reads
        M_nn^t m_n = -M_<n,n^t m_<n with m_0 = 1 (Krall and Sheffer, Ann. Mat.
        Pura Appl. 76, 1967): one exact solve per degree, on the integer
        columns, since the common scale cancels.  A singular M_nn leaves the
        degree-n moments undetermined and raises, naming n.
        """
        values = [Fraction(1)]
        for n, block in enumerate(self.basis.degree_slices[1:], start=1):
            columns = self.columns[block]
            rhs = [
                -sum((v * values[r] for r, v in column.items() if r < block.start), Fraction(0))
                for column in columns
            ]
            transposed = RationalMatrix(
                [[column.get(r, 0) for r in range(block.start, block.stop)] for column in columns]
            )
            solution = transposed.solve_unique([rhs])
            if solution is None:
                raise ValueError(
                    f"the degree-{n} diagonal block is singular: L does not fix "
                    f"the moments of degree {n}"
                )
            (numerators,), d = solution
            values.extend(Fraction(x, d) for x in numerators)
        return values

    def strictly_lower_block_entries(self) -> list[tuple[int, int, Fraction]]:
        """Entries below the degree-diagonal blocks; empty iff graded."""
        out = []
        for block in self.basis.degree_slices:
            for c in range(block.start, block.stop):
                out.extend(
                    (r, c, Fraction(v, self.scale))
                    for r, v in sorted(self.columns[c].items())
                    if r >= block.stop
                )
        return out
