"""Diffusion operators built from a polynomial cometric and a measure.

An operator is L(f) = sum_ij g^ij d2f/dxi dxj + sum_i b^i df/dxi with
quadratic cometric entries and affine drift.  The drift is never free data
here: it is always derived from the measure density via

    b^i = sum_j d_j g^ij + sum_j g^ij d_j log(rho)

which stays polynomial exactly when the measure is admissible for the
cometric.  With g quadratic and b affine, L sends x^a to a sum over a few
net exponent shifts s, each with an integer quadratic polynomial q_s(a) as
coefficient; each operator tabulates that action once
(`DiffusionOperator.monomial_action`), and both `DiffusionOperator.apply`
and `GradedOperatorMatrix` read L from it.  Everything in this module is
exact, in Python integers and fractions, without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .linalg import RationalMatrix, poly_matrix_det
from .poly import Exponent, MonomialBasis, Polynomial, exact_divide

#: one coefficient of q_s: (G_ij, i, j) for G_ij a_i a_j, (D_i, i, None) for D_i a_i
Term = tuple[int, int, int | None]


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
                if p.total_degree > 2:
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
            if b.total_degree > 1:
                raise ValueError("drift entries must have degree <= 1")

    @property
    def dim(self) -> int:
        return self.cometric.dim

    @cached_property
    def monomial_action(self) -> tuple[int, tuple[tuple[Exponent, tuple[Term, ...]], ...]]:
        """L on monomials as one integer table (S, ((s, q_s), ...)):

            L(x^a) = sum_s q_s(a) / S * x^(a + s)

        S is the lcm of the denominators of the cometric and drift entries,
        and each net shift s has the integer quadratic polynomial q_s(a) =
        sum_{i<=j} G_ij a_i a_j + sum_i D_i a_i, held as its nonzero
        coefficients: (G_ij, i, j) and (D_i, i, None).  A cometric term
        g^ij_c x^c adds g^ij_c a_i (a_j - delta_ij) at s = c - e_i - e_j
        (both orders of i != j land on one G_ij), a drift term b^i_c x^c adds
        b^i_c a_i at s = c - e_i.  Distinct shifts reach distinct monomials,
        so q_s(a) is the whole coefficient of x^(a + s); it vanishes when
        a + s has a negative entry, because every term's factor does.  Shifts
        whose polynomial cancels to zero are left out.  Built on first use
        and kept.
        """
        d = self.dim
        entries = [(i, j, self.cometric[i, j]) for i in range(d) for j in range(d)]
        entries += [(i, None, b) for i, b in enumerate(self.drift)]
        scale = lcm(*(p.denominator for _, _, p in entries))
        table: dict[Exponent, dict[tuple[int, int | None], int]] = {}
        for i, j, p in entries:
            lift = scale // p.denominator
            for c, n in p.numerators.items():
                n *= lift
                if j is None:
                    q = table.setdefault(_lowered(c, i), {})
                    q[i, None] = q.get((i, None), 0) + n
                    continue
                q = table.setdefault(_lowered(c, i, j), {})
                key = (min(i, j), max(i, j))
                q[key] = q.get(key, 0) + n
                if i == j:
                    q[i, None] = q.get((i, None), 0) - n
        shifts = []
        for shift, q in table.items():
            terms = tuple((v, i, j) for (i, j), v in q.items() if v)
            if terms:
                shifts.append((shift, terms))
        return scale, tuple(shifts)

    def apply(self, f: Polynomial) -> Polynomial:
        """Exact L(f) from `monomial_action`: f = sum_a n_a x^a / den gives
        sum_a n_a sum_s q_s(a) x^(a + s) over S * den."""
        if f.dim != self.dim:
            raise ValueError("dimension mismatch")
        scale, shifts = self.monomial_action
        image: dict[Exponent, int] = {}
        for a, n in f.numerators.items():
            for shift, terms in shifts:
                q = sum(c * a[i] * (1 if j is None else a[j]) for c, i, j in terms)
                if q:
                    target = tuple(map(int.__add__, a, shift))
                    image[target] = image.get(target, 0) + n * q
        return Polynomial._reduced(
            self.dim, {e: v for e, v in image.items() if v}, f.denominator * scale
        )


def gamma(g: CoMetric, f: Polynomial, h: Polynomial) -> Polynomial:
    """Carre du champ sum_i d_i f * cometric_gradient(g, h)[i], exact and symmetric."""
    if f.dim != g.dim or h.dim != g.dim:
        raise ValueError("dimension mismatch")
    result = Polynomial.zero(g.dim)
    for df, row in zip(f.gradient(), cometric_gradient(g, h)):
        result = result + df * row
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
        if quotient.total_degree > 1:
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
            if extra.total_degree > 1:
                raise InadmissibleMeasureError(
                    f"exponential measure part gives drift of degree "
                    f"{extra.total_degree} on axis {i}"
                )
            drift[i] = drift[i] + extra
    for i, b in enumerate(drift):
        if b.total_degree > 1:
            raise InadmissibleMeasureError(f"drift degree {b.total_degree} > 1 on axis {i}")
    return tuple(drift)


def operator_from_measure(g: CoMetric, measure: MeasureSpec) -> DiffusionOperator:
    return DiffusionOperator(g, drift_from_measure(g, measure))


def _embed(p: Polynomial, total: int, offset: int) -> Polynomial:
    before, after = (0,) * offset, (0,) * (total - offset - p.dim)
    return Polynomial._new(
        total, {before + e + after: n for e, n in p.numerators.items()}, p.denominator
    )


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
    operator's S (`DiffusionOperator.monomial_action`): `columns[k]` maps
    each row with a nonzero entry to that integer, so M[r, k] = columns[k][r]
    / scale.  Since L(x^a) = sum_s q_s(a) / S x^(a + s), the columns are
    filled one shift s at a time: q_s is evaluated on the whole basis at
    once over its per-axis exponent columns, and each nonzero q_s(a) is the
    entry of column a in row a + s.  A nonzero q_s(a) on a shift that raises
    the degree (|s| > 0) raises DegreeViolationError, so the matrix is
    block-upper-triangular in the degree grading by construction.

    Rows are found by integer codes in base max_degree + 3, so the row of
    a + s has code code(a) + code(s).  A nonzero q_s(a) has a + s with
    entries in [0, max_degree + 2], so distinct targets have distinct codes,
    though a shift may have entries down to -2.
    """

    def __init__(self, op: DiffusionOperator, max_degree: int):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        self.operator = op
        self.basis = basis = MonomialBasis(op.dim, max_degree)
        self.scale, shifts = op.monomial_action
        base = max_degree + 3
        axes = basis.exponent_columns
        codes = [0] * len(basis)
        for k in reversed(range(op.dim)):
            codes = [base * code + e for code, e in zip(codes, axes[k])]
        row_of = {code: r for r, code in enumerate(codes)}
        self.columns: list[dict[int, int]] = [{} for _ in codes]
        for shift, terms in shifts:
            values = [0] * len(codes)
            for c, i, j in terms:
                if j is None:
                    values = [v + c * x for v, x in zip(values, axes[i])]
                else:
                    values = [v + c * x * y for v, x, y in zip(values, axes[i], axes[j])]
            if sum(shift) > 0:
                raised = next((k for k, v in enumerate(values) if v), None)
                if raised is not None:
                    raise DegreeViolationError(
                        f"L raised the degree of monomial {basis.exponents[raised]}: "
                        f"operator was built outside the admissible framework"
                    )
                continue
            offset = sum(e * base**k for k, e in enumerate(shift))
            for column, code, v in zip(self.columns, codes, values):
                if v:
                    column[row_of[code + offset]] = v

    @property
    def max_degree(self) -> int:
        return self.basis.max_degree

    def diagonal_block(self, degree: int) -> list[list[int]]:
        """Action on degree-n monomials modulo lower degree, as the integer
        rows of scale * M_nn."""
        block = self.basis.degree_slices[degree]
        columns = self.columns[block]
        return [[column.get(r, 0) for column in columns] for r in range(block.start, block.stop)]

    def moments(self) -> tuple[list[int], int]:
        """Exact moments of the measure L leaves invariant, normalized to mass
        1, as (integer numerators, denominator > 0): entry k over the
        denominator is the mean of the k-th basis monomial.

        The integral of L p vanishes for every polynomial p, and column a holds
        L(x^a), so sum_r M[r, a] m_r = 0.  Degree by degree that reads
        M_nn^t m_n = -M_<n,n^t m_<n with m_0 = 1 (Krall and Sheffer, Ann. Mat.
        Pura Appl. 76, 1967): one exact solve per degree, on the integer
        columns, since the common scale cancels.  Row i of M_nn^t is column
        i of the degree-n block, so the rows go from the columns straight
        into one `RationalMatrix`, the right-hand side in one more column,
        and its `solve`; M_nn is lower triangular in most models, which
        makes M_nn^t upper triangular and its solve a back substitution.  A
        singular M_nn leaves the degree-n moments undetermined and raises,
        naming n.

        The moments found so far are held as integers over one denominator,
        so every right-hand side is an integer sum; after each degree they
        are reduced by their gcd.
        """
        values, denominator = [1], 1
        for n, block in enumerate(self.basis.degree_slices[1:], start=1):
            width = block.stop - block.start
            rows = []
            for column in self.columns[block]:
                # L keeps the degree, so no row of a column lies past the block
                row = {r - block.start: v for r, v in column.items() if r >= block.start}
                rhs = -sum(v * values[r] for r, v in column.items() if r < block.start)
                if rhs:
                    row[width] = rhs
                rows.append(row)
            solution = RationalMatrix(rows, width + 1).solve()
            if solution is None:
                raise ValueError(
                    f"the degree-{n} diagonal block is singular: L does not fix "
                    f"the moments of degree {n}"
                )
            # the new moments are numerators / (d * denominator)
            numerators, d = solution
            values = [v * d for v in values] + numerators
            denominator *= d
            g = gcd(denominator, *values)
            values = [v // g for v in values]
            denominator //= g
        return values, denominator

    def strictly_lower_block_entries(self) -> list[tuple[int, int, int]]:
        """Entries below the degree-diagonal blocks as (row, column, integer
        entry over `scale`), by column and then row; empty iff graded.

        For a constructed matrix it is always empty: the constructor raises
        DegreeViolationError on any nonzero value of a shift that raises the
        degree, and every other shift puts a column's entries at or below
        its own degree, inside or above its diagonal block.
        """
        out = []
        for block in self.basis.degree_slices:
            for c in range(block.start, block.stop):
                out.extend(sorted((r, c, v) for r, v in self.columns[c].items() if r >= block.stop))
        return out
