"""Spectra of diffusion operators on the graded polynomial filtration.

The exact graded matrix of L is held as sparse integer columns over one
scale S (`GradedOperatorMatrix`): exact eigenvectors are verified against
those columns in integers, and each diagonal degree block is read from them
as the integer matrix B = S M_nn.  Eigenvalues come from these blocks:
triangular blocks read off exactly, otherwise the characteristic polynomial
of B, monic with integer coefficients and computed without division by
Berkowitz's recurrence in Python ints, is split by its integer roots mu
when possible, with a numeric fallback flagged in the result.  By the
rational root theorem those are all of its rational roots, and each gives
the eigenvalue mu / S of M_nn.

Orthonormal eigenbases follow the decomposition V_n = V_{n-1} + W_n of
L^2(mu) into orthogonal polynomials, on which L is block diagonal.  One
graded matrix to degree 2n serves an eigenbasis to degree n: L keeps every
V_k, so its first columns are the matrix to degree n, and its moments
(`GradedOperatorMatrix.moments`) give the monic orthogonal polynomials P_b
exactly.  L P_a = sum_b (M_nn)_ba P_b, so each kernel vector of a shifted
degree block, read once, lifts through the P_b to an exact eigenvector,
orthogonal to every lower degree and orthogonalized within its eigenvalue
by an exact Gram-Schmidt.  Only the final
normalization is float, so the operator residuals are zero on any rule,
Monte Carlo included.  The rule enters through its mass and one pass over
its points: the returned functions' pointwise Gram B, a cross-estimator of
the identity, and their integrated carre du champ A.  The energy pencil
A v = lambda B v is an independent check: its eigenvalues are the negated
graded eigenvalues when the cometric, the drift and the rule's measure
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, sqrt
from typing import Callable, Iterable

import numpy as np

from .catalog import Model
from .linalg import RationalMatrix, cluster_eigenvalues, generalized_sym_eig
from .operator import DiffusionOperator, GradedOperatorMatrix
from .poly import MonomialBasis
from .quadrature import DomainSampler, Moments, gamma_form_matrix

# not called here: perfbench/test_perfbench.py asserts that the tracer
# rebinds this name along with quadrature.gram_matrix
from .quadrature import gram_matrix  # noqa: F401

PENCIL_NEGATIVE_TOL = 1e-8


@dataclass(frozen=True)
class EigenvalueEntry:
    value: Fraction | float
    multiplicity: int
    source: str  # "exact-graded" | "numeric-block"

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)


@dataclass
class SpectrumResult:
    max_degree: int
    per_degree: list[list[EigenvalueEntry]]

    def multiset(self, n: int) -> list[Fraction | float]:
        out: list[Fraction | float] = []
        for entry in self.per_degree[n]:
            out.extend([entry.value] * entry.multiplicity)
        return sorted(out, key=float)

    def mismatched_degrees(
        self, table: Callable[[int], list[Fraction]], degrees: Iterable[int]
    ) -> list[int]:
        """The degrees n among `degrees` whose block is not exactly table(n).

        A numeric-block value never matches: a float can be close to a
        tabulated eigenvalue, even equal to it, but only an exact one
        confirms it.
        """
        return [
            n for n in degrees
            if not all(e.is_exact for e in self.per_degree[n]) or self.multiset(n) != table(n)
        ]

    def to_jsonable(self) -> dict:
        degrees = []
        for n, entries in enumerate(self.per_degree):
            degrees.append(
                {
                    "n": n,
                    "eigenvalues": [
                        str(e.value) if e.is_exact else float(e.value) for e in entries
                    ],
                    "multiplicities": [e.multiplicity for e in entries],
                    "sources": [e.source for e in entries],
                }
            )
        return {"max_degree": self.max_degree, "degrees": degrees}


# ----------------------------------------------------------------------
# exact block spectra


def _is_triangular(block: list[list[int]]) -> bool:
    n = len(block)
    upper = all(block[i][j] == 0 for i in range(n) for j in range(i))
    if upper:
        return True
    return all(block[i][j] == 0 for i in range(n) for j in range(i + 1, n))


def _char_poly(block: list[list[int]]) -> list[int]:
    """Characteristic polynomial det(tI - B) of an integer matrix B,
    coefficients low-to-high: monic, with integer coefficients.

    Berkowitz's division-free recurrence (S. J. Berkowitz, IPL 18, 1984) in
    Python ints: bordering the leading k x k submatrix M by a column C, a row
    R and a corner a multiplies the coefficient vector (high-to-low) by the
    lower triangular Toeplitz matrix with first column 1, -a, -RC, -RMC,
    -RM^2C, ...  M is never copied: C is held with zeros below row k, so the
    products run over the nonzero entries of whole rows of B, which are few
    in a graded block.
    """
    n = len(block)
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in block]
    coeffs = [1]  # high-to-low, of the leading k x k submatrix
    for k in range(n):
        column = [block[i][k] for i in range(k)] + [0] * (n - k)
        toeplitz = [1, -block[k][k]]
        for step in range(k):
            toeplitz.append(-sum(v * column[j] for j, v in nonzero[k]))
            if step < k - 1:
                column = [sum(v * column[j] for j, v in line) for line in nonzero[:k]]
                column += [0] * (n - k)
        coeffs = [
            sum(toeplitz[r - j] * coeffs[j] for j in range(min(r, k) + 1))
            for r in range(k + 2)
        ]
    return coeffs[::-1]


def _divide_root(coeffs: list[int], root: int) -> list[int] | None:
    """The quotient of the polynomial (low-to-high) by t - root, or None
    when root is not a root."""
    acc = 0
    quotient = [0] * (len(coeffs) - 1)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc * root
        quotient[k - 1] = acc
    return quotient if coeffs[0] + acc * root == 0 else None


def _float_block(block: list[list[int]], scale: int) -> np.ndarray:
    """The float matrix block / scale, each entry correctly rounded."""
    return np.array([[v / scale for v in row] for row in block])


def block_eigenvalues(block: list[list[int]], scale: int) -> list[EigenvalueEntry]:
    """Exact spectrum of one degree block when it splits rationally.

    `block` is the integer matrix B = scale * M_nn.  det(tI - B) is monic
    with integer coefficients, so by the rational root theorem every
    rational eigenvalue of B is an integer mu, and lam = mu / scale.  The
    candidates are the float eigenvalues of M_nn times scale, rounded; each
    is tested exactly by synthetic division.  A defective eigenvalue of
    multiplicity k spreads into k float values off by about (eps |M|)^(1/k),
    but their mean is accurate to roundoff: the means of windows of
    neighbouring sorted values that matched no root are candidates too.
    """
    n = len(block)
    if n == 0:
        return []
    found: dict[int, int] = {}
    if _is_triangular(block):
        for i in range(n):
            found[block[i][i]] = found.get(block[i][i], 0) + 1
    else:
        real = np.sort(np.linalg.eigvals(_float_block(block, scale)).real)
        remaining = _char_poly(block)

        def candidates():  # each float taken exactly, times scale, rounded
            rounded = [round(Fraction(float(v)) * scale) for v in real]
            yield from sorted(set(rounded))
            # reached once every single value is tried, so `found` is final
            unmatched = [v for v, mu in zip(real, rounded) if mu not in found]
            for width in range(2, len(unmatched) + 1):
                for start in range(len(unmatched) - width + 1):
                    yield round(Fraction(float(np.mean(unmatched[start : start + width]))) * scale)

        for mu in candidates():
            while len(remaining) > 1:
                quotient = _divide_root(remaining, mu)
                if quotient is None:
                    break
                found[mu] = found.get(mu, 0) + 1
                remaining = quotient
        if sum(found.values()) != n:
            # numeric fallback on the exact block
            return [
                EigenvalueEntry(float(np.mean(real[cluster])), len(cluster), "numeric-block")
                for cluster in cluster_eigenvalues(real)
            ]
    return [
        EigenvalueEntry(Fraction(mu, scale), multiplicity, "exact-graded")
        for mu, multiplicity in sorted(found.items())
    ]


def graded_eigenvalues(op: DiffusionOperator, max_degree: int) -> SpectrumResult:
    """Block spectra of the graded matrix of `op` up to `max_degree`."""
    matrix = GradedOperatorMatrix(op, max_degree)
    per_degree = [
        block_eigenvalues(matrix.diagonal_block(n), matrix.scale)
        for n in range(max_degree + 1)
    ]
    return SpectrumResult(max_degree, per_degree)


# ----------------------------------------------------------------------
# orthonormal eigenbasis


@dataclass
class EigenFunction:
    """One basis element, by its coefficients over the eigenbasis's
    monomial basis.

    With an exact eigenvalue the coefficients are the float rounding of an
    exact eigenvector of the graded matrix, verified exactly, so its
    operator residual is zero.  Numeric-block fallbacks carry the residual
    of their float kernel vector instead.
    """

    degree: int
    eigenvalue: Fraction | float
    coefficients: np.ndarray
    residual: float = 0.0

    @property
    def exact(self) -> bool:
        return isinstance(self.eigenvalue, Fraction)


@dataclass
class EigenBasis:
    model_name: str
    max_degree: int
    basis: MonomialBasis
    per_degree: list[list[EigenFunction]]
    gram: np.ndarray            # of the returned functions, on the rule's points
    pencil_eigenvalues: np.ndarray
    graded_values: list[float]

    def all_functions(self) -> list[EigenFunction]:
        return [f for level in self.per_degree for f in level]

    def gram_deviation(self) -> float:
        return float(np.abs(self.gram - np.eye(self.gram.shape[0])).max())

    def residuals(self) -> list[float]:
        return [f.residual for f in self.all_functions()]


@dataclass
class OrthogonalDegree:
    """The monic orthogonal polynomials P_b of one degree n, in integers.

    For the k-th monomial x^b of degree n, scale * P_b = scale * x^b -
    sum_c lower[k][c] x^c over the monomials x^c of lower degree, and P_b is
    orthogonal to every polynomial of lower degree.  Under the measure of
    mass 1, <scale P_b, scale P_b'> = gram[k][l] / denominator.
    """

    scale: int
    lower: list[list[int]]
    gram: list[list[int]]
    denominator: int


def orthogonal_polynomials(graded: GradedOperatorMatrix, max_degree: int) -> list[OrthogonalDegree]:
    """The monic orthogonal polynomials of every degree up to `max_degree`,
    under the exact moments of the measure the operator leaves invariant
    (`GradedOperatorMatrix.moments` of `graded`, to twice that degree).

    P_b = x^b - proj x^b onto the polynomials of degree < n is one exact
    solve of their moment matrix with a right-hand side per x^b; since
    P_a - x^a has lower degree, <P_a, P_b> = <x^a, P_b>.  The moments are
    integers over one denominator, so everything after the solve is integer
    arithmetic.
    """
    if graded.max_degree < 2 * max_degree:
        raise ValueError(
            f"degree {max_degree} needs moments to degree {2 * max_degree}, not {graded.max_degree}"
        )
    exponents = graded.basis.exponents
    moments = graded.moments()
    denominator = lcm(*(m.denominator for m in moments))
    mean = {e: m.numerator * (denominator // m.denominator) for e, m in zip(exponents, moments)}

    def moment(a, b):
        return mean[tuple(x + y for x, y in zip(a, b))]

    out = []
    for n, block in enumerate(graded.basis.degree_slices[: max_degree + 1]):
        lower, top = exponents[: block.start], exponents[block]
        # the right-hand side of x^b, <x^c, x^b> for the c of lower degree
        rhs = [[moment(c, b) for c in lower] for b in top]
        scale, projection = 1, [[] for _ in top]
        if lower:
            matrix = RationalMatrix([[moment(c, e) for e in lower] for c in lower])
            solved = matrix.solve_unique(rhs)
            if solved is None:
                raise ValueError(f"the moment matrix below degree {n} is singular")
            projection, scale = solved
        # <x^a, P_b>, with <x^a, x^c> read from the right-hand side of x^a
        gram = [
            [scale * (scale * moment(a, b) - sum(m * y for m, y in zip(row, column)))
             for b, column in zip(top, projection)]
            for a, row in zip(top, rhs)
        ]
        out.append(OrthogonalDegree(scale, projection, gram, denominator))
    return out


def _lift(poly: OrthogonalDegree, top: list[int], size: int) -> list[int]:
    """Integer coefficients of sum_b top_b scale P_b over the first `size`
    basis monomials."""
    lower = [
        -sum(t * column[i] for t, column in zip(top, poly.lower))
        for i in range(len(poly.lower[0]))
    ]
    return lower + [poly.scale * t for t in top] + [0] * (size - len(lower) - len(top))


def _lifted_eigenvectors(
    block: list[list[int]], mu: int, poly: OrthogonalDegree, size: int
) -> list[list[int]]:
    """Exact eigenvectors over the first `size` basis monomials, in
    integers: each kernel vector k of the integer degree block B - mu I
    (B = S M_nn, mu = S lam), scaled to integers, lifted to sum_b k_b P_b.

    L is symmetric under its invariant measure, so it maps the P_b of
    degree n into their own span, and L P_a = sum_b (M_nn)_ba P_b: the lift
    is an eigenvector orthogonal to every polynomial of lower degree.
    """
    shifted = [[v - mu if i == j else v for j, v in enumerate(row)] for i, row in enumerate(block)]
    out = []
    for kernel in RationalMatrix(shifted).nullspace():
        q = lcm(*(v.denominator for v in kernel))
        out.append(_lift(poly, [v.numerator * (q // v.denominator) for v in kernel], size))
    return out


def _form(u: list[int], gram: list[list[int]], v: list[int]) -> int:
    """u^t gram v."""
    return sum(a * sum(g * b for g, b in zip(row, v)) for a, row in zip(u, gram))


def _orthogonalize(
    vectors: list[list[int]], top: slice, gram: list[list[int]]
) -> tuple[list[list[int]], list[int]]:
    """Gram-Schmidt in integers under `gram` on the top-degree coordinates.

    Each vector is scaled by the squared norm of each earlier one before that
    one's projection is taken out, and divided by the gcd of its entries, so
    it stays integral; with the squared norms this is the exact LDL^t of the
    vectors' Gram matrix up to a scale per vector.  Returns the vectors and
    their squared norms under `gram`.
    """
    out, norms = [], []
    for v in vectors:
        for p, norm in zip(out, norms):
            c = _form(p[top], gram, v[top])
            v = [norm * a - c * b for a, b in zip(v, p)]
            g = gcd(*v)
            v = [a // g for a in v]
        out.append(v)
        norms.append(_form(v[top], gram, v[top]))
    return out, norms


def _float_orthonormal(
    poly: OrthogonalDegree, shifted: np.ndarray, multiplicity: int, size: int
) -> tuple[list[np.ndarray], list[float]]:
    """Numeric-block fallback: the float kernel K of the shifted block
    M_nn - lam I, orthonormalized under the Gram H of the P_b by the Cholesky
    factor of K^t H K and lifted through them.  Returns the coefficient
    vectors, each of norm 1 under the measure of mass 1, and their
    residuals: sum_b k_b P_b has (L - lam) residual sum_b r_b P_b with
    r = (M_nn - lam I) k, of norm sqrt(r^t H r)."""
    square = poly.scale * poly.scale * poly.denominator
    h = np.array([[v / square for v in row] for row in poly.gram])
    kernel = np.linalg.svd(shifted)[2][shifted.shape[0] - multiplicity :].T
    factor = np.linalg.cholesky(kernel.T @ h @ kernel)
    tops = np.linalg.solve(factor, kernel.T).T
    projection = np.array([[v / poly.scale for v in column] for column in poly.lower])
    vectors, residuals = [], []
    for k in tops.T:
        lower = -(k @ projection)
        vectors.append(np.concatenate([lower, k, np.zeros(size - len(lower) - len(k))]))
        r = shifted @ k
        residuals.append(sqrt(max(float(r @ h @ r), 0.0)))
    return vectors, residuals


def _verify_exact_eigenvector(graded: GradedOperatorMatrix, vector: list[int], mu: int) -> None:
    """Check M v == lam v exactly for an integer vector v over the first
    len(v) basis monomials and mu = S lam: the graded matrix is its integer
    columns S M over its scale S, so the check reads (S M) v == mu v, summed
    column by column.  L keeps every degree, so those columns reach no
    further row.
    """
    image = [0] * len(vector)
    for column, value in zip(graded.columns, vector):
        if value:
            for row, entry in column.items():
                image[row] += entry * value
    if any(x != mu * value for x, value in zip(image, vector)):
        raise RuntimeError("exact eigenvector failed verification")


def eigenbasis(
    model: Model, max_degree: int, sampler: DomainSampler, moments: Moments | None = None
) -> EigenBasis:
    """Mu-orthonormal polynomial eigenbasis up to the given degree.

    The eigenfunctions of degree n span W_n, the polynomials of degree n
    orthogonal to all of lower degree, and come from the monic orthogonal
    polynomials P_b of the exact moments (`orthogonal_polynomials`) of one
    graded matrix to twice the degree, whose degree blocks B = S M_nn give
    the eigenvalues (`block_eigenvalues`):

    1. Exact eigenvalues: the kernel of B - mu I, mu = S lam an integer,
       lifted through the P_b (`_lifted_eigenvectors`), is orthonormalized
       by Gram-Schmidt under the exact Gram of the P_b and each result is
       verified exactly, so its operator residual is zero.  Only the final
       1/sqrt(d) is float, scaled by the rule's mass, since the Gauss rules
       integrate the unnormalized density.
    2. Numeric-block eigenvalues: the float kernel of M_nn - lam I, lifted
       the same way and orthonormalized in float (`_float_orthonormal`),
       with the residual of each function from r = (M_nn - lam I) k on the
       Gram of the P_b.

    One pass over the rule's points (`gamma_form_matrix`) then integrates
    the returned functions' pointwise Gram, the cross-estimator behind
    `gram_deviation`, and their carre du champ; the energy pencil on the two
    is an independent check.  Both forms are sums over the same points, the
    energy a positively weighted one, so a significantly negative pencil
    eigenvalue raises on every rule.
    """
    basis = MonomialBasis(model.dim, max_degree)
    if moments is None or moments.basis.max_degree < 2 * max_degree:
        moments = Moments(model, 2 * max_degree, sampler)
    graded = GradedOperatorMatrix(model.operator, 2 * max_degree)
    mass = float(moments.values[0])

    per_degree: list[list[EigenFunction]] = []
    for degree, poly in enumerate(orthogonal_polynomials(graded, max_degree)):
        top = basis.degree_slices[degree]
        block = graded.diagonal_block(degree)
        level = []
        for entry in block_eigenvalues(block, graded.scale):
            if entry.is_exact:
                mu = entry.value * graded.scale
                if mu.denominator != 1:
                    raise RuntimeError(
                        f"{entry.value} times the graded scale {graded.scale} is not an "
                        f"integer, so it is no exact eigenvalue of the degree-{degree} block"
                    )
                vectors = _lifted_eigenvectors(block, mu.numerator, poly, len(basis))
                if len(vectors) != entry.multiplicity:
                    raise RuntimeError(
                        f"{len(vectors)} exact eigenvectors of {entry.value} at degree "
                        f"{degree}, expected multiplicity {entry.multiplicity}"
                    )
                for vector, norm in zip(*_orthogonalize(vectors, top, poly.gram)):
                    _verify_exact_eigenvector(graded, vector, mu.numerator)
                    # the vector over sqrt(mass <v, v>), with <v, v> =
                    # norm / (scale^2 denominator); its largest entry g is
                    # divided out first, so every float stays in range and
                    # that entry comes out positive
                    g = max(vector, key=abs)
                    ratio = g * g * poly.scale**2 * poly.denominator / norm
                    coefficients = np.array([v / g for v in vector]) * sqrt(ratio / mass)
                    level.append(EigenFunction(degree, entry.value, coefficients))
            else:
                shifted = _float_block(block, graded.scale)
                shifted -= float(entry.value) * np.eye(len(block))
                vectors, residuals = _float_orthonormal(poly, shifted, entry.multiplicity, len(basis))
                level.extend(
                    EigenFunction(degree, entry.value, v / sqrt(mass), r)
                    for v, r in zip(vectors, residuals)
                )
        per_degree.append(level)

    funcs = [f for level in per_degree for f in level]
    energy, gram = gamma_form_matrix(basis, np.column_stack([f.coefficients for f in funcs]), moments)
    pencil_values = generalized_sym_eig(energy, gram).eigenvalues
    if pencil_values.min() < -PENCIL_NEGATIVE_TOL * max(np.abs(pencil_values).max(), 1.0):
        raise ValueError(
            "energy-form pencil has a significantly negative eigenvalue; "
            "the form must be positive semidefinite"
        )

    return EigenBasis(
        model_name=model.name,
        max_degree=max_degree,
        basis=basis,
        per_degree=per_degree,
        gram=gram,
        pencil_eigenvalues=pencil_values,
        graded_values=sorted(float(f.eigenvalue) for f in funcs),
    )


def pencil_gaps(eb: EigenBasis) -> np.ndarray:
    """Relative gaps |pencil - graded| / (1 + |graded|), pairing the negated
    pencil eigenvalues with the graded values, both sorted descending: one
    gap per eigenfunction.

    The pencil is solved on the eigenfunctions themselves, so it is well
    conditioned; its values carry the rule's error in both forms, so this is
    a quadrature-level consistency check of cometric, drift and measure, not
    an exactness statement.
    """
    pencil_sorted = np.sort(-eb.pencil_eigenvalues)[::-1]  # L-eigenvalues
    graded_sorted = np.sort(np.array(eb.graded_values))[::-1]
    return np.abs(pencil_sorted - graded_sorted) / (1.0 + np.abs(graded_sorted))


# ----------------------------------------------------------------------
# closed-form comparison


def compare_closed_form(model: Model, max_degree: int) -> list[int]:
    """Degrees whose computed block is not exactly the tabulated multiset."""
    return graded_eigenvalues(model.operator, max_degree).mismatched_degrees(
        model.claimed_spectrum().eigenvalues_at_degree, range(max_degree + 1)
    )
