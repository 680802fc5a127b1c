"""Spectra of diffusion operators on the graded polynomial filtration.

Eigenvalues come from the diagonal degree blocks of the exact graded matrix:
triangular blocks read off exactly, otherwise the block's characteristic
polynomial is split over the rationals when possible, with a numeric
fallback flagged in the result.  That polynomial is exact and computed
without division: Berkowitz's recurrence runs in Python ints on the block
scaled by the lcm of its denominators, and the scale is divided out of the
coefficients at the end.

Orthonormal eigenbases pair that exact skeleton with a quadrature rule:
eigenvectors come from the exact graded matrix, so their operator residuals
are zero even under Monte Carlo Gram error, and are orthonormalized under
the rule's pointwise Gram within eigenvalue clusters.  The energy pencil
A v = lambda B v, with A the integrated carre du champ and B the pointwise
Gram of the returned functions, is then solved as an independent check:
its eigenvalues are the negated graded eigenvalues when the cometric, the
drift and the rule's measure agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .catalog import Model
from .linalg import RationalMatrix, cluster_eigenvalues, generalized_sym_eig
from .operator import DiffusionOperator, GradedOperatorMatrix
from .poly import MonomialBasis
from .quadrature import DomainSampler, Moments, gamma_form_matrix, point_chunks

# not called here: perfbench/test_perfbench.py asserts that the tracer
# rebinds this name along with quadrature.gram_matrix
from .quadrature import gram_matrix  # noqa: F401

CLUSTER_TAU = 1e-7
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

    def degree(self, n: int) -> list[EigenvalueEntry]:
        return self.per_degree[n]

    def multiset(self, n: int) -> list[Fraction | float]:
        out: list[Fraction | float] = []
        for entry in self.per_degree[n]:
            out.extend([entry.value] * entry.multiplicity)
        return sorted(out, key=float)

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


def _is_triangular(block: list[list[Fraction]]) -> bool:
    n = len(block)
    upper = all(block[i][j] == 0 for i in range(n) for j in range(i))
    if upper:
        return True
    return all(block[i][j] == 0 for i in range(n) for j in range(i + 1, n))


def _char_poly(block: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(tI - A), coefficients low-to-high.

    The block is scaled by the lcm D of its denominators to the integer
    matrix B = D*A, whose characteristic polynomial comes from Berkowitz's
    division-free recurrence (S. J. Berkowitz, IPL 18, 1984) in Python ints:
    bordering the leading k x k submatrix M by a column C, a row R and a
    corner a multiplies the coefficient vector (high-to-low) by the lower
    triangular Toeplitz matrix with first column 1, -a, -RC, -RMC, -RM^2C, ...
    Since det(tI - B) = D^n det((t/D)I - A), the t^k coefficient of A's
    polynomial is that of B divided by D^(n-k).
    """
    n = len(block)
    scale = lcm(*(v.denominator for row in block for v in row))
    b = [[v.numerator * (scale // v.denominator) for v in row] for row in block]
    coeffs = [1]  # high-to-low, of the leading k x k submatrix
    for k in range(n):
        leading = [b[i][:k] for i in range(k)]
        row = b[k][:k]
        column = [b[i][k] for i in range(k)]
        toeplitz = [1, -b[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(r * c for r, c in zip(row, column)))
            column = [sum(m * c for m, c in zip(line, column)) for line in leading]
        coeffs = [
            sum(toeplitz[r - j] * coeffs[j] for j in range(min(r, k) + 1))
            for r in range(k + 2)
        ]
    return [Fraction(c, scale ** (n - k)) for k, c in enumerate(reversed(coeffs))]


def _synthetic_divide(coeffs: list[Fraction], root: Fraction) -> tuple[list[Fraction], Fraction]:
    """Divide by (t - root); returns (quotient low-to-high, remainder)."""
    acc = Fraction(0)
    quotient = [Fraction(0)] * (len(coeffs) - 1)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[k] + acc * root
        quotient[k - 1] = acc
    remainder = coeffs[0] + acc * root
    return quotient, remainder


def _rational_candidates(values: np.ndarray) -> list[Fraction]:
    out = []
    for v in sorted(values, key=lambda z: (z.real, z.imag)):
        if abs(v.imag) > 1e-6 * (1.0 + abs(v.real)):
            continue
        for limit in (1, 2, 3, 4, 6, 8, 12, 16, 24, 48, 10**6):
            cand = Fraction(float(v.real)).limit_denominator(limit)
            if abs(float(cand) - v.real) <= 1e-7 * (1.0 + abs(v.real)):
                out.append(cand)
                break
    seen = []
    for c in out:
        if c not in seen:
            seen.append(c)
    return seen


def block_eigenvalues(block: list[list[Fraction]]) -> list[EigenvalueEntry]:
    """Exact spectrum of one degree block when it splits rationally."""
    n = len(block)
    if n == 0:
        return []
    if _is_triangular(block):
        diag = sorted((block[i][i] for i in range(n)), key=float)
        entries: list[EigenvalueEntry] = []
        for v in diag:
            if entries and entries[-1].value == v:
                entries[-1] = EigenvalueEntry(v, entries[-1].multiplicity + 1, "exact-graded")
            else:
                entries.append(EigenvalueEntry(v, 1, "exact-graded"))
        return entries
    values = np.linalg.eigvals(np.array([[float(v) for v in row] for row in block]))
    remaining = _char_poly(block)
    found: dict[Fraction, int] = {}
    for cand in _rational_candidates(values):
        while len(remaining) > 1:
            quotient, rem = _synthetic_divide(remaining, cand)
            if rem != 0:
                break
            found[cand] = found.get(cand, 0) + 1
            remaining = quotient
    if sum(found.values()) == n:
        return [
            EigenvalueEntry(v, mult, "exact-graded")
            for v, mult in sorted(found.items(), key=lambda item: float(item[0]))
        ]
    # numeric fallback on the exact block
    real = np.sort(values.real)
    entries = []
    for cluster in cluster_eigenvalues(list(real), CLUSTER_TAU):
        mean = float(np.mean([real[i] for i in cluster]))
        entries.append(EigenvalueEntry(mean, len(cluster), "numeric-block"))
    return entries


def graded_spectrum(matrix: GradedOperatorMatrix) -> SpectrumResult:
    """Block spectra of an already built graded matrix."""
    per_degree = [
        block_eigenvalues(matrix.diagonal_block(n)) for n in range(matrix.max_degree + 1)
    ]
    return SpectrumResult(matrix.max_degree, per_degree)


def graded_eigenvalues(op: DiffusionOperator, max_degree: int) -> SpectrumResult:
    return graded_spectrum(GradedOperatorMatrix(op, max_degree))


# ----------------------------------------------------------------------
# orthonormal eigenbasis


@dataclass
class EigenFunction:
    """One basis element over the monomial basis.

    `exact` says the eigenvalue is exact: the function is then a float
    combination of exact eigenvectors of the graded matrix, each verified
    exactly, so its operator residual is zero.  Numeric-block fallbacks carry
    a pointwise residual instead.
    """

    degree: int
    eigenvalue: Fraction | float
    coefficients: np.ndarray
    basis: MonomialBasis
    exact: bool
    residual: float = 0.0

    def eval_float(self, points: np.ndarray) -> np.ndarray:
        return self.basis.eval_float(points) @ self.coefficients


@dataclass
class EigenBasis:
    model_name: str
    max_degree: int
    basis: MonomialBasis
    per_degree: list[list[EigenFunction]]
    gram: np.ndarray            # of the returned functions, via the raw pointwise Gram
    pencil_eigenvalues: np.ndarray
    graded_values: list[float]

    def all_functions(self) -> list[EigenFunction]:
        return [f for level in self.per_degree for f in level]

    def gram_deviation(self) -> float:
        return float(np.abs(self.gram - np.eye(self.gram.shape[0])).max())

    def residuals(self) -> list[float]:
        return [f.residual for f in self.all_functions()]


def _exact_eigenvectors(graded: GradedOperatorMatrix, degree: int, lam: Fraction) -> list[list[Fraction]]:
    """Exact eigenvectors of the graded matrix with top degree `degree`.

    The graded matrix is block upper triangular, so these are the kernel of
    the leading block (M - lam I)[:stop, :stop] that is nonzero in the top
    degree: in the RREF free-column basis, the vectors whose free column is
    a top column.  They are padded with zeros to the full basis length.
    """
    block = graded.basis.degree_slices[degree]
    m = graded.entries.data
    shifted = [
        [v - lam if i == j else v for j, v in enumerate(row[: block.stop])]
        for i, row in enumerate(m[: block.stop])
    ]
    padding = [Fraction(0)] * (len(graded.basis) - block.stop)
    return [
        vector + padding
        for vector in RationalMatrix(shifted).nullspace()
        if any(vector[block.start :])
    ]


def _float_eigenvectors(m: np.ndarray, basis: MonomialBasis, degree: int, lam: float, multiplicity: int, block: np.ndarray) -> list[np.ndarray]:
    """Numeric fallback for blocks whose spectrum did not split rationally."""
    shifted = block - lam * np.eye(block.shape[0])
    _, _, vt = np.linalg.svd(shifted)
    tops = vt[block.shape[0] - multiplicity :, :]
    slc = basis.degree_slices[degree]
    out = []
    for i in range(multiplicity):
        full = np.zeros(len(basis))
        full[slc.start : slc.stop] = tops[i]
        if slc.start:
            lower = m[: slc.start, : slc.start]
            coupling = m[: slc.start, slc.start : slc.stop]
            rhs = -coupling @ tops[i]
            shifted_lower = lower - lam * np.eye(slc.start)
            if np.min(np.abs(np.linalg.eigvals(lower) - lam)) <= CLUSTER_TAU * (1.0 + abs(lam)):
                u, *_ = np.linalg.lstsq(shifted_lower, rhs, rcond=None)
            else:
                u = np.linalg.solve(shifted_lower, rhs)
            full[: slc.start] = u
        out.append(full)
    return out


def _integer_matrix(graded: GradedOperatorMatrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """(S, rows of S*M): S is the lcm of the graded matrix's denominators and
    each row lists its nonzero integer entries as (column, value)."""
    data = graded.entries.data
    scale = lcm(*(v.denominator for row in data for v in row))
    rows = [
        [(j, v.numerator * (scale // v.denominator)) for j, v in enumerate(row) if v]
        for row in data
    ]
    return scale, rows


def _verify_exact_eigenvector(
    scaled: tuple[int, list[list[tuple[int, int]]]], vector: list[Fraction], lam: Fraction
) -> None:
    """Check M v == lam v exactly, in Python ints.

    `scaled` is (S, S*M) from _integer_matrix.  With q the lcm of v's
    denominators, V = q v is an integer vector; with S lam = p/r the check
    reads r (S M) V == p V, row by row.
    """
    scale, rows = scaled
    q = lcm(*(v.denominator for v in vector))
    big = [v.numerator * (q // v.denominator) for v in vector]
    target = lam * scale
    p, r = target.numerator, target.denominator
    for row, value in zip(rows, big):
        if r * sum(entry * big[j] for j, entry in row) != p * value:
            raise RuntimeError("exact eigenvector failed verification")


def _eigenvalue_clusters(spectrum: SpectrumResult) -> tuple[list[dict], list[float]]:
    """Global eigenvalue clusters in ascending order, and all graded values.

    Eigenvalues recur across degrees (covering-space models especially), so
    clusters are global: each collects its (degree, entry) parts; exact
    values cluster by exact equality, numeric ones by the tau rule.
    """
    clusters: list[dict] = []
    graded_values: list[float] = []
    for degree in range(spectrum.max_degree + 1):
        for entry in spectrum.degree(degree):
            lam = float(entry.value)
            graded_values.extend([lam] * entry.multiplicity)
            for cluster in clusters:
                if entry.is_exact and cluster["exact"] is not None:
                    if cluster["exact"] == entry.value:
                        cluster["parts"].append((degree, entry))
                        break
                elif not entry.is_exact and cluster["exact"] is None:
                    if abs(lam - cluster["value"]) <= CLUSTER_TAU * (1.0 + abs(lam)):
                        cluster["parts"].append((degree, entry))
                        break
            else:
                clusters.append(
                    {
                        "value": lam,
                        "exact": entry.value if entry.is_exact else None,
                        "parts": [(degree, entry)],
                    }
                )
    return sorted(clusters, key=lambda c: c["value"]), graded_values


def _raw_eigenvectors(graded: GradedOperatorMatrix, m: np.ndarray, clusters: list[dict]) -> list[list[dict]]:
    """Stage 1: the raw eigenvectors of each cluster, in float.

    They are exact where the spectrum is exact: their count must equal the
    eigenvalue's multiplicity, and each is checked once against the exact
    graded matrix, in ints.  Numeric-block entries get float eigenvectors of
    the float matrix `m`.
    """
    scaled = _integer_matrix(graded)
    out = []
    for cluster in clusters:
        members = []
        for degree, entry in cluster["parts"]:
            if entry.is_exact:
                vectors = _exact_eigenvectors(graded, degree, entry.value)
                if len(vectors) != entry.multiplicity:
                    raise RuntimeError(
                        f"{len(vectors)} exact eigenvectors of {entry.value} at degree "
                        f"{degree}, expected multiplicity {entry.multiplicity}"
                    )
                for vec in vectors:
                    _verify_exact_eigenvector(scaled, vec, entry.value)
                    members.append(
                        {"degree": degree, "value": entry.value, "exact": True,
                         "float": np.array([float(v) for v in vec])}
                    )
            else:
                block = np.array(
                    [[float(v) for v in row] for row in graded.diagonal_block(degree)]
                )
                for vec in _float_eigenvectors(
                    m, graded.basis, degree, float(entry.value), entry.multiplicity, block
                ):
                    members.append(
                        {"degree": degree, "value": entry.value, "exact": False, "float": vec}
                    )
        out.append(members)
    return out


def _pointwise_forms(
    columns: np.ndarray, n_raw: int, spans: list[slice], basis: MonomialBasis, moments: Moments
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Stage 2: one pass over the points.

    `columns` holds coefficient vectors over the basis: the n_raw raw
    functions first, then any others.  Returns the full pointwise Gram of all
    columns and, for each cluster span of the raw functions, its
    first-coordinate form sum_p w_p x_p f_k(p) f_l(p); no other block of
    that form is ever read.
    """
    points, weights = moments.points, moments.weights
    gram = np.zeros((columns.shape[1],) * 2)
    x_blocks = [np.zeros((span.stop - span.start,) * 2) for span in spans]
    for blk in point_chunks(points.shape[0]):
        # one row per function, one column per point
        values = columns.T @ basis.eval_float(points[blk]).T
        weighted = values * weights[blk]
        gram += values @ weighted.T
        x_weighted = weighted[:n_raw] * points[blk, 0]
        for span, x_c in zip(spans, x_blocks):
            x_c += values[span] @ x_weighted[span].T
    return gram, x_blocks


def _orthonormalize(
    degrees: list[int], g_c: np.ndarray, x_c: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, list[int]]]]:
    """Stage 3: hierarchical orthonormalization of one cluster.

    Degree batches in ascending order are projected against the
    already-accepted cluster members, so top-degree structure is preserved,
    then Loewdin-orthonormalized and rotated to diagonalize the
    first-coordinate form.  Returns the transform (one column per function,
    in batch order) and the (degree, member indices) of each batch.
    """
    k = len(degrees)
    transform = np.zeros((k, 0))
    batches: list[tuple[int, list[int]]] = []
    for degree in sorted(set(degrees)):
        local = [i for i, d in enumerate(degrees) if d == degree]
        batch = np.zeros((k, len(local)))
        for col, i in enumerate(local):
            batch[i, col] = 1.0
        if transform.shape[1]:
            overlap = transform.T @ g_c @ batch
            batch = batch - transform @ overlap
        small = batch.T @ g_c @ batch
        small = (small + small.T) / 2.0
        values, rot = np.linalg.eigh(small)
        if values.min() <= 0:
            raise ValueError("cluster Gram is not positive definite")
        batch = batch @ (rot @ np.diag(values**-0.5) @ rot.T)
        if len(local) > 1:
            form = batch.T @ x_c @ batch
            _, rot2 = np.linalg.eigh((form + form.T) / 2.0)
            batch = batch @ rot2
        batches.append((degree, local))
        transform = np.column_stack([transform, batch])
    return transform, batches


def eigenbasis(
    model: Model, max_degree: int, sampler: DomainSampler, moments: Moments | None = None
) -> EigenBasis:
    """Mu-orthonormal polynomial eigenbasis up to the given degree.

    Four stages:

    1. Raw eigenvectors, exact from the graded matrix (rational kernel
       computation) whenever the block spectrum is exact, each verified
       exactly once, so operator residuals are zero by construction.
    2. One pass over the quadrature points: the pointwise Gram of the raw
       functions and of the float fallbacks' residual directions
       (M - lam I) c, plus the within-cluster first-coordinate forms.
       Inner products of the (often huge-coefficient) eigenfunctions are
       evaluated value-wise, which avoids the catastrophic coefficient-space
       cancellation on thin domains.
    3. Hierarchical orthonormalization within each eigenvalue cluster; the
       transform is applied in float, which keeps every function in its
       eigenspace.
    4. With T the block-diagonal transform (sign flips folded in), the final
       Gram is T^t G T and each fallback residual comes from the Gram of
       the residual directions: no second pass over the points for them.

    The energy pencil is then solved on the returned functions: their
    integrated carre du champ against their final Gram, one per function.
    Both forms are sums over the same points, the energy a positively
    weighted one, so a significantly negative pencil eigenvalue raises on
    every rule.
    """
    basis = MonomialBasis(model.dim, max_degree)
    if moments is None or moments.basis.max_degree < 2 * max_degree + 1:
        moments = Moments(model, 2 * max_degree + 1, sampler)
    graded = GradedOperatorMatrix(model.operator, max_degree)
    m = graded.to_float()
    clusters, graded_values = _eigenvalue_clusters(graded_spectrum(graded))

    raw = _raw_eigenvectors(graded, m, clusters)
    members = [mem for cluster in raw for mem in cluster]
    spans = []
    for cluster in raw:
        start = spans[-1].stop if spans else 0
        spans.append(slice(start, start + len(cluster)))
    coeffs = np.column_stack([mem["float"] for mem in members])
    n_raw = coeffs.shape[1]
    raw_values = np.array([float(mem["value"]) for mem in members])
    fallback = [i for i, mem in enumerate(members) if not mem["exact"]]
    directions = m @ coeffs[:, fallback] - coeffs[:, fallback] * raw_values[fallback]
    gram, x_blocks = _pointwise_forms(
        np.column_stack([coeffs, directions]), n_raw, spans, basis, moments
    )

    per_degree: list[list[EigenFunction]] = [[] for _ in range(max_degree + 1)]
    # column j of the block-diagonal transform, laid out like per_degree
    transform_columns: list[list[np.ndarray]] = [[] for _ in range(max_degree + 1)]
    for cluster, span, x_c in zip(raw, spans, x_blocks):
        transform, batches = _orthonormalize(
            [mem["degree"] for mem in cluster], gram[span, span], x_c
        )
        final_float = coeffs[:, span] @ transform
        # signs: largest-magnitude coefficient of each function positive
        for j in range(final_float.shape[1]):
            lead = int(np.argmax(np.abs(final_float[:, j])))
            if final_float[lead, j] < 0:
                final_float[:, j] = -final_float[:, j]
                transform[:, j] = -transform[:, j]
        col = 0
        for degree, local in batches:
            first = cluster[local[0]]
            for _ in local:
                per_degree[degree].append(
                    EigenFunction(
                        degree=degree,
                        eigenvalue=first["value"],
                        coefficients=final_float[:, col],
                        basis=basis,
                        exact=first["exact"],
                    )
                )
                column = np.zeros(n_raw)
                column[span] = transform[:, col]
                transform_columns[degree].append(column)
                col += 1

    funcs = [f for level in per_degree for f in level]
    t = np.column_stack([c for level in transform_columns for c in level])
    g_final = t.T @ gram[:n_raw, :n_raw] @ t
    # residuals: exact functions combine verified exact eigenvectors of one
    # eigenvalue, so theirs is zero.  A fallback f_j = sum_i t_ij c_i of
    # eigenvalue lam_j has (M - lam_j I) f_j = sum_i t_ij r_i
    # + sum_i t_ij (lam_i - lam_j) c_i, with r_i = (M - lam_i I) c_i the
    # residual directions of the pass, so its squared norm is u^t G u
    fallback_funcs = [j for j, f in enumerate(funcs) if not f.exact]
    lam = np.array([float(funcs[j].eigenvalue) for j in fallback_funcs])
    u = np.vstack(
        [t[:, fallback_funcs] * (raw_values[:, None] - lam), t[fallback][:, fallback_funcs]]
    )
    residual_sq = np.sum(u * (gram @ u), axis=0)
    for j, num in zip(fallback_funcs, residual_sq):
        funcs[j].residual = float(np.sqrt(max(num, 0.0) / max(g_final[j, j], 1e-300)))

    energy = gamma_form_matrix(basis, np.column_stack([f.coefficients for f in funcs]), moments)
    # g_final is symmetric only to the roundoff of the raw Gram's huge entries
    pencil_values = generalized_sym_eig(energy, (g_final + g_final.T) / 2.0).eigenvalues
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
        gram=g_final,
        pencil_eigenvalues=pencil_values,
        graded_values=sorted(graded_values),
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


@dataclass
class DegreeComparison:
    degree: int
    match: bool
    exact: bool
    max_discrepancy: float


def compare_closed_form(model: Model, max_degree: int) -> list[DegreeComparison]:
    """Computed block spectra against the model's tabulated closed form."""
    claimed = model.claimed_spectrum()
    spectrum = graded_eigenvalues(model.operator, max_degree)
    out = []
    for n in range(max_degree + 1):
        expected = claimed.eigenvalues_at_degree(n)
        computed = spectrum.multiset(n)
        exact = all(isinstance(v, Fraction) for v in computed)
        if exact:
            match = list(expected) == list(computed)
            disc = 0.0 if match else max(
                abs(float(e) - float(c)) for e, c in zip(expected, computed)
            )
        else:
            diffs = [abs(float(e) - float(c)) for e, c in zip(expected, computed)]
            disc = max(diffs) if diffs else 0.0
            match = disc <= 1e-8
        out.append(DegreeComparison(n, match, exact, disc))
    return out
