"""Exact integer linear algebra and the generalized symmetric eigensolver.

The ratio of work here is deliberate: the boundary admissibility kernel,
the exact moments and eigenvectors, and the elimination of the moment
matrix behind the orthogonal polynomials are exact.  Every unsymmetric
exact system is one `RationalMatrix` of sparse integer rows, eliminated
once by its `rref`, which two readers share: `nullspace` (the
admissibility kernel, the eigenvectors) and `solve` (the moments, a
cometric's weights in the admissible span).
Both eliminations are fraction-free passes in Python ints that hold rows
sparse, and both take one row step (`_content_free_step`): row <- lead
row - head pivot row, divided by the gcd of its entries.  The echelon
engine behind `RationalMatrix` eliminates only below each pivot and
back-substitutes over the least common denominator, so it hands out
integer numerators over that one denominator.  One symmetric pass down
the diagonal of a positive definite matrix gives its Schur complements
block by block (`symmetric_elimination`).  None of it uses numpy.  The
energy pencil of Gram and energy-form matrices is floating point via
numpy's LAPACK, imported where `generalized_sym_eig` runs.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

CLUSTER_TAU = 1e-7


def _content_free_step(
    row: dict[int, int], lead: int, head: int, pivot_entries: Iterable[tuple[int, int]]
) -> dict[int, int]:
    """One content-free elimination step on a sparse row: lead row - head
    pivot row over the union of their nonzero columns, divided by the gcd
    of its entries, where lead is the pivot and head the row's entry in the
    pivot column.  The pivot row comes as its (column, entry) pairs."""
    combined = {j: v * lead for j, v in row.items()}
    for j, v in pivot_entries:
        combined[j] = combined.get(j, 0) - head * v
    content = gcd(*combined.values()) or 1  # a row of zeros stays one
    return {j: v // content for j, v in combined.items() if v}


def symmetric_elimination(
    rows: list[dict[int, int]], blocks: Sequence[range]
) -> Iterator[list[dict[int, int]]]:
    """Content-free elimination of a positive definite symmetric integer
    matrix A down its diagonal, block by block, each row carrying extra
    columns along.

    Row i of `rows` is sparse, column -> integer: row i of A, then any
    columns past A's.  `blocks` are consecutive ranges of rows that cover
    A from row 0.  Before the columns of each block are eliminated, this
    yields the block's rows: each is a positive multiple of the row of the
    Schur complement of the rows before the block, its extra columns the
    same multiple of the combination of original rows that gave it, and a
    row that a step produced has no common factor in its entries.  The
    last block's columns are never eliminated.

    A step sets row <- lead row - head pivot row and divides the result by
    the gcd of its entries (`_content_free_step`), so entries stay the size
    of the row they stand for, not of a leading minor of A.  Every Schur
    complement of A is symmetric, and each row is a positive multiple of
    its own, so the rows with an entry in pivot column k are those the
    pivot row has an entry for.  Each pivot is a positive multiple of the
    Schur complement's diagonal entry, whose sign is that of the ratio of
    two leading minors of A.  Unless each is positive (A positive definite,
    by Sylvester's criterion) ValueError names the block of the first
    leading minor that is not.
    """
    rows = list(rows)
    size = len(rows)
    for n, block in enumerate(blocks):
        yield [rows[i] for i in block]
        if n == len(blocks) - 1:
            return
        for k in block:
            lead_row = rows[k]
            lead = lead_row.get(k, 0)
            if lead <= 0:
                minor = "vanishes" if lead == 0 else "is negative"
                raise ValueError(f"not positive definite: a leading minor in block {n} {minor}")
            # the pivot row's columns before k are eliminated, so its
            # entries in A past k name the rows below it with an entry in k
            for i in lead_row:
                if k < i < size:
                    row = rows[i]
                    rows[i] = _content_free_step(row, lead, row[k], lead_row.items())


def _echelon(rows: list[dict[int, int]], width: int) -> tuple[list[dict[int, int]], list[int]]:
    """Content-free forward elimination of sparse integer rows (column ->
    nonzero integer) over columns 0 .. width - 1, below each pivot only.

    Returns (rows, pivot columns).  The first len(pivots) rows are an
    echelon form: row k has its first nonzero entry in pivot column k and
    holds an integer multiple of a combination of the equations; the rows
    after them are empty.  Pivot columns are chosen left to right; within a
    column the first not-yet-used row with a nonzero entry wins.

    A step touches only the rows with an entry in the pivot column, each
    divided by the gcd of its entries (`_content_free_step`), so a row
    carries no scale shared with the others and a triangular matrix takes
    no elimination step.
    """
    m = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(width):
        below = [i for i in range(r, len(m)) if c in m[i]]
        if not below:
            continue
        # the first row below r with an entry in c swaps with row r, which
        # has none when it is not that row, so the rest of `below` stays put
        p = below[0]
        m[r], m[p] = m[p], m[r]
        lead_row = m[r]
        lead = lead_row[c]
        for i in below[1:]:
            row = m[i]
            m[i] = _content_free_step(row, lead, row[c], lead_row.items())
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _back_substitute(
    rows: list[dict[int, int]], pivots: list[int], target: int
) -> tuple[dict[int, int], int]:
    """The solution x / d over the pivot columns of sum_j rows[k][j] x_j / d
    = rows[k][target] for every echelon row k, target a column without a
    pivot, as (integers x, d > 0) with gcd(d, x) = 1: d is the least common
    denominator.  Each pivot row's value total / (d lead) is cut by g =
    gcd(total, lead), signed so that d stays positive, and the values found
    before it are brought over the new d."""
    x: dict[int, int] = {}
    d = 1
    for k in range(len(pivots) - 1, -1, -1):
        row, c = rows[k], pivots[k]
        lead = row[c]
        total = d * row.get(target, 0) - sum(v * x[j] for j, v in row.items() if j in x)
        g = gcd(total, lead)
        if lead < 0:
            g = -g
        scale = lead // g
        if scale != 1:
            x = {j: v * scale for j, v in x.items()}
            d *= scale
        x[c] = total // g
    return x, d


def _reduce(rows: list[dict[int, int]], width: int) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of sparse integer rows over `width` columns,
    as (integer rows, pivot columns, d): one forward elimination
    (`_echelon`), then one back substitution per free column.  The RREF is
    the rows over d > 0, the least common denominator of its entries; row k
    holds d at pivot column k, and rows past the rank are zero."""
    m, pivots = _echelon(rows, width)
    pivot_set = set(pivots)
    solved = {f: _back_substitute(m, pivots, f) for f in range(width) if f not in pivot_set}
    d = lcm(*(den for _, den in solved.values()))
    reduced = [[0] * width for _ in m]
    for row, c in zip(reduced, pivots):
        row[c] = d
    for f, (x, den) in solved.items():
        for row, c in zip(reduced, pivots):
            row[f] = x[c] * (d // den)
    return reduced, pivots, d


def _kernel(
    reduced: list[list[int]], pivots: list[int], d: int, width: int
) -> tuple[list[list[int]], int]:
    """Exact kernel basis from a reduced row echelon form (integer rows,
    pivot columns, d > 0) as (vectors, d): one vector per free column in
    increasing order, d at that column, 0 at every other free column and
    minus the free column's reduced entries at the pivot columns."""
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        vector = [0] * width
        vector[f] = d
        for row, c in zip(reduced, pivots):
            vector[c] = -row[f]
        basis.append(vector)
    return basis, d


class GramMatrixError(ValueError):
    """B is not positive definite: ill-formed Gram matrix (quadrature too
    coarse or measure not integrable)."""


class RationalMatrix:
    """Exact matrix as sparse integer rows, each column -> nonzero int, over
    `cols` columns; a rational system enters with each row scaled to
    integers, which leaves its solutions and kernel unchanged."""

    def __init__(self, rows: list[dict[int, int]], cols: int):
        if not rows:
            raise ValueError("matrix needs at least one row")
        self.data = rows
        self.rows = len(rows)
        self.cols = cols

    def rref(self) -> tuple[list[list[int]], list[int], int]:
        """Reduced row echelon form as (integer rows, pivot columns, d), the
        RREF being the rows over d > 0, the least common denominator of its
        entries (see `_reduce`)."""
        return _reduce(self.data, self.cols)

    def nullspace(self) -> tuple[list[list[int]], int]:
        """Exact kernel basis as (vectors, d): each basis vector is its
        integer entries over the one least denominator d > 0; count = cols -
        rank.  The vectors are `_kernel`'s of this matrix's `rref`."""
        return _kernel(*self.rref(), self.cols)

    def solve(self) -> tuple[list[int], int] | None:
        """Solve A x = c for the last column c, A the columns before it.
        Returns the solution as (integer numerators, their least common
        denominator d > 0), or None unless the solution exists and is
        unique: the pivots of this matrix's `rref` must be exactly A's
        columns.  The solution is then the reduced last column over the
        rref's d."""
        unknowns = self.cols - 1
        reduced, pivots, d = self.rref()
        if pivots != list(range(unknowns)):
            return None
        return [row[unknowns] for row in reduced[:unknowns]], d


def poly_matrix_det(entries: Sequence[Sequence]):
    """Determinant by cofactor expansion; entries support + and * (used for
    Polynomial matrices of size <= 4)."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("square matrix required")
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    total = None
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in entries[1:]]
        term = entries[0][j] * poly_matrix_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


# ----------------------------------------------------------------------
# floating-point symmetric eigenproblems


def generalized_sym_eig(a, b):
    """The eigenvalues lambda of A v = lambda B v for symmetric A and SPD B,
    given as float arrays, ascending.

    A or B not symmetric within 1e-12 relative raises ValueError, and a
    non-positive-definite B GramMatrixError.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, mat in (("A", a), ("B", b)):
        scale = max(np.abs(mat).max(), 1.0)
        if np.abs(mat - mat.T).max() > 1e-12 * scale:
            raise ValueError(f"{name} is not symmetric within 1e-12 relative")
    try:
        lower = np.linalg.cholesky(b)
    except np.linalg.LinAlgError as exc:
        raise GramMatrixError(
            "Gram matrix is not positive definite; quadrature too coarse "
            "or measure not integrable"
        ) from exc
    reduced = np.linalg.solve(lower, np.linalg.solve(lower, a).T)  # L^-1 A L^-t
    return np.linalg.eigvalsh((reduced + reduced.T) / 2.0)


def cluster_eigenvalues(values: Sequence[float]) -> list[list[int]]:
    """Group indices of ascending eigenvalues into multiplicity clusters.

    Two neighbours belong together when their gap is at most CLUSTER_TAU
    times 1 + |value|: the declared multiplicity-detection rule.
    """
    clusters: list[list[int]] = []
    for i, v in enumerate(values):
        if clusters and abs(v - values[clusters[-1][-1]]) <= CLUSTER_TAU * (1.0 + abs(v)):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters
