"""Exact rational dense linear algebra and the generalized symmetric eigensolver.

The ratio of work here is deliberate: nullspaces and solves that feed the
boundary admissibility system, the exact moments and eigenvectors, and the
elimination of the moment matrix behind the orthogonal polynomials are
exact.  Both eliminations are fraction-free passes in Python ints that
hold rows sparse.  The echelon engine (Bareiss) keeps every entry an
integer minor, defers the rescaling of rows that a pivot step leaves
unchanged, eliminates only below each pivot and back-substitutes over one
common denominator: for the exact moments and `RationalMatrix.solve_unique`
(`echelon_solve`), the exact eigenvectors (`echelon_kernel`) and the
reduced row echelon form behind the admissibility nullspace
(`RationalMatrix.rref`, its forward pass plus one back substitution per
free column); it hands out integer numerators over one common
denominator.  One symmetric content-free pass down the diagonal of a
positive definite matrix gives its Schur complements block by block, each
row it steps divided by the gcd of its entries.  Spectral work on Gram and
energy-form matrices is floating point via numpy's LAPACK, the energy
pencil reduced through the Cholesky factor of its Gram matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

Rational = int | Fraction

CLUSTER_TAU = 1e-7


def _exact_quotient(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if rem:
        raise ArithmeticError("fraction-free step left a remainder")
    return q


def _bareiss_step(
    row: dict[int, int], lead: int, head: int, pivot_entries: Iterable[tuple[int, int]], prev: int
) -> dict[int, int]:
    """One fraction-free elimination step on a sparse row: (lead row - head
    pivot row) / prev over the union of their nonzero columns, where lead is
    the pivot, head the row's entry in the pivot column and prev the
    previous pivot.  The pivot row comes as its (column, entry) pairs; every
    division is exact and checked."""
    combined = {j: v * lead for j, v in row.items()}
    for j, v in pivot_entries:
        combined[j] = combined.get(j, 0) - head * v
    new = {}
    for j, v in combined.items():  # _exact_quotient, inlined in the hot loop
        if v:
            q, rem = divmod(v, prev)
            if rem:
                raise ArithmeticError("fraction-free step left a remainder")
            new[j] = q
    return new


def _caught_up(m: list[dict[int, int]], at: list[int], i: int, prev: int) -> dict[int, int]:
    """Row i of the lazily scaled sparse rows m, brought from the pivot
    at[i] its entries are current at to the pivot prev in one exact
    division (the composed factor prev / at[i] of the steps it skipped)."""
    row = m[i]
    if at[i] != prev:
        row = m[i] = {j: _exact_quotient(v * prev, at[i]) for j, v in row.items()}
        at[i] = prev
    return row


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


def _echelon(
    rows: list[dict[int, int]], width: int
) -> tuple[list[dict[int, int]], list[int], int]:
    """Fraction-free forward elimination (Bareiss, Math. Comp. 22, 1968) of
    sparse integer rows (column -> nonzero integer) over columns
    0 .. width - 1, below each pivot only.

    Returns (rows, pivot columns, last pivot d).  The first len(pivots) rows
    are an echelon form: row k has its first nonzero entry in pivot column k
    and holds an integer multiple of the equation it stands for; the rows
    after them are what the columns up to `width` leave, empty unless
    `width` stops short of the rows' last column.  Pivot columns are chosen
    left to right; within a column the first not-yet-used row with a
    nonzero entry wins.  d, the last pivot, is an integer minor (1 when
    there is no pivot).

    A step touches only the rows with an entry in the pivot column.  The
    others would only be multiplied by lead / prev, so each row records
    the pivot its entries are current at and takes the composed factor in
    one exact division when it is next stepped (`_caught_up`).  A pivot
    row is brought up to date only when a row below has an entry in its
    pivot column, so a triangular matrix costs no elimination step and no
    rescaling.  Every division is exact and checked.
    """
    m = list(rows)
    at = [1] * len(m)  # the pivot each row's entries are current at
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(width):
        below = [i for i in range(r, len(m)) if c in m[i]]
        if not below:
            continue
        # the first row below r with an entry in c swaps with row r, which
        # has none when it is not that row, so the rest of `below` stays put
        p = below[0]
        m[r], m[p] = m[p], m[r]
        at[r], at[p] = at[p], at[r]
        if len(below) == 1:
            lead = _exact_quotient(m[r][c] * prev, at[r])
        else:
            lead_row = _caught_up(m, at, r, prev)
            lead = lead_row[c]
            for i in below[1:]:
                row = _caught_up(m, at, i, prev)
                m[i] = _bareiss_step(row, lead, row[c], lead_row.items(), prev)
                at[i] = lead
        prev = lead
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, prev


def _back_substitute(
    rows: list[dict[int, int]], pivots: list[int], d: int, target: int
) -> dict[int, int]:
    """The integers x over the pivot columns with sum_j rows[k][j] x_j =
    d rows[k][target] for every echelon row k, target a column without a
    pivot.  With d the last pivot, a minor of the pivot rows and columns,
    these are Cramer numerators, so every division is exact; it is checked."""
    x: dict[int, int] = {}
    for k in range(len(pivots) - 1, -1, -1):
        row, c = rows[k], pivots[k]
        total = d * row.get(target, 0) - sum(v * x[j] for j, v in row.items() if j in x)
        x[c] = _exact_quotient(total, row[c])
    return x


def echelon_solve(
    rows: list[dict[int, int]], unknowns: int, count: int
) -> tuple[list[list[int]], int] | None:
    """Solve A x = c for `count` right-hand sides at once: each sparse
    integer row holds a row of A in columns 0 .. unknowns - 1 and its
    entries of the right-hand sides after them.  Returns the solutions as
    (integer numerators per right-hand side, common denominator d > 0), or
    None unless every solution exists and is unique: A must have a pivot in
    every column, and the rows that A leaves must be zero in the right-hand
    sides.  Forward elimination runs over A's columns only."""
    m, pivots, d = _echelon(rows, unknowns)
    if len(pivots) != unknowns or any(m[unknowns:]):
        return None
    sign = 1 if d > 0 else -1
    solutions = []
    for t in range(unknowns, unknowns + count):
        x = _back_substitute(m, pivots, d, t)
        solutions.append([sign * x[c] for c in range(unknowns)])
    return solutions, sign * d


def _reduce(rows: list[dict[int, int]], width: int) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of sparse integer rows over `width` columns,
    as (integer rows, pivot columns, d): one forward elimination
    (`_echelon`), then one back substitution per free column.  The RREF is
    the rows over d, the last pivot; row k holds d at pivot column k and
    the Cramer numerators of the free columns, and rows past the rank are
    zero."""
    m, pivots, d = _echelon(rows, width)
    reduced = [[0] * width for _ in m]
    for row, c in zip(reduced, pivots):
        row[c] = d
    pivot_set = set(pivots)
    for f in range(width):
        if f in pivot_set:
            continue
        x = _back_substitute(m, pivots, d, f)
        for row, c in zip(reduced, pivots):
            row[f] = x[c]
    return reduced, pivots, d


def _kernel(
    reduced: list[list[int]], pivots: list[int], d: int, width: int
) -> tuple[list[list[int]], int]:
    """Exact kernel basis from a reduced row echelon form (integer rows,
    pivot columns, last pivot d) as (vectors, |d|): one vector per free
    column in increasing order, |d| at that column, 0 at every other free
    column and minus the free column's reduced entries at the pivot
    columns, all negated when d < 0."""
    sign = 1 if d > 0 else -1
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        vector = [0] * width
        vector[f] = sign * d
        for row, c in zip(reduced, pivots):
            vector[c] = -sign * row[f]
        basis.append(vector)
    return basis, sign * d


def echelon_kernel(rows: list[dict[int, int]], width: int) -> tuple[list[list[int]], int]:
    """Exact kernel basis of the matrix of sparse integer rows over `width`
    columns, as `RationalMatrix.nullspace` returns it: (vectors, d), each
    vector its integer entries over the one denominator d > 0 (see
    `_kernel`)."""
    return _kernel(*_reduce(rows, width), width)


class GramMatrixError(ValueError):
    """B is not positive definite: ill-formed Gram matrix (quadrature too
    coarse or measure not integrable)."""


class RationalMatrix:
    """Dense matrix of exact rationals, row-major: ints and Fractions are
    held as given, anything else is converted to a Fraction."""

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        data = [[v if type(v) in (int, Fraction) else Fraction(v) for v in row] for row in rows]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        self.data = data
        self.rows = len(data)
        self.cols = width

    def _integer_rows(self) -> list[dict[int, int]]:
        """Each row's nonzero entries, column -> integer, scaled by the lcm of
        their denominators."""
        out = []
        for row in self.data:
            nonzero = [(j, v) for j, v in enumerate(row) if v]
            scale = lcm(*(v.denominator for _, v in nonzero))
            out.append({j: v.numerator * (scale // v.denominator) for j, v in nonzero})
        return out

    def rref(self) -> tuple[list[list[int]], list[int], int]:
        """Reduced row echelon form as (integer rows, pivot columns, d), the
        RREF being the rows over the nonzero integer d: the echelon engine's
        forward pass and back substitution on the integer-scaled rows (see
        `_reduce`)."""
        return _reduce(self._integer_rows(), self.cols)

    def nullspace(self) -> tuple[list[list[int]], int]:
        """Exact kernel basis as (vectors, d): each basis vector is its
        integer entries over the one denominator d > 0; count = cols - rank.
        The vectors are `_kernel`'s of this matrix's `rref`."""
        return _kernel(*self.rref(), self.cols)

    def solve_unique(
        self, columns: Sequence[Sequence[Rational]]
    ) -> tuple[list[list[int]], int] | None:
        """The solution x of A x = c for each right-hand side c in `columns`,
        from one elimination (`echelon_solve` on the integer-scaled rows of
        [A | columns]), as (integer numerators per column, common
        denominator d > 0); None unless every solution exists and is unique.
        For a square A that is None exactly when A is singular."""
        if any(len(column) != self.rows for column in columns):
            raise ValueError("rhs length mismatch")
        augmented = RationalMatrix(
            [row + [column[i] for column in columns] for i, row in enumerate(self.data)]
        )
        return echelon_solve(augmented._integer_rows(), self.cols, len(columns))


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


def _check_symmetric(mat: np.ndarray, name: str, tol: float = 1e-12) -> None:
    scale = max(np.abs(mat).max(), 1.0)
    if np.abs(mat - mat.T).max() > tol * scale:
        raise ValueError(f"{name} is not symmetric within {tol} relative")


def generalized_sym_eig(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The eigenvalues lambda of A v = lambda B v for symmetric A and SPD B,
    ascending.

    A non-positive-definite B raises GramMatrixError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_symmetric(a, "A")
    _check_symmetric(b, "B")
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
