"""Exact elimination and the floating symmetric eigensolvers."""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from polydiff import linalg
from polydiff.boundary import build_admissibility_system
from polydiff.catalog import get_descriptor, get_model, model_names
from polydiff.linalg import (
    GramMatrixError,
    RationalMatrix,
    cluster_eigenvalues,
    generalized_sym_eig,
    poly_matrix_det,
    symmetric_elimination,
)
from polydiff.poly import MonomialBasis
from polydiff.quadrature import Moments, gamma_form_matrix, gram_matrix


def _integer_matrix(rows):
    """A `RationalMatrix` of dense rational rows, each row scaled by the lcm
    of its denominators to sparse integers, which keeps its kernel."""
    sparse = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row))
        sparse.append({j: int(v * scale) for j, v in enumerate(row) if v})
    return RationalMatrix(sparse, len(rows[0]))


def _dense(matrix):
    """The sparse integer rows of a `RationalMatrix` as dense rows."""
    return [[row.get(j, 0) for j in range(matrix.cols)] for row in matrix.data]


def _solve(rows, column):
    """`RationalMatrix.solve` of A x = c for dense rational rows of A and
    the right-hand side c, after the columns of A."""
    return _integer_matrix([list(row) + [c] for row, c in zip(rows, column)]).solve()


def test_an_empty_system_is_refused():
    with pytest.raises(ValueError, match="at least one row"):
        RationalMatrix([], 3)


def test_nullspace_identity_is_trivial():
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    assert _integer_matrix(identity).nullspace() == ([], 1)


def test_nullspace_rank_one():
    basis, d = _integer_matrix([[1, 1], [2, 2]]).nullspace()
    assert len(basis) == 1 and d > 0
    v = basis[0]
    assert v[0] == -v[1] != 0
    assert all(type(x) is int for x in v)


def test_nullspace_denominator_is_positive_when_the_last_pivot_is_negative():
    # the pivot is -3; back substitution keeps the denominator positive, so
    # the RREF (1, 2/3) comes back as (3, 2) over 3 and the kernel (-2/3, 1)
    # as (-2, 3) over 3, not as (2, -3) over -3
    m = _integer_matrix([[-3, -2]])
    assert m.rref() == ([[3, 2]], [0], 3)
    assert m.nullspace() == ([[-2, 3]], 3)


def test_nullspace_exact_kernel_random():
    rng = random.Random(11)
    for _ in range(20):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 6)
        data = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        m = _integer_matrix(data)
        kernel, d = m.nullspace()
        assert len(kernel) == cols - len(m.rref()[1]) and d > 0
        for v in kernel:
            assert all(type(x) is int for x in v)
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in data)


def test_solve_consistent_and_inconsistent():
    m = [[1, 2], [2, 4]]
    assert _solve(m, [1, 3]) is None
    # overdetermined: three equations, two unknowns
    tall = [[1, 0], [0, Fraction(1, 2)], [1, 1]]
    first, d = _solve(tall, [2, Fraction(3, 2), 5])
    assert d > 0 and [Fraction(v, d) for v in first] == [2, 3]
    assert _solve(tall, [2, Fraction(3, 2), 4]) is None
    m2 = [[2, 0], [0, Fraction(1, 3)]]
    first, d = _solve(m2, [4, 1])
    assert d > 0 and [Fraction(v, d) for v in first] == [2, 3]


def test_solve_refuses_a_singular_matrix():
    m = [[1, 2], [2, 4]]
    # consistent, (1, 0) solves it, but not the only solution
    assert len(_integer_matrix(m).nullspace()[0]) == 1
    assert _solve(m, [1, 2]) is None


def test_generalized_eig_diag():
    assert np.allclose(generalized_sym_eig(np.diag([1.0, 2.0]), np.eye(2)), [1.0, 2.0])


def test_generalized_eig_equal_matrices():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(4, 4))
    spd = r @ r.T + 4 * np.eye(4)
    assert np.allclose(generalized_sym_eig(spd, spd), 1.0)


def test_generalized_eig_jacobi_energy_form():
    # 1D Jacobi with unit exponents: energy/Gram pencil on P_2 gives n(n+1)
    model = get_model("jacobi1d", {"a": "1", "b": "1"})
    sampler = model.sampler()
    moments = Moments(model, 4, sampler)
    b = gram_matrix(moments, 2)
    a, _ = gamma_form_matrix(MonomialBasis(1, 2), np.eye(3), moments)
    assert np.allclose(generalized_sym_eig(a, b), [0.0, 2.0, 6.0], atol=1e-10)


def test_generalized_eig_rejects_indefinite_b():
    with pytest.raises(GramMatrixError):
        generalized_sym_eig(np.eye(2), np.diag([1.0, -1.0]))


def test_eigenvalues_ascending_and_match_the_unsymmetric_problem():
    # A v = lambda B v is the eigenproblem of B^-1 A, which LAPACK's
    # nonsymmetric route solves with no Cholesky factor and no symmetry
    rng = np.random.default_rng(17)
    r = rng.normal(size=(6, 6))
    a = (r + r.T) / 2
    s = rng.normal(size=(6, 6))
    b = s @ s.T + 6 * np.eye(6)
    values = generalized_sym_eig(a, b)
    assert values.shape == (6,) and np.all(np.diff(values) > 0)
    reference = np.sort(np.linalg.eigvals(np.linalg.solve(b, a)).real)
    assert np.abs(values - reference).max() < 1e-10 * max(np.abs(a).max(), 1.0)


def test_congruence_invariance():
    rng = np.random.default_rng(23)
    r = rng.normal(size=(5, 5))
    a = (r + r.T) / 2
    s = rng.normal(size=(5, 5))
    b = s @ s.T + 5 * np.eye(5)
    t = rng.normal(size=(5, 5)) + 3 * np.eye(5)
    base = generalized_sym_eig(a, b)
    transformed = generalized_sym_eig(t.T @ a @ t, t.T @ b @ t)
    assert np.abs(base - transformed).max() < 1e-9 * (1 + np.abs(base).max())


def test_cluster_rule():
    values = [0.0, 1.0, 1.0 + 5e-8, 2.0]
    clusters = cluster_eigenvalues(values)
    assert [len(c) for c in clusters] == [1, 2, 1]


def test_symmetric_elimination_divides_each_row_by_its_content():
    # A = [[2, 4, 6], [4, 11, 9], [6, 9, 30]], each row carrying e_i: the
    # pivot 2 takes row 1 to 2 (4, 11, 9 | e_1) - 4 (2, 4, 6 | e_0), whose
    # entries share the factor 2, and row 2 likewise; what is left is the
    # Schur complement [[3, -3], [-3, 12]] with x_1 - 2 x_0 and x_2 - 3 x_0
    rows = [{0: 2, 1: 4, 2: 6, 3: 1}, {0: 4, 1: 11, 2: 9, 4: 1}, {0: 6, 1: 9, 2: 30, 5: 1}]
    first, rest = symmetric_elimination(rows, [range(0, 1), range(1, 3)])
    assert first == [rows[0]]
    assert rest == [{1: 3, 2: -3, 3: -2, 4: 1}, {1: -3, 2: 12, 3: -3, 5: 1}]
    # a positive semidefinite A can leave a row of zeros, which stays one
    blocks = list(symmetric_elimination([{0: 1, 1: 1}, {0: 1, 1: 1}], [range(1), range(1, 2)]))
    assert blocks == [[{0: 1, 1: 1}], [{}]]


def test_rref_raises_when_fraction_free_step_is_inexact():
    # the forward step that clears the second row's entry under the first
    # pivot divides by the gcd of the row's entries, which integer rows
    # have; a non-integral row breaks that premise and must raise even
    # under python -O
    with pytest.raises(TypeError, match="integer"):
        RationalMatrix([{0: 1}, {0: 1, 1: Fraction(1, 2)}], 2).rref()


def test_echelon_engine_raises_when_a_division_is_inexact():
    # every gcd the engine takes is of integers; a non-integral entry breaks
    # that premise and must raise even under python -O, in a forward step
    # and in the back substitution of a triangular system, which takes no
    # step
    with pytest.raises(TypeError, match="integer"):
        RationalMatrix([{0: 1}, {0: 1, 1: Fraction(1, 2)}], 2).nullspace()
    with pytest.raises(TypeError, match="integer"):
        RationalMatrix([{0: 1, 1: Fraction(1, 3)}, {1: 1, 2: 1}], 3).solve()


def test_back_substitution_keeps_the_least_positive_denominator():
    # x / d solves every row of a random upper triangular system whose
    # pivots have either sign, with d > 0 and gcd(d, x) = 1
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = []
        for k in range(n):
            row = {j: rng.randint(-9, 9) for j in range(k + 1, n + 1)}
            row[k] = rng.choice((-1, 1)) * rng.randint(1, 9)
            rows.append({j: v for j, v in row.items() if v})
        x, d = linalg._back_substitute(rows, list(range(n)), n)
        assert d > 0 and gcd(d, *x.values()) == 1, (rows, x, d)
        for row in rows:
            assert sum(Fraction(v * x[j], d) for j, v in row.items() if j < n) == row.get(n, 0)


def _dense_rref(rows):
    """Reference: the dense fraction-free Gauss-Jordan loop, which updates
    every cell of every nonzero row at every pivot."""
    m = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        m.append([v.numerator * (scale // v.denominator) for v in row])
    cols = len(m[0])
    pivots, prev, r = [], 1, 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        lead_row = m[r]
        lead = lead_row[c]
        for i, row in enumerate(m):
            if i == r or not any(row):
                continue
            head = row[c]
            for j in range(cols):
                q, rem = divmod(row[j] * lead - head * lead_row[j], prev)
                assert rem == 0
                row[j] = q
        prev = lead
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, prev


def _as_fractions(vectors, d):
    """Integer vectors over d as Fractions, after asserting that d > 0 is
    their least common denominator: no prime divides d and every entry."""
    assert d > 0 and gcd(d, *(v for vector in vectors for v in vector)) == 1, d
    return [[Fraction(v, d) for v in vector] for vector in vectors]


def _assert_rref_matches_dense_reference(result, rows):
    """The engine's (integer rows, pivots, d) is the dense reference's RREF
    as rationals, with the same pivots and d its least common denominator."""
    reduced, pivots, d = result
    expected, expected_pivots, expected_d = _dense_rref(rows)
    assert pivots == expected_pivots
    assert _as_fractions(reduced, d) == [[Fraction(v, expected_d) for v in row] for row in expected]


def _dense_kernel(rows):
    """Reference: the kernel read off `_dense_rref`, one vector per free
    column with the last pivot there and minus that column's reduced
    entries at the pivot columns, negated to a positive denominator."""
    reduced, pivots, d = _dense_rref(rows)
    sign = 1 if d > 0 else -1
    vectors = []
    for free in (c for c in range(len(rows[0])) if c not in pivots):
        vector = [0] * len(rows[0])
        vector[free] = sign * d
        for row, c in zip(reduced, pivots):
            vector[c] = -sign * row[free]
        vectors.append(vector)
    return vectors, sign * d


@pytest.mark.parametrize(
    "name", [name for name in model_names() if get_descriptor(name).factor_templates]
)
def test_rref_matches_dense_reference_on_admissibility_systems(name):
    from test_operator import _generic_params

    descriptor = get_descriptor(name)
    points = [None]
    if descriptor.param_specs:
        points.append(_generic_params(random.Random(name), descriptor))
    for params in points:
        matrix = build_admissibility_system(get_model(name, params).boundary)
        _assert_rref_matches_dense_reference(matrix.rref(), _dense(matrix))


def test_rref_of_an_upper_triangular_matrix_takes_no_elimination_step(monkeypatch):
    # each column's pivot is the first row with an entry there and no row
    # below has one, so the forward pass steps no row: the RREF comes from
    # back substitution alone
    rows = [[2, 1, 3, -1], [0, 5, 7, 0], [0, 0, 0, 4]]

    def forbidden(*args):
        raise AssertionError("elimination step on a triangular matrix")

    monkeypatch.setattr(linalg, "_content_free_step", forbidden)
    matrix = _integer_matrix(rows)
    _assert_rref_matches_dense_reference(matrix.rref(), rows)
    # the free column's values at the pivots are 4/5, 7/5 and 0, so the
    # kernel is over 5
    assert matrix.nullspace() == ([[-4, -7, 5, 0]], 5)


def test_every_stepped_row_of_the_admissibility_systems_is_content_free(monkeypatch):
    # each row the forward pass steps is divided by the gcd of its entries,
    # so no row it hands on carries a common factor
    stepped = []

    def checked(*args):
        row = step(*args)
        assert gcd(*row.values()) in (0, 1), row
        stepped.append(row)
        return row

    step = linalg._content_free_step
    monkeypatch.setattr(linalg, "_content_free_step", checked)
    for name in model_names():
        if get_descriptor(name).factor_templates:
            build_admissibility_system(get_model(name).boundary).rref()
    assert len(stepped) > 100


def _sparse_rational_matrix(rng, rows, cols, density, zero_lead=0):
    """Random rationals at the given density, 0 in the first zero_lead columns."""
    return [
        [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            if j >= zero_lead and rng.random() < density
            else Fraction(0)
            for j in range(cols)
        ]
        for _ in range(rows)
    ]


def test_rref_matches_dense_reference_on_sparse_random_matrices():
    rng = random.Random(31)
    seen = set()
    for density in (0.03, 0.06, 0.1, 0.2, 0.3):
        for _ in range(12):
            rows, cols = rng.randint(3, 24), rng.randint(3, 24)
            zero_lead = rng.randint(0, 2)
            data = _sparse_rational_matrix(rng, rows, cols, density, zero_lead)
            # rank deficiency: append sums of random pairs of rows
            for _ in range(rng.randint(0, 3)):
                a, b = rng.sample(data[:rows], 2)
                data.append([x + 2 * y for x, y in zip(a, b)])
            reduced, pivots, d = _integer_matrix(data).rref()
            _assert_rref_matches_dense_reference((reduced, pivots, d), data)
            if pivots and pivots[0] > 0:
                seen.add("zero leading column")
            if pivots and data[0][pivots[0]] == 0:
                seen.add("row swap")
            if len(pivots) < min(len(data), cols):
                seen.add("rank deficient")
    assert seen == {"zero leading column", "row swap", "rank deficient"}


def test_poly_matrix_det_matches_sympy_on_random_rational_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for n in range(1, 5):
        for _ in range(25):
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                for _ in range(n)
            ]
            expected = sympy.Matrix(
                [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
            ).det()
            assert poly_matrix_det(rows) == Fraction(int(expected.p), int(expected.q))


def _random_rational_systems(rng):
    """Seeded (kind, rows, rhs) cases: wide, tall, square, rank-deficient,
    with a zero row, with an inconsistent right-hand side, with
    denominators up to 10^15, sparse at densities 0.05 to 0.3, with int
    entries, and singular square with a consistent and an inconsistent
    right-hand side."""

    def rational(bound=9, den=9):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, den))

    def matrix(r, c, **kw):
        return [[rational(**kw) for _ in range(c)] for _ in range(r)]

    for _ in range(6):
        r, c = rng.randint(1, 4), rng.randint(5, 8)
        yield "wide", matrix(r, c), [rational() for _ in range(r)]
        yield "tall", matrix(c, r), [rational() for _ in range(c)]
        n = rng.randint(1, 7)
        yield "square", matrix(n, n), [rational() for _ in range(n)]
        # rank-deficient: every row a combination of `rank` random rows
        rows, cols, rank = rng.randint(3, 7), rng.randint(3, 7), rng.randint(1, 2)
        base = matrix(rank, cols)
        weights = matrix(rows, rank, bound=3, den=4)
        deficient = [
            [sum((w * b[j] for w, b in zip(ws, base)), Fraction(0)) for j in range(cols)]
            for ws in weights
        ]
        # consistent: rhs = A x for a random x
        x = [rational() for _ in range(cols)]
        consistent = [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in deficient]
        yield "rank-deficient", deficient, consistent
        # inconsistent: move one entry of a consistent rhs off the column space
        inconsistent = list(consistent)
        inconsistent[-1] += 1
        yield "inconsistent", deficient, inconsistent
        zero_row = matrix(n + 1, n + 2)
        zero_row[rng.randrange(n + 1)] = [Fraction(0)] * (n + 2)
        yield "zero-row", zero_row, [rational() for _ in range(n + 1)]
        yield "large", matrix(n, n + 1, bound=10**15, den=10**15), [
            rational(bound=10**15, den=10**15) for _ in range(n)
        ]
    for density in (0.05, 0.1, 0.2, 0.3):
        r, c = rng.randint(4, 12), rng.randint(4, 12)
        rows = _sparse_rational_matrix(rng, r, c, density, zero_lead=rng.randint(0, 2))
        yield "sparse", rows, [rational() for _ in range(r)]
        # rank-deficient: the last row is a combination of two others
        rows = rows + [[x - 3 * y for x, y in zip(rows[0], rows[-1])]]
        yield "sparse", rows, [rational() for _ in range(r + 1)]
    yield "all-zero", [[Fraction(0)] * 3 for _ in range(2)], [Fraction(0), Fraction(1)]
    # int entries, held as ints, as the integer moment matrices reach rref
    for _ in range(4):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        for shape in ((r, c), (r, r)):
            rows = [[rng.randint(-9, 9) for _ in range(shape[1])] for _ in range(shape[0])]
            yield "integer", rows, [rng.randint(-9, 9) for _ in range(shape[0])]
    # singular square: the last row a combination of two others, with a
    # right-hand side that fits it and one that does not
    for _ in range(3):
        n = rng.randint(2, 6)
        rows = matrix(n - 1, n)
        rows.append([x - 2 * y for x, y in zip(rows[0], rows[-1])])
        rhs = [rational() for _ in range(n - 1)]
        yield "singular", rows, rhs + [rhs[0] - 2 * rhs[-1]]
        yield "singular", rows, rhs + [rhs[0] - 2 * rhs[-1] + 1]


def test_elimination_matches_sympy_on_random_rational_matrices():
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
        )

    def from_sympy(values):
        return [Fraction(int(v.p), int(v.q)) for v in values]

    kinds, outcomes = set(), set()
    for kind, rows, rhs in _random_rational_systems(random.Random(1997)):
        kinds.add(kind)
        m, expected = _integer_matrix(rows), to_sympy(rows)
        assert all(type(v) is int and v for row in m.data for v in row.values()), kind
        reduced, pivots, d = m.rref()
        expected_rref, expected_pivots = expected.rref()
        assert pivots == list(expected_pivots), kind
        assert all(type(v) is int for row in reduced for v in row), kind
        assert _as_fractions(reduced, d) == [
            from_sympy(expected_rref.row(i)) for i in range(len(rows))
        ], kind
        assert len(pivots) == expected.rank(), kind
        kernel, d = m.nullspace()
        assert all(type(v) is int for vector in kernel for v in vector), kind
        assert _as_fractions(kernel, d) == [from_sympy(v) for v in expected.nullspace()], kind
        # the kernel is the one the dense Gauss-Jordan reference reads: the
        # same free columns in the same order, the same vectors, over their
        # least common denominator
        expected_kernel, expected_d = _dense_kernel(rows)
        assert _as_fractions(kernel, d) == [
            [Fraction(v, expected_d) for v in vector] for vector in expected_kernel
        ], kind
        unique = _solve(rows, rhs)
        try:
            exact, params = expected.gauss_jordan_solve(to_sympy([[v] for v in rhs]))
        except ValueError:  # sympy: the system has no solution
            assert unique is None, kind
            outcomes.add(("no solution", kind))
            continue
        if params:
            assert unique is None, kind
            outcomes.add(("not unique", kind))
        else:
            first, d = unique
            assert _as_fractions([first], d) == [from_sympy(exact)], kind
            outcomes.add(("unique", kind))
    assert {
        "wide", "tall", "square", "rank-deficient", "zero-row", "large", "sparse", "integer",
        "singular",
    } <= kinds
    assert {
        ("no solution", "inconsistent"), ("not unique", "rank-deficient"), ("unique", "square"),
        ("unique", "integer"), ("not unique", "singular"), ("no solution", "singular"),
    } <= outcomes
