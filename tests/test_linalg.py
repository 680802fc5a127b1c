"""Exact elimination and the floating symmetric eigensolvers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from polydiff.catalog import get_model
from polydiff.linalg import (
    GramMatrixError,
    RationalMatrix,
    cluster_eigenvalues,
    generalized_sym_eig,
    poly_matrix_det,
)
from polydiff.quadrature import gamma_form_matrix, gram_matrix


def test_nullspace_identity_is_trivial():
    assert RationalMatrix.identity(3).nullspace() == []


def test_nullspace_rank_one():
    basis = RationalMatrix([[1, 1], [2, 2]]).nullspace()
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0


def test_nullspace_exact_kernel_random():
    rng = random.Random(11)
    for _ in range(20):
        rows = rng.randint(2, 6)
        cols = rng.randint(2, 6)
        m = RationalMatrix(
            [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        kernel = m.nullspace()
        assert len(kernel) == cols - m.rank()
        for v in kernel:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.data)


def test_solve_consistent_and_inconsistent():
    m = RationalMatrix([[1, 2], [2, 4]])
    assert m.solve([1, 2]) is not None
    assert m.solve([1, 3]) is None
    m2 = RationalMatrix([[2, 0], [0, Fraction(1, 3)]])
    assert m2.solve([4, 1]) == [Fraction(2), Fraction(3)]


def test_generalized_eig_diag():
    result = generalized_sym_eig(np.diag([1.0, 2.0]), np.eye(2))
    assert np.allclose(result.eigenvalues, [1.0, 2.0])


def test_generalized_eig_equal_matrices():
    rng = np.random.default_rng(5)
    r = rng.normal(size=(4, 4))
    spd = r @ r.T + 4 * np.eye(4)
    result = generalized_sym_eig(spd, spd)
    assert np.allclose(result.eigenvalues, 1.0)


def test_generalized_eig_jacobi_energy_form():
    # 1D Jacobi with unit exponents: energy/Gram pencil on P_2 gives n(n+1)
    model = get_model("jacobi1d", {"a": "1", "b": "1"})
    sampler = model.sampler()
    b = gram_matrix(model, 2, sampler)
    a = gamma_form_matrix(model, 2, sampler)
    result = generalized_sym_eig(a, b)
    assert np.allclose(result.eigenvalues, [0.0, 2.0, 6.0], atol=1e-10)


def test_generalized_eig_rejects_indefinite_b():
    with pytest.raises(GramMatrixError):
        generalized_sym_eig(np.eye(2), np.diag([1.0, -1.0]))


def test_eigenvectors_b_orthonormal_and_residual():
    rng = np.random.default_rng(17)
    r = rng.normal(size=(6, 6))
    a = (r + r.T) / 2
    s = rng.normal(size=(6, 6))
    b = s @ s.T + 6 * np.eye(6)
    result = generalized_sym_eig(a, b)
    gram = result.eigenvectors.T @ b @ result.eigenvectors
    assert np.abs(gram - np.eye(6)).max() < 1e-10
    assert result.residual_norm < 1e-10


def test_congruence_invariance():
    rng = np.random.default_rng(23)
    r = rng.normal(size=(5, 5))
    a = (r + r.T) / 2
    s = rng.normal(size=(5, 5))
    b = s @ s.T + 5 * np.eye(5)
    t = rng.normal(size=(5, 5)) + 3 * np.eye(5)
    base = generalized_sym_eig(a, b).eigenvalues
    transformed = generalized_sym_eig(t.T @ a @ t, t.T @ b @ t).eigenvalues
    assert np.abs(base - transformed).max() < 1e-9 * (1 + np.abs(base).max())


def test_cluster_rule():
    values = [0.0, 1.0, 1.0 + 5e-8, 2.0]
    clusters = cluster_eigenvalues(values)
    assert [len(c) for c in clusters] == [1, 2, 1]


def test_rref_raises_when_fraction_free_step_is_inexact(monkeypatch):
    # Bareiss division is exact on integer rows; a non-integral row breaks
    # that premise and must raise even under python -O
    monkeypatch.setattr(RationalMatrix, "_integer_rows", lambda self: [[1, 0], [1, Fraction(1, 2)]])
    with pytest.raises(ArithmeticError, match="fraction-free step left a remainder"):
        RationalMatrix([[1, 0], [0, 1]]).rref()


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
