import numpy as np
import pytest

from sketchlsq.errors import DimensionMismatch, InvalidSpec, RankDeficient
from sketchlsq.linalg import (
    as_matrix,
    as_vector,
    condition_number,
    gram_singular_values,
    orthonormal_basis,
    project_out,
    qr_factor,
    solve_exact_ls,
    spectral_norm_sym,
)
from oracles import charpoly_singular_values, known_spectrum_matrix

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def test_qr_identity():
    f = qr_factor(np.eye(3))
    assert np.allclose(f.q, np.eye(3), atol=1e-14)
    assert np.allclose(f.r, np.eye(3), atol=1e-14)


def test_qr_hand_column():
    # Gram-Schmidt by hand: ||(3, 4)|| = 5, direction (0.6, 0.8).
    f = qr_factor([[3.0], [4.0]])
    assert f.r[0, 0] == pytest.approx(5.0, abs=1e-12)
    assert np.allclose(np.abs(f.q[:, 0]), [0.6, 0.8], atol=1e-12)


@pytest.mark.parametrize("n,d", [(8, 1), (50, 5), (64, 16), (256, 16), (9, 3)])
def test_qr_reconstruction_and_orthonormality(n, d):
    rng = np.random.default_rng(n * 1000 + d)
    a = rng.standard_normal((n, d))
    f = qr_factor(a)
    assert np.linalg.norm(a - f.q @ f.r) <= 1e-8 * np.linalg.norm(a)
    assert np.abs(f.q.T @ f.q - np.eye(d)).max() <= 1e-10
    assert np.array_equal(np.tril(f.r, -1), np.zeros((d, d)))
    assert (np.diag(f.r) >= 0).all()


def test_qr_rank_deficient():
    a = np.ones((6, 2))  # duplicate columns
    with pytest.raises(RankDeficient):
        qr_factor(a)


def test_qr_wide_rejected():
    with pytest.raises(DimensionMismatch):
        qr_factor(np.ones((2, 3)))


def test_solve_hand_normal_equation():
    # A = [[1],[1]], b = (1,3): A^T A x = A^T b gives 2x = 4.
    x = solve_exact_ls([[1.0], [1.0]], [1.0, 3.0])
    assert x[0] == pytest.approx(2.0, abs=1e-12)
    residual = np.linalg.norm(np.array([[1.0], [1.0]]) @ x - np.array([1.0, 3.0]))
    assert residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_solve_identity():
    b = np.arange(1.0, 6.0)
    assert np.allclose(solve_exact_ls(np.eye(5), b), b, atol=1e-14)


def test_solve_consistent_system():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((100, 8))
    x_true = rng.standard_normal(8)
    x = solve_exact_ls(a, a @ x_true)
    assert np.linalg.norm(x - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_solve_normal_equation_residual():
    rng = np.random.default_rng(11)
    for trial in range(20):
        a = rng.standard_normal((60, 6))
        b = rng.standard_normal(60)
        x = solve_exact_ls(a, b)
        lhs = np.linalg.norm(a.T @ (b - a @ x))
        assert lhs <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(b)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_exact_ls(np.eye(3), np.ones(4))


def test_orthonormal_basis_axis_aligned():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    u = orthonormal_basis(a)
    assert np.abs(u.T @ u - np.eye(2)).max() <= 1e-14
    assert np.abs(np.abs(u[:2, :2]) - np.eye(2)).max() <= 1e-14
    assert np.abs(u[2]).max() <= 1e-14


def test_orthonormal_basis_spans_range():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((64, 4))
    u = orthonormal_basis(a)
    assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-10
    assert np.linalg.norm(a - u @ (u.T @ a)) <= 1e-8 * np.linalg.norm(a)


def test_gram_singular_values_diagonal():
    m = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(gram_singular_values(m), [3.0, 1.0], atol=1e-12)


def test_gram_singular_values_isometry():
    u = orthonormal_basis(np.random.default_rng(3).standard_normal((40, 6)))
    assert np.abs(gram_singular_values(u) - 1.0).max() <= 1e-8


def test_gram_singular_values_golden_ratio():
    # Eigenvalues of [[1,1],[1,2]] are (3 +- sqrt(5)) / 2.
    sv = gram_singular_values([[1.0, 1.0], [0.0, 1.0]])
    assert sv[0] == pytest.approx(1.618034, abs=1e-6)
    assert sv[1] == pytest.approx(0.618034, abs=1e-6)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_gram_singular_values_charpoly_oracle(d):
    rng = np.random.default_rng(100 + d)
    m = rng.standard_normal((d + 4, d))
    expected = charpoly_singular_values(m)
    got = gram_singular_values(m)
    assert np.abs(got - expected).max() <= 1e-6


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e10])
def test_singular_values_match_a_known_spectrum(kappa):
    # An eigensolve of m.T @ m squares kappa: at 1e8 it misses sigma_min by
    # tens of percent, and at 1e10 it finds the matrix rank deficient.
    a, s = known_spectrum_matrix(2**12, 10, kappa, seed=7)
    assert np.abs(gram_singular_values(a) / s - 1.0).max() <= 1e-6
    assert condition_number(a) == pytest.approx(kappa, rel=1e-6)


def test_spectral_norm_diagonal():
    m = np.diag([5.0, -7.0, 2.0])
    assert spectral_norm_sym(m) == pytest.approx(7.0, rel=1e-6)


def test_spectral_norm_zero():
    assert spectral_norm_sym(np.zeros((4, 4))) == 0.0


def test_spectral_norm_all_ones():
    # Rank one: the only nonzero eigenvalue is the row sum.
    assert spectral_norm_sym(np.ones((3, 3))) == pytest.approx(3.0, rel=1e-6)


def test_spectral_norm_small_eigengap_oracle():
    # Known spectrum in a random orthonormal basis, with the top two
    # eigenvalues 1% apart: an iteration stopped on a small step change
    # reports well under 1 here.
    q = orthonormal_basis(np.random.default_rng(21).standard_normal((8, 8)))
    eigenvalues = np.array([1.0, -0.99, 0.9, 0.5, 0.3, -0.2, 0.1, 0.0])
    m = (q * eigenvalues) @ q.T
    m = (m + m.T) / 2.0
    assert abs(spectral_norm_sym(m) - 1.0) <= 1e-12


def test_spectral_norm_requires_symmetry():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(DimensionMismatch):
        spectral_norm_sym(m)


def test_project_out_in_span():
    u = orthonormal_basis(np.random.default_rng(5).standard_normal((30, 3)))
    b = u @ np.array([1.0, -2.0, 0.5])
    assert np.linalg.norm(project_out(u, b)) <= 1e-10 * np.linalg.norm(b)


def test_project_out_coordinate():
    u = np.array([[1.0], [0.0], [0.0]])
    assert np.allclose(project_out(u, [1.0, 2.0, 3.0]), [0.0, 2.0, 3.0], atol=1e-15)


def test_project_out_pythagoras():
    rng = np.random.default_rng(23)
    u = orthonormal_basis(rng.standard_normal((50, 5)))
    b = rng.standard_normal(50)
    perp = project_out(u, b)
    total = np.linalg.norm(u.T @ b) ** 2 + np.linalg.norm(perp) ** 2
    assert total == pytest.approx(np.linalg.norm(b) ** 2, rel=1e-10)


def test_project_out_idempotent():
    rng = np.random.default_rng(29)
    u = orthonormal_basis(rng.standard_normal((40, 4)))
    b = rng.standard_normal(40)
    once = project_out(u, b)
    twice = project_out(u, once)
    assert np.abs(twice - once).max() <= 1e-12


def test_condition_number_orthonormal():
    u = orthonormal_basis(np.random.default_rng(31).standard_normal((32, 4)))
    assert condition_number(u) == pytest.approx(1.0, abs=1e-8)


def test_condition_number_diagonal():
    a = np.vstack([np.diag([10.0, 1.0]), np.zeros((3, 2))])
    assert condition_number(a) == pytest.approx(10.0, rel=1e-10)


def test_condition_number_golden():
    assert condition_number([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(
        2.618034, abs=1e-6
    )


def test_condition_number_rank_deficient():
    with pytest.raises(RankDeficient):
        condition_number(np.ones((5, 2)))


def test_nan_rejected():
    bad = np.ones((3, 2))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        qr_factor(bad)


def test_non_finite_input_is_a_typed_error():
    with pytest.raises(InvalidSpec):
        as_matrix(np.array([[1.0, np.inf]]))
    with pytest.raises(InvalidSpec):
        as_vector(np.array([np.nan, 1.0]))
