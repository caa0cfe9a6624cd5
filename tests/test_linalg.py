import importlib
import pkgutil
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import sketchlsq
import sketchlsq.linalg as linalg
from sketchlsq.errors import DimensionMismatch, InvalidSpec, RankDeficient
from sketchlsq.hadamard import next_pow2, partial_rht_rows, sample_signs
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
from sketchlsq.problems import KIND_ILL_CONDITIONED, ProblemSpec, gen_problem
from sketchlsq.sketches import SketchParams, draw_sampling_plan
from sketchlsq.solver import (
    LsProblem,
    exact_outcome,
    sketch_solve_projection,
    sketch_solve_sampling,
)
from oracles import (
    charpoly_singular_values,
    householder_exact_outcome,
    householder_solve_exact_ls,
    known_spectrum_matrix,
)

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


@pytest.mark.parametrize("a, b", [
    ([[1e-300]], [1e300]),  # a minimizer beyond float64
    ([[1.0], [1.0], [1.0]], [1.7e308, 1.7e308, 1.7e308]),  # Q^T b overflows
])
def test_solve_overflow_is_typed(a, b):
    # Full rank, finite input, no RuntimeWarning: the overflow is named.
    with pytest.raises(InvalidSpec, match="overflowed float64"):
        solve_exact_ls(np.array(a), np.array(b))
    with pytest.raises(InvalidSpec, match="overflowed float64"):
        exact_outcome(LsProblem(np.array(a), np.array(b)))


@pytest.mark.parametrize("n", [2**12, 2**12 + 1])
@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e10])
def test_stacked_r_matches_the_householder_oracle(n, kappa):
    # x moves within the forward-error scale kappa u of the Householder-Q
    # route, and the residual norm read off R matches nrm2 of A x - b to
    # 1e-12 or to u ||A|| ||x||, the rounding either route makes in rho: at
    # kappa = 1e10, with ||x|| ~ 1e10, both read up to 3e-10 off an
    # extended-precision rho (seeds 0, 1 and 3).
    a, s = known_spectrum_matrix(n, 10, kappa, seed=3)
    b = np.random.default_rng(n).standard_normal(n)
    x_ref, rho_ref = householder_exact_outcome(LsProblem(a, b))
    x, rho = exact_outcome(LsProblem(a, b))
    tol = 100 * kappa * 2.0**-53 * np.linalg.norm(x_ref)
    assert np.linalg.norm(x - x_ref) <= tol
    assert np.linalg.norm(solve_exact_ls(a, b) - householder_solve_exact_ls(a, b)) <= tol
    assert abs(rho - rho_ref) <= 1e-12 * rho_ref + 2.0**-53 * s[0] * np.linalg.norm(x_ref)


def test_stacked_r_square_system_has_zero_residual():
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal((10, 10)), rng.standard_normal(10)
    x, rho = exact_outcome(LsProblem(a, b))
    assert rho == 0.0
    assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(solve_exact_ls(a, b), x)


def test_stacked_r_rank_test_reads_the_r_diagonal():
    a = _duplicate_column()
    b = np.ones(a.shape[0])
    with pytest.raises(RankDeficient, match="R diagonal"):
        solve_exact_ls(a, b)
    with pytest.raises(RankDeficient, match="R diagonal"):
        exact_outcome(LsProblem(a, b))


def test_least_squares_forms_no_q(monkeypatch):
    def no_q(a):
        raise AssertionError("a least-squares solve formed Q")

    monkeypatch.setattr(linalg, "qr_factor", no_q)
    a, _ = known_spectrum_matrix(64, 4, 10.0, seed=1)
    b = np.random.default_rng(1).standard_normal(64)
    x, _ = exact_outcome(LsProblem(a, b))
    assert np.array_equal(solve_exact_ls(a, b), x)


def test_orthonormal_basis_axis_aligned():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    u = orthonormal_basis(a).q
    assert np.abs(u.T @ u - np.eye(2)).max() <= 1e-14
    assert np.abs(np.abs(u[:2, :2]) - np.eye(2)).max() <= 1e-14
    assert np.abs(u[2]).max() <= 1e-14


def test_orthonormal_basis_spans_range():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((64, 4))
    u = orthonormal_basis(a).q
    assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-10
    assert np.linalg.norm(a - u @ (u.T @ a)) <= 1e-8 * np.linalg.norm(a)


@pytest.mark.parametrize("n", [2**12, 2**12 + 1, 2**14])
@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e10, 1e12])
def test_orthonormal_basis_is_orthonormal_to_roundoff(n, kappa):
    # Householder's Q keeps U^T U = I to roundoff at any kappa, and U^T A
    # keeps A's spectrum: kappa read 3.5e-8 off at 1e10 (n as here, seeds
    # 0-2).
    a, _ = known_spectrum_matrix(n, 10, kappa, seed=0)
    u = orthonormal_basis(a).q
    assert np.linalg.norm(u.T @ u - np.eye(10), 2) <= 1e-15
    sv = gram_singular_values(u.T @ a)
    assert sv[0] / sv[-1] == pytest.approx(kappa, rel=1e-6 if kappa <= 1e10 else 1e-4)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_orthonormal_basis_at_extreme_scales(scale):
    # Householder's norms are scaled, so nothing leaves float64's range.
    a = np.random.default_rng(41).standard_normal((4096, 50))
    u = orthonormal_basis(a * scale).q
    assert np.linalg.norm(u.T @ u - np.eye(50), 2) <= 1e-15
    assert np.linalg.norm(a - u @ (u.T @ a)) <= 1e-13 * np.linalg.norm(a)


def _duplicate_column():
    a = np.random.default_rng(43).standard_normal((100, 5))
    a[:, 3] = a[:, 1]
    return a


@pytest.mark.parametrize("a", [_duplicate_column(), np.zeros((10, 3))],
                         ids=["duplicate column", "zero matrix"])
def test_orthonormal_basis_rank_deficient(a):
    with pytest.raises(RankDeficient):
        orthonormal_basis(a)


def _sketch_r(a, seed):
    """R factor of a sampled randomized Hadamard sketch of a, 256 rows."""
    padded = np.zeros((next_pow2(a.shape[0]), a.shape[1]))
    padded[: a.shape[0]] = a
    n = padded.shape[0]
    plan = draw_sampling_plan(n, 256, seed)
    xa = partial_rht_rows(padded, sample_signs(n, seed), plan.indices) * plan.scale
    return np.linalg.qr(xa, mode="r")


@pytest.mark.parametrize("n", [2**12, 2**12 + 1])
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8, 1e12])
def test_orthonormal_basis_from_a_sketchs_r(monkeypatch, n, kappa):
    # A R_s^-1 is nearly orthonormal, so one CholeskyQR pass finishes the
    # basis, and A = U (C R_s) with a nonnegative diagonal. Measured on
    # seeds 0-2: U^T U - I at most 9.2e-16 and A - U R at most 1.5e-15
    # (2-norm, relative).
    a, _ = known_spectrum_matrix(n, 10, kappa, seed=0)

    def no_fallback(_):
        raise AssertionError("fell back to Householder QR")

    monkeypatch.setattr(linalg, "qr_factor", no_fallback)
    f = orthonormal_basis(a, _sketch_r(a, seed=1))
    assert np.linalg.norm(f.q.T @ f.q - np.eye(10), 2) <= 4e-15
    assert np.linalg.norm(a - f.q @ f.r, 2) <= 4e-15 * np.linalg.norm(a, 2)
    assert (np.diag(f.r) > 0.0).all() and not np.tril(f.r, -1).any()


@pytest.mark.parametrize("sign_rows", [[0, 3], [9]])
def test_orthonormal_basis_signs_the_sketchs_r(sign_rows):
    # Any row signs of R_s give the same factors: the diagonal is made
    # nonnegative first.
    a, _ = known_spectrum_matrix(2**12, 10, 1e4, seed=2)
    r_s = _sketch_r(a, seed=3)
    flipped = r_s.copy()
    flipped[sign_rows] *= -1.0
    plain, signed = orthonormal_basis(a, r_s), orthonormal_basis(a, flipped)
    assert np.array_equal(plain.q, signed.q) and np.array_equal(plain.r, signed.r)


def test_orthonormal_basis_falls_back_when_the_sketch_does_not_embed():
    # An R_s of an unrelated kappa = 1e12 matrix leaves A R_s^-1 too ill
    # conditioned for one pass: the result is Householder QR's, byte for
    # byte.
    a, _ = known_spectrum_matrix(2**12, 10, 1e4, seed=4)
    unrelated, _ = known_spectrum_matrix(2**12, 10, 1e12, seed=5)
    f = orthonormal_basis(a, np.linalg.qr(unrelated, mode="r"))
    assert np.linalg.norm(f.q.T @ f.q - np.eye(10), 2) <= 1e-15
    assert np.linalg.norm(a - f.q @ f.r, 2) <= 1e-15 * np.linalg.norm(a, 2)
    plain = orthonormal_basis(a)
    assert np.array_equal(f.q, plain.q) and np.array_equal(f.r, plain.r)


def _basis_input(n, d, kappa, seed, deficiency, power):
    """A known-spectrum n x d matrix scaled by 2^power, with column 0
    copied into column d - 1 or zeroed when `deficiency` says so."""
    a, _ = known_spectrum_matrix(n, d, kappa, seed)
    if deficiency == "duplicate column":
        a[:, -1] = a[:, 0]
    elif deficiency == "zero column":
        a[:, 0] = 0.0
    return np.ldexp(a, power)


def _basis_sketch_r(a, kind, seed):
    """An R_s for `a` of the given kind, or None."""
    rng = np.random.default_rng(seed)
    n, d = a.shape
    if kind == "none":
        return None
    if kind == "unrelated":
        return np.linalg.qr(rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, d), mode="r")
    r_s = np.linalg.qr(rng.standard_normal((10 * d + 10, n)) @ a, mode="r")
    if kind == "negated rows":
        r_s[rng.random(d) < 0.5] *= -1.0
    elif kind == "near-singular":
        r_s[-1, -1] *= 1e-14
    elif kind == "singular":
        r_s[-1] = 0.0
    return r_s


_SKETCH_R_KINDS = ["none", "sketch", "negated rows", "unrelated", "near-singular", "singular"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 8),
    extra=st.integers(0, 200),
    kappa=st.sampled_from([1.0, 1e3, 1e6]),
    deficiency=st.sampled_from([None, None, "duplicate column", "zero column"]),
    power=st.sampled_from([-997, 0, 997]),
    kind=st.sampled_from(_SKETCH_R_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=8, extra=500, kappa=1e3, deficiency=None, power=997, kind="none", seed=9)
@example(d=8, extra=500, kappa=1e3, deficiency=None, power=-997, kind="none", seed=9)
@example(d=8, extra=500, kappa=1e3, deficiency=None, power=997, kind="unrelated", seed=9)
@example(d=8, extra=500, kappa=1e3, deficiency=None, power=-997, kind="unrelated", seed=9)
@example(d=8, extra=500, kappa=1e3, deficiency=None, power=997, kind="singular", seed=9)
@example(d=8, extra=500, kappa=1e3, deficiency=None, power=-997, kind="singular", seed=9)
def test_orthonormal_basis_is_qr_or_one_rank_error(d, extra, kappa, deficiency, power, kind,
                                                   seed):
    # Whatever R_s is, the factors are thin QR factors to roundoff, or
    # RankDeficient exactly when qr_factor raises it; without R_s, or when
    # the pass after it fails, they are qr_factor's bytes, at any entry
    # scale (the examples pin each such route at 2^+-997, about 1e+-300).
    a = _basis_input(d + extra, d, kappa, seed, deficiency if d > 1 else None, power)
    r_s = _basis_sketch_r(a, kind, seed)
    try:
        expected = qr_factor(a)
    except RankDeficient:
        with pytest.raises(RankDeficient):
            orthonormal_basis(a, r_s)
        return
    f = orthonormal_basis(a, r_s)
    assert np.linalg.norm(f.q.T @ f.q - np.eye(d), 2) <= 4e-15
    a_1, r_1 = np.ldexp(a, -power), np.ldexp(f.r, -power)
    assert np.linalg.norm(a_1 - f.q @ r_1, 2) <= 4e-15 * np.linalg.norm(a_1, 2)
    assert (np.diag(f.r) >= 0.0).all() and not np.tril(f.r, -1).any()
    # The pass sees R_s with its rows signed, as orthonormal_basis signs them.
    signs = None if r_s is None else np.where(np.diag(r_s) < 0.0, -1.0, 1.0)[:, None]
    if r_s is None or linalg._preconditioned_pass(a, np.triu(signs * r_s)) is None:
        assert f.q.tobytes() == expected.q.tobytes() and f.r.tobytes() == expected.r.tobytes()


@pytest.mark.parametrize("shape", [(11, 11), (10, 9), (9, 10)])
def test_orthonormal_basis_rejects_a_misshapen_sketch_r(shape):
    a = np.random.default_rng(6).standard_normal((64, 10))
    with pytest.raises(DimensionMismatch, match="R_s"):
        orthonormal_basis(a, np.eye(*shape))


def test_gram_singular_values_diagonal():
    m = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(gram_singular_values(m), [3.0, 1.0], atol=1e-12)


def test_gram_singular_values_isometry():
    u = orthonormal_basis(np.random.default_rng(3).standard_normal((40, 6))).q
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


def _svd_cases():
    rng = np.random.default_rng(31)
    ill = gen_problem(ProblemSpec(KIND_ILL_CONDITIONED, 4096, 10, 1e10, 0.9, 5)).a
    both = rng.standard_normal((573, 11))
    return {
        "tall": rng.standard_normal((3461, 50)),
        "square": rng.standard_normal((50, 50)),
        "d=1": rng.standard_normal((100, 1)),
        "kappa=1e10": ill,
        # The solver passes a column slice of the sketched [U | b_perp].
        "strided view": both[:, :-1],
    }


@pytest.mark.parametrize("name", list(_svd_cases()))
def test_gram_singular_values_are_scipys_svdvals_bytes(name):
    # Moving the SVD from scipy's LAPACK to numpy's kept every byte: the
    # same gesdd driver on the same input.
    m = _svd_cases()[name]
    assert gram_singular_values(m).tobytes() == scipy.linalg.svdvals(m).tobytes()


def test_only_linalg_holds_scipy_linalg():
    # scipy's LAPACK brings a second BLAS thread pool that contends with
    # numpy's; linalg keeps just the two serial kernels numpy lacks.
    held = {}
    for info in pkgutil.iter_modules(sketchlsq.__path__):
        module = importlib.import_module(f"sketchlsq.{info.name}")
        for name, obj in vars(module).items():
            origin = obj.__name__ if isinstance(obj, types.ModuleType) else getattr(obj, "__module__", None)
            if isinstance(origin, str) and origin.startswith("scipy.linalg"):
                held.setdefault(info.name, set()).add(name)
    assert held == {"linalg": {"solve_triangular", "norm"}}


def test_scipy_kernels_take_only_vectors(monkeypatch):
    # A matrix right-hand side wakes scipy's OpenBLAS pool, which then
    # contends with numpy's for the cores; every call stays 1-D.
    rhs_ndims, norm_ndims = [], []
    solve_triangular, norm = linalg.solve_triangular, linalg.norm

    def recording_solve(r, rhs, **kwargs):
        rhs_ndims.append(np.ndim(rhs))
        return solve_triangular(r, rhs, **kwargs)

    def recording_norm(v):
        norm_ndims.append(np.ndim(v))
        return norm(v)

    monkeypatch.setattr(linalg, "solve_triangular", recording_solve)
    monkeypatch.setattr(linalg, "norm", recording_norm)
    problem = gen_problem(ProblemSpec(KIND_ILL_CONDITIONED, 1025, 8, 1e4, 0.9, seed=3))
    params = SketchParams(epsilon=0.5, r=256, k=128, q=0.3)
    sketch_solve_sampling(problem, params, 1, diagnostics=True)
    sketch_solve_projection(problem, params, 1, diagnostics=True)
    exact_outcome(problem)
    orthonormal_basis(known_spectrum_matrix(2**12, 10, 1e10, seed=7)[0])
    assert rhs_ndims == [1, 1, 1]
    assert len(norm_ndims) >= 3 and set(norm_ndims) == {1}


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
    q = orthonormal_basis(np.random.default_rng(21).standard_normal((8, 8))).q
    eigenvalues = np.array([1.0, -0.99, 0.9, 0.5, 0.3, -0.2, 0.1, 0.0])
    m = (q * eigenvalues) @ q.T
    m = (m + m.T) / 2.0
    assert abs(spectral_norm_sym(m) - 1.0) <= 1e-12


def test_spectral_norm_requires_symmetry():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(DimensionMismatch):
        spectral_norm_sym(m)


def test_project_out_in_span():
    u = orthonormal_basis(np.random.default_rng(5).standard_normal((30, 3))).q
    b = u @ np.array([1.0, -2.0, 0.5])
    assert np.linalg.norm(project_out(u, b)) <= 1e-10 * np.linalg.norm(b)


def test_project_out_coordinate():
    u = np.array([[1.0], [0.0], [0.0]])
    assert np.allclose(project_out(u, [1.0, 2.0, 3.0]), [0.0, 2.0, 3.0], atol=1e-15)


def test_project_out_pythagoras():
    rng = np.random.default_rng(23)
    u = orthonormal_basis(rng.standard_normal((50, 5))).q
    b = rng.standard_normal(50)
    perp = project_out(u, b)
    total = np.linalg.norm(u.T @ b) ** 2 + np.linalg.norm(perp) ** 2
    assert total == pytest.approx(np.linalg.norm(b) ** 2, rel=1e-10)


def test_project_out_idempotent():
    rng = np.random.default_rng(29)
    u = orthonormal_basis(rng.standard_normal((40, 4))).q
    b = rng.standard_normal(40)
    once = project_out(u, b)
    twice = project_out(u, once)
    assert np.abs(twice - once).max() <= 1e-12


def test_condition_number_orthonormal():
    u = orthonormal_basis(np.random.default_rng(31).standard_normal((32, 4))).q
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
