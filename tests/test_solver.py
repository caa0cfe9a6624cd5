import dataclasses
import hashlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sketchlsq.solver as solver_mod
from sketchlsq import hadamard, workers
from sketchlsq.errors import (
    ConvergenceFailure,
    InvalidEpsilon,
    InvalidGamma,
    InvalidSpec,
    RankDeficient,
    SketchLsqError,
    ZeroRhs,
)
from sketchlsq.linalg import (
    RANK_TOL,
    condition_number,
    orthonormal_basis,
    project_out,
    solve_exact_ls,
    vector_norm,
)
from sketchlsq.problems import (
    KIND_COHERENT,
    KIND_GAUSSIAN,
    KIND_ILL_CONDITIONED,
    KINDS,
    ProblemSpec,
    gen_problem,
)
from sketchlsq.sketches import SamplingPlan, SketchParams, SparseProjection, identity_plan
from sketchlsq.solver import (
    Diagnostics,
    LsProblem,
    cgnr_solve,
    exact_outcome,
    gamma_fraction,
    predicted_error_bounds,
    sketch_solve_best_of,
    sketch_solve_projection,
    sketch_solve_sampling,
    verify_conditions,
)
from oracles import known_spectrum_matrix, sketched_xu_diagnostics, two_transform_diagnostics


@pytest.fixture(scope="module")
def gaussian_problem():
    spec = ProblemSpec(kind=KIND_GAUSSIAN, n=1024, d=8, kappa=10.0, gamma=0.9, seed=3)
    return gen_problem(spec)


def _params(eps=0.5, r=256, k=128, q=1.0):
    return SketchParams(epsilon=eps, r=r, k=k, q=q)


def test_problem_validation():
    with pytest.raises(Exception):
        LsProblem(a=np.ones((2, 3)), b=np.ones(2))


def test_problem_pad_noop():
    a = np.ones((8, 2))
    b = np.ones(8)
    problem = LsProblem(a, b)
    assert problem.stacked.shape == (8, 3) and problem.n == 8
    assert np.array_equal(problem.stacked[:, :-1], a)
    assert np.array_equal(problem.stacked[:, -1], b)


def test_problem_pads_with_zeros():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal(5)
    problem = LsProblem(a, b)
    assert problem.stacked.shape == (8, 3)
    assert np.array_equal(problem.stacked[5:], np.zeros((3, 3)))
    assert np.array_equal(problem.a, a) and np.array_equal(problem.b, b)


def test_problem_pad_preserves_ls_solution():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((11, 3))
    b = rng.standard_normal(11)
    stacked = LsProblem(a, b).stacked
    a_pad, b_pad = stacked[:, :-1], stacked[:, -1]
    x = solve_exact_ls(a, b)
    x_pad = solve_exact_ls(a_pad, b_pad)
    assert np.abs(x - x_pad).max() <= 1e-12
    r = np.linalg.norm(a @ x - b)
    r_pad = np.linalg.norm(a_pad @ x_pad - b_pad)
    assert abs(r - r_pad) <= 1e-12 * max(r, 1.0)


def test_problem_owns_its_one_copy():
    a = np.arange(10.0).reshape(5, 2)
    b = np.ones(5)
    problem = LsProblem(a, b)
    assert np.shares_memory(problem.a, problem.stacked)
    assert np.shares_memory(problem.b, problem.stacked)
    before = problem.stacked.copy()
    a[:] = -1.0
    b[:] = -1.0
    assert np.array_equal(problem.stacked, before)
    assert np.array_equal(problem.a, np.arange(10.0).reshape(5, 2))
    assert np.array_equal(problem.b, np.ones(5))


def test_sampled_solve_makes_no_copy_of_the_problem():
    # The transform's signed work buffer is one padded [A | b]; a second
    # per-solve copy (re-padding on every solve) would push the peak past 2x.
    problem = gen_problem(ProblemSpec(KIND_GAUSSIAN, 2**14, 30, 10.0, 0.9, seed=7))
    params = SketchParams.practical(problem.n, problem.d, 0.5)
    sketch_solve_sampling(problem, params, 1)
    tracemalloc.start()
    try:
        sketch_solve_sampling(problem, params, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * problem.stacked.nbytes


def test_exact_solve_holds_no_q():
    # The R of the problem's own [A | b] costs one working copy of it; an
    # n x d Q on top of that copy would push the peak to ~2x.
    problem = gen_problem(ProblemSpec(KIND_GAUSSIAN, 2**14, 30, 10.0, 0.9, seed=7))
    exact_outcome(problem)
    tracemalloc.start()
    try:
        exact_outcome(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * problem.stacked[:problem.n].nbytes


def test_full_sketch_collapse(gaussian_problem):
    # r equal to the padded size selects every row once: the transform is
    # orthogonal, so the solution matches the exact one.
    x_opt, _ = exact_outcome(gaussian_problem)
    params = _params(r=1024)
    out = sketch_solve_sampling(gaussian_problem, params, seed=0)
    assert np.linalg.norm(out.x_tilde - x_opt) <= 1e-10 * np.linalg.norm(x_opt)


def test_full_sketch_collapse_injected_plan(gaussian_problem):
    x_opt, _ = exact_outcome(gaussian_problem)
    params = _params(r=1024)
    out = sketch_solve_sampling(
        gaussian_problem, params, seed=0, plan=identity_plan(1024)
    )
    assert np.linalg.norm(out.x_tilde - x_opt) <= 1e-10 * np.linalg.norm(x_opt)


def test_sampling_consistent_system():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((500, 6))
    x_true = rng.standard_normal(6)
    problem = LsProblem(a=a, b=a @ x_true)
    out = sketch_solve_sampling(problem, _params(r=128), seed=4)
    assert out.residual_tilde <= 1e-8 * np.linalg.norm(problem.b)
    assert np.linalg.norm(out.x_tilde - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_projection_consistent_system():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((500, 6))
    x_true = rng.standard_normal(6)
    problem = LsProblem(a=a, b=a @ x_true)
    out = sketch_solve_projection(problem, _params(k=64, q=0.5), seed=4)
    assert out.residual_tilde <= 1e-8 * np.linalg.norm(problem.b)
    assert np.linalg.norm(out.x_tilde - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_residual_never_beats_optimum(gaussian_problem):
    _, z = exact_outcome(gaussian_problem)
    for seed in range(10):
        out_s = sketch_solve_sampling(gaussian_problem, _params(), seed)
        out_p = sketch_solve_projection(gaussian_problem, _params(), seed)
        assert out_s.residual_tilde >= z - 1e-10
        assert out_p.residual_tilde >= z - 1e-10


def test_projection_full_size_residual_floor(gaussian_problem):
    _, z = exact_outcome(gaussian_problem)
    out = sketch_solve_projection(gaussian_problem, _params(k=1024, q=1.0), seed=1)
    assert out.residual_tilde >= z - 1e-10


def test_verify_conditions_identity_sketch():
    rng = np.random.default_rng(2)
    u = orthonormal_basis(rng.standard_normal((64, 4))).q
    b = rng.standard_normal(64)
    bperp = project_out(u, b)
    z = float(np.linalg.norm(bperp))
    check = verify_conditions(u, bperp, z, eps=0.5)
    assert np.abs(check.sigma_xu - 1.0).max() <= 1e-10
    assert check.cross_term <= 1e-20
    assert check.embedding_ok and check.cross_term_ok


@pytest.mark.parametrize("eps", [-0.5, 0.0, 1.0, 2.0, float("nan")])
def test_verify_conditions_rejects_eps_outside_the_unit_interval(eps):
    # Below 0 sqrt(eps / 2) was a math domain error; NaN read as a failed
    # cross term.
    with pytest.raises(InvalidEpsilon):
        verify_conditions(np.eye(4)[:, :2], np.zeros(4), z=1.0, eps=eps)


@pytest.mark.parametrize("z", [math.nan, -1.0])
def test_verify_conditions_rejects_a_nan_or_negative_z(z):
    # NaN passed `z < 0` and read as a failed cross term, here one that is
    # exactly zero.
    with pytest.raises(InvalidSpec, match="z must be"):
        verify_conditions(np.eye(4)[:, :2], np.array([0.0, 0, 1.0, 0]), z=z, eps=0.5)


def test_verify_conditions_z_zero_boundary():
    u = np.eye(4)[:, :2]
    check = verify_conditions(u, np.zeros(4), z=0.0, eps=0.5)
    assert check.cross_term_ok  # cross term is exactly zero
    check2 = verify_conditions(u, np.array([1.0, 0, 0, 0]), z=0.0, eps=0.5)
    assert not check2.cross_term_ok


def test_gamma_fraction_cases():
    rng = np.random.default_rng(3)
    u = orthonormal_basis(rng.standard_normal((32, 3))).q
    inside = u @ np.array([1.0, 2.0, -1.0])
    assert gamma_fraction(u, inside) == pytest.approx(1.0, abs=1e-12)
    outside = project_out(u, rng.standard_normal(32))
    assert gamma_fraction(u, outside) == pytest.approx(0.0, abs=1e-12)


def test_gamma_fraction_three_four_five():
    rng = np.random.default_rng(4)
    u = orthonormal_basis(rng.standard_normal((32, 3))).q
    inside = u @ rng.standard_normal(3)
    inside *= 3.0 / np.linalg.norm(inside)
    w = project_out(u, rng.standard_normal(32))
    w *= 4.0 / np.linalg.norm(w)
    assert gamma_fraction(u, inside + w) == pytest.approx(0.6, abs=1e-12)


def test_gamma_fraction_zero_rhs():
    with pytest.raises(ZeroRhs):
        gamma_fraction(np.eye(3)[:, :1], np.zeros(3))


def test_predicted_bounds_values():
    # sqrt(0.25)*10*sqrt(1/0.64 - 1)*2 = 0.5*10*0.75*2 = 7.5
    bounds = predicted_error_bounds(
        kappa=10.0, gamma=0.8, eps=0.25, x_norm=2.0, z=1.0, sigma_min=1.0
    )
    assert bounds.forward_bound_gamma == pytest.approx(7.5, rel=1e-12)
    bounds = predicted_error_bounds(
        kappa=1.0, gamma=1.0, eps=0.5, x_norm=1.0, z=2.0, sigma_min=1.0
    )
    assert bounds.residual_bound == pytest.approx(3.0, rel=1e-15)
    assert bounds.forward_bound_gamma == pytest.approx(0.0, abs=1e-15)


def test_predicted_bounds_gamma_zero_flag():
    bounds = predicted_error_bounds(
        kappa=2.0, gamma=0.0, eps=0.25, x_norm=1.0, z=1.0, sigma_min=0.5
    )
    assert bounds.forward_bound_gamma is None
    assert bounds.forward_bound_z == pytest.approx(0.5 / 0.5, rel=1e-12)


def test_predicted_bounds_validation():
    with pytest.raises(InvalidGamma):
        predicted_error_bounds(2.0, 1.5, 0.25, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidEpsilon):
        predicted_error_bounds(2.0, 0.5, 1.5, 1.0, 1.0, 1.0)


_VALID_BOUNDS_ARGS = dict(kappa=2.0, gamma=0.5, eps=0.25, x_norm=1.0, z=1.0, sigma_min=0.5)


@pytest.mark.parametrize("name, value", [
    ("kappa", math.nan), ("kappa", 0.5),
    ("sigma_min", math.nan), ("sigma_min", 0.0),
    ("z", math.nan), ("z", -1.0),
    ("x_norm", math.nan), ("x_norm", -1.0),
])
def test_predicted_bounds_reject_nan_and_out_of_range_arguments(name, value):
    # NaN passed every `x < bound` check and came back as a NaN bound; a
    # negative z or ||x_opt|| came back as a negative one.
    with pytest.raises(InvalidSpec, match=name):
        predicted_error_bounds(**{**_VALID_BOUNDS_ARGS, name: value})


def test_cgnr_orthonormal_single_step():
    rng = np.random.default_rng(6)
    m = orthonormal_basis(rng.standard_normal((50, 5))).q
    v = rng.standard_normal(50)
    x = cgnr_solve(m, v, tol=1e-12, max_iter=5)
    assert np.allclose(x, m.T @ v, atol=1e-10)


def test_cgnr_matches_qr():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((200, 10))
    v = rng.standard_normal(200)
    x_cg = cgnr_solve(m, v, tol=1e-10)
    x_qr = solve_exact_ls(m, v)
    assert np.linalg.norm(x_cg - x_qr) <= 1e-6 * np.linalg.norm(x_qr)


def test_cgnr_orthogonal_rhs():
    rng = np.random.default_rng(8)
    m = orthonormal_basis(rng.standard_normal((40, 3))).q
    v = project_out(m, rng.standard_normal(40))
    x = cgnr_solve(m, v, tol=1e-10)
    assert np.abs(x).max() <= 1e-10


def test_cgnr_iteration_cap():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((30, 6))
    v = rng.standard_normal(30)
    with pytest.raises(ConvergenceFailure):
        cgnr_solve(m, v, tol=1e-14, max_iter=1)


@pytest.mark.parametrize("kwargs", [
    {"tol": math.nan}, {"tol": -1e-12}, {"max_iter": 2.5}, {"max_iter": True}, {"max_iter": -1},
])
def test_cgnr_rejects_a_nan_tol_and_a_non_integer_max_iter(kwargs):
    # A NaN tol compared False against every residual, so CGNR ran out its
    # iterations and returned an unconverged x without an error.
    rng = np.random.default_rng(9)
    m, v = rng.standard_normal((30, 6)), rng.standard_normal(30)
    with pytest.raises(InvalidSpec, match=next(iter(kwargs))):
        cgnr_solve(m, v, **{"tol": 1e-12, "max_iter": 2, **kwargs})


def test_cgnr_small_solver_path(gaussian_problem):
    out_qr = sketch_solve_sampling(gaussian_problem, _params(), 5)
    out_cg = sketch_solve_sampling(gaussian_problem, _params(), 5, small_solver="cgnr")
    assert np.linalg.norm(out_qr.x_tilde - out_cg.x_tilde) <= 1e-6 * np.linalg.norm(
        out_qr.x_tilde
    )


def test_unknown_small_solver_fails_before_any_draw(monkeypatch, gaussian_problem):
    def unreachable(*args, **kwargs):
        raise AssertionError("the signs were drawn before small_solver was checked")

    monkeypatch.setattr(solver_mod, "sample_signs", unreachable)
    with pytest.raises(InvalidSpec, match="unknown small solver"):
        sketch_solve_sampling(gaussian_problem, _params(), 1, small_solver="bogus")


def test_seed_determinism(gaussian_problem):
    a = sketch_solve_sampling(gaussian_problem, _params(), 11, diagnostics=True)
    b = sketch_solve_sampling(gaussian_problem, _params(), 11, diagnostics=True)
    assert a.x_tilde.tobytes() == b.x_tilde.tobytes()
    assert a.residual_tilde == b.residual_tilde
    p = sketch_solve_projection(gaussian_problem, _params(), 11)
    q = sketch_solve_projection(gaussian_problem, _params(), 11)
    assert p.x_tilde.tobytes() == q.x_tilde.tobytes()


def test_scaling_equivariance_in_b(gaussian_problem):
    # Power-of-two scale: every float op scales exactly, so bytes match.
    doubled = LsProblem(a=gaussian_problem.a, b=2.0 * gaussian_problem.b)
    out1 = sketch_solve_sampling(gaussian_problem, _params(), 13)
    out2 = sketch_solve_sampling(doubled, _params(), 13)
    assert (2.0 * out1.x_tilde).tobytes() == out2.x_tilde.tobytes()
    # Generic scale: linearity holds to roundoff.
    scaled = LsProblem(a=gaussian_problem.a, b=3.0 * gaussian_problem.b)
    out3 = sketch_solve_sampling(scaled, _params(), 13)
    assert np.linalg.norm(out3.x_tilde - 3.0 * out1.x_tilde) <= 1e-12 * np.linalg.norm(
        out3.x_tilde
    )


def test_scaling_equivariance_in_a(gaussian_problem):
    scaled = LsProblem(a=2.0 * gaussian_problem.a, b=gaussian_problem.b)
    out1 = sketch_solve_sampling(gaussian_problem, _params(), 14)
    out2 = sketch_solve_sampling(scaled, _params(), 14)
    assert np.linalg.norm(out2.x_tilde - out1.x_tilde / 2.0) <= 1e-12 * np.linalg.norm(
        out2.x_tilde
    )


def test_tangent_identity(gaussian_problem):
    u = orthonormal_basis(gaussian_problem.a).q
    gamma = gamma_fraction(u, gaussian_problem.b)
    _, z = exact_outcome(gaussian_problem)
    bnorm = np.linalg.norm(gaussian_problem.b)
    assert z <= math.sqrt(1.0 - gamma**2) * bnorm + 1e-10
    assert z == pytest.approx(math.sqrt(1.0 - gamma**2) * bnorm, abs=1e-8)


def test_diagnostics_block(gaussian_problem):
    out = sketch_solve_sampling(gaussian_problem, _params(), 15, diagnostics=True)
    diag = out.diagnostics
    assert diag is not None
    assert diag.sigma_xu.shape == (8,)
    assert 0.0 <= diag.gamma <= 1.0
    assert diag.gamma == pytest.approx(0.9, abs=1e-6)
    assert diag.kappa == pytest.approx(10.0, rel=0.01)
    assert diag.z > 0
    assert diag.embedding_ok == bool(diag.sigma_xu[-1] ** 2 >= 1.0 / math.sqrt(2.0))
    assert out.timings["total"] > 0


@pytest.mark.parametrize("n", [2**12, 2**12 + 1])
@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e10])
def test_diagnostics_kappa_matches_a_known_spectrum(n, kappa):
    a, _ = known_spectrum_matrix(n, 10, kappa, seed=8)
    b = np.random.default_rng(8).standard_normal(n)
    out = sketch_solve_sampling(LsProblem(a, b), _params(), 23, diagnostics=True)
    assert out.diagnostics.kappa == pytest.approx(kappa, rel=1e-6)
    assert out.diagnostics.sigma_min == pytest.approx(1.0 / kappa, rel=1e-6)


@pytest.mark.parametrize("kappa", [2e12, 1e13])
def test_certified_solve_keeps_the_solved_x_past_the_rank_tolerance(monkeypatch, kappa):
    # The solve's R diagonal judges the rank once; kappa past 1/RANK_TOL is
    # reported, not refused, and the certified x is the plain one. Its
    # certificate, X U from the solve's own sketch, is still within
    # 10 kappa u of the two-transform one, flags and all.
    a, _ = known_spectrum_matrix(4096, 10, kappa, seed=8)
    problem = LsProblem(a, np.random.default_rng(1).standard_normal(4096))
    params = SketchParams(epsilon=0.5, r=256)
    plain = sketch_solve_sampling(problem, params, 23)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certified = sketch_solve_sampling(problem, params, 23, diagnostics=True)
    assert certified.x_tilde.tobytes() == plain.x_tilde.tobytes()
    assert certified.diagnostics.kappa == pytest.approx(kappa, rel=1e-4)
    assert certified.diagnostics.sigma_min == pytest.approx(1.0 / kappa, rel=1e-4)
    with pytest.raises(RankDeficient, match="singular-value"):
        condition_number(a)
    monkeypatch.setattr(solver_mod, "_diagnostics", two_transform_diagnostics)
    new = certified.diagnostics
    old = sketch_solve_sampling(problem, params, 23, diagnostics=True).diagnostics
    assert np.abs(new.sigma_xu / old.sigma_xu - 1.0).max() <= 10.0 * kappa * 2.0**-52
    assert abs(new.cross_term / old.cross_term - 1.0) <= 10.0 * kappa * 2.0**-52
    assert (new.embedding_ok, new.cross_term_ok) == (old.embedding_ok, old.cross_term_ok)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
def test_norms_survive_extreme_scales(frozen_projection_draw, gaussian_problem, solve, scale):
    # A plain sum of squares overflows to inf above ~1e154 and loses every
    # digit below ~1e-154; every norm must scale with the data instead.
    # Seed 24 was chosen on the projection draw before the skip draw, for
    # a small draw that does not certify; the frozen draw keeps it.
    a, b = gaussian_problem.a, gaussian_problem.b
    scaled = LsProblem(a * scale, b * scale)
    plain_out = solve(gaussian_problem, _params(q=0.3), 24, diagnostics=True)
    scaled_out = solve(scaled, _params(q=0.3), 24, diagnostics=True)
    assert scaled_out.residual_tilde / scale == pytest.approx(plain_out.residual_tilde, rel=1e-12)
    assert scaled_out.diagnostics.z / scale == pytest.approx(plain_out.diagnostics.z, rel=1e-12)
    assert scaled_out.diagnostics.gamma == pytest.approx(plain_out.diagnostics.gamma, rel=1e-12)
    assert exact_outcome(scaled)[1] / scale == pytest.approx(exact_outcome(gaussian_problem)[1], rel=1e-12)
    assert scaled_out.diagnostics.cross_term_ok == plain_out.diagnostics.cross_term_ok
    # A sketch too small to certify: squaring both sides of the cross-term
    # check would read inf <= inf or 0 <= 0 here and pass it.
    small = _params(r=16, k=16, q=0.3)
    assert not solve(gaussian_problem, small, 24, diagnostics=True).diagnostics.cross_term_ok
    assert not solve(scaled, small, 24, diagnostics=True).diagnostics.cross_term_ok


@pytest.mark.parametrize("kappa, scale", [(1e10, 1e-300), (1e4, 1e-305), (1e4, 1e300)])
@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
def test_sketched_xu_survives_extreme_scales(solve, kappa, scale):
    # (U^T A)^-1 has norm kappa / sigma_max(A), ~1e310 at (1e10, 1e-300):
    # X U = (X H D A)(U^T A)^-1 must be formed near scale 1, not at A's.
    a, _ = known_spectrum_matrix(4096, 10, kappa, seed=8)
    b = np.random.default_rng(8).standard_normal(4096)
    params = _params(q=0.3)
    plain = solve(LsProblem(a, b), params, 23, diagnostics=True).diagnostics
    scaled = solve(LsProblem(a * scale, b * scale), params, 23, diagnostics=True).diagnostics
    # Rounding A * scale moves A's small singular directions by ~kappa * u.
    assert np.abs(scaled.sigma_xu / plain.sigma_xu - 1.0).max() <= 10.0 * kappa * 2.0**-52
    assert (scaled.embedding_ok, scaled.cross_term_ok) == (plain.embedding_ok, plain.cross_term_ok)


@pytest.fixture(params=["inline", "pooled"])
def butterfly_path(request, monkeypatch):
    """Run the full butterfly on the calling thread, or on small cache
    blocks shared out across a pool of three workers."""
    monkeypatch.setattr(workers, "_pool", None)
    if request.param == "inline":
        yield request.param
        return
    monkeypatch.setattr(hadamard, "_BLOCK", 256)
    monkeypatch.setattr(workers, "WORKERS", 3)
    yield request.param
    if workers._pool is not None:
        workers._pool.shutdown()


@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
def test_overflow_in_the_sketch_is_named(butterfly_path, solve):
    # Entries of 1e307 are finite, but the butterfly's sums are not. The
    # error names the overflow, not a NaN matrix the caller never passed,
    # and no RuntimeWarning escapes, not even from a pool thread. r covers
    # more than a sixth of the rows, so sampling runs the full butterfly.
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((4096, 5)), rng.standard_normal(4096)
    params = _params(r=1024, k=40, q=0.2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidSpec, match="overflowed float64"):
            solve(LsProblem(a * 1e307, b * 1e307), params, 1)
        out = solve(LsProblem(a * 1e305, b * 1e305), params, 1)
    assert caught == []
    assert np.isfinite(out.x_tilde).all()
    assert (workers._pool is not None) == (butterfly_path == "pooled")


def test_retry_once_on_rank_loss(gaussian_problem, monkeypatch):
    real_draw = solver_mod.draw_sampling_plan

    def degenerate_first(n, r, seed, label="sampling-plan"):
        if label.endswith(":0"):
            # Every draw hits row 0: the sketched matrix has rank one.
            return SamplingPlan(
                n=n, r=r, indices=np.zeros(r, dtype=np.int64), scale=math.sqrt(n / r)
            )
        return real_draw(n, r, seed, label)

    monkeypatch.setattr(solver_mod, "draw_sampling_plan", degenerate_first)
    out = sketch_solve_sampling(gaussian_problem, _params(), 16)
    assert out.retries == 1
    assert out.residual_tilde < np.linalg.norm(gaussian_problem.b)


def test_rank_loss_raises_after_retry(gaussian_problem, monkeypatch):
    def always_degenerate(n, r, seed, label="sampling-plan"):
        return SamplingPlan(
            n=n, r=r, indices=np.zeros(r, dtype=np.int64), scale=math.sqrt(n / r)
        )

    monkeypatch.setattr(solver_mod, "draw_sampling_plan", always_degenerate)
    with pytest.raises(RankDeficient):
        sketch_solve_sampling(gaussian_problem, _params(), 17)


def test_injected_plan_failure_does_not_retry(gaussian_problem):
    bad = SamplingPlan(
        n=1024, r=64, indices=np.zeros(64, dtype=np.int64), scale=math.sqrt(1024 / 64)
    )
    with pytest.raises(RankDeficient):
        sketch_solve_sampling(gaussian_problem, _params(r=64), 18, plan=bad)


def _zero_projection(k, n, q, seed, label):
    return SparseProjection(
        k=k, n=n, q=q, indptr=np.zeros(k + 1, dtype=np.int32),
        cols=np.empty(0, dtype=np.int32), signs=np.empty(0),
        magnitude=1.0 / math.sqrt(k * q), seed=seed, label=label,
    )


def test_projection_retry_once_on_rank_loss(gaussian_problem, monkeypatch):
    real_draw = solver_mod.draw_sparse_projection
    labels = []

    def zero_first(k, n, q, seed, label="sparse-projection"):
        labels.append(label)
        if label.endswith(":0"):
            # No nonzero cell: the sketched matrix is all zeros.
            return _zero_projection(k, n, q, seed, label)
        return real_draw(k, n, q, seed, label)

    monkeypatch.setattr(solver_mod, "draw_sparse_projection", zero_first)
    out = sketch_solve_projection(gaussian_problem, _params(q=0.5), 16)
    assert out.retries == 1
    assert labels == ["projection:0", "projection:1"]
    assert out.residual_tilde < np.linalg.norm(gaussian_problem.b)


def test_injected_projection_failure_does_not_retry(gaussian_problem, monkeypatch):
    drawn = []
    monkeypatch.setattr(
        solver_mod, "draw_sparse_projection", lambda *args, **kw: drawn.append(args)
    )
    bad = _zero_projection(128, 1024, 0.5, 18, "injected")
    with pytest.raises(RankDeficient):
        sketch_solve_projection(gaussian_problem, _params(q=0.5), 18, projection=bad)
    assert drawn == []


def test_both_methods_report_the_same_timings(gaussian_problem):
    sampled = sketch_solve_sampling(gaussian_problem, _params(), 22)
    projected = sketch_solve_projection(gaussian_problem, _params(), 22)
    phases = {"transform", "sketch-apply", "small-solve", "total"}
    assert set(sampled.timings) == set(projected.timings) == phases


@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
def test_a_certified_solve_times_its_diagnostics(gaussian_problem, solve):
    out = solve(gaussian_problem, _params(), 22, diagnostics=True)
    assert set(out.timings) == {"transform", "sketch-apply", "small-solve", "diagnostics", "total"}
    assert 0.0 < out.timings["diagnostics"] < out.timings["total"]


def test_amplification_trials():
    # ceil(ln(1/delta)/ln 5): one trial at delta >= 0.2, ten at ~1e-7.
    from sketchlsq.solver import amplification_trials

    assert amplification_trials(0.2) == 1
    assert amplification_trials(0.04) == 2
    assert amplification_trials(1e-7) == 11
    with pytest.raises(InvalidSpec):
        amplification_trials(0.0)


def test_best_of_takes_minimum(gaussian_problem):
    _, z = exact_outcome(gaussian_problem)
    singles = [
        sketch_solve_sampling(
            gaussian_problem, _params(), 19, stream_prefix=f"bestof{t}/"
        ).residual_tilde
        for t in range(4)
    ]
    best = sketch_solve_best_of(gaussian_problem, _params(), 19, m=4)
    assert best.residual_tilde == min(singles)
    assert best.residual_tilde >= z - 1e-10


def test_best_of_nests_trials_under_the_caller_prefix(gaussian_problem):
    singles = [
        sketch_solve_sampling(gaussian_problem, _params(), 21, stream_prefix=f"x/bestof{t}/")
        for t in range(2)
    ]
    best = sketch_solve_best_of(gaussian_problem, _params(), 21, m=2, stream_prefix="x/")
    expected = min(singles, key=lambda o: o.residual_tilde)
    assert best.x_tilde.tobytes() == expected.x_tilde.tobytes()
    assert best.residual_tilde == expected.residual_tilde


def test_best_of_single_equals_plain(gaussian_problem):
    plain = sketch_solve_sampling(gaussian_problem, _params(), 20)
    wrapped = sketch_solve_best_of(gaussian_problem, _params(), 20, m=1)
    assert plain.x_tilde.tobytes() == wrapped.x_tilde.tobytes()


def test_pipeline_validation(gaussian_problem):
    with pytest.raises(InvalidSpec):
        sketch_solve_sampling(gaussian_problem, SketchParams(epsilon=0.5, k=64, q=1.0), 0)
    with pytest.raises(InvalidSpec):
        sketch_solve_sampling(gaussian_problem, _params(r=4), 0)  # r < d
    with pytest.raises(InvalidSpec):
        sketch_solve_projection(gaussian_problem, SketchParams(epsilon=0.5, r=64), 0)
    with pytest.raises(InvalidSpec):
        sketch_solve_best_of(gaussian_problem, _params(), 0, m=0)
    with pytest.raises(InvalidSpec):
        sketch_solve_best_of(gaussian_problem, _params(), 0, method="nope")


@pytest.mark.parametrize("m", [2.5, True])
def test_best_of_m_takes_integers_only(gaussian_problem, m):
    with pytest.raises(InvalidSpec, match="integer"):
        sketch_solve_best_of(gaussian_problem, _params(), 0, m=m)


def test_best_of_m_takes_numpy_integers(gaussian_problem):
    numpy_m = sketch_solve_best_of(gaussian_problem, _params(), 3, m=np.int64(2))
    plain_m = sketch_solve_best_of(gaussian_problem, _params(), 3, m=2)
    assert numpy_m.x_tilde.tobytes() == plain_m.x_tilde.tobytes()


def test_z_exact_passthrough(gaussian_problem):
    _, z = exact_outcome(gaussian_problem)
    out = sketch_solve_sampling(gaussian_problem, _params(), 21)
    assert out.residual_tilde >= z - 1e-10


def test_best_of_cgnr_is_sampling_with_cgnr(gaussian_problem):
    for m in (1, 2):
        cg = sketch_solve_best_of(gaussian_problem, _params(), 6, m=m, method="cgnr")
        ref = sketch_solve_best_of(
            gaussian_problem, _params(), 6, m=m, method="sampling", small_solver="cgnr"
        )
        assert cg.method == "sampling"
        assert cg.x_tilde.tobytes() == ref.x_tilde.tobytes()


# SHA-256 over x_tilde and retries of every solve in _bytes_corpus, computed
# when the diagnostics still ran a Jacobi eigensolve and numpy norms, on the
# projection draw of that time (now `frozen_sparse_projection`). Neither the
# diagnostics nor the rounding of a norm may move a solution or the best_of
# pick.
_PINNED_SOLUTION_DIGEST = "b4ffe6fa3341386c95702a8ded32928f7ce4005d815c415e866ffb3a3306d305"

# The same corpus on the geometric-skip projection draw, computed when that
# draw replaced the per-cell uniforms.
_PINNED_SKIP_DRAW_SOLUTION_DIGEST = "01c85865b5a0c923e47a5d43706097d78b5d47ae505b032f352bfe4453aede62"


def _solve_or_error(solve, *args, **kwargs):
    """The outcome of one solve, or the typed error it raised."""
    try:
        return solve(*args, **kwargs)
    except RankDeficient as exc:
        return exc


def _bytes_corpus(diagnostics):
    """Both methods on every problem kind at n = 1024 and the padded 1025,
    best_of with m = 3, and a 9 x 6 cell where the first draw of some seeds
    loses rank and the solve retries (or, if the retry loses rank too,
    raises)."""
    sampling = SketchParams(epsilon=0.5, r=256)
    projection = SketchParams(epsilon=0.5, k=128, q=0.3)
    outs = []
    for n in (1024, 1025):
        for kind in KINDS:
            problem = gen_problem(ProblemSpec(kind, n, 8, 1e4, 0.9, seed=n))
            for method, params in (("sampling", sampling), ("projection", projection)):
                for m in (1, 3):
                    outs.append(sketch_solve_best_of(
                        problem, params, 40 + m, m=m, method=method, diagnostics=diagnostics
                    ))
    tiny = gen_problem(ProblemSpec(KIND_GAUSSIAN, 9, 6, 10.0, 0.9, seed=0))
    outs += [_solve_or_error(sketch_solve_sampling, tiny, SketchParams(epsilon=0.5, r=9), s,
                             diagnostics=diagnostics) for s in (0, 1)]
    outs += [_solve_or_error(sketch_solve_projection, tiny, SketchParams(epsilon=0.5, k=6, q=0.15),
                             s, diagnostics=diagnostics) for s in (9, 11)]
    return outs


def _solution_digest(outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        if isinstance(out, RankDeficient):
            h.update(type(out).__name__.encode())
            continue
        h.update(out.x_tilde.tobytes())
        h.update(out.retries.to_bytes(1, "little"))
    return h.hexdigest()


def test_solution_bytes_pinned(frozen_projection_draw, householder_solve):
    plain = _bytes_corpus(diagnostics=False)
    certified = _bytes_corpus(diagnostics=True)
    assert [o.retries for o in plain[-4:]] == [1, 0, 1, 0]
    assert all(o.diagnostics is not None for o in certified)
    assert _solution_digest(certified) == _solution_digest(plain)
    assert _solution_digest(plain) == _PINNED_SOLUTION_DIGEST


def test_solution_bytes_pinned_on_the_skip_draw(householder_solve):
    plain = _bytes_corpus(diagnostics=False)
    certified = _bytes_corpus(diagnostics=True)
    # On this draw the first projection seed of the 9 x 6 cell loses rank
    # on its retry too.
    assert [o.retries for o in plain[-4:-2]] == [1, 0]
    assert isinstance(plain[-2], RankDeficient) and plain[-1].retries == 0
    assert _solution_digest(certified) == _solution_digest(plain)
    assert _solution_digest(plain) == _PINNED_SKIP_DRAW_SOLUTION_DIGEST


# The two solution digests above were computed when every least-squares
# solve went through Householder's Q (now `householder_solve_exact_ls`).
# Their twins below pin the R of the stacked [A | b], the same at 1 and at
# 2 BLAS threads. Every retries value and RankDeficient decision is the one
# the Householder route gives.
_PINNED_STACKED_R_SOLUTION_DIGEST = (
    "d7f6db33b3e3c26a76ab70db44c5a4a7b611d6ff5f9fa6a8c98276ec81b2e26e"
)
_PINNED_STACKED_R_SKIP_DRAW_SOLUTION_DIGEST = (
    "b4f3df769fe9cb133061fd4de9859023b61801c0a510b9bc381823debbff2e6a"
)


def test_solution_bytes_pinned_on_the_stacked_r(frozen_projection_draw):
    plain = _bytes_corpus(diagnostics=False)
    certified = _bytes_corpus(diagnostics=True)
    assert [o.retries for o in plain[-4:]] == [1, 0, 1, 0]
    assert all(o.diagnostics is not None for o in certified)
    assert _solution_digest(certified) == _solution_digest(plain)
    assert _solution_digest(plain) == _PINNED_STACKED_R_SOLUTION_DIGEST


def test_solution_bytes_pinned_on_the_skip_draw_and_the_stacked_r():
    plain = _bytes_corpus(diagnostics=False)
    certified = _bytes_corpus(diagnostics=True)
    assert [o.retries for o in plain[-4:-2]] == [1, 0]
    assert isinstance(plain[-2], RankDeficient) and plain[-1].retries == 0
    assert _solution_digest(certified) == _solution_digest(plain)
    assert _solution_digest(plain) == _PINNED_STACKED_R_SKIP_DRAW_SOLUTION_DIGEST



# SHA-256 over residual_tilde and every Diagnostics field of the certified
# corpus on the skip draw, the same at 1 and at 2 BLAS threads, computed
# when the diagnostics' basis was Householder's Q (now
# `householder_orthonormal_basis`). With the solution digests it pins every
# byte a solve returns.
_PINNED_CERTIFICATE_DIGEST = "b2d3d496991a34cff118f59c9b8ea4f30d4675db5a300934fb22293c51758026"

# The same corpus on the shifted CholeskyQR3 basis, computed when it
# replaced Householder's. Every embedding_ok and cross_term_ok flag is the
# one the Householder basis gives.
_PINNED_CHOLESKY_QR3_CERTIFICATE_DIGEST = (
    "32379beeba49e4419f6ec86f3dd308b38d42f9c239e59680039cdae67549ee53"
)


def _certificate_digest() -> str:
    h = hashlib.sha256()
    for out in _bytes_corpus(diagnostics=True):
        if isinstance(out, RankDeficient):
            h.update(type(out).__name__.encode())
            continue
        h.update(np.float64(out.residual_tilde).tobytes())
        for field in dataclasses.fields(Diagnostics):
            h.update(np.asarray(getattr(out.diagnostics, field.name)).tobytes())
    return h.hexdigest()


def test_certificate_bytes_pinned(two_transform, householder_basis, householder_solve):
    assert _certificate_digest() == _PINNED_CERTIFICATE_DIGEST


def test_certificate_bytes_pinned_on_cholesky_qr3(two_transform, householder_solve,
                                                  cholesky_qr3_basis):
    assert _certificate_digest() == _PINNED_CHOLESKY_QR3_CERTIFICATE_DIGEST


# Both certificate digests above were computed on the Householder solve;
# their twins pin the R of the stacked [A | b], the same at 1 and at 2
# BLAS threads. Only residual_tilde moves: every Diagnostics byte is the
# one the Householder solve gives.
_PINNED_STACKED_R_CERTIFICATE_DIGEST = (
    "c9258376802de6f96da53169994cea3c6d600a0c5f4f4381c0d67dd106a702f8"
)
_PINNED_STACKED_R_CHOLESKY_QR3_CERTIFICATE_DIGEST = (
    "7f9fca327006c6da931f095b8d1f8c6c4b9fde5085700adf3c9c53de39e6c538"
)


def test_certificate_bytes_pinned_on_the_stacked_r(two_transform, householder_basis):
    assert _certificate_digest() == _PINNED_STACKED_R_CERTIFICATE_DIGEST


def test_certificate_bytes_pinned_on_cholesky_qr3_and_the_stacked_r(two_transform,
                                                                    cholesky_qr3_basis):
    assert _certificate_digest() == _PINNED_STACKED_R_CHOLESKY_QR3_CERTIFICATE_DIGEST


# The four certificate digests above were computed when the diagnostics
# transformed [U | b_perp] a second time (now `two_transform_diagnostics`).
# Their twin pins X U = (X H D A)(U^T A)^-1 from the solve's own sketch, the
# same at 1 and at 2 BLAS threads. Only sigma_xu and cross_term move: every
# other Diagnostics byte, every residual_tilde and every flag is the one the
# two-transform route gives.
_PINNED_SKETCHED_XU_CERTIFICATE_DIGEST = (
    "29c39d060e7b0e290106f740f73295e1ce39ab13c490b17a2e342dc1b1536441"
)


def test_certificate_bytes_pinned_on_the_solves_own_sketch(sketched_xu, cholesky_qr3_basis):
    assert _certificate_digest() == _PINNED_SKETCHED_XU_CERTIFICATE_DIGEST


@pytest.mark.parametrize("n", [4096, 4097])
@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8, 1e10, 1e12, 2e12])
def test_sketched_xu_matches_the_two_transform_certificate(sketched_xu, monkeypatch, n, solve,
                                                          kappa):
    # Inverting U^T A amplifies rounding by kappa; each route also rounds
    # the butterfly's log2(padded n) stages its own way, which is all that
    # is left at kappa = 1. 2e12 lies past the rank tolerance; the test
    # below goes on to 1e13 at n = 4096.
    a, _ = known_spectrum_matrix(n, 10, kappa, seed=8)
    problem = LsProblem(a, np.random.default_rng(8).standard_normal(n))
    params = _params(q=0.3)
    new = solve(problem, params, 23, diagnostics=True).diagnostics
    monkeypatch.setattr(solver_mod, "_diagnostics", two_transform_diagnostics)
    old = solve(problem, params, 23, diagnostics=True).diagnostics
    tol = 10.0 * (kappa + math.log2(problem.stacked.shape[0])) * 2.0**-52
    assert np.abs(new.sigma_xu / old.sigma_xu - 1.0).max() <= tol
    assert abs(new.cross_term / old.cross_term - 1.0) <= tol
    assert (new.embedding_ok, new.cross_term_ok) == (old.embedding_ok, old.cross_term_ok)
    for name in ("z", "gamma", "kappa", "sigma_min"):
        assert getattr(new, name) == getattr(old, name)


# The sketched-XU digest above was computed when the basis came from A
# alone and X U from (U^T A)^-1 (now `sketched_xu_diagnostics`). Its twin
# pins the basis preconditioned by the sketch's R_s, with X U read off
# R_s R^-1, the same at 1 and at 2 BLAS threads. Every Diagnostics field
# moves; residual_tilde and the solution digests do not.
_PINNED_SKETCHS_R_CERTIFICATE_DIGEST = (
    "ba4c585b30f796ecfb0f88aa8ff982c08e0078df819bc6129945065eaaef2eb1"
)


def test_certificate_bytes_pinned_on_the_sketchs_r(cholesky_qr3_basis):
    assert _certificate_digest() == _PINNED_SKETCHS_R_CERTIFICATE_DIGEST


# The sketch's-R digest above was computed when the basis fell back to
# shifted CholeskyQR3 (now `cholesky_qr3_orthonormal_basis`). Its twin pins
# the fallback to `qr_factor`, the same at 1 and at 2 BLAS threads. Of the
# corpus's 27 certificates, only the first sampled one of the 9 x 6 cell
# falls back (kappa(C) = 497 there) and moves; its flags and residual_tilde
# do not.
_PINNED_HOUSEHOLDER_FALLBACK_CERTIFICATE_DIGEST = (
    "b058727d238f3e3112c8f23b1520ddce47cdfab3de84b28b9e2cdf421cf84b31"
)


def test_certificate_bytes_pinned_on_the_householder_fallback():
    assert _certificate_digest() == _PINNED_HOUSEHOLDER_FALLBACK_CERTIFICATE_DIGEST


@pytest.mark.parametrize("n", [4096, 4097])
@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
@pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8, 1e10, 1e12, 2e12])
def test_sketchs_r_matches_the_sketched_xu_certificate(monkeypatch, n, solve, kappa):
    # Both routes read A's small singular directions to about kappa u, and
    # round the butterfly's log2(padded n) stages their own way. Measured
    # on seeds 0-3: at most 2.4e-4 (sigma_xu), 1.7e-8 (z) and 1.1e-5 (kappa)
    # at kappa = 1e12, a fifth of the bound or less at every kappa.
    a, _ = known_spectrum_matrix(n, 10, kappa, seed=8)
    problem = LsProblem(a, np.random.default_rng(8).standard_normal(n))
    params = _params(q=0.3)
    new = solve(problem, params, 23, diagnostics=True)
    monkeypatch.setattr(solver_mod, "_diagnostics", sketched_xu_diagnostics)
    old = solve(problem, params, 23, diagnostics=True)
    assert new.x_tilde.tobytes() == old.x_tilde.tobytes()
    assert new.residual_tilde == old.residual_tilde
    new, old = new.diagnostics, old.diagnostics
    tol = 10.0 * (kappa + math.log2(problem.stacked.shape[0])) * 2.0**-52
    for name in ("sigma_xu", "cross_term", "z", "gamma", "kappa", "sigma_min"):
        rel = np.abs(np.asarray(getattr(new, name)) / getattr(old, name) - 1.0)
        assert rel.max() <= tol, name
    assert (new.embedding_ok, new.cross_term_ok) == (old.embedding_ok, old.cross_term_ok)


def test_a_certified_solve_builds_one_basis_from_the_sketchs_r(gaussian_problem, monkeypatch):
    # The basis gets the R of the solve's own sketch of A, and X U is never
    # formed: verify_conditions sees d x d factors.
    calls, shapes = [], []
    real_basis, real_verify = solver_mod.orthonormal_basis, solver_mod.verify_conditions

    def basis(a, r_s=None):
        calls.append(None if r_s is None else np.shape(r_s))
        return real_basis(a, r_s)

    def verify(xu, *args):
        shapes.append(np.shape(xu))
        return real_verify(xu, *args)

    monkeypatch.setattr(solver_mod, "orthonormal_basis", basis)
    monkeypatch.setattr(solver_mod, "verify_conditions", verify)
    d = gaussian_problem.d
    sketch_solve_sampling(gaussian_problem, _params(), 5, diagnostics=True)
    assert calls == [(d, d)] and shapes == [(d, d)]


def test_a_large_scale_free_solution_is_in_range():
    # R ~ 1e300 times x ~ 1e10 overflows float64, though x itself does not:
    # the back substitution and A x - b run on power-of-two-scaled data.
    a, _ = known_spectrum_matrix(4096, 10, 1e10, seed=8)
    b = np.random.default_rng(8).standard_normal(4096)
    params = SketchParams(epsilon=0.5, r=256)
    plain = sketch_solve_sampling(LsProblem(a, b), params, 23)
    scaled = sketch_solve_sampling(LsProblem(a * 1e300, b * 1e300), params, 23)
    assert np.abs(scaled.x_tilde / plain.x_tilde - 1.0).max() <= 10.0 * 1e10 * 2.0**-52
    assert scaled.residual_tilde / 1e300 == pytest.approx(plain.residual_tilde, rel=1e-8)
    x, z = exact_outcome(LsProblem(a * 1e300, b * 1e300))
    assert np.isfinite(x).all()
    assert z / 1e300 == pytest.approx(exact_outcome(LsProblem(a, b))[1], rel=1e-8)


def test_best_of_certifies_only_the_kept_trial(gaussian_problem, monkeypatch):
    # Every trial certified, then the smallest residual kept: the outcome
    # the bundle gave when it certified all m, byte for byte.
    trials = [
        sketch_solve_sampling(gaussian_problem, _params(), 19, stream_prefix=f"bestof{t}/",
                              diagnostics=True)
        for t in range(3)
    ]
    expected = min(trials, key=lambda o: o.residual_tilde)
    calls = []
    real = solver_mod.orthonormal_basis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver_mod, "orthonormal_basis", counted)
    best = sketch_solve_best_of(gaussian_problem, _params(), 19, m=3, diagnostics=True)
    assert len(calls) == 1
    assert best.x_tilde.tobytes() == expected.x_tilde.tobytes()
    assert (best.residual_tilde, best.retries) == (expected.residual_tilde, expected.retries)
    for field in dataclasses.fields(Diagnostics):
        assert (np.asarray(getattr(best.diagnostics, field.name)).tobytes()
                == np.asarray(getattr(expected.diagnostics, field.name)).tobytes())


@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
def test_a_certified_solve_transforms_the_problem_once(gaussian_problem, monkeypatch, solve):
    # [A | b] once for the solve, then b_perp alone; U is never transformed.
    widths = []
    for name in ("partial_rht_rows", "apply_rht"):
        real = getattr(solver_mod, name)

        def counted(m, *args, _real=real, **kwargs):
            widths.append(np.shape(m)[1])
            return _real(m, *args, **kwargs)

        monkeypatch.setattr(solver_mod, name, counted)
    solve(gaussian_problem, _params(q=0.3), 5, diagnostics=True)
    assert sorted(widths) == [1, gaussian_problem.d + 1]


# --- CGNR at extreme entry scales and degenerate shapes ---------------------


_CGNR_PARAMS = SketchParams.practical(3000, 12, 0.5)


def _scaled_cgnr_problem(kind, scale):
    problem = gen_problem(ProblemSpec(kind, 3000, 12, 10.0, 0.9, seed=1))
    return LsProblem(problem.a * scale, problem.b * scale)


# SHA-256 over x_tilde of every kind at entry scales 1, 1e+-20 and 1e+-45,
# computed before CGNR checked its range.
_PINNED_CGNR_DIGEST = "4e6b20e2f7e7bd1e88baf837beafea27d3199eab9143b5ebe5e5ab242d415319"


def test_cgnr_in_range_bytes_pinned():
    h = hashlib.sha256()
    for kind in KINDS:
        for scale in (1.0, 1e20, 1e-20, 1e45, 1e-45):
            problem = _scaled_cgnr_problem(kind, scale)
            h.update(sketch_solve_best_of(problem, _CGNR_PARAMS, 5, method="cgnr").x_tilde.tobytes())
    assert h.hexdigest() == _PINNED_CGNR_DIGEST


@pytest.mark.parametrize("scale", [1e60, 1e-60, 1e160, 1e-160, 1e300, 1e-300])
def test_cgnr_out_of_range_scale_is_named(scale):
    # Scales at which CGNR's squares (scale^4 and scale^6) once left
    # float64's range; CGNR now runs on the sketch rescaled by powers of
    # two and solves here, without a warning, where the QR small solver
    # solves the same sketch.
    scaled = _scaled_cgnr_problem(KIND_GAUSSIAN, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cg = sketch_solve_best_of(scaled, _CGNR_PARAMS, 5, method="cgnr")
    plain = sketch_solve_sampling(_scaled_cgnr_problem(KIND_GAUSSIAN, 1.0), _CGNR_PARAMS, 5)
    out = sketch_solve_sampling(scaled, _CGNR_PARAMS, 5)
    assert np.linalg.norm(cg.x_tilde - out.x_tilde) <= 1e-12 * np.linalg.norm(out.x_tilde)
    assert out.residual_tilde / scale == pytest.approx(plain.residual_tilde, rel=1e-12)
    assert cg.residual_tilde / scale == pytest.approx(plain.residual_tilde, rel=1e-12)


@pytest.mark.parametrize("power", [200, -200, 900, -900])
def test_cgnr_power_of_two_scales_keep_the_bytes(power):
    # A and b scaled alike by 2^power have the same minimizer, and CGNR's
    # own rescale makes the iteration the scale-1 one, bit for bit.
    def cgnr_x(kind, scale):
        problem = _scaled_cgnr_problem(kind, scale)
        return sketch_solve_best_of(problem, _CGNR_PARAMS, 5, method="cgnr").x_tilde.tobytes()

    for kind in KINDS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cgnr_x(kind, math.ldexp(1.0, power)) == cgnr_x(kind, 1.0)


def test_cgnr_flushed_products_are_not_orthogonality():
    # At 1e-170 every product m_ij v_i flushes, so m^T v taken as given is
    # exactly zero, as it is for a truly orthogonal rhs; only the latter
    # returns x = 0, and both extreme scales solve x = 1.
    m = np.array([[1.0], [0.0]])
    assert np.array_equal(cgnr_solve(m, np.array([0.0, 1.0])), [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-170, 1e170):
            x = cgnr_solve(m * scale, np.array([scale, scale]))
            assert x == pytest.approx([1.0], rel=1e-15)
    assert np.array_equal(cgnr_solve(np.zeros((2, 1)), np.ones(2)), [0.0])


@pytest.mark.parametrize(
    "m, v, match",
    [([[1e-300]], [1e300], r"2\^1994"), ([[1e300]], [1e-300], r"2\^-1993")],
)
def test_cgnr_minimizer_outside_float64_is_named(m, v, match):
    # x = 1e600 lies beyond float64 and x = 1e-600 below its normal range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match=match):
            cgnr_solve(np.array(m), np.array(v))


def test_cgnr_limit_is_the_condition_number():
    # Plain CG on the normal equations squares kappa: with kappa = 1e4 it
    # misses tol 1e-12 within 10 d + 20 steps on gaussian and coherent
    # sketches, where the QR small solver solves the same sketch.
    params = SketchParams.practical(4096, 40, 0.5)
    for kind in (KIND_GAUSSIAN, KIND_COHERENT):
        for seed in range(3):
            problem = gen_problem(ProblemSpec(kind, 4096, 40, 1e4, 0.9, seed=seed))
            with pytest.raises(ConvergenceFailure, match="well-conditioned.*qr small solver"):
                sketch_solve_best_of(problem, params, seed, method="cgnr")
            assert np.isfinite(sketch_solve_sampling(problem, params, seed).x_tilde).all()


_CGNR_ENTRY = st.floats(min_value=-1e50, max_value=1e50).filter(
    lambda t: t == 0.0 or abs(t) >= 1e-50
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rows=st.integers(1, 6).flatmap(
        lambda d: st.lists(st.lists(_CGNR_ENTRY, min_size=d + 1, max_size=d + 1),
                           min_size=d + 1, max_size=d + 4)
    ),
    k1=st.integers(-600, 600),
    k2=st.integers(-600, 600),
)
def test_cgnr_commutes_with_powers_of_two(rows, k1, k2):
    # cgnr_solve(2^k1 m, 2^k2 v) is 2^(k2 - k1) cgnr_solve(m, v) byte for
    # byte, or the same typed error; a minimizer the shift carries out of
    # float64's normal range raises InvalidSpec.
    mv = np.array(rows)
    m, v = mv[:, :-1], mv[:, -1]
    m_k, v_k = np.ldexp(m, k1), np.ldexp(v, k2)
    try:
        x = cgnr_solve(m, v)
    except (RankDeficient, ConvergenceFailure, InvalidSpec) as exc:
        if isinstance(exc, InvalidSpec):
            return
        with pytest.raises(type(exc)):
            cgnr_solve(m_k, v_k)
        return
    exponents = np.frexp(x[x != 0.0])[1] + (k2 - k1)
    if exponents.size and not -1021 <= exponents.min() <= exponents.max() <= 1024:
        with pytest.raises(InvalidSpec):
            cgnr_solve(m_k, v_k)
    else:
        assert cgnr_solve(m_k, v_k).tobytes() == np.ldexp(x, k2 - k1).tobytes()


_ENTRY = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_ENTRY, b=_ENTRY, k=st.integers(1, 9), seed=st.integers(0, 2**64 - 1),
       diagnostics=st.booleans())
@example(a=4.979146432895117e-281, b=8.95097735988974e27, k=1, seed=0, diagnostics=False)
@example(a=1.0, b=1.7976931348623155e308, k=3, seed=0, diagnostics=False)
@example(a=3.0, b=1.7976931348623157e308, k=1, seed=0, diagnostics=False)
def test_one_row_projection_is_finite_or_typed(a, b, k, seed, diagnostics):
    # d = 1, n = d, k >= padded n and q = 1. The examples are a minimizer
    # beyond float64, Q^T b overflowing, and A x overflowing at a finite x.
    try:
        problem = LsProblem(np.array([[a]]), np.array([b]))
        out = sketch_solve_projection(
            problem, SketchParams(epsilon=0.5, k=k, q=1.0), seed, diagnostics=diagnostics
        )
    except SketchLsqError:
        return
    assert np.isfinite(out.x_tilde).all() and math.isfinite(out.residual_tilde)
    if diagnostics:
        d = out.diagnostics
        assert all(math.isfinite(v) for v in (d.z, d.gamma, d.kappa, d.sigma_min))


# --- Sampling pipeline edge cases (n not a power of two, duplicated rows,
# --- singular-value ratio near RANK_TOL) -----------------------------------


def _finite_within_bound(problem, params, seed, z):
    """Solve with diagnostics and check the outcome: finite, and within
    (1 + eps) z, z the optimal residual, whenever the draw meets both
    structural conditions. A typed SketchLsqError is an outcome too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = sketch_solve_sampling(problem, params, seed, diagnostics=True)
        except SketchLsqError:
            return None
    assert np.isfinite(out.x_tilde).all() and math.isfinite(out.residual_tilde)
    d = out.diagnostics
    assert all(math.isfinite(v) for v in (d.z, d.gamma, d.kappa, d.sigma_min))
    assert np.isfinite(d.sigma_xu).all()
    if d.embedding_ok and d.cross_term_ok:
        assert out.residual_tilde <= (1.0 + params.epsilon) * z
    return out


_NOT_POW2 = st.integers(3, 300).filter(lambda n: n & (n - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=_NOT_POW2, d=st.integers(1, 6), extra=st.integers(0, 40),
       kind=st.sampled_from(KINDS), kappa=st.sampled_from([1.0, 10.0, 100.0]),
       seed=st.integers(0, 2**32 - 1))
def test_identity_plan_property(n, d, extra, kind, kappa, seed):
    # r >= padded n selects every row once: x is the exact solve's.
    d = min(d, n - 1)
    problem = gen_problem(ProblemSpec(kind, n, d, 1.0 if d == 1 else kappa, 0.9, seed=seed))
    padded = 1 << (n - 1).bit_length()
    x_opt, z = exact_outcome(problem)
    out = _finite_within_bound(problem, SketchParams(epsilon=0.5, r=padded + extra), seed, z)
    assert np.linalg.norm(out.x_tilde - x_opt) <= 1e-10 * np.linalg.norm(x_opt)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.integers(2, 60), d=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_duplicated_rows_property(m, d, data, seed):
    # Rows repeated any number of times: coherent, and exact ties in the
    # sketch. The sketch size ranges up to the identity plan.
    d = min(d, m - 1)
    base = gen_problem(ProblemSpec(KIND_GAUSSIAN, m, d, 1.0 if d == 1 else 10.0, 0.9, seed=seed))
    rows = data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=4 * m))
    rows = np.concatenate([np.arange(m), rows])
    problem = LsProblem(base.a[rows], base.b[rows])
    padded = 1 << (problem.n - 1).bit_length()
    r = data.draw(st.integers(d, padded))
    _, z = exact_outcome(problem)
    _finite_within_bound(problem, SketchParams(epsilon=0.5, r=r), seed, z)


_RETRY_METHODS = ("sampling", "projection", "cgnr")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 16), d=st.integers(1, 6), kind=st.sampled_from(KINDS),
       method=st.sampled_from(_RETRY_METHODS), q=st.sampled_from([1.0, 0.3, 0.05]),
       diagnostics=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=5, d=4, kind=KIND_GAUSSIAN, method="sampling", q=1.0, diagnostics=True, seed=1)
@example(n=5, d=4, kind=KIND_GAUSSIAN, method="sampling", q=1.0, diagnostics=False, seed=0)
def test_retry_path_is_finite_or_typed(n, d, kind, method, q, diagnostics, seed):
    # r = k = d on a tiny problem: the first draw often loses rank, and the
    # solve retries once on the :1 streams, then fails with a typed error.
    # The examples retry once, and lose rank on the retry too.
    d = min(d, n - 1)
    problem = gen_problem(ProblemSpec(kind, n, d, 1.0 if d == 1 else 10.0, 0.9, seed=seed))
    params = SketchParams(epsilon=0.5, r=d, k=d, q=q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = sketch_solve_best_of(
                problem, params, seed, method=method, diagnostics=diagnostics
            )
        except SketchLsqError:
            return
    assert out.retries in (0, 1)
    assert np.isfinite(out.x_tilde).all() and math.isfinite(out.residual_tilde)
    if diagnostics:
        diag = out.diagnostics
        assert all(math.isfinite(v) for v in (diag.z, diag.gamma, diag.kappa, diag.sigma_min))
        assert np.isfinite(diag.sigma_xu).all()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 40), d=st.integers(2, 6), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_injected_rank_deficient_sketch_never_retries(n, d, data, seed):
    # A plan that samples one row d times has rank one; a projection with
    # no nonzero cell is all zeros. Neither may fall back to a fresh draw.
    d = min(d, n - 1)
    problem = gen_problem(ProblemSpec(KIND_GAUSSIAN, n, d, 10.0, 0.9, seed=seed))
    padded = problem.stacked.shape[0]
    row = data.draw(st.integers(0, padded - 1))
    plan = SamplingPlan(n=padded, r=d, indices=np.full(d, row, dtype=np.int64),
                        scale=math.sqrt(padded / d))
    params = SketchParams(epsilon=0.5, r=d, k=d, q=0.5)
    no_draw = AssertionError("an injected sketch was redrawn")
    with mock.patch.object(solver_mod, "draw_sampling_plan", side_effect=no_draw), \
            mock.patch.object(solver_mod, "draw_sparse_projection", side_effect=no_draw):
        with pytest.raises(RankDeficient):
            sketch_solve_sampling(problem, params, seed, plan=plan)
        with pytest.raises(RankDeficient):
            sketch_solve_projection(
                problem, params, seed, projection=_zero_projection(d, padded, 0.5, seed, "zero")
            )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(8, 300), d=st.integers(2, 6), log2_ratio=st.floats(-1.0, 1.0),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_rank_tol_edge_property(n, d, log2_ratio, data, seed):
    # sigma_min / sigma_max = RANK_TOL 2^log2_ratio: the QR rank checks see
    # it from either side. A rank-deficient A raises RankDeficient from the
    # solve or the diagnostics; a solve that returns is finite and bounded.
    ratio = RANK_TOL * 2.0**log2_ratio
    problem = gen_problem(ProblemSpec(KIND_ILL_CONDITIONED, n, d, 1.0 / ratio, 0.9, seed=seed))
    padded = 1 << (n - 1).bit_length()
    r = data.draw(st.integers(d, padded))
    # LAPACK's SVD solve has no rank floor: the optimal residual on both sides.
    x_svd = np.linalg.lstsq(problem.a, problem.b, rcond=None)[0]
    _finite_within_bound(problem, SketchParams(epsilon=0.5, r=r), seed,
                         vector_norm(problem.a @ x_svd - problem.b))
