import hashlib
import math

import numpy as np
import pytest

import sketchlsq.solver as solver_mod
from sketchlsq.errors import (
    ConvergenceFailure,
    InvalidEpsilon,
    InvalidGamma,
    InvalidSpec,
    RankDeficient,
    ZeroRhs,
)
from sketchlsq.linalg import orthonormal_basis, project_out, solve_exact_ls
from sketchlsq.problems import KIND_GAUSSIAN, KINDS, ProblemSpec, gen_problem
from sketchlsq.sketches import SamplingPlan, SketchParams, SparseProjection, identity_plan
from sketchlsq.solver import (
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
from oracles import known_spectrum_matrix


@pytest.fixture(scope="module")
def gaussian_problem():
    spec = ProblemSpec(kind=KIND_GAUSSIAN, n=1024, d=8, kappa=10.0, gamma=0.9, seed=3)
    return gen_problem(spec)


def _params(eps=0.5, r=256, k=128, q=1.0):
    return SketchParams(epsilon=eps, r=r, k=k, q=q)


def test_problem_validation():
    with pytest.raises(Exception):
        LsProblem(a=np.ones((2, 3)), b=np.ones(2))


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
    u = orthonormal_basis(rng.standard_normal((64, 4)))
    b = rng.standard_normal(64)
    bperp = project_out(u, b)
    z = float(np.linalg.norm(bperp))
    check = verify_conditions(u, bperp, z, eps=0.5)
    assert np.abs(check.sigma_xu - 1.0).max() <= 1e-10
    assert check.cross_term <= 1e-20
    assert check.embedding_ok and check.cross_term_ok


def test_verify_conditions_z_zero_boundary():
    u = np.eye(4)[:, :2]
    check = verify_conditions(u, np.zeros(4), z=0.0, eps=0.5)
    assert check.cross_term_ok  # cross term is exactly zero
    check2 = verify_conditions(u, np.array([1.0, 0, 0, 0]), z=0.0, eps=0.5)
    assert not check2.cross_term_ok


def test_gamma_fraction_cases():
    rng = np.random.default_rng(3)
    u = orthonormal_basis(rng.standard_normal((32, 3)))
    inside = u @ np.array([1.0, 2.0, -1.0])
    assert gamma_fraction(u, inside) == pytest.approx(1.0, abs=1e-12)
    outside = project_out(u, rng.standard_normal(32))
    assert gamma_fraction(u, outside) == pytest.approx(0.0, abs=1e-12)


def test_gamma_fraction_three_four_five():
    rng = np.random.default_rng(4)
    u = orthonormal_basis(rng.standard_normal((32, 3)))
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


def test_cgnr_orthonormal_single_step():
    rng = np.random.default_rng(6)
    m = orthonormal_basis(rng.standard_normal((50, 5)))
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
    m = orthonormal_basis(rng.standard_normal((40, 3)))
    v = project_out(m, rng.standard_normal(40))
    x = cgnr_solve(m, v, tol=1e-10)
    assert np.abs(x).max() <= 1e-10


def test_cgnr_iteration_cap():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((30, 6))
    v = rng.standard_normal(30)
    with pytest.raises(ConvergenceFailure):
        cgnr_solve(m, v, tol=1e-14, max_iter=1)


def test_cgnr_small_solver_path(gaussian_problem):
    out_qr = sketch_solve_sampling(gaussian_problem, _params(), 5)
    out_cg = sketch_solve_sampling(gaussian_problem, _params(), 5, small_solver="cgnr")
    assert np.linalg.norm(out_qr.x_tilde - out_cg.x_tilde) <= 1e-6 * np.linalg.norm(
        out_qr.x_tilde
    )


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
    u = orthonormal_basis(gaussian_problem.a)
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


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
@pytest.mark.parametrize("solve", [sketch_solve_sampling, sketch_solve_projection])
def test_norms_survive_extreme_scales(gaussian_problem, solve, scale):
    # A plain sum of squares overflows to inf above ~1e154 and loses every
    # digit below ~1e-154; every norm must scale with the data instead.
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
# when the diagnostics still ran a Jacobi eigensolve and numpy norms. Neither
# the diagnostics nor the rounding of a norm may move a solution or the
# best_of pick.
_PINNED_SOLUTION_DIGEST = "b4ffe6fa3341386c95702a8ded32928f7ce4005d815c415e866ffb3a3306d305"


def _bytes_corpus(diagnostics):
    """Both methods on every problem kind at n = 1024 and the padded 1025,
    best_of with m = 3, and a 9 x 6 cell where the first draw of some seeds
    loses rank and the solve retries."""
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
    outs += [sketch_solve_sampling(tiny, SketchParams(epsilon=0.5, r=9), s,
                                   diagnostics=diagnostics) for s in (0, 1)]
    outs += [sketch_solve_projection(tiny, SketchParams(epsilon=0.5, k=6, q=0.15), s,
                                     diagnostics=diagnostics) for s in (9, 11)]
    return outs


def _solution_digest(outs) -> str:
    h = hashlib.sha256()
    for out in outs:
        h.update(out.x_tilde.tobytes())
        h.update(out.retries.to_bytes(1, "little"))
    return h.hexdigest()


def test_solution_bytes_pinned():
    plain = _bytes_corpus(diagnostics=False)
    certified = _bytes_corpus(diagnostics=True)
    assert [o.retries for o in plain[-4:]] == [1, 0, 1, 0]
    assert all(o.diagnostics is not None for o in certified)
    assert _solution_digest(certified) == _solution_digest(plain)
    assert _solution_digest(plain) == _PINNED_SOLUTION_DIGEST
