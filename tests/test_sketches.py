import math

import numpy as np
import pytest

from sketchlsq.errors import (
    DimensionMismatch,
    InvalidEpsilon,
    InvalidSparsity,
    InvalidSpec,
)
from sketchlsq.sketches import (
    MODE_THEORY,
    SamplingPlan,
    SketchParams,
    apply_sampling,
    apply_sparse_projection,
    draw_sampling_plan,
    draw_sparse_projection,
    identity_plan,
    projection_params,
    sampling_size_r,
)
from oracles import dense_projection_product


# --- size formulas ---------------------------------------------------------


def test_sampling_size_formula_value():
    # Direct arithmetic at a scale where the formula stays below n:
    # 48^2*10*ln(40*2^28*10)*ln(100^2*10*ln(40*2^28*10)) = 8630424.807...
    got = sampling_size_r(2**28, 10, 0.1)
    assert got == (8630425, False)


def test_sampling_size_clamps_to_n():
    got = sampling_size_r(2**20, 10, 0.1)
    assert got == (2**20, True)
    # 48^2*8*ln(40*1024*8)*ln(100^2*8*ln(40*1024*8)) ~ 3.2e6 >> 1024
    assert sampling_size_r(1024, 8, 0.5) == (1024, True)


def test_sampling_size_monotone_in_eps():
    r_loose = sampling_size_r(2**28, 10, 0.2).value
    r_tight = sampling_size_r(2**28, 10, 0.1).value
    assert r_tight >= r_loose


def test_sampling_size_invalid_eps():
    with pytest.raises(InvalidEpsilon):
        sampling_size_r(16, 2, 0.0)
    with pytest.raises(InvalidEpsilon):
        sampling_size_r(16, 2, 1.0)


def test_projection_params_values():
    # Direct arithmetic: q = 8*ln(40*2^20*8)/2^20*(2*ln(2^20)+16*8+16),
    # k = max(118^2*8 + 98^2, 60*8/0.25).
    q, k, clamped = projection_params(2**20, 8, 0.25)
    assert q == pytest.approx(0.02572018685862331, rel=1e-14)
    assert k == 120996
    assert not clamped


def test_projection_params_clamps():
    q, k, clamped = projection_params(1024, 8, 0.25)
    assert q == 1.0
    assert k == 1024
    assert clamped


def test_projection_q_above_coupon_floor():
    # Whenever c_q*d*(2 ln n + 16 d + 16) >= 2, the q expression dominates
    # 2 ln(40nd)/n term by term.
    for n, d in [(2**20, 8), (2**26, 4), (2**14, 2)]:
        q, _, _ = projection_params(n, d, 0.25)
        floor = 2.0 * math.log(40.0 * n * d) / n
        assert q >= min(1.0, floor)


def test_projection_k_doubles_when_eps_halves():
    # With eps small enough that the 60 d / eps branch dominates.
    _, k1, _ = projection_params(2**20, 8, 0.002)
    _, k2, _ = projection_params(2**20, 8, 0.001)
    assert k2 == 2 * k1


def test_projection_invalid_eps():
    with pytest.raises(InvalidEpsilon):
        projection_params(64, 4, 0.5)


def test_theory_params_carry_clamp_flag():
    params = SketchParams.theory(1024, 8, 0.25)
    assert params.mode == MODE_THEORY
    assert params.theory_clamped
    assert params.r == 1024 and params.k == 1024 and params.q == 1.0


def test_practical_params_desk_scale():
    params = SketchParams.practical(1024, 8, 0.5)
    # ceil(4*8*ln(40*1024*8)) = 407; ceil(4*8/0.5) = 64; q expression
    # exceeds 1 at this scale so it caps.
    assert params.r == 407
    assert params.k == 64
    assert params.q == 1.0


def test_with_overrides_replaces_only_given_sizes():
    practical = SketchParams.practical(1024, 8, 0.5)
    assert SketchParams.with_overrides(1024, 8, 0.5) == practical
    params = SketchParams.with_overrides(1024, 8, 0.5, k=100, q=0.25)
    assert (params.r, params.k, params.q) == (practical.r, 100, 0.25)
    assert params.mode == practical.mode
    # Theory sizes ignore the overrides.
    theory = SketchParams.with_overrides(1024, 8, 0.25, theory=True, r=50)
    assert theory == SketchParams.theory(1024, 8, 0.25)
    with pytest.raises(InvalidSparsity):
        SketchParams.with_overrides(1024, 8, 0.5, q=2.0)


def test_sketch_params_validation():
    with pytest.raises(InvalidEpsilon):
        SketchParams(epsilon=1.5)
    with pytest.raises(InvalidSparsity):
        SketchParams(epsilon=0.5, q=0.0)
    with pytest.raises(InvalidSpec):
        SketchParams(epsilon=0.5, r=0)
    with pytest.raises(InvalidSpec):
        SketchParams(epsilon=0.5, mode="bogus")


# --- sampling plans --------------------------------------------------------


def test_plan_determinism():
    p1 = draw_sampling_plan(1000, 64, 5)
    p2 = draw_sampling_plan(1000, 64, 5)
    assert np.array_equal(p1.indices, p2.indices)
    assert not np.array_equal(p1.indices, draw_sampling_plan(1000, 64, 6).indices)


def test_plan_with_replacement_has_duplicates():
    plan = draw_sampling_plan(64, 64, 9)
    assert len(set(plan.indices.tolist())) < 64  # birthday bound


def test_plan_scale_law():
    plan = draw_sampling_plan(1000, 30, 0)
    assert plan.scale**2 * plan.r == pytest.approx(1000.0, rel=1e-12)


def test_plan_frequency_band():
    # binomial(16000, 1/16): mean 1000, 6 sigma ~ 183.
    plan = draw_sampling_plan(16, 16000, 2024)
    counts = np.bincount(plan.indices, minlength=16)
    assert counts.min() >= 800 and counts.max() <= 1200


def test_plan_validation():
    with pytest.raises(InvalidSpec):
        SamplingPlan(n=8, r=2, indices=np.array([0, 8]), scale=2.0)
    with pytest.raises(InvalidSpec):
        SamplingPlan(n=8, r=2, indices=np.array([0, 1]), scale=1.0)


def test_identity_plan_is_exact():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((16, 3))
    assert np.array_equal(apply_sampling(identity_plan(16), m), m)


def test_apply_sampling_ones_column():
    plan = draw_sampling_plan(64, 16, 3)
    out = apply_sampling(plan, np.ones((64, 1)))
    assert np.allclose(out, math.sqrt(64 / 16))


def test_apply_sampling_rows_and_scale():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((32, 4))
    plan = draw_sampling_plan(32, 8, 1)
    out = apply_sampling(plan, m)
    assert np.array_equal(out, m[plan.indices] * plan.scale)


def test_apply_sampling_unbiased_norm():
    # E ||S^T v||^2 = ||v||^2 under uniform with-replacement sampling.
    rng = np.random.default_rng(17)
    v = rng.standard_normal(8)
    target = np.linalg.norm(v) ** 2
    estimates = []
    for seed in range(2000):
        plan = draw_sampling_plan(8, 16, seed)
        estimates.append(np.linalg.norm(apply_sampling(plan, v.reshape(-1, 1))) ** 2)
    assert np.mean(estimates) == pytest.approx(target, rel=0.05)


def test_apply_sampling_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_sampling(draw_sampling_plan(8, 4, 0), np.ones((9, 2)))


# --- sparse projections ----------------------------------------------------


def test_sparse_determinism():
    t1 = draw_sparse_projection(32, 64, 0.25, 11)
    t2 = draw_sparse_projection(32, 64, 0.25, 11)
    assert np.array_equal(t1.rows, t2.rows)
    assert np.array_equal(t1.cols, t2.cols)
    assert np.array_equal(t1.signs, t2.signs)


def test_sparse_q1_is_dense():
    t = draw_sparse_projection(4, 8, 1.0, 0)
    assert t.nnz == 32
    assert np.allclose(np.abs(t.values), 1.0 / math.sqrt(4.0))
    dense = t.dense()
    assert (dense != 0).all()


def test_sparse_magnitude_and_unique_cells():
    t = draw_sparse_projection(16, 128, 0.3, 5)
    assert t.magnitude == pytest.approx(1.0 / math.sqrt(16 * 0.3), rel=1e-15)
    assert set(np.unique(t.signs)) <= {-1.0, 1.0}
    cells = set(zip(t.rows.tolist(), t.cols.tolist()))
    assert len(cells) == t.nnz  # no duplicate coordinates


def test_sparse_nonzero_count_concentrates():
    k, n, q = 32, 256, 0.125
    counts = [draw_sparse_projection(k, n, q, s).nnz for s in range(100)]
    mean = k * n * q
    sigma = math.sqrt(k * n * q * (1 - q))
    assert abs(np.mean(counts) - mean) <= 3 * sigma / math.sqrt(100)


def test_sparse_skip_path_distribution():
    # q below the skip-sampling threshold exercises the geometric-gap path.
    k, n, q = 64, 512, 0.01
    counts = [draw_sparse_projection(k, n, q, s).nnz for s in range(200)]
    mean = k * n * q
    sigma = math.sqrt(k * n * q * (1 - q))
    assert abs(np.mean(counts) - mean) <= 3 * sigma / math.sqrt(200)
    t = draw_sparse_projection(k, n, q, 0)
    cells = set(zip(t.rows.tolist(), t.cols.tolist()))
    assert len(cells) == t.nnz


def test_sparse_invalid_q():
    with pytest.raises(InvalidSparsity):
        draw_sparse_projection(4, 8, 0.0, 0)
    with pytest.raises(InvalidSparsity):
        draw_sparse_projection(4, 8, 1.5, 0)


def test_apply_sparse_single_triplet():
    t = draw_sparse_projection(3, 3, 0.2, 1)
    t = type(t)(
        k=3, n=3, q=0.2,
        rows=np.array([0], dtype=np.int32),
        cols=np.array([0], dtype=np.int32),
        signs=np.array([1.0]),
        magnitude=t.magnitude,
        seed=1,
    )
    out = apply_sparse_projection(t, np.eye(3))
    expected = np.zeros((3, 3))
    expected[0, 0] = t.magnitude
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("q", [0.015, 0.25, 1.0])
def test_apply_sparse_matches_triple_loop(q):
    rng = np.random.default_rng(31)
    m = rng.standard_normal((8, 8))
    t = draw_sparse_projection(8, 8, q, 99)
    got = apply_sparse_projection(t, m)
    want = dense_projection_product(t.dense(), m)
    assert np.abs(got - want).max() <= 1e-14


def test_apply_sparse_vector_matches_matrix():
    rng = np.random.default_rng(41)
    v = rng.standard_normal(64)
    t = draw_sparse_projection(16, 64, 0.3, 2)
    as_vec = apply_sparse_projection(t, v)
    as_mat = apply_sparse_projection(t, v.reshape(-1, 1))[:, 0]
    assert np.allclose(as_vec, as_mat, atol=1e-14)


def test_apply_sparse_norm_unbiased():
    # E ||T x||^2 = ||x||^2 from the second moment of a single entry.
    rng = np.random.default_rng(55)
    x = rng.standard_normal(128)
    target = np.linalg.norm(x) ** 2
    acc = 0.0
    trials = 5000
    for seed in range(trials):
        t = draw_sparse_projection(64, 128, 0.25, seed)
        acc += np.linalg.norm(apply_sparse_projection(t, x)) ** 2
    assert acc / trials == pytest.approx(target, rel=0.03)


def test_apply_sparse_dimension_mismatch():
    t = draw_sparse_projection(4, 8, 0.5, 0)
    with pytest.raises(DimensionMismatch):
        apply_sparse_projection(t, np.ones(9))


def test_sparse_jl_norm_preservation():
    # Closed-form (q, k) at n=4096, d=8, eps=0.25 clamp to q=1, k=n; the
    # drawn operator must keep a well-spread unit vector's norm within eps
    # on at least 90% of seeds.
    from sketchlsq.ensembles import sparse_jl

    result = sparse_jl(n=4096, d=8, eps=0.25, seeds=200, base_seed=0)
    assert result.rate >= 0.90
