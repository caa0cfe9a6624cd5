import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import sketchlsq.sketches as sketches
from sketchlsq import ensembles

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
from sketchlsq.rng import stream
from oracles import (
    dense_projection_product,
    frozen_sparse_projection,
    per_pair_moment_bound,
    reference_projection_product,
    reference_skip_projection,
    reference_sparse_projection,
)


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


@pytest.mark.parametrize("size", [40.5, True, np.float64(40.0), "40"])
@pytest.mark.parametrize("name", ["r", "k"])
def test_sketch_sizes_take_integers_only(name, size):
    # int() would alias 40.5 to 40 and True to 1.
    with pytest.raises(InvalidSpec, match="integer"):
        SketchParams(epsilon=0.5, **{name: size})


def test_sketch_sizes_take_numpy_integers():
    params = SketchParams(epsilon=0.5, r=np.int64(40), k=np.int32(40))
    assert (params.r, params.k) == (40, 40)


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


def test_plan_rejects_a_nan_scale():
    with pytest.raises(InvalidSpec, match="scale"):
        SamplingPlan(n=4, r=2, indices=np.array([0, 1]), scale=math.nan)


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
    # A q this small leaves many rows with few or no nonzero cells.
    k, n, q = 64, 512, 0.01
    counts = [draw_sparse_projection(k, n, q, s).nnz for s in range(200)]
    mean = k * n * q
    sigma = math.sqrt(k * n * q * (1 - q))
    assert abs(np.mean(counts) - mean) <= 3 * sigma / math.sqrt(200)
    t = draw_sparse_projection(k, n, q, 0)
    cells = set(zip(t.rows.tolist(), t.cols.tolist()))
    assert len(cells) == t.nnz


def test_sparse_draw_at_vanishing_q():
    # Geometric gaps this large overflow int64 unless the draw caps them.
    for q in (1e-300, 1e-18):
        t = draw_sparse_projection(2, 4, q, 0)
        assert t.nnz == 0 and t.indptr.tolist() == [0, 0, 0]


def test_sparse_invalid_q():
    with pytest.raises(InvalidSparsity):
        draw_sparse_projection(4, 8, 0.0, 0)
    with pytest.raises(InvalidSparsity):
        draw_sparse_projection(4, 8, 1.5, 0)


_PINNED_PRODUCT_DIGEST = "3bfd2135dc74d1a1cbb6a1e70b2efcc8e0280d59d20950ba0ceae3f5a7c505e9"


def test_apply_sparse_single_triplet():
    t = draw_sparse_projection(3, 3, 0.2, 1)
    t = type(t)(
        k=3, n=3, q=0.2,
        indptr=np.array([0, 1, 1, 1], dtype=np.int32),
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


def test_apply_sparse_bytes_pinned(monkeypatch):
    # Matrix, 1-D, one-column and Fortran operands, whole and in row runs
    # (nnz above and below `_CHUNK`); the digest predates scipy's public
    # operator, taken on its private CSR kernel.
    h = hashlib.sha256()
    for k, n, q in [(7, 1025, 0.3), (32, 256, 0.125), (1, 64, 0.5), (160, 2**12, 0.3)]:
        t = draw_sparse_projection(k, n, q, 5)
        m = np.random.default_rng(k).standard_normal((n, 6))
        for chunk in (1, t.nnz + 1):
            monkeypatch.setattr(sketches, "_CHUNK", chunk)
            for operand in (m, m[:, 0], m[:, :1], np.asfortranarray(m)):
                h.update(apply_sparse_projection(t, operand).tobytes())
    assert h.hexdigest() == _PINNED_PRODUCT_DIGEST


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


@pytest.mark.parametrize("n", [1, 3, 64, 1025, 2**12])
@pytest.mark.parametrize("k", [1, 7, 160])
@pytest.mark.parametrize("q", [0.015, 0.2, 0.5, 1.0])
def test_csr_draw_matches_triplet_reference_bit_exact(monkeypatch, q, k, n):
    # Batches of 1, 3n and 11n gaps put a batch boundary after every gap and
    # in the middle of rows, and the real batch size covers the single-batch
    # case; q = 1 draws no gaps.
    reference = reference_sparse_projection if q == 1.0 else reference_skip_projection
    rows, cols, signs = reference(k, n, q, 17)
    rng = np.random.default_rng(k * n)
    m = rng.standard_normal((n, 5))
    magnitude = 1.0 / math.sqrt(k * q)
    want_mat = reference_projection_product(k, n, rows, cols, signs, magnitude, m)
    want_vec = reference_projection_product(k, n, rows, cols, signs, magnitude, m[:, 0])
    for chunk in (1, 3 * n, 11 * n, sketches._CHUNK):
        monkeypatch.setattr(sketches, "_CHUNK", chunk)
        t = draw_sparse_projection(k, n, q, 17)
        assert np.array_equal(t.rows, rows)
        assert np.array_equal(t.cols, cols)
        assert np.array_equal(t.signs, signs)
        assert t.magnitude == magnitude
        assert np.array_equal(apply_sparse_projection(t, m), want_mat)
        assert np.array_equal(apply_sparse_projection(t, m[:, 0]), want_vec)


def _draw_digest(t):
    """SHA-256 of (indptr as int64, cols as int32, signs as float64)."""
    h = hashlib.sha256()
    for a, dtype in ((t.indptr, "<i8"), (t.cols, "<i4"), (t.signs, "<f8")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


# Digests of three draws computed with the triplet draw (one k x n grid of
# uniforms, indptr from its per-row counts) before the draw moved to CSR
# and then to geometric skips. The frozen draw must still give them, since
# the pinned solve and ensemble digests were taken on it; the current draw
# gives them at q = 1 only.
_PINNED_DRAWS = [
    ((64, 256, 0.2, 5), "9d519649293f726c944929174cbaf8f68d177c234e03c40ed8a381a9e4b1b3f7"),
    ((64, 512, 0.01, 0), "b2beec3500b2f9d41db86e0653331f529dd307a3e7f56b1c309a976e15886a28"),
    ((4, 8, 1.0, 0), "bb8318b58f2ae80c21bd8c3555e0b807c0d70b2d89213d706ef3764580865d02"),
]


@pytest.mark.parametrize("args, digest", _PINNED_DRAWS)
def test_sparse_draw_bytes_pinned(args, digest):
    assert _draw_digest(frozen_sparse_projection(*args)) == digest
    if args[2] == 1.0:
        assert _draw_digest(draw_sparse_projection(*args)) == digest


# Digests of the q < 1 draws above, computed when geometric skips replaced
# one uniform per cell. A change here re-rolls every projection ensemble,
# so it must be deliberate.
_PINNED_SKIP_DRAWS = [
    ((64, 256, 0.2, 5), "c145ba98dbb0ad9ba25c01c865486280e597a7f7863ecd3dec5932a23fcbe93f"),
    ((64, 512, 0.01, 0), "89619c43b6b2240cab8d173eb370f6f996a16c1b2a9db1af04faa62ae88e97a0"),
]


@pytest.mark.parametrize("args, digest", _PINNED_SKIP_DRAWS)
def test_skip_draw_bytes_pinned(args, digest):
    assert _draw_digest(draw_sparse_projection(*args)) == digest


@pytest.mark.parametrize("n", [1024, 1000])
@pytest.mark.parametrize("q", [0.015, 0.2, 0.5])
def test_skip_draw_matches_its_distribution(q, n):
    # Every cell is nonzero independently with probability q, with a fair
    # sign: row counts are Binomial(n, q), every column is hit equally
    # often, and the signs balance. Each bound is ~5 standard errors.
    k, seeds = 64, 20
    draws = [draw_sparse_projection(k, n, q, s) for s in range(seeds)]
    counts = np.concatenate([np.diff(t.indptr) for t in draws]).astype(np.float64)
    mean, var = n * q, n * q * (1.0 - q)
    fourth = var * (1.0 + 3.0 * (n - 2) * q * (1.0 - q))  # binomial 4th central moment
    assert abs(counts.mean() - mean) <= 5.0 * math.sqrt(var / counts.size)
    assert abs(counts.var(ddof=1) - var) <= 5.0 * math.sqrt((fourth - var**2) / counts.size)
    # Column hits are independent Binomial(k * seeds, q): their spread
    # around the mean, over the binomial variance, is chi-square on n - 1.
    hits = np.bincount(np.concatenate([t.cols for t in draws]), minlength=n)
    chi2 = float(np.sum((hits - hits.mean()) ** 2) / (hits.mean() * (1.0 - q)))
    lo, hi = scipy.stats.chi2.ppf([1e-6, 1.0 - 1e-6], n - 1)
    assert lo <= chi2 <= hi
    signs = np.concatenate([t.signs for t in draws])
    assert abs(signs.sum()) <= 5.0 * math.sqrt(signs.size)


# numpy's Generator.geometric inverts an exponential below q = 1/3 and
# searches the CDF from 1/3 on; the draw mirrors that split.
_BRANCH_EDGE = [float(np.nextafter(1.0 / 3.0, 0.0)), 1.0 / 3.0]


@pytest.mark.parametrize("q", [0.194, 0.3, 0.01, 1e-6, *_BRANCH_EDGE, 0.5, 0.9,
                               1e-12, 1e-300, 5e-324])
def test_gaps_are_numpys_geometric_variates(q):
    # Below 1/3 the gaps are numpy's inversion redone with log1p(-q) taken
    # once; a numpy that changes its branch point or algorithm fails here.
    # At subnormal q numpy returns INT64_MAX, which the cap absorbs.
    size, cap = 50_000, 2**40 + 1
    want = np.minimum(stream(8, "gaps").geometric(q, size=size), cap)
    got = sketches._geometric_gaps(stream(8, "gaps"), q, cap, np.empty(size),
                                   np.empty(size, dtype=np.int64))
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [64, 1025])
@pytest.mark.parametrize("k", [1, 7, 160])
@pytest.mark.parametrize("q", _BRANCH_EDGE)
def test_draw_matches_reference_at_the_geometric_branch_edge(monkeypatch, q, k, n):
    # The reference calls Generator.geometric itself, on either side of
    # numpy's branch point; n = 64 takes the column mask, n = 1025 the
    # remainder.
    rows, cols, signs = reference_skip_projection(k, n, q, 23)
    for chunk in (1, 3 * n, sketches._CHUNK):
        monkeypatch.setattr(sketches, "_CHUNK", chunk)
        t = draw_sparse_projection(k, n, q, 23)
        assert np.array_equal(t.rows, rows)
        assert np.array_equal(t.cols, cols)
        assert np.array_equal(t.signs, signs)


@pytest.mark.parametrize("n", [8, 1000, 4096])
@pytest.mark.parametrize("q", [1e-12, 1e-300, 5e-324])
def test_tiny_q_draws_no_nonzero_and_no_warning(q, n):
    # The exponential over -log1p(-q) overflows to inf at q = 5e-324; the
    # capped gap ends the draw quietly, as numpy's own INT64_MAX did.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = draw_sparse_projection(4, n, q, 3)
    assert t.nnz == 0
    assert np.array_equal(t.indptr, np.zeros(5))
    assert t.magnitude == 1.0 / math.sqrt(4 * q)


_POW2_N = st.sampled_from([2**e for e in range(13)])


@st.composite
def _projection_shapes(draw):
    """(k, n) with k n <= 4096, n a power of two or any size."""
    n = draw(st.one_of(_POW2_N, st.integers(1, 4096)))
    return draw(st.integers(1, 4096 // n)), n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    shape=_projection_shapes(),
    q=st.one_of(
        st.floats(1e-4, 1.0 / 3.0, exclude_max=True),
        st.floats(1.0 / 3.0, 1.0, exclude_max=True),
        st.sampled_from(_BRANCH_EDGE),
    ),
    seed=st.integers(0, 2**64 - 1),
)
def test_draw_matches_reference_property(shape, q, seed):
    k, n = shape
    rows, cols, signs = reference_skip_projection(k, n, q, seed)
    t = draw_sparse_projection(k, n, q, seed)
    assert np.array_equal(t.rows, rows)
    assert np.array_equal(t.cols, cols)
    assert np.array_equal(t.signs, signs)


def _one_per_row(**fields):
    """A valid 4 x 8 projection with one nonzero per row, with `fields`
    replaced."""
    valid = dict(
        k=4, n=8, q=0.5, indptr=np.array([0, 1, 2, 3, 4], dtype=np.int32),
        cols=np.array([0, 1, 2, 3], dtype=np.int32), signs=np.ones(4),
        magnitude=0.5, seed=0,
    )
    return sketches.SparseProjection(**{**valid, **fields})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"indptr": np.array([0, 1, 2, 4])}, "indptr must have shape"),
        ({"indptr": np.array([1, 1, 2, 3, 4])}, "indptr must run from 0 to 4"),
        ({"indptr": np.array([0, 1, 2, 3, 3])}, "indptr must run from 0 to 4"),
        ({"indptr": np.array([0, 3, 1, 3, 4])}, "non-decreasing"),
        ({"signs": np.ones(3)}, "equal length"),
        ({"cols": np.array([0, 1, 8, 3])}, "cols must lie in"),
        ({"cols": np.array([0, -1, 2, 3])}, "cols must lie in"),
        ({"magnitude": math.nan}, "magnitude must be positive and finite"),
        ({"magnitude": -1.0}, "magnitude must be positive and finite"),
        ({"magnitude": 0.0}, "magnitude must be positive and finite"),
        ({"magnitude": math.inf}, "magnitude must be positive and finite"),
    ],
    ids=["indptr-shape", "indptr-start", "indptr-end", "indptr-decreasing",
         "signs-length", "col-above-n", "col-negative", "magnitude-nan",
         "magnitude-negative", "magnitude-zero", "magnitude-inf"],
)
def test_malformed_projection_raises(fields, message):
    with pytest.raises(InvalidSpec, match=message):
        _one_per_row(**fields)


def test_sparse_jl_norm_preservation():
    # Closed-form (q, k) at n=4096, d=8, eps=0.25 clamp to q=1, k=n; the
    # drawn operator must keep a well-spread unit vector's norm within eps
    # on at least 90% of seeds.
    from sketchlsq.ensembles import sparse_jl

    result = sparse_jl(n=4096, d=8, eps=0.25, seeds=200, base_seed=0)
    assert result.rate >= 0.90


def test_moment_bound_draws_one_projection_per_seed(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return draw_sparse_projection(*args, **kwargs)

    monkeypatch.setattr(ensembles, "draw_sparse_projection", counted)
    ensembles.moment_bound(n=64, k=16, q=0.25, seeds=50, pairs=3)
    assert len(calls) == 50


@pytest.mark.parametrize("n,k,q,seeds,pairs,base_seed",
                         [(256, 32, 0.125, 1000, 3, 0), (64, 16, 0.25, 200, 2, 5)])
def test_moment_bound_matches_the_per_pair_loop(n, k, q, seeds, pairs, base_seed):
    want, want_deltas = per_pair_moment_bound(n, k, q, seeds, pairs, base_seed)
    assert ensembles.moment_bound(n, k, q, seeds, pairs, base_seed) == want
    _, deltas = ensembles._moment_deltas(n, k, q, seeds, pairs, base_seed)
    assert deltas.tobytes() == want_deltas.tobytes()
