import math

import numpy as np
import pytest

import sketchlsq.approx_matmul as approx_matmul
from sketchlsq.approx_matmul import (
    ColumnSampler,
    _draw_indices,
    approx_gram,
    c_lower_bound,
    column_probabilities,
    exactly_c,
    gram_error,
    matmul_error,
    rescale_to_unit_spectral,
    require_unit_spectral,
    spectral_norm_estimate,
    theory_sample_size,
    uniform_probabilities,
)
from sketchlsq.errors import (
    DimensionMismatch,
    FrobeniusTooSmall,
    InvalidSpec,
    SpectralNormTooLarge,
    ZeroMatrix,
)


def test_probabilities_equal_norm_columns():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])  # all columns unit norm
    assert np.allclose(column_probabilities(a), 1.0 / 3.0, atol=1e-15)


def test_probabilities_hand_case():
    probs = column_probabilities(np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(probs, [0.2, 0.8], atol=1e-15)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    probs = column_probabilities(rng.standard_normal((5, 40)))
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_probabilities_zero_matrix():
    with pytest.raises(ZeroMatrix):
        column_probabilities(np.zeros((3, 3)))


def test_uniform_probabilities_effective_beta():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    probs, beta = uniform_probabilities(a)
    assert np.allclose(probs, 0.5)
    # Heaviest column holds 4/5 of the mass: 0.5 >= beta * 0.8 at beta = 5/8.
    assert beta == pytest.approx(0.625, rel=1e-12)
    ColumnSampler(probs=probs, c=10, beta=beta).validate_floor(a)


def test_sampler_validation():
    with pytest.raises(InvalidSpec):
        ColumnSampler(probs=np.array([0.5, 0.4]), c=1, beta=1.0)  # sums to 0.9
    with pytest.raises(InvalidSpec):
        ColumnSampler(probs=np.array([1.0]), c=0, beta=1.0)
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    bad = ColumnSampler(probs=np.array([0.9, 0.1]), c=4, beta=1.0)
    with pytest.raises(InvalidSpec):
        bad.validate_floor(a)  # p_2 = 0.1 < 0.8


def test_single_column_degenerate():
    a = np.array([[3.0], [4.0]])
    sampler = ColumnSampler.norm_squared(a, c=7)
    c_mat = exactly_c(a, sampler, seed=0)
    assert c_mat.shape == (2, 7)
    # Every draw is the single column divided by sqrt(c).
    assert np.allclose(c_mat, a / math.sqrt(7.0), atol=1e-15)
    assert np.allclose(c_mat @ c_mat.T, a @ a.T, atol=1e-12)
    assert matmul_error(a, c_mat) <= 1e-12


def test_exactly_c_unbiased():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))
    sampler = ColumnSampler.norm_squared(a, c=12)
    target = a @ a.T
    samples = np.empty((5000, 4, 4))
    for s in range(5000):
        c_mat = exactly_c(a, sampler, seed=s)
        samples[s] = c_mat @ c_mat.T
    mean = samples.mean(axis=0)
    se = samples.std(axis=0) / math.sqrt(5000)
    assert (np.abs(mean - target) <= 3.0 * se + 1e-12).all()


def test_exactly_c_index_frequencies():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    sampler = ColumnSampler.norm_squared(a, c=10000)
    c_mat = exactly_c(a, sampler, seed=3)
    # Column 1 contributes value 1/sqrt(c p_0) in row 0: count them.
    hits_col0 = int((c_mat[0] != 0).sum())
    p0 = 0.2
    sigma = math.sqrt(10000 * p0 * (1 - p0))
    assert abs(hits_col0 - 10000 * p0) <= 3 * sigma


def test_exactly_c_deterministic():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 8))
    sampler = ColumnSampler.norm_squared(a, c=20)
    assert np.array_equal(exactly_c(a, sampler, 4), exactly_c(a, sampler, 4))


def test_approx_gram_matches_materialized():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 30))
    sampler = ColumnSampler.norm_squared(a, c=200)
    c_mat = exactly_c(a, sampler, seed=8)
    gram = approx_gram(a, sampler, seed=8)
    assert np.abs(gram - c_mat @ c_mat.T).max() <= 1e-10


@pytest.mark.parametrize("c, hits_every_column", [(400, True), (6, False)])
def test_approx_gram_equals_the_gather_in_every_layout(c, hits_every_column):
    # A draw that hits every column multiplies A itself; its bytes must be
    # those of the gathered columns for C-ordered, F-ordered and strided A.
    wide = np.random.default_rng(12).standard_normal((6, 40))
    for a in (np.ascontiguousarray(wide[:, :20]), np.asfortranarray(wide[:, :20]), wide[:, ::2]):
        sampler = ColumnSampler.norm_squared(a, c=c)
        counts = np.bincount(_draw_indices(sampler, 3), minlength=20)
        live = counts > 0
        assert live.all() == hits_every_column
        cols = a[:, live]
        gathered = (cols * (counts[live] / (c * sampler.probs[live]))) @ cols.T
        assert approx_gram(a, sampler, 3).tobytes() == gathered.tobytes()


class _InjectedUniforms:
    """Stands in for a random stream, handing out fixed uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.resize(self.u, size)


def test_draw_past_the_rounded_cdf_takes_a_live_column(monkeypatch):
    # The probabilities of this matrix sum to just below 1, and its last
    # column has p = 0. A uniform above the sum once drew that column and
    # gave 1/(c p) = inf and a NaN estimate.
    a = np.random.default_rng(2).standard_normal((4, 300))
    a[:, -1] = 0.0
    sampler = ColumnSampler.norm_squared(a, c=5)
    assert np.cumsum(sampler.probs)[-1] < 1.0
    top = np.nextafter(1.0, 0.0)
    monkeypatch.setattr(approx_matmul, "stream", lambda seed, label: _InjectedUniforms([top]))
    assert (_draw_indices(sampler, 0) == 298).all()
    c_mat = exactly_c(a, sampler, 0)
    column = a[:, 298:299] / np.sqrt(5 * sampler.probs[298])
    assert c_mat.tobytes() == np.repeat(column, 5, axis=1).tobytes()
    gram = approx_gram(a, sampler, 0)
    assert np.isfinite(gram).all()
    assert np.allclose(gram, c_mat @ c_mat.T, rtol=1e-13, atol=0.0)


def test_injected_uniforms_inside_the_cdf_keep_their_columns(monkeypatch):
    a = np.random.default_rng(2).standard_normal((4, 300))
    a[:, -1] = 0.0
    sampler = ColumnSampler.norm_squared(a, c=4)
    cum = np.cumsum(sampler.probs)
    u = [0.0, cum[10], cum[150] - 1e-12, cum[298] * (1 - 2**-50)]
    monkeypatch.setattr(approx_matmul, "stream", lambda seed, label: _InjectedUniforms(u))
    assert _draw_indices(sampler, 0).tolist() == [0, 11, 150, 298]


def test_c_lower_bound_value():
    # 96*4/(1*0.25) = 1536; ceil(1536*ln(1536/sqrt(0.1))) = 13038.
    assert c_lower_bound(4.0, 1.0, 0.5, 0.1) == 13038


def test_c_lower_bound_monotone_in_frobenius():
    c1 = c_lower_bound(2.0, 1.0, 0.5, 0.1)
    c2 = c_lower_bound(4.0, 1.0, 0.5, 0.1)
    assert c2 > 2 * c1  # superlinear through the log factor


def test_c_lower_bound_frobenius_hypothesis():
    with pytest.raises(FrobeniusTooSmall):
        c_lower_bound(1.0 / 48.0, 1.0, 0.5, 0.1)


def test_matmul_error_extremes():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 10))
    assert matmul_error(a, a) <= 1e-10
    sv_max = np.linalg.svd(a, compute_uv=False)[0]
    err = gram_error(a, np.zeros((4, 4)))
    assert err == pytest.approx(sv_max**2, rel=1e-5)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_gram_error_takes_estimates_symmetric_to_their_own_rounding(scale):
    # approx_gram's GEMM leaves its estimate asymmetric by its own rounding,
    # 2e-7 at scale 1e3 and 0.22 at 1e6, past an absolute 1e-10; so is a
    # Gram matrix from two separate operands, whose difference from A A^T
    # is all rounding.
    a = np.random.default_rng(1).standard_normal((64, 4096)) * scale
    g = approx_gram(a, ColumnSampler.norm_squared(a, c=500), 1)
    assert gram_error(a, g) == pytest.approx(np.linalg.norm(a @ a.T - g, 2), rel=1e-12)
    assert gram_error(a, a @ a.T.copy()) <= 1e-13 * np.linalg.norm(a, 2) ** 2


def test_gram_error_rejects_an_asymmetric_estimate():
    a = np.random.default_rng(2).standard_normal((8, 64)) * 1e6
    g = a @ a.T
    g[0, 1] += 1e-8 * np.abs(g).max()
    with pytest.raises(DimensionMismatch, match="symmetric"):
        gram_error(a, g)


def test_rescale_and_require():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 40))
    scaled = rescale_to_unit_spectral(a)
    require_unit_spectral(scaled)  # should not raise
    assert spectral_norm_estimate(scaled) <= 1.0 + 1e-8
    with pytest.raises(SpectralNormTooLarge):
        require_unit_spectral(2.0 * scaled)
    with pytest.raises(ZeroMatrix):
        rescale_to_unit_spectral(np.zeros((2, 2)))


def test_theory_sample_size_checks_hypotheses():
    rng = np.random.default_rng(17)
    a = rescale_to_unit_spectral(rng.standard_normal((8, 100)))
    sampler = ColumnSampler.norm_squared(a, c=1)
    c = theory_sample_size(a, eps=0.5, delta=0.1, sampler=sampler)
    frob_sq = float(np.sum(a * a))
    assert c == c_lower_bound(frob_sq, 1.0, 0.5, 0.1)
    with pytest.raises(SpectralNormTooLarge):
        theory_sample_size(3.0 * a, eps=0.5, delta=0.1, sampler=sampler)


@pytest.mark.parametrize("power", [600, -600])
def test_energies_and_norm_at_extreme_entry_scales(power):
    # At 2^600 the squares overflow float64, at 2^-600 they underflow to 0;
    # both are taken from A scaled by one exact power of two instead.
    a = np.random.default_rng(0).standard_normal((8, 64))
    far = np.ldexp(a, power)
    assert column_probabilities(far).tobytes() == column_probabilities(a).tobytes()
    assert uniform_probabilities(far)[1] == uniform_probabilities(a)[1]
    m = ColumnSampler.norm_squared(a, 10).validate_floor(a)
    assert ColumnSampler.norm_squared(far, 10).validate_floor(far) == math.ldexp(m, power)
    norm = math.ldexp(spectral_norm_estimate(a), power)
    assert spectral_norm_estimate(far) == pytest.approx(norm, rel=4 * np.finfo(float).eps)
    assert spectral_norm_estimate(rescale_to_unit_spectral(far)) == pytest.approx(1.0, rel=1e-9)


def test_norms_past_float64_raise_a_named_error():
    # ||A||_F = ||A||_2 = 2^1024.5 for this rank-one A: past the largest double.
    a = np.full((8, 64), 2.0**1020)
    sampler = ColumnSampler.norm_squared(a, 10)
    with pytest.raises(InvalidSpec, match="M overflows"):
        sampler.validate_floor(a)
    with pytest.raises(InvalidSpec, match=r"\|\|A\|\|_2 overflows"):
        spectral_norm_estimate(a)


def test_gram_products_that_overflow_raise_a_named_error():
    a = np.ldexp(np.random.default_rng(0).standard_normal((8, 64)), 600)
    with pytest.raises(InvalidSpec, match=r"C C\^T overflows"):
        approx_gram(a, ColumnSampler.norm_squared(a, 10), 0)
    with pytest.raises(InvalidSpec, match=r"C C\^T overflows"):
        matmul_error(a, a)
    with pytest.raises(InvalidSpec, match=r"A A\^T overflows"):
        gram_error(a, np.zeros((8, 8)))


@pytest.mark.parametrize(
    "probs, c, message",
    [
        ([np.nan, np.nan], 3, "nonnegative"),
        ([0.5, np.nan], 3, "nonnegative"),
        ([0.5, 0.5], 1.5, "c must be an integer"),
        ([0.5, 0.5], True, "c must be an integer"),
    ],
    ids=["nan-probs", "one-nan", "fractional-c", "bool-c"],
)
def test_sampler_rejects_nan_probabilities_and_a_non_integer_c(probs, c, message):
    with pytest.raises(InvalidSpec, match=message):
        ColumnSampler(probs=np.array(probs), c=c, beta=1.0)


def test_sampler_takes_a_numpy_integer_c_as_an_int():
    sampler = ColumnSampler(probs=np.array([0.5, 0.5]), c=np.int64(3), beta=1.0)
    assert type(sampler.c) is int and sampler.c == 3
