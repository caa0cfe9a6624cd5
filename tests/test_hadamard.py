import numpy as np
import pytest

from oracles import counted_ops, reference_butterfly, reference_rht
from sketchlsq import hadamard
from sketchlsq.errors import DimensionMismatch, IndexOutOfRange, InvalidSpec, NotPowerOfTwo
from sketchlsq.hadamard import (
    apply_rht,
    fwht_normalized,
    next_pow2,
    pad_pow2,
    partial_rht_rows,
    sample_signs,
)
from sketchlsq.linalg import solve_exact_ls
from sketchlsq.rng import stream


def test_fwht_two_point():
    out = fwht_normalized([1.0, 0.0])
    assert np.allclose(out, [1.0 / np.sqrt(2.0)] * 2, atol=1e-15)
    out = fwht_normalized([1.0, -1.0])
    assert np.allclose(out, [0.0, np.sqrt(2.0)], atol=1e-15)


def test_fwht_constant_vector():
    assert np.allclose(fwht_normalized([1.0, 1.0, 1.0, 1.0]), [2.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("n", [2, 8, 64, 512, 4096])
def test_fwht_involution_and_isometry(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    y = fwht_normalized(x)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) <= 1e-12 * np.linalg.norm(x)
    assert np.abs(fwht_normalized(y) - x).max() <= 1e-12


def test_fwht_rejects_non_pow2():
    with pytest.raises(NotPowerOfTwo):
        fwht_normalized(np.ones(3))


def test_fwht_rejects_nan():
    with pytest.raises(ValueError):
        fwht_normalized(np.array([np.nan, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_transform_rejects_non_finite_input_with_a_typed_error(bad):
    x = np.ones((64, 2))
    x[5, 1] = bad
    signs = sample_signs(64, 0)
    with pytest.raises(InvalidSpec):
        fwht_normalized(x)
    with pytest.raises(InvalidSpec):
        apply_rht(x, signs)
    for rows in ([3], np.arange(32)):  # pruned descent, then the full fallback
        with pytest.raises(InvalidSpec):
            partial_rht_rows(x, signs, rows)


def test_fwht_matrix_matches_columns():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((64, 3))
    out = fwht_normalized(a)
    for j in range(3):
        assert np.array_equal(out[:, j], fwht_normalized(a[:, j]))


def test_apply_rht_first_hadamard_column():
    n = 16
    signs = sample_signs(n, 0)
    all_plus = type(signs)(signs=np.ones(n), seed=0)
    e1 = np.zeros((n, 1))
    e1[0, 0] = 1.0
    out = apply_rht(e1, all_plus)
    # First column of the normalized transform matrix is constant 1/sqrt(n).
    assert np.allclose(out[:, 0], 1.0 / np.sqrt(n), atol=1e-15)


def test_apply_rht_preserves_column_norms():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((128, 5))
    out = apply_rht(a, sample_signs(128, 3))
    for j in range(5):
        assert abs(np.linalg.norm(out[:, j]) - np.linalg.norm(a[:, j])) <= 1e-12 * np.linalg.norm(a[:, j])


def test_rht_round_trip():
    # Inverse of the transform is sign flip after a second transform.
    rng = np.random.default_rng(12)
    a = rng.standard_normal((64, 4))
    signs = sample_signs(64, 21)
    hda = apply_rht(a, signs)
    back = fwht_normalized(hda) * signs.signs[:, None]
    assert np.abs(back - a).max() <= 1e-12


def test_partial_full_set_equals_apply():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((256, 3))
    signs = sample_signs(256, 8)
    assert np.array_equal(
        partial_rht_rows(a, signs, np.arange(256)), apply_rht(a, signs)
    )


def test_partial_first_row_is_column_sums():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((32, 4))
    signs = sample_signs(32, 0)
    all_plus = type(signs)(signs=np.ones(32), seed=0)
    row = partial_rht_rows(a, all_plus, [0])
    assert np.allclose(row[0], a.sum(axis=0) / np.sqrt(32.0), atol=1e-12)


@pytest.mark.parametrize("count", [1, 16, 200])
def test_partial_matches_slice_bit_exact(count):
    rng = np.random.default_rng(count)
    a = rng.standard_normal((1024, 4))
    signs = sample_signs(1024, 77)
    full = apply_rht(a, signs)
    rows = rng.integers(0, 1024, size=count)  # unsorted, duplicates allowed
    part = partial_rht_rows(a, signs, rows)
    assert np.array_equal(part, full[rows])


def _row_sets(n, rows_per_block, rng):
    """Named row requests covering the shapes the blocked paths treat apart."""
    edge = np.arange(rows_per_block, n, rows_per_block)
    return {
        "single": [n // 3],
        "ends": [0, n - 1],
        "one-block": np.arange(min(n, rows_per_block))[::-3],
        "block-edges": np.unique(np.concatenate([edge - 1, edge])) if edge.size else [0, n - 1],
        "duplicates": [n - 1, 0, n - 1, n // 2, 0, n // 2],
        "fallback": rng.integers(0, n, size=n // 2 + 1),
    }


@pytest.mark.parametrize("block", [16, 256])
@pytest.mark.parametrize("d", [1, 3, 31])
@pytest.mark.parametrize("n", [2, 8, 64, 1024, 4096])
def test_blocked_transform_matches_reference_bit_exact(monkeypatch, n, d, block):
    monkeypatch.setattr(hadamard, "_BLOCK", block)
    rng = np.random.default_rng(n * 100 + d)
    a = rng.standard_normal((n, d))
    signs = sample_signs(n, n + d)
    expected = reference_rht(a, signs.signs)
    assert np.array_equal(apply_rht(a, signs), expected)
    unscaled = a * signs.signs[:, None]
    reference_butterfly(unscaled)
    rows_per_block = hadamard._blocking(n, d)[0]
    for name, rows in _row_sets(n, rows_per_block, rng).items():
        rows = np.asarray(rows) % n
        assert np.array_equal(partial_rht_rows(a, signs, rows), expected[rows]), name
        # Also the pruned descent itself, past the fallback threshold.
        wanted = np.unique(rows)
        pruned = hadamard._pruned_rows(a * signs.signs[:, None], wanted)
        assert np.array_equal(pruned, unscaled[wanted]), name


def test_blocked_transform_above_real_block_size():
    n, d = 2**15, 9
    assert n * d > hadamard._BLOCK
    rng = np.random.default_rng(15)
    a = rng.standard_normal((n, d))
    signs = sample_signs(n, 15)
    expected = reference_rht(a, signs.signs)
    assert np.array_equal(apply_rht(a, signs), expected)
    for rows in ([n // 3], rng.integers(0, n, size=500), rng.integers(0, n // 8, size=300)):
        assert np.array_equal(partial_rht_rows(a, signs, rows), expected[rows])


def test_blocked_transform_operation_count(monkeypatch):
    monkeypatch.setattr(hadamard, "_BLOCK", 16)
    n, cols = 64, 3
    plain = np.arange(n * cols, dtype=np.float64).reshape(n, cols)
    reference_butterfly(plain)
    count, values = counted_ops(hadamard._butterfly, n, cols)
    assert count == n * cols * 6
    assert np.array_equal(values, plain)
    wanted = np.array([0, 5, 12, 37, 63])
    count, values = counted_ops(lambda w: hadamard._pruned_rows(w, wanted), n, cols)
    live = sum(np.unique(wanted // m).size * m for m in (64, 32, 16, 8, 4, 2))
    assert count == live * cols
    assert np.array_equal(values, plain[wanted])


def test_partial_vector_input():
    rng = np.random.default_rng(6)
    b = rng.standard_normal(512)
    signs = sample_signs(512, 5)
    rows = [3, 3, 500, 0]
    assert np.array_equal(partial_rht_rows(b, signs, rows), apply_rht(b, signs)[rows])


def test_partial_rejects_out_of_range():
    a = np.ones((8, 1))
    signs = sample_signs(8, 0)
    with pytest.raises(IndexOutOfRange):
        partial_rht_rows(a, signs, [8])
    with pytest.raises(IndexOutOfRange):
        partial_rht_rows(a, signs, [-1])


def test_partial_dimension_check():
    with pytest.raises(DimensionMismatch):
        partial_rht_rows(np.ones((8, 1)), sample_signs(16, 0), [0])


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]


def test_pad_pow2_noop():
    a = np.ones((8, 2))
    b = np.ones(8)
    pad = pad_pow2(a, b)
    assert pad.padded_n == 8 and pad.original_n == 8
    assert np.array_equal(pad.a_pad, a) and np.array_equal(pad.b_pad, b)


def test_pad_pow2_pads_with_zeros():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal(5)
    pad = pad_pow2(a, b)
    assert pad.padded_n == 8
    assert np.array_equal(pad.a_pad[5:], np.zeros((3, 2)))
    assert np.array_equal(pad.b_pad[5:], np.zeros(3))


def test_pad_preserves_ls_solution():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((11, 3))
    b = rng.standard_normal(11)
    pad = pad_pow2(a, b)
    x = solve_exact_ls(a, b)
    x_pad = solve_exact_ls(pad.a_pad, pad.b_pad)
    assert np.abs(x - x_pad).max() <= 1e-12
    r = np.linalg.norm(a @ x - b)
    r_pad = np.linalg.norm(pad.a_pad @ x_pad - pad.b_pad)
    assert abs(r - r_pad) <= 1e-12 * max(r, 1.0)


def test_sample_signs_deterministic():
    s1 = sample_signs(1000, 42)
    s2 = sample_signs(1000, 42)
    assert np.array_equal(s1.signs, s2.signs)
    assert not np.array_equal(s1.signs, sample_signs(1000, 43).signs)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_raises(seed):
    with pytest.raises(InvalidSpec):
        stream(seed, "signs")
    with pytest.raises(InvalidSpec):
        sample_signs(8, seed)


def test_largest_64_bit_seed_draws():
    top = sample_signs(1000, 2**64 - 1)
    assert np.array_equal(top.signs, sample_signs(1000, np.uint64(2**64 - 1)).signs)
    assert not np.array_equal(top.signs, sample_signs(1000, 0).signs)


def test_sample_signs_values():
    s = sample_signs(4096, 7)
    assert set(np.unique(s.signs)) == {-1.0, 1.0}
    assert np.array_equal(s.signs**2, np.ones(4096))


def test_sample_signs_fair_coin():
    n = 2**16
    s = sample_signs(n, 123)
    assert abs(s.signs.mean()) <= 5.0 / np.sqrt(n)
