import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import counted_ops, reference_butterfly, reference_rht
from sketchlsq import hadamard
from sketchlsq.errors import DimensionMismatch, IndexOutOfRange, InvalidSpec, NotPowerOfTwo
from sketchlsq.hadamard import (
    apply_rht,
    fwht_normalized,
    next_pow2,
    partial_rht_rows,
    sample_signs,
)
from sketchlsq.problems import KIND_GAUSSIAN, ProblemSpec, gen_problem
from sketchlsq.rng import stream
from sketchlsq.sketches import SketchParams
from sketchlsq.solver import sketch_solve_sampling

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
def test_pruned_rows_scan_the_input_only_when_the_output_is_not_finite(monkeypatch, bad):
    # Each output row sums every input row, so the r rows out show a NaN or
    # Inf anywhere in the input; only then is the input scanned, to name it.
    x = np.ones((256, 2))
    scans = []
    real = hadamard._require_finite

    def counted(arr):
        scans.append(arr.shape)
        real(arr)

    monkeypatch.setattr(hadamard, "_require_finite", counted)
    if bad is None:
        partial_rht_rows(x, sample_signs(256, 0), [3, 200])
        assert scans == []
        return
    x[100, 0] = x[7, 0] = bad  # inf - inf becomes NaN, without a warning
    with pytest.raises(InvalidSpec, match="NaN or Inf"):
        partial_rht_rows(x, sample_signs(256, 0), [3, 200])
    assert scans == [(256, 2)]


def _ulp_bound(n: int) -> float:
    """A few ulps per radix-2 stage, relative to a column's largest entry."""
    return 4.0 * max(1, n.bit_length() - 1) * 2.0**-52


def _max_error(got, expected) -> float:
    """Largest difference in each column, relative to its largest entry."""
    return float((np.abs(got - expected) / np.abs(expected).max(axis=0)).max())


def test_fwht_matrix_matches_columns():
    # A one-column pass runs a different BLAS kernel from a wide one, so
    # the columns agree within the transform's bound, not bit for bit; a
    # vector and the one-column matrix run the same GEMMs.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((64, 3))
    out = fwht_normalized(a)
    for j in range(3):
        column = fwht_normalized(a[:, j])
        assert _max_error(out[:, j : j + 1], column[:, None]) <= _ulp_bound(64)
        assert np.array_equal(column, fwht_normalized(a[:, j : j + 1])[:, 0])


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
    # Small cache blocks run the top digits across blocks by column chunks.
    # The GEMM transform is within a few ulps of the butterfly; the sampled
    # rows are its own rows bit for bit, and the pruned descent is the
    # butterfly's rows bit for bit.
    monkeypatch.setattr(hadamard, "_BLOCK", block)
    rng = np.random.default_rng(n * 100 + d)
    a = rng.standard_normal((n, d))
    signs = sample_signs(n, n + d)
    full = apply_rht(a, signs)
    assert _max_error(full, reference_rht(a, signs.signs)) <= _ulp_bound(n)
    unscaled = a * signs.signs[:, None]
    reference_butterfly(unscaled)
    rows_per_block = min(n, 1 << (max(1, block // d).bit_length() - 1))
    for name, rows in _row_sets(n, rows_per_block, rng).items():
        rows = np.asarray(rows) % n
        assert np.array_equal(partial_rht_rows(a, signs, rows), full[rows]), name
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
    full = apply_rht(a, signs)
    assert _max_error(full, reference_rht(a, signs.signs)) <= _ulp_bound(n)
    for rows in ([n // 3], rng.integers(0, n, size=500), rng.integers(0, n // 8, size=300)):
        assert np.array_equal(partial_rht_rows(a, signs, rows), full[rows])
    # Any input layout gives the same bytes: the top digits view the signed
    # work copy as (blocks, rows * d), which only C order allows.
    for layout in (np.asfortranarray(a), np.repeat(a, 2, axis=1)[:, ::2]):
        assert np.array_equal(apply_rht(layout, signs), full)
        assert np.array_equal(partial_rht_rows(layout, signs, [n // 3, 7]), full[[n // 3, 7]])


@pytest.mark.parametrize(
    "n,d", [(2, 1), (64, 3), (2**12, 7), (2**12, 300), (2**14, 51), (2**17, 21), (2**18, 5)]
)
def test_gemm_transform_within_a_few_ulps_of_the_butterfly(n, d):
    # One or two radix digits across cache blocks, and column counts whose
    # GEMMs split at a multiple of 8 (21, 51, 300).
    a = np.random.default_rng(n + d).standard_normal((n, d))
    work = a.copy()
    hadamard._transform(work)
    reference_butterfly(a)
    assert _max_error(work, a) <= _ulp_bound(n)


def test_padded_transform_within_a_few_ulps_of_the_butterfly():
    # 2^12 + 1 rows, read as zero-padded to 2^13, as the solver's [A | b] is.
    a = np.zeros((2**13, 7))
    a[: 2**12 + 1] = np.random.default_rng(13).standard_normal((2**12 + 1, 7))
    signs = sample_signs(2**13, 13)
    got = apply_rht(a[: 2**12 + 1], signs)
    assert _max_error(got, reference_rht(a, signs.signs)) <= _ulp_bound(2**13)


_THREAD_CHILD = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from sketchlsq.hadamard import _gemm, _sylvester, apply_rht, partial_rht_rows, sample_signs
h = hashlib.sha256()
for n, d in [(2, 1), (64, 3), (4096, 7), (2**14, 51), (2**14, 1), (2**17, 21), (2**17, 31),
             (2**18, 5)]:
    a = np.random.default_rng(n + d).standard_normal((n, d))
    signs = sample_signs(n, d)
    h.update(apply_rht(a, signs).tobytes())
    h.update(partial_rht_rows(a, signs, np.arange(0, n, 7)).tobytes())
# Column counts off a multiple of 8, wide enough that BLAS threads them.
for size in (8, 16):
    for width in (4092, 4095, 4097):
        x = np.random.default_rng(width).standard_normal((1, size, width))
        out = np.empty_like(x)
        _gemm(_sylvester(size), x, out)
        h.update(out.tobytes())
print(h.hexdigest())
"""


def test_transform_bytes_do_not_depend_on_the_blas_thread_count():
    # The thread count must be in the environment before numpy loads, so
    # each count runs in a child process of its own.
    package_root = str(Path(hadamard.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2", "3", "4"):
        env = {**os.environ, **dict.fromkeys(_THREAD_VARS, threads)}
        child = subprocess.run(
            [sys.executable, "-c", _THREAD_CHILD, package_root],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(child.stdout.strip())
    assert len(digests[0]) == 64 and digests == digests[:1] * 4


def test_radix_digits_multiply_out_to_the_length():
    for bits in range(0, 21):
        sizes = hadamard._radices(1 << bits)
        assert np.prod(sizes, dtype=np.int64) == 1 << bits
        assert all(2 <= s <= 1 << hadamard._RADIX_BITS for s in sizes)
        assert max(sizes, default=1) <= 2 * min(sizes, default=1)


def test_sylvester_matrix_is_the_kronecker_power_of_h2():
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    h = np.ones((1, 1))
    for bits in range(1, hadamard._RADIX_BITS + 1):
        h = np.kron(h, h2)
        assert np.array_equal(hadamard._sylvester(1 << bits), h)
    # H_L[i, j] = (-1)^popcount(i & j).
    size = 1 << hadamard._RADIX_BITS
    signs = [[(-1.0) ** bin(i & j).count("1") for j in range(size)] for i in range(size)]
    assert np.array_equal(hadamard._sylvester(size), np.array(signs))


def test_blocked_transform_operation_count():
    # The two references keep the butterfly's additions: log2(n) per entry
    # for the full transform, one per entry of every live block when pruned.
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


@pytest.mark.parametrize(
    "rows",
    [[1.7, 2.2], np.array([1.0, 2.0]), np.array([True, False, True, False] * 2), ["1"]],
    ids=["fractional", "whole-floats", "boolean", "strings"],
)
def test_partial_rejects_non_integer_rows(rows):
    # Floats were truncated and a boolean mask read as rows 0 and 1.
    with pytest.raises(IndexOutOfRange, match="integers"):
        partial_rht_rows(np.ones((8, 1)), sample_signs(8, 0), rows)


@pytest.mark.parametrize("rows", [[], np.array([], dtype=bool), np.array([], dtype=np.uint8)])
def test_partial_empty_request_is_empty_at_any_dtype(rows):
    assert partial_rht_rows(np.ones((8, 3)), sample_signs(8, 0), rows).shape == (0, 3)
    assert partial_rht_rows(np.ones(8), sample_signs(8, 0), rows).shape == (0,)


def test_more_rows_than_the_diagonal_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_rht(np.ones((17, 1)), sample_signs(16, 0))
    with pytest.raises(DimensionMismatch):
        partial_rht_rows(np.ones((17, 1)), sample_signs(16, 0), [0])


def test_a_diagonal_off_a_power_of_two_is_named():
    signs = sample_signs(12, 0)
    for rows in (12, 9):
        with pytest.raises(NotPowerOfTwo):
            apply_rht(np.ones((rows, 2)), signs)
        with pytest.raises(NotPowerOfTwo):
            partial_rht_rows(np.ones((rows, 2)), signs, [0])


def _layouts(a):
    """`a` as C-ordered, Fortran-ordered and column-strided arrays."""
    return {"C": a, "F": np.asfortranarray(a), "strided": np.repeat(a, 2, axis=1)[:, ::2]}


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("cols", [None, 1, 3, 31])
@pytest.mark.parametrize("m", [1, 3, 5, 1025])
def test_fewer_rows_read_as_zero_padded_to_the_diagonal(monkeypatch, m, cols, block):
    # m < P rows give the bytes of the same call on [a; 0], P the diagonal's
    # length; the requested rows may lie anywhere in [0, P), in the zero
    # rows' range too. (Gaussian data: no output is an exact zero, whose
    # sign could follow the padding's signed zeros.) cols=None is a vector.
    if block is not None:
        monkeypatch.setattr(hadamard, "_BLOCK", block)
    p = next_pow2(m + 1)
    rng = np.random.default_rng(m * 100 + (cols or 0))
    a = rng.standard_normal(m if cols is None else (m, cols))
    padded = np.zeros((p, *a.shape[1:]))
    padded[:m] = a
    signs = sample_signs(p, m)
    full = apply_rht(padded, signs)
    request = {"sampled": rng.integers(0, p, size=max(1, p // 8)), "tail": [p - 1, m, 0],
               "fallback": rng.integers(0, p, size=p // 2 + 1)}
    views = {"vector": a} if cols is None else _layouts(a)
    for layout, view in views.items():
        assert apply_rht(view, signs).tobytes() == full.tobytes(), layout
        for name, rows in request.items():
            expected = partial_rht_rows(padded, signs, rows)
            assert partial_rht_rows(view, signs, rows).tobytes() == expected.tobytes(), (layout, name)


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 5, 8, 9)] == [1, 2, 4, 8, 8, 16]


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


@pytest.mark.parametrize("seed", [1.5, True])
def test_non_integer_seed_raises(seed):
    # int() would map both onto seed 1 and draw its bytes.
    with pytest.raises(InvalidSpec, match="integer"):
        stream(seed, "signs")
    with pytest.raises(InvalidSpec, match="integer"):
        sample_signs(64, seed)
    with pytest.raises(InvalidSpec, match="integer"):
        ProblemSpec(kind=KIND_GAUSSIAN, n=64, d=2, kappa=2.0, gamma=0.9, seed=seed)
    problem = gen_problem(ProblemSpec(kind=KIND_GAUSSIAN, n=64, d=2, kappa=2.0, gamma=0.9, seed=1))
    with pytest.raises(InvalidSpec, match="integer"):
        sketch_solve_sampling(problem, SketchParams(epsilon=0.5, r=16), seed)


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
