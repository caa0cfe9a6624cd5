"""Normalized Walsh-Hadamard transform with random sign flips.

The Sylvester matrix factors as H_ab = H_a (x) H_b (Van Loan, 1992), so
`_transform` runs one batched GEMM by the dense +-1 matrix H_L,
H_L[i, j] = (-1)^popcount(i & j), per radix digit L <= 2^_RADIX_BITS of
the row index. The rows split into cache blocks of at most `_BLOCK`
elements. The digits that mix blocks run first, on one column chunk of
every block at a time; then each block runs the rest. Every GEMM writes a
buffer other than its input, ping-ponging with one scratch buffer of about
`_BLOCK` elements, so a transform makes two passes over memory and needs
no second copy of the signed work array.

OpenBLAS rounds a GEMM whose column count is not a multiple of 8
differently at 1 and at 2 threads, so `_gemm` splits such a product into
a multiple of 8 columns and a remainder too small to thread. The rule is
empirical, from how OpenBLAS splits the columns among its threads: the
bytes were measured the same at 1, 2, 3 and 4 BLAS threads.

`partial_rht_rows` slices its rows from the same full output, so it is
bit-identical to slicing `apply_rht` by construction. `_butterfly` and
`_pruned_rows` (its rows-only descent) stay as serial references: the
tests compare the GEMMs against them, and the benchmark counts their
additions as its model of the transform's work.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidSpec, NotPowerOfTwo
from .rng import stream

# Above 1/_PRUNE_FRACTION of the rows requested, `partial_rht_rows` calls
# `apply_rht` and slices; below it, it runs `_transform` itself. The
# benchmark's span counts pin that split.
_PRUNE_FRACTION = 6

# Elements in one cache block: 512 KB of float64, so a block and its
# scratch buffer fit in half of a 2 MB L2.
_BLOCK = 1 << 16

# Largest radix digit: H_16. H_32 spends 1.6x the flops per bit and ran
# slower on a 2-vCPU Xeon (2 MB L2 per core).
_RADIX_BITS = 4

# GEMM column counts that are a multiple of this gave the same bytes at
# 1, 2, 3 and 4 BLAS threads (measured; see the module docstring).
_ALIGN = 8


@dataclass(frozen=True)
class SignDiagonal:
    """Random +-1 diagonal, reproducible from (seed, label)."""

    signs: np.ndarray
    seed: int
    label: str = "signs"

    @property
    def n(self) -> int:
        return self.signs.shape[0]


def sample_signs(n: int, seed: int, label: str = "signs") -> SignDiagonal:
    """Draw n independent fair +-1 signs from the (seed, label) stream."""
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    signs = stream(seed, label).integers(0, 2, size=n) * 2.0 - 1.0
    return SignDiagonal(signs=signs, seed=int(seed), label=label)


def next_pow2(n: int) -> int:
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def _require_finite(arr: np.ndarray):
    if not np.isfinite(arr).all():
        raise InvalidSpec("input contains NaN or Inf entries")


@functools.cache
def _sylvester(size: int) -> np.ndarray:
    """The unnormalized size x size Sylvester-Hadamard matrix."""
    h = np.ones((1, 1))
    while h.shape[0] < size:
        h = np.block([[h, h], [h, -h]])
    return h


def _radices(count: int) -> list[int]:
    """Digit sizes, most significant first, whose product is `count` (a
    power of two): as few digits as `_RADIX_BITS` allows, as even as can be."""
    bits = count.bit_length() - 1
    parts = -(-bits // _RADIX_BITS)
    return [1 << (bits * (k + 1) // parts - bits * k // parts) for k in range(parts)]


def _gemm(h: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """dst = h @ src on every matrix of the stacks, as a multiple of
    `_ALIGN` columns and a remainder (see the module docstring)."""
    cut = src.shape[-1] - src.shape[-1] % _ALIGN
    if cut and cut < src.shape[-1]:
        np.matmul(h, src[..., :cut], out=dst[..., :cut])
        np.matmul(h, src[..., cut:], out=dst[..., cut:])
    else:
        np.matmul(h, src, out=dst)


def _digits(x: np.ndarray, spare: np.ndarray):
    """x <- H x along axis 0, one GEMM per radix digit, ping-ponging
    between x and `spare` (contiguous, x's shape). Row index i splits as
    (outer, digit, inner); a C-contiguous x runs the inner rows and the
    columns together as one wide matrix."""
    rows, width = x.shape
    src, dst = x, spare
    outer = 1
    for size in _radices(rows):
        inner = rows // (outer * size)
        if x.flags.c_contiguous:
            shape, axes = (outer, size, inner * width), (0, 1, 2)
        else:
            shape, axes = (outer, size, inner, width), (0, 2, 1, 3)
        h = _sylvester(size)
        _gemm(h, src.reshape(shape).transpose(axes), dst.reshape(shape).transpose(axes))
        outer *= size
        src, dst = dst, src
    if src is not x:
        x[...] = src


def _transform(work: np.ndarray):
    """Unnormalized Hadamard transform of `work` (C-contiguous) along
    axis 0, in place: the top digits by column chunks of every cache block,
    then the rest block by block (see the module docstring)."""
    n, d = work.shape
    rows = min(n, 1 << (max(1, _BLOCK // d).bit_length() - 1))
    blocks = n // rows
    width = min(rows * d, max(_ALIGN, _BLOCK // blocks))
    scratch = np.empty(max(rows * d, blocks * width), dtype=work.dtype)
    if blocks > 1:
        across = work.reshape(blocks, rows * d)
        for lo in range(0, rows * d, width):
            chunk = across[:, lo : lo + width]
            _digits(chunk, scratch[: chunk.size].reshape(chunk.shape))
    for block in work.reshape(blocks, rows, d):
        _digits(block, scratch[: block.size].reshape(block.shape))


def _stage(top: np.ndarray, bot: np.ndarray, scratch: np.ndarray):
    """One butterfly stage in place: (top, bot) <- (top + bot, top - bot)."""
    diff = scratch[: top.size].reshape(top.shape)
    np.subtract(top, bot, out=diff)
    np.add(top, bot, out=top)
    bot[...] = diff


def _butterfly(work: np.ndarray):
    """Reference: the unnormalized Hadamard butterfly along axis 0, in
    place, stage by stage. Stage stride runs n/2, n/4, ..., 1, so each
    block update is (top + bottom, top - bottom) and output rows land in
    natural order."""
    n, d = work.shape
    scratch = np.empty(n * d // 2, dtype=work.dtype)
    h = n // 2
    while h >= 1:
        w = work.reshape(-1, 2, h, d)
        _stage(w[:, 0], w[:, 1], scratch)
        h //= 2


def _scale(n: int) -> float:
    return 1.0 / math.sqrt(n)


def _as_columns(x, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr.reshape(-1, 1), True
    if arr.ndim == 2:
        return arr, False
    raise DimensionMismatch(f"{name} must be 1-D or 2-D, got ndim={arr.ndim}")


def fwht_normalized(x) -> np.ndarray:
    """Apply the normalized Hadamard transform along axis 0.

    Accepts a vector or a matrix of column vectors; the length must be a
    power of two. The normalized transform is orthogonal and involutive:
    applying it twice recovers the input. It is `apply_rht` with every
    sign +1, which multiplies each entry by exactly 1.
    """
    n = _as_columns(x, "input")[0].shape[0]
    return apply_rht(x, SignDiagonal(signs=np.ones(n), seed=0, label="unit"))


def _padded_length(arr: np.ndarray, d_signs: SignDiagonal) -> int:
    """The diagonal's length P, a power of two no less than `arr`'s rows."""
    p = d_signs.n
    if p < 1 or p & (p - 1):
        raise NotPowerOfTwo(f"length {p} is not a power of two")
    if arr.shape[0] > p:
        raise DimensionMismatch(f"matrix has {arr.shape[0]} rows, diagonal has {p}")
    return p


def _signed_work(arr: np.ndarray, d_signs: SignDiagonal) -> np.ndarray:
    """D [arr; 0] in a new C-order array (`_transform` needs C order)."""
    m = arr.shape[0]
    work = np.empty((d_signs.n, arr.shape[1]))
    np.multiply(arr, d_signs.signs[:m, None], out=work[:m])
    work[m:] = 0.0
    return work


def apply_rht(a, d_signs: SignDiagonal) -> np.ndarray:
    """Randomized Hadamard transform H D a of a matrix (or vector) a, read
    as zero-padded to the diagonal's power-of-two length P if shorter."""
    arr, was_vector = _as_columns(a, "matrix")
    p = _padded_length(arr, d_signs)
    _require_finite(arr)
    work = _signed_work(arr, d_signs)
    _transform(work)
    work *= _scale(p)
    return work[:, 0] if was_vector else work


def _pruned_rows(work: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Reference: rows `wanted` (sorted, unique) of the unnormalized
    butterfly of `work`, which it consumes. Each stage runs on the live
    blocks only, those that hold a wanted row, as the full butterfly does;
    children stay in ascending order, so the length-1 blocks left at the
    end come out in the order of `wanted`."""
    m, d = work.shape
    scratch = np.empty(m * d // 2, dtype=work.dtype)
    blocks, parents = work.reshape(1, m, d), np.zeros(1, dtype=np.int64)
    while m > 1:
        m //= 2
        _stage(blocks[:, :m], blocks[:, m:], scratch)
        kids = np.unique(wanted // m)
        blocks = blocks.reshape(-1, m, d)[np.searchsorted(parents, kids >> 1) * 2 + (kids & 1)]
        parents = kids
    return blocks[:, 0]


def partial_rht_rows(a, d_signs: SignDiagonal, rows) -> np.ndarray:
    """Selected rows of H D a, bit-identical to slicing `apply_rht(a, d_signs)`.

    `rows` are integers in [0, P) (an empty request may have any dtype);
    they may repeat and need not be sorted, and the output row order
    matches the request. Above a sixth of all P rows requested it calls
    `apply_rht` and slices; below, it runs the same transform itself and
    checks only the rows it returns. The benchmark's span counts pin that
    split; once the benchmark stops pinning it, one branch can go.
    """
    arr, was_vector = _as_columns(a, "matrix")
    p = _padded_length(arr, d_signs)
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise IndexOutOfRange("rows must be a 1-D index list")
    if rows.size == 0:
        return np.empty(0) if was_vector else np.empty((0, arr.shape[1]))
    if rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() >= p:
        raise IndexOutOfRange(f"row indices must be integers in [0, {p})")
    if np.unique(rows).size > p // _PRUNE_FRACTION:
        out = apply_rht(arr, d_signs)[rows]
    else:
        work = _signed_work(arr, d_signs)
        # Every output row is a +-1 sum of every input row, so a NaN or Inf
        # anywhere in the input reaches the output: check the few rows out,
        # and scan the input only to name the cause (inf - inf is NaN).
        with np.errstate(invalid="ignore"):
            _transform(work)
            out = work[rows]
        out *= _scale(p)
        if not np.isfinite(out).all():
            _require_finite(arr)
    return out[:, 0] if was_vector else out
