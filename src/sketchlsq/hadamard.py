"""Normalized Walsh-Hadamard transform with random sign flips.

The full transform is an iterative in-place butterfly that halves the
stride each stage (largest stride first), costing O(n log2 n) per column.
`partial_rht_rows` evaluates only a requested subset of output rows by
descending the same butterfly and skipping blocks that contain no requested
row, which costs O(n log2 r) for r rows. Because the pruned descent performs
exactly the additions the full butterfly would, the two paths agree
bit-for-bit.

Both are cache-blocked. The rows split into cache blocks of `_BLOCK`
elements. The stages whose stride spans whole cache blocks run together on
one cache-sized slice of every block at a time; the remaining stages then
run block by block, and the pruned descent skips blocks without a requested
row. Each stage updates (top, bottom) in place through one scratch buffer,
so a transform makes about two passes over memory instead of one per stage.
Every element sees the same additions in the same stage order as the plain
stage-by-stage butterfly, so the results are bit-for-bit the same.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidSpec, NotPowerOfTwo
from .rng import stream

# Above 1/_PRUNE_FRACTION of the rows requested, the pruned descent stops
# paying for its bookkeeping; fall back to the full transform and slice.
_PRUNE_FRACTION = 6

# Elements in one cache block: 1 MB of float64, half of a 2 MB L2.
_BLOCK = 1 << 17


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


@dataclass(frozen=True)
class PaddedProblem:
    """A least-squares pair zero-padded to a power-of-two row count.

    `stacked` is the padded [A | b] in one array, so both can go through
    one transform; `a_pad` and `b_pad` are views of it. The appended
    all-zero rows contribute nothing to the objective, so the minimizer and
    the optimal residual match the original problem; the solution never
    needs unpadding.
    """

    original_n: int
    stacked: np.ndarray

    @property
    def padded_n(self) -> int:
        return self.stacked.shape[0]

    @property
    def a_pad(self) -> np.ndarray:
        return self.stacked[:, :-1]

    @property
    def b_pad(self) -> np.ndarray:
        return self.stacked[:, -1]


def next_pow2(n: int) -> int:
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def pad_pow2(a, b) -> PaddedProblem:
    """Zero-pad [a | b] so the row count is the next power of two."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"expected (n, d) matrix and length-n vector, got {a.shape} and {b.shape}"
        )
    n, d = a.shape
    stacked = np.zeros((next_pow2(n), d + 1))
    stacked[:n, :d] = a
    stacked[:n, d] = b
    return PaddedProblem(original_n=n, stacked=stacked)


def _require_pow2(n: int):
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"length {n} is not a power of two")


def _require_finite(arr: np.ndarray):
    if not np.isfinite(arr).all():
        raise InvalidSpec("input contains NaN or Inf entries")


def _pow2_floor(x: int) -> int:
    return 1 << (max(1, x).bit_length() - 1)


def _blocking(n: int, d: int) -> tuple[int, int]:
    """Rows per cache block and chunk width of the outer stages.

    A cache block is the largest power-of-two run of rows that fits in
    `_BLOCK` elements. The outer stages see the array as (blocks, rows, d)
    and work on `width` rows of the middle axis at a time, chosen so one
    chunk across all blocks also fits in `_BLOCK` elements.
    """
    rows = min(n, _pow2_floor(_BLOCK // d))
    width = min(rows, _pow2_floor(_BLOCK // (n // rows * d)))
    return rows, width


def _scratch(work: np.ndarray, rows: int, width: int) -> np.ndarray:
    """Room for half a cache block or half an outer-stage chunk."""
    n, d = work.shape
    return np.empty(max(rows, n // rows * width) * d // 2, dtype=work.dtype)


def _stage(top: np.ndarray, bot: np.ndarray, scratch: np.ndarray):
    """One butterfly stage in place: (top, bot) <- (top + bot, top - bot)."""
    diff = scratch[: top.size].reshape(top.shape)
    np.subtract(top, bot, out=diff)
    np.add(top, bot, out=top)
    bot[...] = diff


def _outer_stages(work, rows, width, scratch, live_blocks=None):
    """The stages whose stride is a whole cache block or more, in place.

    Viewed as (nblocks, rows, d), these stages mix only along the first
    axis, so all of them run on one `width`-row slice of the middle axis
    before the next slice is touched. With `live_blocks` (sorted cache-block
    ids), a stage updates only the butterfly blocks that contain one of
    them, as the pruned descent does.
    """
    n, d = work.shape
    nblocks = n // rows
    stages = []
    m = nblocks
    while m > 1:
        live = None
        if live_blocks is not None:
            live = np.unique(live_blocks // m)
            if live.shape[0] == nblocks // m:
                live = None
        stages.append((m, live))
        m //= 2
    for j in range(0, rows, width):
        for m, live in stages:
            h = m // 2
            v = work.reshape(nblocks // m, 2, h, rows, d)[:, :, :, j : j + width]
            if live is None:
                _stage(v[:, 0], v[:, 1], scratch)
            else:
                sub = v[live]
                _stage(sub[:, 0], sub[:, 1], scratch)
                v[live] = sub


def _butterfly(work: np.ndarray):
    """Unnormalized Hadamard butterfly along axis 0, in place.

    Stage stride runs n/2, n/4, ..., 1, so each block update is
    (top + bottom, top - bottom) and output rows land in natural order.
    The stages whose stride spans whole cache blocks run first, a chunk at a
    time; the rest then run one cache block at a time.
    """
    n, d = work.shape
    rows, width = _blocking(n, d)
    scratch = _scratch(work, rows, width)
    _outer_stages(work, rows, width, scratch)
    for start in range(0, n, rows):
        block = work[start : start + rows]
        h = rows // 2
        while h >= 1:
            w = block.reshape(-1, 2, h, d)
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
    applying it twice recovers the input.
    """
    arr, was_vector = _as_columns(x, "input")
    n = arr.shape[0]
    _require_pow2(n)
    _require_finite(arr)
    work = arr.copy()
    _butterfly(work)
    work *= _scale(n)
    return work[:, 0] if was_vector else work


def apply_rht(a, d_signs: SignDiagonal) -> np.ndarray:
    """Randomized Hadamard transform H D a of a matrix (or vector) a."""
    arr, was_vector = _as_columns(a, "matrix")
    n = arr.shape[0]
    _require_pow2(n)
    if n != d_signs.n:
        raise DimensionMismatch(f"matrix has {n} rows, diagonal has {d_signs.n}")
    _require_finite(arr)
    work = arr * d_signs.signs[:, None]
    _butterfly(work)
    work *= _scale(n)
    return work[:, 0] if was_vector else work


def _descend(block: np.ndarray, wanted: np.ndarray, scratch: np.ndarray, out: np.ndarray):
    """Write rows `wanted` (sorted, unique, local) of the butterfly of one
    cache block into `out`, updating only blocks that hold a wanted row.

    Each stage rewrites every live butterfly block in place as
    (top + bottom | top - bottom), exactly the full butterfly stage, and
    then drops dead children, copying only when something actually died.
    Children stay in ascending block order, so the surviving length-1
    blocks come out in the order of `wanted`.
    """
    m, d = block.shape
    blocks = block.reshape(1, m, d)
    # Live block ids at the current stage, ascending; block id b at size m
    # covers rows [b*m, (b+1)*m) of the cache block.
    parents = np.zeros(1, dtype=np.int64)
    while m > 1:
        h = m // 2
        nblk = blocks.shape[0]
        _stage(blocks[:, :h, :], blocks[:, h:, :], scratch)
        children = blocks.reshape(nblk * 2, h, d)
        kid_of_row = wanted >> (h.bit_length() - 1)
        if kid_of_row.shape[0] == 1:
            kids = kid_of_row
        else:
            keep = np.empty(kid_of_row.shape[0], dtype=bool)
            keep[0] = True
            np.not_equal(kid_of_row[1:], kid_of_row[:-1], out=keep[1:])
            kids = kid_of_row[keep]
        if kids.shape[0] == children.shape[0]:
            blocks = children
        else:
            pos = np.searchsorted(parents, kids >> 1)
            blocks = children[pos * 2 + (kids & 1)]
        parents = kids
        m = h
    out[...] = blocks[:, 0, :]


def _pruned_rows(work: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Rows `wanted` (sorted, unique) of the unnormalized butterfly of `work`.

    Consumes `work`. The outer stages run as in `_butterfly`, restricted to
    butterfly blocks that hold a wanted row; then each cache block that
    holds one runs the pruned descent on its own rows, and the others are
    skipped. Every output comes from the additions the full butterfly
    would perform, so the two agree bit for bit.
    """
    n, d = work.shape
    rows, width = _blocking(n, d)
    scratch = _scratch(work, rows, width)
    block_of = wanted // rows
    _outer_stages(work, rows, width, scratch, live_blocks=block_of)
    out = np.empty((wanted.shape[0], d), dtype=work.dtype)
    firsts = np.flatnonzero(np.diff(block_of, prepend=-1))
    for first, last in zip(firsts, [*firsts[1:], wanted.shape[0]]):
        start = int(block_of[first]) * rows
        _descend(
            work[start : start + rows], wanted[first:last] - start, scratch, out[first:last]
        )
    return out


def partial_rht_rows(a, d_signs: SignDiagonal, rows) -> np.ndarray:
    """Selected rows of H D a, bit-identical to slicing `apply_rht(a, d_signs)`.

    `rows` may repeat and need not be sorted; the output row order matches
    the request. Falls back to the full transform when more than a sixth
    of all rows are requested.
    """
    arr, was_vector = _as_columns(a, "matrix")
    n = arr.shape[0]
    _require_pow2(n)
    if n != d_signs.n:
        raise DimensionMismatch(f"matrix has {n} rows, diagonal has {d_signs.n}")
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1:
        raise IndexOutOfRange("rows must be a 1-D index list")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise IndexOutOfRange(f"row indices must lie in [0, {n})")
    if rows.size == 0:
        return np.empty(0) if was_vector else np.empty((0, arr.shape[1]))
    wanted, inverse = np.unique(rows, return_inverse=True)
    if wanted.size > n // _PRUNE_FRACTION:
        full = apply_rht(arr, d_signs)
        out = full[rows]
    else:
        _require_finite(arr)
        work = arr * d_signs.signs[:, None]
        out = _pruned_rows(work, wanted)
        out *= _scale(n)
        out = out[inverse]
    return out[:, 0] if was_vector else out
