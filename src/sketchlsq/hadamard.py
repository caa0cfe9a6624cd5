"""Normalized Walsh-Hadamard transform with random sign flips.

The full transform is an iterative in-place butterfly that halves the
stride each stage (largest stride first), costing O(n log2 n) per column.
`partial_rht_rows` evaluates only a requested subset of output rows by
descending the same butterfly and skipping blocks that contain no requested
row, which costs O(n log2 r) for r rows. Because the pruned descent performs
exactly the additions the full butterfly would, the two paths agree
bit-for-bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NotPowerOfTwo
from .rng import stream

# Above this fraction of requested rows the pruned descent stops paying for
# its bookkeeping; fall back to the full transform and slice.
_PRUNE_FRACTION = 4


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


def _butterfly(work: np.ndarray):
    """Unnormalized Hadamard butterfly along axis 0, in place.

    Stage stride runs n/2, n/4, ..., 1, so each block update is
    (top + bottom, top - bottom) and output rows land in natural order.
    """
    n, d = work.shape
    h = n // 2
    while h >= 1:
        w = work.reshape(-1, 2, h, d)
        t = w[:, 0] + w[:, 1]
        u = w[:, 0] - w[:, 1]
        w[:, 0] = t
        w[:, 1] = u
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
    if not np.isfinite(arr).all():
        raise ValueError("input contains NaN or Inf entries")
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
    if not np.isfinite(arr).all():
        raise ValueError("input contains NaN or Inf entries")
    work = arr * d_signs.signs[:, None]
    _butterfly(work)
    work *= _scale(n)
    return work[:, 0] if was_vector else work


def _pruned_rows(work: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Rows `wanted` (sorted, unique) of the unnormalized butterfly of `work`.

    Consumes `work`. Maintains the set of butterfly blocks that still
    contain requested rows: each stage rewrites every live block in place
    as (top + bottom | top - bottom), exactly the full butterfly stage,
    and then drops dead children, copying only when something actually
    died. Children stay in ascending block order, so the surviving
    length-1 blocks come out in the order of `wanted`.
    """
    n, d = work.shape
    blocks = work.reshape(1, n, d)
    # Live block ids at the current stage, ascending; block id b at size m
    # covers output rows [b*m, (b+1)*m).
    parents = np.zeros(1, dtype=np.int64)
    m = n
    while m > 1:
        h = m // 2
        nblk = blocks.shape[0]
        top = blocks[:, :h, :]
        bot = blocks[:, h:, :]
        diff = top - bot
        np.add(top, bot, out=top)
        bot[:] = diff
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
    return blocks[:, 0, :].copy()


def partial_rht_rows(a, d_signs: SignDiagonal, rows) -> np.ndarray:
    """Selected rows of H D a, bit-identical to slicing `apply_rht(a, d_signs)`.

    `rows` may repeat and need not be sorted; the output row order matches
    the request. Falls back to the full transform when more than a quarter
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
        if not np.isfinite(arr).all():
            raise ValueError("input contains NaN or Inf entries")
        work = arr * d_signs.signs[:, None]
        out = _pruned_rows(work, wanted)
        out *= _scale(n)
        out = out[inverse]
    return out[:, 0] if was_vector else out
