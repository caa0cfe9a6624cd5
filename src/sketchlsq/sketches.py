"""Sketching operators and their size formulas.

Two operators reduce a preprocessed n-row problem to a small one: uniform
row sampling with replacement (rescaled by sqrt(n/r)) and a sparse random
projection whose nonzero cells are +-1/sqrt(kq), drawn straight into CSR
form from O(nnz) random numbers: geometric skips between nonzero cells on
the (seed, label + "/positions") stream, one raw sign byte per nonzero on
the (seed, label) stream, and applied as scipy's public CSR operator over
views of those arrays. The skips are numpy's own geometric variates:
below q = 1/3 its inversion ceil(-E / log1p(-q)) of standard exponentials
E, drawn as exponentials with log1p(-q) taken once per batch, and from 1/3
on `Generator.geometric` itself. The sizes come in two fixed sets: the
paper's closed forms, which exceed n at desk scale (so they clamp to n and
flag that they did), and the practical sizes experiments normally run with.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse

from . import workers
from .errors import DimensionMismatch, InvalidEpsilon, InvalidSparsity, InvalidSpec
from .rng import check_integer, stream

MODE_THEORY = "theory"
MODE_OVERRIDE = "override"

# Practical-size constants used by experiments (theory sizes exceed n).
_PRACTICAL_R_FACTOR = 4.0
_PRACTICAL_K_FACTOR = 4.0
_PRACTICAL_C_Q = 0.1

# Geometric gaps per batch in the projection draw (1 MB of int64), so a
# draw holds at most one batch of int64 positions. Also the fewest nonzeros
# whose product is worth sharing out across the workers.
_CHUNK = 1 << 17


class TheorySize(NamedTuple):
    value: int
    clamped: bool


class ProjectionSize(NamedTuple):
    q: float
    k: int
    clamped: bool


def sampling_size_r(n: int, d: int, eps: float) -> TheorySize:
    """Closed-form sampling size r(n, d, eps).

    r = max{48^2 d ln(40nd) ln(100^2 d ln(40nd)), 40 d ln(40nd) / eps},
    rounded up. When the formula exceeds n the result is clamped to n
    (a size-n sketch is exact up to rescaling) and flagged.
    """
    if not 1 <= d <= n:
        raise DimensionMismatch(f"need 1 <= d <= n, got d={d}, n={n}")
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"sampling needs eps in (0, 1), got {eps}")
    ln_nd = math.log(40.0 * n * d)
    term_embed = 48.0**2 * d * ln_nd * math.log(100.0**2 * d * ln_nd)
    term_cross = 40.0 * d * ln_nd / eps
    r = math.ceil(max(term_embed, term_cross))
    if r > n:
        return TheorySize(n, True)
    return TheorySize(r, False)


def _q_expression(n: int, d: int, c_q: float) -> float:
    """Raw sparsity expression c_q d ln(40nd) (2 ln n + 16 d + 16) / n,
    before the cap at 1. Independent of eps."""
    ln_nd = math.log(40.0 * n * d)
    return c_q * d * ln_nd / n * (2.0 * math.log(n) + 16.0 * d + 16.0)


def projection_params(n: int, d: int, eps: float) -> ProjectionSize:
    """Closed-form projection sparsity q and size k.

    q = d ln(40nd) (2 ln n + 16 d + 16) / n, capped at 1;
    k = max{118^2 d + 98^2, 60 d / eps}, rounded up and capped at n.
    The flag reports whether either cap was hit. The paper leaves the
    constants in front of q and k unspecified; they are 1 here, and the
    practical sizes (`SketchParams.practical`) shrink the one in q.
    """
    if not 1 <= d <= n:
        raise DimensionMismatch(f"need 1 <= d <= n, got d={d}, n={n}")
    if not 0.0 < eps < 0.5:
        raise InvalidEpsilon(f"projection needs eps in (0, 1/2), got {eps}")
    q_raw = _q_expression(n, d, 1.0)
    k_raw = math.ceil(max(118.0**2 * d + 98.0**2, 60.0 * d / eps))
    clamped = q_raw > 1.0 or k_raw > n
    return ProjectionSize(min(1.0, q_raw), min(k_raw, n), clamped)


@dataclass(frozen=True)
class SketchParams:
    """Sketch sizes plus how they were chosen.

    `r` drives the sampling pipeline, `(k, q)` the projection pipeline;
    either side may be None when unused. `mode` records whether the sizes
    came from the closed-form expressions (possibly clamped to n, which
    `theory_clamped` flags) or were set any other way: the practical sizes
    or user overrides.
    """

    epsilon: float
    r: Optional[int] = None
    k: Optional[int] = None
    q: Optional[float] = None
    mode: str = MODE_OVERRIDE
    theory_clamped: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidEpsilon(f"eps must be in (0, 1), got {self.epsilon}")
        for name in ("r", "k"):
            size = getattr(self, name)
            if size is not None and check_integer(size, name) < 1:
                raise InvalidSpec(f"{name} must be >= 1, got {size}")
        if self.q is not None and not 0.0 < self.q <= 1.0:
            raise InvalidSparsity(f"q must be in (0, 1], got {self.q}")
        if self.mode not in (MODE_THEORY, MODE_OVERRIDE):
            raise InvalidSpec(f"unknown mode {self.mode!r}")

    @classmethod
    def theory(cls, n: int, d: int, eps: float) -> "SketchParams":
        """Sizes from the closed-form expressions, clamped to n when needed."""
        r = sampling_size_r(n, d, eps)
        qk = projection_params(n, d, eps)
        return cls(
            epsilon=eps,
            r=r.value,
            k=qk.k,
            q=qk.q,
            mode=MODE_THEORY,
            theory_clamped=r.clamped or qk.clamped,
        )

    @classmethod
    def practical(cls, n: int, d: int, eps: float) -> "SketchParams":
        """Desk-scale defaults: r = 4 d ln(40nd), k = 4 d / eps, and the
        q expression with its constant shrunk to 0.1, all capped at n."""
        if not 1 <= d <= n:
            raise DimensionMismatch(f"need 1 <= d <= n, got d={d}, n={n}")
        if not 0.0 < eps < 1.0:
            raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")
        r = min(n, math.ceil(_PRACTICAL_R_FACTOR * d * math.log(40.0 * n * d)))
        k = min(n, math.ceil(_PRACTICAL_K_FACTOR * d / eps))
        q = min(1.0, _q_expression(n, d, _PRACTICAL_C_Q))
        return cls(epsilon=eps, r=r, k=k, q=q, mode=MODE_OVERRIDE)

    @classmethod
    def with_overrides(
        cls,
        n: int,
        d: int,
        eps: float,
        theory: bool = False,
        r: Optional[int] = None,
        k: Optional[int] = None,
        q: Optional[float] = None,
    ) -> "SketchParams":
        """The closed-form sizes when `theory` is set; otherwise the
        practical sizes, with each of r, k and q that is not None in place
        of its practical value."""
        if theory:
            return cls.theory(n, d, eps)
        given = {key: v for key, v in (("r", r), ("k", k), ("q", q)) if v is not None}
        return replace(cls.practical(n, d, eps), **given)


@dataclass(frozen=True)
class SamplingPlan:
    """r row indices drawn uniformly with replacement, plus the sqrt(n/r)
    rescale that makes the sampled Gram matrix unbiased."""

    n: int
    r: int
    indices: np.ndarray
    scale: float

    def __post_init__(self):
        if self.indices.shape != (self.r,):
            raise InvalidSpec(f"expected {self.r} indices, got {self.indices.shape}")
        if self.r >= 1 and self.indices.size:
            lo, hi = int(self.indices.min()), int(self.indices.max())
            if lo < 0 or hi >= self.n:
                raise InvalidSpec(f"indices must lie in [0, {self.n})")
        # Written as `not x <= bound` so that a NaN scale fails too.
        if not abs(self.scale * self.scale * self.r - self.n) <= 1e-12 * self.n:
            raise InvalidSpec("scale^2 * r must equal n")


def identity_plan(n: int) -> SamplingPlan:
    """Degenerate plan selecting every row once with unit scale."""
    return SamplingPlan(n=n, r=n, indices=np.arange(n, dtype=np.int64), scale=1.0)


def draw_sampling_plan(
    n: int, r: int, seed: int, label: str = "sampling-plan"
) -> SamplingPlan:
    """Draw r i.i.d. uniform row indices (with replacement, duplicates kept)."""
    if r < 1:
        raise InvalidSpec(f"need r >= 1, got {r}")
    idx = stream(seed, label).integers(0, n, size=r).astype(np.int64)
    return SamplingPlan(n=n, r=r, indices=idx, scale=math.sqrt(n / r))


def apply_sampling(plan: SamplingPlan, m) -> np.ndarray:
    """Rows indices[t] of m, each rescaled by sqrt(n/r); equals S^T m for
    the explicit sampling matrix S."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] != plan.n:
        raise DimensionMismatch(f"matrix has {m.shape[0]} rows, plan expects {plan.n}")
    return m[plan.indices] * plan.scale


@dataclass(frozen=True)
class SparseProjection:
    """Sparse k x n projection stored in CSR form.

    Cells are nonzero independently with probability q; a nonzero is
    +-1/sqrt(kq) with a fair sign. Row i's nonzeros are at columns
    cols[indptr[i]:indptr[i + 1]] (ascending in a drawn projection), with
    the +-1 factors in the same slice of `signs`; the shared magnitude is
    stored once.
    """

    k: int
    n: int
    q: float
    indptr: np.ndarray
    cols: np.ndarray
    signs: np.ndarray
    magnitude: float
    seed: int
    label: str = field(default="sparse-projection", compare=False)

    def __post_init__(self):
        if self.indptr.shape != (self.k + 1,):
            raise InvalidSpec(
                f"indptr must have shape ({self.k + 1},), got {self.indptr.shape}"
            )
        if self.cols.ndim != 1 or self.cols.shape != self.signs.shape:
            raise InvalidSpec("cols and signs must be 1-D of equal length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.cols.shape[0]:
            raise InvalidSpec(f"indptr must run from 0 to {self.cols.shape[0]}")
        if (self.indptr[1:] < self.indptr[:-1]).any():
            raise InvalidSpec("indptr must be non-decreasing")
        if self.cols.size and (self.cols.min() < 0 or self.cols.max() >= self.n):
            raise InvalidSpec(f"cols must lie in [0, {self.n})")
        if not 0.0 < self.magnitude < math.inf:
            raise InvalidSpec(f"magnitude must be positive and finite, got {self.magnitude}")

    @property
    def nnz(self) -> int:
        return int(self.cols.shape[0])

    @property
    def rows(self) -> np.ndarray:
        """Row index of each nonzero, derived from `indptr`."""
        return np.repeat(np.arange(self.k, dtype=np.int32), np.diff(self.indptr))

    @property
    def values(self) -> np.ndarray:
        return self.signs * self.magnitude

    def dense(self) -> np.ndarray:
        out = np.zeros((self.k, self.n))
        out[self.rows, self.cols] = self.values
        return out


def _batch_size(cells: int, q: float) -> int:
    """Gaps to draw for `cells` cells still open: their expected nonzeros
    plus four standard deviations and 16, at most `_CHUNK`."""
    expect = cells * q
    return min(_CHUNK, int(expect + 4.0 * math.sqrt(expect)) + 16)


def _geometric_gaps(rng, q: float, cap: int, exps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`np.minimum(rng.geometric(q, out.shape), cap)` written into `out`,
    bit for bit and from the same stream.

    Below q = 1/3 numpy inverts one standard exponential per variate,
    ceil(-E / log1p(-q)) (Devroye, 1986, ch. X.2), and evaluates log1p(-q)
    anew each time; here the exponentials are drawn in one call into
    `exps` and divided by the constant. From 1/3 on numpy searches the CDF
    with one uniform per variate, and that is left to numpy. `cap` is an
    integer below 2^53, exact as a float, so the cap can come before the
    cast to int64; it also absorbs the quotient's overflow to inf at
    subnormal q, where numpy's C loop returns INT64_MAX without a warning.
    """
    if q >= 1.0 / 3.0:
        return np.minimum(rng.geometric(q, size=out.shape[0]), cap, out=out)
    rng.standard_exponential(out=exps)
    with np.errstate(over="ignore"):
        exps /= -math.log1p(-q)
    np.ceil(exps, out=exps)
    return np.minimum(exps, cap, out=out, casting="unsafe")


def draw_sparse_projection(
    k: int, n: int, q: float, seed: int, label: str = "sparse-projection"
) -> SparseProjection:
    """Draw the k x n sparse projection for sparsity q, straight into CSR.

    Each cell is nonzero independently with probability q. For q < 1 the
    nonzero cells, in row-major order, sit at `last + cumsum(gaps)` for
    i.i.d. geometric(q) gaps from the derived stream (seed, label +
    "/positions"): O(nnz) random numbers, and never the k x n grid. The
    gaps are numpy's `Generator.geometric` variates: below q = 1/3 drawn
    as its inversion of standard exponentials with log1p(-q) taken once,
    from 1/3 on by `Generator.geometric` itself (`_geometric_gaps`). They
    come at most `_CHUNK` at a time into two buffers reused by every
    batch, and each batch is summed in place into positions and reduced to
    int32 columns (a mask when n is a power of two) and row ends before
    the next is drawn; every gap takes one variate, so the batch size
    moves no byte. At q = 1 no position is drawn. The sign of the i-th
    nonzero is the top bit of the i-th byte of the raw (seed, label)
    stream. Draws are deterministic given (seed, label).
    """
    if k < 1 or n < 1:
        raise DimensionMismatch(f"need k, n >= 1, got k={k}, n={n}")
    if not 0.0 < q <= 1.0:
        raise InvalidSparsity(f"q must be in (0, 1], got {q}")
    total = k * n
    bounds = np.arange(n, total + n, n)
    if q == 1.0:
        ends, cols = bounds, np.tile(np.arange(n, dtype=np.int32), k)
    else:
        rng = stream(seed, label + "/positions")
        # A padded n is a power of two, where a mask finds the column.
        column, by = (np.bitwise_and, n - 1) if n & (n - 1) == 0 else (np.remainder, n)
        first = _batch_size(total, q)  # the largest batch
        exps, pos = np.empty(first), np.empty(first, dtype=np.int64)
        ends, col_parts, last = np.zeros(k, dtype=np.int64), [], -1
        while last < total - 1:
            size = _batch_size(total - 1 - last, q)
            gaps = _geometric_gaps(rng, q, total + 1, exps[:size], pos[:size])
            # Integer sums: last + cumsum(gaps) to the bit. Capped gaps keep
            # them in int64 even when q is tiny.
            gaps[0] += last
            cells = np.cumsum(gaps, out=gaps)
            last = int(cells[-1])
            cells = cells[: cells.searchsorted(total)]
            ends += cells.searchsorted(bounds)
            col_parts.append(column(cells, by, out=np.empty(cells.shape, np.int32),
                                    casting="unsafe"))
        cols = np.concatenate(col_parts)
    nnz = cols.shape[0]
    # The top bits of the raw bytes, in order, are exactly the bits
    # rng.integers(0, 2, nnz, np.uint8) returns (Lemire's method on buffered
    # bytes, which never rejects for two outcomes), without its per-byte loop.
    raw = stream(seed, label).bit_generator.random_raw(-(-nnz // 8)).astype("<u8", copy=False)
    signs = (raw.view(np.uint8)[:nnz] >> 7) * 2.0
    signs -= 1.0
    # int32 row pointers, like the columns, unless nnz needs more: scipy
    # then takes both as they are.
    index = np.int32 if nnz < 2**31 else np.int64
    indptr = np.concatenate(([0], ends), dtype=index)
    return SparseProjection(
        k=k, n=n, q=q, indptr=indptr, cols=cols, signs=signs,
        magnitude=1.0 / math.sqrt(k * q), seed=int(seed), label=label,
    )


def apply_sparse_projection(t: SparseProjection, m) -> np.ndarray:
    """Product T m in O(nnz(T) * cols(m)) time, for a vector or a matrix m.

    Each row sums its nonzeros from zero in ascending column order: the
    product is scipy's public `csr_array @ m`, on views of the projection's
    own arrays. From `_CHUNK` nonzeros on, the k rows are cut into one run
    per worker (`workers.split`), each run an operator of its own rows whose
    product goes into those rows of one output that the calling thread
    allocates first; below that, or with a single row, the calling thread
    does it all. The bytes are those of the serial product either way, and
    no run copies the projection, so peak memory stays flat. A fully dense
    draw (q = 1) goes through BLAS instead. The draw stays on
    the calling thread: its geometric gaps come from one stream in order,
    and split draws would change the bytes.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (1, 2) or m.shape[0] != t.n:
        raise DimensionMismatch(f"operand has shape {m.shape}, projection expects {t.n} rows")
    if t.nnz == t.k * t.n:
        # The signs fill the grid in row-major order.
        return (t.signs.reshape(t.k, t.n) @ m) * t.magnitude
    m = np.ascontiguousarray(m)  # scipy ravels it: one copy, not one per run
    out = np.empty((t.k, *m.shape[1:]))

    def rows(lo, hi):
        a, b = t.indptr[lo], t.indptr[hi]
        # Views set on an empty operator: the (data, indices, indptr)
        # constructor copies a slice under half its array.
        run = scipy.sparse.csr_array((hi - lo, t.n))
        run.indptr, run.indices, run.data = t.indptr[lo : hi + 1] - a, t.cols[a:b], t.signs[a:b]
        out[lo:hi] = run @ m

    if t.nnz < _CHUNK:
        rows(0, t.k)
    else:
        workers.split(rows, t.k)
    out *= t.magnitude
    return out
