"""Sketching operators and their size formulas.

Two operators reduce a preprocessed n-row problem to a small one: uniform
row sampling with replacement (rescaled by sqrt(n/r)) and a sparse random
projection whose nonzero cells are +-1/sqrt(kq), drawn a chunk of rows at
a time straight into CSR form. The sizes come in two fixed sets: the
paper's closed forms, which exceed n at desk scale (so they clamp to n and
flag that they did), and the practical sizes experiments normally run with.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse

from .errors import DimensionMismatch, InvalidEpsilon, InvalidSparsity, InvalidSpec
from .rng import stream

MODE_THEORY = "theory"
MODE_OVERRIDE = "override"

# Practical-size constants used by experiments (theory sizes exceed n).
_PRACTICAL_R_FACTOR = 4.0
_PRACTICAL_K_FACTOR = 4.0
_PRACTICAL_C_Q = 0.1

# Below this sparsity, drawing one uniform per cell wastes time; skip
# ahead with geometric gaps instead.
_SKIP_SAMPLING_Q = 0.02

# Uniforms per chunk of whole rows in the projection draw (1 MB of
# float64), so the draw never holds a k x n array.
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
        if self.r is not None and self.r < 1:
            raise InvalidSpec(f"r must be >= 1, got {self.r}")
        if self.k is not None and self.k < 1:
            raise InvalidSpec(f"k must be >= 1, got {self.k}")
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
        if abs(self.scale * self.scale * self.r - self.n) > 1e-12 * self.n:
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


def _draw_positions_sparse(rng: np.random.Generator, total: int, q: float) -> np.ndarray:
    """Indices of nonzero cells among `total` flattened cells, via geometric
    gaps; each cell is hit independently with probability q."""
    chunks = []
    pos = -1
    while pos < total - 1:
        remaining = total - 1 - pos
        size = max(16, int(remaining * q * 1.2) + 16)
        gaps = rng.geometric(q, size=size)
        cum = pos + np.cumsum(gaps)
        chunks.append(cum[cum < total])
        pos = int(cum[-1])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks).astype(np.int64)


def _row_ends(flat: np.ndarray, rows: int, n: int) -> np.ndarray:
    """End offset of each row's run in sorted row-major cell positions of a
    rows x n block."""
    return flat.searchsorted(np.arange(n, (rows + 1) * n, n))


def draw_sparse_projection(
    k: int, n: int, q: float, seed: int, label: str = "sparse-projection"
) -> SparseProjection:
    """Draw the k x n sparse projection for sparsity q, straight into CSR.

    For moderate q each cell consumes one uniform variate in row-major
    order (u < q/2 gives +, q/2 <= u < q gives -). The uniforms are drawn
    a chunk of whole rows at a time, about `_CHUNK` cells per chunk, so the
    k x n grid is never held; the order they are consumed in does not
    depend on the chunk size. For tiny q the nonzero positions come from
    geometric skips, and for q = 1 only the fair signs are random. All
    realize the same distribution; draws are deterministic given
    (seed, label).
    """
    if k < 1 or n < 1:
        raise DimensionMismatch(f"need k, n >= 1, got k={k}, n={n}")
    if not 0.0 < q <= 1.0:
        raise InvalidSparsity(f"q must be in (0, 1], got {q}")
    rng = stream(seed, label)
    magnitude = 1.0 / math.sqrt(k * q)
    if q == 1.0:
        # Each sign bit is the top bit of one byte of the raw stream, in
        # order: exactly the bits rng.integers(0, 2, k * n, np.uint8) returns
        # (Lemire's method on buffered bytes, which never rejects for two
        # outcomes), without its per-byte loop.
        raw = rng.bit_generator.random_raw(-(-k * n // 8)).astype("<u8", copy=False)
        signs = (raw.view(np.uint8)[: k * n] >> 7) * 2.0
        signs -= 1.0
        ends = [np.arange(n, (k + 1) * n, n)]
        cols = np.tile(np.arange(n, dtype=np.int32), k)
    elif q > _SKIP_SAMPLING_Q:
        step = max(1, _CHUNK // n)
        ends, col_parts, sign_parts = [], [], []
        done = 0
        for first in range(0, k, step):
            rows = min(step, k - first)
            u = rng.random(rows * n)
            flat = (u < q).nonzero()[0]
            ends.append(_row_ends(flat, rows, n) + done)
            col_parts.append(flat % n)
            sign_parts.append(np.where(u[flat] < q / 2.0, 1.0, -1.0))
            done += flat.shape[0]
        cols = np.concatenate(col_parts, dtype=np.int32)
        signs = np.concatenate(sign_parts)
    else:
        positions = _draw_positions_sparse(rng, k * n, q)
        ends = [_row_ends(positions, k, n)]
        cols = (positions % n).astype(np.int32)
        signs = np.where(rng.random(positions.shape[0]) < 0.5, 1.0, -1.0)
    # int32 row pointers, like the columns, unless nnz needs more: scipy
    # then takes both as they are.
    index = np.int32 if cols.shape[0] < 2**31 else np.int64
    indptr = np.concatenate(([0], *ends), dtype=index)
    return SparseProjection(
        k=k, n=n, q=q, indptr=indptr, cols=cols, signs=signs,
        magnitude=magnitude, seed=int(seed), label=label,
    )


def apply_sparse_projection(t: SparseProjection, m) -> np.ndarray:
    """Product T m in O(nnz(T) * cols(m)) time, for a vector or a matrix m.

    Each row sums its nonzeros in ascending column order; a fully dense
    draw (q = 1) goes through BLAS instead.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (1, 2) or m.shape[0] != t.n:
        raise DimensionMismatch(f"operand has shape {m.shape}, projection expects {t.n} rows")
    if t.nnz == t.k * t.n:
        # The signs fill the grid in row-major order.
        return (t.signs.reshape(t.k, t.n) @ m) * t.magnitude
    sp = scipy.sparse.csr_matrix((t.signs, t.cols, t.indptr), shape=(t.k, t.n))
    return (sp @ m) * t.magnitude
