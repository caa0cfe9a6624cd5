"""Column sampling for approximating A A^T by C C^T.

C consists of c columns of A drawn i.i.d. from a probability vector and
rescaled by 1/sqrt(c p_i), which makes C C^T an unbiased estimator of
A A^T. The guarantee that the spectral error stays below eps needs
||A||_2 <= 1, squared Frobenius norm at least 1/24, a probability floor
p_i >= beta ||A^(i)||^2 / ||A||_F^2, and the sample size from
`c_lower_bound`. The Gram estimate is accumulated streaming, so the
(often enormous) C never has to exist when only the error matters.

The column energies and the Gram matrix behind ||A||_2 are taken from A
scaled by one exact power of two when its largest entry lies far from 1,
so probabilities, M and ||A||_2 hold at any entry scale; a Gram product
that overflows float64 itself raises InvalidSpec.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    FrobeniusTooSmall,
    InvalidEpsilon,
    InvalidSpec,
    SpectralNormTooLarge,
    ZeroMatrix,
)
from .linalg import as_matrix, as_symmetric, spectral_norm_sym
from .rng import check_integer, stream

# Headroom on the probability floor and the spectral-norm hypothesis to
# absorb roundoff in the norms themselves.
_FLOOR_SLACK = 1e-12
_SPECTRAL_SLACK = 1e-8

# Entries up to 2^+-_ORDINARY_EXP square, and sum in any count numpy can
# hold, inside float64's normal range; past it A is scaled first.
_ORDINARY_EXP = 300


def _prescaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """A 2^-e and e for a validated A: e = 0, and A itself, while its
    largest entry lies within 2^+-_ORDINARY_EXP; else the exponent that
    takes that entry into [1/2, 1). Exact, so sums of squares of A 2^-e
    are those of A times 2^-2e, without overflow or underflow."""
    e = int(np.frexp(max(a.max(), -a.min()))[1])
    if abs(e) <= _ORDINARY_EXP:
        return a, 0
    return np.ldexp(a, -e), e


def _column_energy(a: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Squared column norms of a validated A 2^-e, their sum ||A 2^-e||_F^2,
    and the exponent e of `_prescaled`."""
    a, e = _prescaled(a)
    col_sq = np.sum(a * a, axis=0)
    total = float(col_sq.sum())
    if total == 0.0:
        raise ZeroMatrix("all columns are zero")
    return col_sq, total, e


def _finite(m: np.ndarray, what: str) -> np.ndarray:
    """m, or InvalidSpec when the product `what` overflowed float64."""
    if not np.isfinite(m).all():
        raise InvalidSpec(f"{what} overflows float64; scale A down first")
    return m


def column_probabilities(a) -> np.ndarray:
    """Exact column-norm-squared probabilities p_i = ||A^(i)||^2 / ||A||_F^2.

    These satisfy the sampling floor for every beta <= 1.
    """
    col_sq, total, _ = _column_energy(as_matrix(a))
    return col_sq / total


def uniform_probabilities(a) -> tuple[np.ndarray, float]:
    """Uniform probabilities plus the largest beta they satisfy the floor for."""
    a = as_matrix(a)
    n = a.shape[1]
    col_sq, total, _ = _column_energy(a)
    effective_beta = float(total / (n * col_sq.max()))
    return np.full(n, 1.0 / n), min(1.0, effective_beta)


@dataclass(frozen=True)
class ColumnSampler:
    """Sampling distribution over columns, the draw count c, and the floor
    constant beta the probabilities are certified for."""

    probs: np.ndarray
    c: int
    beta: float

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] < 1:
            raise InvalidSpec("probs must be a nonempty 1-D array")
        # Negated comparisons, so that NaN fails each check too.
        if not (p >= 0.0).all():
            raise InvalidSpec("probs must be nonnegative, with no NaN")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
            raise InvalidSpec(f"probs must sum to 1, got {p.sum()!r}")
        c = check_integer(self.c, "c")
        if c < 1:
            raise InvalidSpec(f"need c >= 1, got {c}")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidSpec(f"beta must be in (0, 1], got {self.beta}")
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "c", c)

    @classmethod
    def norm_squared(cls, a, c: int) -> "ColumnSampler":
        """Exact norm-squared probabilities; beta = 1."""
        return cls(probs=column_probabilities(a), c=c, beta=1.0)

    def validate_floor(self, a) -> float:
        """Check p_i >= beta ||A^(i)||^2 / ||A||_F^2 for every column and
        return M = max_i ||A^(i)|| / sqrt(p_i), the worst-case draw norm.
        InvalidSpec when M itself overflows float64."""
        a = _matched(a, self)
        col_sq, total, e = _column_energy(a)
        floor = self.beta * col_sq / total
        if (self.probs < floor - _FLOOR_SLACK).any():
            worst = int(np.argmax(floor - self.probs))
            raise InvalidSpec(
                f"probability floor violated at column {worst}: "
                f"p={self.probs[worst]:.3e} < {floor[worst]:.3e}"
            )
        live = self.probs > 0.0
        return _scaled_back(math.sqrt((col_sq[live] / self.probs[live]).max()), e, "M")


def _matched(a, sampler: ColumnSampler) -> np.ndarray:
    """A as a validated matrix with one column per sampler probability."""
    a = as_matrix(a)
    if a.shape[1] != sampler.probs.shape[0]:
        raise DimensionMismatch(
            f"matrix has {a.shape[1]} columns, sampler has {sampler.probs.shape[0]}"
        )
    return a


def _draw_indices(sampler: ColumnSampler, seed: int) -> np.ndarray:
    """c i.i.d. column indices by inverse-CDF with binary search. A uniform
    above the rounded sum of the probabilities takes the last column with
    p > 0, never a p = 0 column of infinite weight 1/(c p)."""
    cum = np.cumsum(sampler.probs)
    u = stream(seed, "exactly-c").random(sampler.c)
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, np.flatnonzero(sampler.probs)[-1])


def exactly_c(a, sampler: ColumnSampler, seed: int) -> np.ndarray:
    """Materialize C: column t is A^(i_t) / sqrt(c p_{i_t})."""
    a = _matched(a, sampler)
    idx = _draw_indices(sampler, seed)
    return a[:, idx] / np.sqrt(sampler.c * sampler.probs[idx])


def approx_gram(a, sampler: ColumnSampler, seed: int) -> np.ndarray:
    """C C^T accumulated without materializing C.

    Draws the same indices as `exactly_c` and merges the rank-one updates
    column-count-wise: C C^T = sum_i count_i / (c p_i) A^(i) A^(i)^T.
    """
    a = _matched(a, sampler)
    idx = _draw_indices(sampler, seed)
    counts = np.bincount(idx, minlength=sampler.probs.shape[0])
    live = counts > 0
    weights = counts[live] / (sampler.c * sampler.probs[live])
    # Most draws hit every column; A itself then gives the gather's bytes
    # in any layout, without copying it.
    cols = a if live.all() else a[:, live]
    with np.errstate(over="ignore", invalid="ignore"):
        g = (cols * weights) @ cols.T
    return _finite(g, "C C^T")


def c_lower_bound(frob_sq: float, beta: float, eps: float, delta: float) -> int:
    """Sample count sufficient for ||A A^T - C C^T||_2 <= eps with
    probability at least 1 - delta:

        c >= (96 F / (beta eps^2)) * ln(96 F / (beta eps^2 sqrt(delta))),

    where F is the squared Frobenius norm, required to be at least 1/24.
    """
    if frob_sq < 1.0 / 24.0:
        raise FrobeniusTooSmall(f"need ||A||_F^2 >= 1/24, got {frob_sq}")
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise InvalidSpec(f"delta must be in (0, 1), got {delta}")
    if not 0.0 < beta <= 1.0:
        raise InvalidSpec(f"beta must be in (0, 1], got {beta}")
    base = 96.0 * frob_sq / (beta * eps * eps)
    return math.ceil(base * math.log(base / math.sqrt(delta)))


def _scaled_back(value: float, e: int, what: str) -> float:
    """value 2^e, or InvalidSpec when it overflows float64."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise InvalidSpec(f"{what} overflows float64; scale A down first") from None


def spectral_norm_estimate(a) -> float:
    """||A||_2 from the symmetric eigensolve of the smaller-side Gram matrix
    of A 2^-e (`_prescaled`), times 2^e: any finite A whose norm is finite."""
    a, e = _prescaled(as_matrix(a))
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return _scaled_back(math.sqrt(max(spectral_norm_sym(gram), 0.0)), e, "||A||_2")


def rescale_to_unit_spectral(a) -> np.ndarray:
    """Divide A by its estimated spectral norm (plus a whisker of headroom)
    so the sample-size bound's ||A||_2 <= 1 hypothesis holds. Rescaling is
    deliberately caller-side, never silent."""
    a = as_matrix(a)
    s = spectral_norm_estimate(a)
    if s == 0.0:
        raise ZeroMatrix("cannot rescale the zero matrix")
    return a / (s * (1.0 + 1e-10))


def require_unit_spectral(a):
    """Raise unless ||A||_2 <= 1 + 1e-8; used when the bound is requested."""
    s = spectral_norm_estimate(a)
    if s > 1.0 + _SPECTRAL_SLACK:
        raise SpectralNormTooLarge(f"||A||_2 = {s} exceeds 1")


def theory_sample_size(a, eps: float, delta: float, sampler: ColumnSampler) -> int:
    """Sample size from `c_lower_bound` after checking the hypotheses
    (unit spectral norm, Frobenius floor, probability floor) on A itself."""
    a = as_matrix(a)
    require_unit_spectral(a)
    sampler.validate_floor(a)
    return c_lower_bound(float(np.sum(a * a)), sampler.beta, eps, delta)


def matmul_error(a, c_mat) -> float:
    """Spectral norm of A A^T - C C^T."""
    c_mat = as_matrix(c_mat)
    with np.errstate(over="ignore", invalid="ignore"):
        cct = c_mat @ c_mat.T
    return gram_error(a, _finite(cct, "C C^T"))


def gram_error(a, gram) -> float:
    """Spectral norm of A A^T - G for a precomputed Gram estimate G,
    symmetric to its own rounding (`as_symmetric`) at any scale."""
    a = as_matrix(a)
    gram = as_symmetric(gram, "Gram estimate")
    if gram.shape != (a.shape[0], a.shape[0]):
        raise DimensionMismatch(
            f"Gram estimate must be {a.shape[0]} x {a.shape[0]}, got {gram.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        aat = _finite(a @ a.T, "A A^T")
    return spectral_norm_sym(as_symmetric(aat) - gram)
