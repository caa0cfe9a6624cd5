"""Column sampling for approximating A A^T by C C^T.

C consists of c columns of A drawn i.i.d. from a probability vector and
rescaled by 1/sqrt(c p_i), which makes C C^T an unbiased estimator of
A A^T. The guarantee that the spectral error stays below eps needs
||A||_2 <= 1, squared Frobenius norm at least 1/24, a probability floor
p_i >= beta ||A^(i)||^2 / ||A||_F^2, and the sample size from
`c_lower_bound`. The Gram estimate is accumulated streaming, so the
(often enormous) C never has to exist when only the error matters.
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
from .linalg import as_matrix, spectral_norm_sym
from .rng import stream

# Headroom on the probability floor and the spectral-norm hypothesis to
# absorb roundoff in the norms themselves.
_FLOOR_SLACK = 1e-12
_SPECTRAL_SLACK = 1e-8


def _column_energy(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared column norms of a validated A and their sum ||A||_F^2."""
    col_sq = np.sum(a * a, axis=0)
    total = float(col_sq.sum())
    if total == 0.0:
        raise ZeroMatrix("all columns are zero")
    return col_sq, total


def column_probabilities(a) -> np.ndarray:
    """Exact column-norm-squared probabilities p_i = ||A^(i)||^2 / ||A||_F^2.

    These satisfy the sampling floor for every beta <= 1.
    """
    col_sq, total = _column_energy(as_matrix(a))
    return col_sq / total


def uniform_probabilities(a) -> tuple[np.ndarray, float]:
    """Uniform probabilities plus the largest beta they satisfy the floor for."""
    a = as_matrix(a)
    n = a.shape[1]
    col_sq, total = _column_energy(a)
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
        if (p < 0.0).any():
            raise InvalidSpec("probs must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise InvalidSpec(f"probs must sum to 1, got {p.sum()!r}")
        if self.c < 1:
            raise InvalidSpec(f"need c >= 1, got {self.c}")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidSpec(f"beta must be in (0, 1], got {self.beta}")
        object.__setattr__(self, "probs", p)

    @classmethod
    def norm_squared(cls, a, c: int) -> "ColumnSampler":
        """Exact norm-squared probabilities; beta = 1."""
        return cls(probs=column_probabilities(a), c=c, beta=1.0)

    @classmethod
    def uniform(cls, a, c: int) -> "ColumnSampler":
        """Uniform probabilities with their computed effective beta."""
        probs, beta = uniform_probabilities(a)
        return cls(probs=probs, c=c, beta=beta)

    def validate_floor(self, a) -> float:
        """Check p_i >= beta ||A^(i)||^2 / ||A||_F^2 for every column and
        return M = max_i ||A^(i)|| / sqrt(p_i), the worst-case draw norm."""
        a = _matched(a, self)
        col_sq, total = _column_energy(a)
        floor = self.beta * col_sq / total
        if (self.probs < floor - _FLOOR_SLACK).any():
            worst = int(np.argmax(floor - self.probs))
            raise InvalidSpec(
                f"probability floor violated at column {worst}: "
                f"p={self.probs[worst]:.3e} < {floor[worst]:.3e}"
            )
        live = self.probs > 0.0
        return float(np.sqrt((col_sq[live] / self.probs[live]).max()))


def _matched(a, sampler: ColumnSampler) -> np.ndarray:
    """A as a validated matrix with one column per sampler probability."""
    a = as_matrix(a)
    if a.shape[1] != sampler.probs.shape[0]:
        raise DimensionMismatch(
            f"matrix has {a.shape[1]} columns, sampler has {sampler.probs.shape[0]}"
        )
    return a


def _draw_indices(sampler: ColumnSampler, seed: int) -> np.ndarray:
    """c i.i.d. column indices by inverse-CDF with binary search."""
    cum = np.cumsum(sampler.probs)
    u = stream(seed, "exactly-c").random(sampler.c)
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, sampler.probs.shape[0] - 1)


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
    cols = a[:, live]
    return (cols * weights) @ cols.T


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


def spectral_norm_estimate(a) -> float:
    """||A||_2 from the symmetric eigensolve of the smaller-side Gram matrix."""
    a = as_matrix(a)
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return math.sqrt(max(spectral_norm_sym(gram), 0.0))


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
    return gram_error(a, c_mat @ c_mat.T)


def gram_error(a, gram) -> float:
    """Spectral norm of A A^T - G for a precomputed Gram estimate G."""
    a = as_matrix(a)
    gram = as_matrix(gram)
    if gram.shape != (a.shape[0], a.shape[0]):
        raise DimensionMismatch(
            f"Gram estimate must be {a.shape[0]} x {a.shape[0]}, got {gram.shape}"
        )
    return spectral_norm_sym(a @ a.T - gram)
