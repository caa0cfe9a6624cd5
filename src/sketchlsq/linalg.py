"""Dense linear-algebra kernels shared by every other module.

QR-based exact least squares, thin orthonormal bases, singular values and
condition numbers of tall-thin matrices by LAPACK's SVD of the matrix
itself, spectral norms of symmetric matrices by an exact symmetric
eigensolve, and orthogonal projections.

All functions are pure: inputs are validated (finite entries, compatible
shapes) and never mutated, so concurrent calls on shared arrays are safe.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular, svdvals

from .errors import DimensionMismatch, InvalidSpec, RankDeficient

# Relative floor on the R diagonal below which a matrix is treated as
# rank deficient. Hard error by design: no pseudo-rank fallback.
RANK_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a float64 2-D array with finite entries."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise DimensionMismatch(f"{name} must be nonempty, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise InvalidSpec(f"{name} contains NaN or Inf entries")
    return out


def as_vector(b, name: str = "vector") -> np.ndarray:
    """Validate and return `b` as a float64 1-D array with finite entries."""
    out = np.asarray(b, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got ndim={out.ndim}")
    if out.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be nonempty")
    if not np.isfinite(out).all():
        raise InvalidSpec(f"{name} contains NaN or Inf entries")
    return out


@dataclass(frozen=True)
class QrFactors:
    """Thin QR factors: q has orthonormal columns, r is upper triangular
    with strictly nonnegative diagonal (entries below the diagonal are
    exact zeros)."""

    q: np.ndarray
    r: np.ndarray


def qr_factor(a) -> QrFactors:
    """Thin Householder QR of a tall matrix.

    Args:
        a: (n, d) array with n >= d.

    Returns:
        QrFactors with a = q @ r, q.T @ q = I_d.

    Raises:
        RankDeficient: if any |R_ii| <= 1e-12 * max_j |R_jj|.
    """
    a = as_matrix(a)
    n, d = a.shape
    if n < d:
        raise DimensionMismatch(f"need rows >= cols, got {n} x {d}")
    q, r = np.linalg.qr(a, mode="reduced")
    # Fix the sign ambiguity so the R diagonal is nonnegative.
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q = q * flip
    r = np.triu(flip[:, None] * r)
    diag = np.abs(np.diag(r))
    if diag.min() <= RANK_TOL * diag.max():
        raise RankDeficient(
            f"R diagonal ratio {diag.min():.3e}/{diag.max():.3e} below {RANK_TOL:g}"
        )
    return QrFactors(q, r)


def solve_exact_ls(a, b) -> np.ndarray:
    """Minimizer of ||a x - b||_2 for a full-column-rank tall matrix.

    Solves through the thin QR factorization, so the residual satisfies the
    normal equations to roundoff.
    """
    a = as_matrix(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"matrix has {a.shape[0]} rows, rhs has {b.shape[0]}")
    f = qr_factor(a)
    return solve_triangular(f.r, f.q.T @ b, lower=False, check_finite=False)


def orthonormal_basis(a) -> np.ndarray:
    """Orthonormal basis of range(a) as an (n, d) matrix.

    Any orthonormal basis of the column space is equivalent for the
    structural-condition diagnostics: a rotation U -> U Q leaves both the
    singular values of X U and ||(X U)^T v|| unchanged.
    """
    return qr_factor(a).q


def gram_singular_values(m) -> np.ndarray:
    """Singular values of a tall matrix, descending, each >= 0.

    LAPACK's SVD of m itself (`scipy.linalg.svdvals`). The Gram matrix
    m.T @ m is never formed, so the condition number is not squared: each
    value is accurate to about machine epsilon times sigma_max.
    """
    m = as_matrix(m)
    if m.shape[0] < m.shape[1]:
        raise DimensionMismatch(f"need rows >= cols, got {m.shape[0]} x {m.shape[1]}")
    return svdvals(m, check_finite=False)


def spectral_norm_sym(m) -> float:
    """Largest absolute eigenvalue of a symmetric matrix, from the full
    symmetric eigensolve (LAPACK via `np.linalg.eigvalsh`)."""
    m = as_matrix(m)
    n, d = m.shape
    if n != d:
        raise DimensionMismatch(f"matrix must be square, got {n} x {d}")
    if np.abs(m - m.T).max() > 1e-10:
        raise DimensionMismatch("matrix must be symmetric within 1e-10")
    return float(np.abs(np.linalg.eigvalsh(m)).max())


def project_out(u, b) -> np.ndarray:
    """Component of b orthogonal to the columns of u: b - u (u.T b)."""
    u = as_matrix(u)
    b = as_vector(b)
    if u.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"basis has {u.shape[0]} rows, vector has {b.shape[0]}")
    return b - u @ (u.T @ b)


def condition_number(a) -> float:
    """sigma_max / sigma_min of a full-column-rank tall matrix."""
    sv = gram_singular_values(a)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise RankDeficient(
            f"singular-value ratio {sv[-1]:.3e}/{sv[0]:.3e} below {RANK_TOL:g}"
        )
    return float(sv[0] / sv[-1])
