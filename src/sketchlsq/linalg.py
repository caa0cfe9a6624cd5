"""Dense linear-algebra kernels shared by every other module.

Exact least squares, orthonormal bases, singular values (LAPACK's SVD of
the matrix itself) and condition numbers of tall-thin matrices, exact
spectral norms of symmetric matrices, and orthogonal projections. Three
factorizations, each where it pays:

  - every least-squares solve takes x and the residual norm from the R of
    the stacked [M | v] alone (geqrf): no Q, no residual pass;
  - `qr_factor` forms Householder's Q, for `gen_problem`'s pinned bytes
    and as the basis wherever no sketch preconditions one;
  - `orthonormal_basis`, given the R of a sketch of its input, makes one
    BLAS-3 CholeskyQR pass after A R_s^-1 and returns R too: 10-11 ms at
    2^14 x 50 on a 2-vCPU VM, plus 5 ms for the R of a 3461-row sketch.
    Without R_s, or when that pass fails, it is `qr_factor`: 35-51 ms
    there.

All functions are pure: inputs are validated (finite entries, compatible
shapes) and never mutated, so concurrent calls on shared arrays are safe.

LAPACK and BLAS come from numpy's OpenBLAS: QR, Cholesky, SVD, the
symmetric eigensolve and every product. This is the only module that
imports `scipy.linalg`, for two kernels numpy lacks. scipy ships a second
OpenBLAS with a thread pool of its own, and both kernels run serially in
it, so that pool never wakes to contend with numpy's for the cores:

  - `solve_triangular`, the d x d back substitution of every
    least-squares solve, on R scaled by a power of two, which fixes the
    bytes of every solution;
  - `norm`, BLAS nrm2 on vectors, a scaled sum of squares that neither
    overflows nor underflows at entry scales of 1e+-300 (`vector_norm`).

Both take vectors only: a matrix right-hand side wakes scipy's pool
(`solve_triangular` on a 50 x 50 identity took a `certify-ill` op from
0.09 s to 0.16 s on that VM), so d x d factors apply as `q @ inv(c)`.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import norm, solve_triangular

from .errors import DimensionMismatch, InvalidSpec, RankDeficient

# Relative floor on the R diagonal below which a matrix is treated as
# rank deficient. Hard error by design: no pseudo-rank fallback.
RANK_TOL = 1e-12

# Largest kappa(C) of the one CholeskyQR pass after a sketch's R for which
# U^T U = I holds to roundoff; a worse-conditioned pass falls back.
_ONE_PASS_COND = 16.0


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


def _as_tall(a) -> np.ndarray:
    """`as_matrix`, with at least as many rows as columns."""
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"need rows >= cols, got {a.shape[0]} x {a.shape[1]}")
    return a


def _require_full_rank(values: np.ndarray, what: str = "R diagonal") -> None:
    small, large = np.abs(values).min(), np.abs(values).max()
    if small <= RANK_TOL * large:
        raise RankDeficient(f"{what} ratio {small:.3e}/{large:.3e} below {RANK_TOL:g}")


@dataclass(frozen=True)
class QrFactors:
    """Thin QR factors: q has orthonormal columns, r is upper triangular
    with a nonnegative diagonal and exact zeros below it."""

    q: np.ndarray
    r: np.ndarray


def qr_factor(a) -> QrFactors:
    """Thin Householder QR of a tall matrix, Q formed: a = q @ r with
    q.T @ q = I_d. RankDeficient if any |R_ii| <= 1e-12 * max_j |R_jj|."""
    q, r = np.linalg.qr(_as_tall(a), mode="reduced")
    # Fix the sign ambiguity so the R diagonal is nonnegative.
    flip = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q = q * flip
    r = np.triu(flip[:, None] * r)
    _require_full_rank(np.diag(r))
    return QrFactors(q, r)


def _stacked_lstsq(mv: np.ndarray) -> tuple[np.ndarray, float]:
    """x and rho = min ||M x - v|| from the R of a validated [M | v] alone,
    [[R_M, Q^T v], [0, +-rho]] (Golub and Van Loan, Matrix Computations,
    5.3); rho = 0 for a square M. M's own reflectors come first, so the
    rank test sees `qr_factor(M)`'s R diagonal. Overflow of x itself, or of
    rho, is InvalidSpec."""
    d = mv.shape[1] - 1
    r = np.linalg.qr(mv, mode="r")
    _require_full_rank(np.diag(r)[:d])
    # x is scale-free but R x is not: R ~ 1e300 times x ~ 1e10 overflows, so
    # [R_M | Q^T v] is first scaled, exactly, by a power of two that takes
    # R_M near 1.
    with np.errstate(over="ignore", invalid="ignore"):
        rs = np.ldexp(r[:d], -int(np.frexp(np.abs(r[:d, :d]).max())[1]))
        x = solve_triangular(rs[:, :d], rs[:, d], lower=False, check_finite=False)
    rho = abs(float(r[d, d])) if r.shape[0] > d else 0.0
    if not (np.isfinite(x).all() and np.isfinite(rho)):
        raise InvalidSpec("the least-squares solve overflowed float64; scale A and b toward 1")
    return x, rho


def solve_exact_ls(a, b) -> np.ndarray:
    """Minimizer of ||a x - b||_2 for a full-column-rank tall matrix.

    Of the module's three factorizations this is the R of [a | b], which
    holds Q^T b, so no Q is formed; Householder's Q stays for `gen_problem`'s
    pinned bytes and the basis without a sketch's R, CholeskyQR for the
    basis with one. Raises
    RankDeficient as `qr_factor`, InvalidSpec on a float64 overflow.
    """
    a = _as_tall(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"matrix has {a.shape[0]} rows, rhs has {b.shape[0]}")
    return _stacked_lstsq(np.column_stack([a, b]))[0]


def _preconditioned_pass(a: np.ndarray, r_s: np.ndarray) -> Optional[QrFactors]:
    """a = U C r_s by one CholeskyQR pass on U_0 = a r_s^-1, U = U_0 C^-1
    with C^T C = U_0^T U_0, or None when one pass cannot give U^T U = I to
    roundoff: r_s is singular, the Cholesky factor fails, or kappa(C) > 16
    (one pass leaves U^T U - I at about kappa(C)^2 u)."""
    # Past 2^+-64, a and r_s are first scaled by one power of two, which is
    # exact, so r_s^-1 stays in range; at ordinary scales that pass over a
    # would change no byte.
    e = int(np.frexp(np.abs(r_s).max())[1])
    a_e, r_e = (np.ldexp(a, -e), np.ldexp(r_s, -e)) if abs(e) > 64 else (a, r_s)
    try:
        # A nearly singular or far-off r_s overflows here, into a Gram
        # matrix that is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            u = a_e @ np.linalg.inv(r_e)
            g = u.T @ u
        if not np.isfinite(g).all():
            return None
        c = np.linalg.cholesky(g).T
    except np.linalg.LinAlgError:
        return None
    if np.linalg.cond(c) > _ONE_PASS_COND:
        return None
    return QrFactors(u @ np.linalg.inv(c), c @ r_s)


def orthonormal_basis(a, r_s=None) -> QrFactors:
    """Thin QR factors a = U R, U an orthonormal basis of range(a), R upper
    triangular with a nonnegative diagonal.

    `r_s` is the R factor of a sketch X a (d x d; its rows are signed here
    so the diagonal is nonnegative). A sketch that embeds range(a) makes
    a r_s^-1 nearly orthonormal, so that is pass 1 and one plain CholeskyQR
    pass finishes it, R = C r_s: randomized CholeskyQR (Balabanov 2022;
    Garrison and Ipsen 2024). Without `r_s`, or when that pass fails
    because the sketch embeds range(a) badly or not at all, it is
    `qr_factor(a)`, LAPACK's Householder QR, byte for byte: 35-51 ms
    against the pass's 10-11 ms at 2^14 x 50 on a 2-vCPU VM (at 2 and 1
    BLAS threads), 0.2 ms at 1024 x 8.

    Any orthonormal basis of the column space is equivalent for the
    structural-condition diagnostics: a rotation U -> U Q leaves both the
    singular values of X U and ||(X U)^T v|| unchanged. RankDeficient when
    R fails `qr_factor`'s diagonal test; DimensionMismatch unless `r_s` is
    d x d.
    """
    a = _as_tall(a)
    d = a.shape[1]
    if r_s is not None:
        r_s = as_matrix(r_s, "R_s")
        if r_s.shape != (d, d):
            raise DimensionMismatch(f"R_s must be {d} x {d}, got {r_s.shape[0]} x {r_s.shape[1]}")
        r_s = np.triu(np.where(np.diag(r_s) < 0.0, -1.0, 1.0)[:, None] * r_s)
        factors = _preconditioned_pass(a, r_s)
        if factors is not None:
            _require_full_rank(np.diag(factors.r))
            return factors
    return qr_factor(a)


def gram_singular_values(m) -> np.ndarray:
    """Singular values of a tall matrix, descending, each >= 0.

    LAPACK's SVD of m itself (gesdd, `np.linalg.svd` without vectors). The
    Gram matrix m.T @ m is never formed, so the condition number is not
    squared: each value is accurate to about machine epsilon times
    sigma_max.
    """
    return np.linalg.svd(_as_tall(m), compute_uv=False)


def vector_norm(v) -> float:
    """Euclidean norm of a vector by BLAS nrm2, accurate to roundoff at
    any entry scale where the norm itself is finite, where np.linalg.norm
    squares the entries and overflows past ~1e154."""
    return float(norm(v))


def as_symmetric(m, name: str = "matrix") -> np.ndarray:
    """`as_matrix` of a square matrix that is symmetric up to its own
    rounding, within 1e-10 of its largest entry, made exactly symmetric by
    mirroring the lower triangle, the one LAPACK's symmetric eigensolve
    reads. DimensionMismatch otherwise."""
    m = as_matrix(m, name)
    n, d = m.shape
    if n != d:
        raise DimensionMismatch(f"{name} must be square, got {n} x {d}")
    if np.abs(m - m.T).max() > 1e-10 * np.abs(m).max():
        raise DimensionMismatch(f"{name} must be symmetric within 1e-10 of its largest entry")
    return np.tril(m) + np.tril(m, -1).T


def spectral_norm_sym(m) -> float:
    """Largest absolute eigenvalue of a symmetric matrix (`as_symmetric`),
    from the full symmetric eigensolve (LAPACK via `np.linalg.eigvalsh`)."""
    return float(np.abs(np.linalg.eigvalsh(as_symmetric(m))).max())


def project_out(u, b) -> np.ndarray:
    """Component of b orthogonal to the columns of u: b - u (u.T b)."""
    u = as_matrix(u)
    b = as_vector(b)
    if u.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"basis has {u.shape[0]} rows, vector has {b.shape[0]}")
    return b - u @ (u.T @ b)


def condition_number(a) -> float:
    """sigma_max / sigma_min of a full-column-rank tall matrix; RankDeficient
    when sigma_min <= 1e-12 sigma_max."""
    sv = gram_singular_values(a)
    _require_full_rank(sv, "singular-value")
    return float(sv[0] / sv[-1])
