"""Brute-force oracles used only by the tests.

Deliberately naive and independent of the library's own solve paths:
Gaussian elimination for the normal equations, characteristic-polynomial
coefficients via the trace recurrence for singular values, matrices built
around a known singular spectrum, triple-loop products for sparse
operators, the plain stage-by-stage Hadamard butterfly, the triplet
sparse-projection draws and product, the per-pair moment-bound loop, and
the frozen projection draw, Householder basis, shifted-CholeskyQR3 basis,
Householder least-squares solve, two-transform diagnostics and sketched-XU
diagnostics that pinned digests were taken with.
"""

import math
from typing import Optional

import numpy as np
import scipy.sparse
from scipy.linalg import solve_triangular

import sketchlsq.solver as solver
from sketchlsq.ensembles import EnsembleResult, _moment_pair
from sketchlsq.errors import DimensionMismatch, InvalidSpec, RankDeficient
from sketchlsq.linalg import (
    QrFactors,
    _as_tall,
    _require_full_rank,
    as_matrix,
    as_vector,
    gram_singular_values,
    project_out,
    qr_factor,
    vector_norm,
)
from sketchlsq.rng import stream
from sketchlsq.sketches import (
    SparseProjection,
    apply_sparse_projection,
    draw_sparse_projection,
)

# Largest kappa(C) of the one CholeskyQR pass after a sketch's R that the
# shifted-CholeskyQR3 basis accepted.
_ONE_PASS_COND = 16.0


def gaussian_solve(m, rhs):
    """Solve m x = rhs by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=np.float64)
    x = np.array(rhs, dtype=np.float64)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular matrix in oracle solve")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            x[row] -= f * x[col]
    out = np.zeros(n)
    for row in range(n - 1, -1, -1):
        out[row] = (x[row] - a[row, row + 1:] @ out[row + 1:]) / a[row, row]
    return out


def normal_equations_solve(a, b):
    """Explicit (A^T A)^{-1} A^T b, with the inverse formed column by column
    through Gaussian elimination."""
    g = a.T @ a
    d = g.shape[0]
    inv = np.column_stack([gaussian_solve(g, np.eye(d)[:, j]) for j in range(d)])
    return inv @ (a.T @ b)


def charpoly_coefficients(g):
    """Coefficients of det(t I - G) by the Faddeev-LeVerrier recurrence."""
    n = g.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(g)
    c = 1.0
    for k in range(1, n + 1):
        m = g @ m + c * np.eye(n)
        c = -np.trace(g @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def charpoly_singular_values(m):
    """Singular values of m as square roots of the characteristic-polynomial
    roots of m^T m (companion-matrix root finding, no symmetric eigensolve)."""
    g = m.T @ m
    roots = np.roots(charpoly_coefficients(g))
    vals = np.clip(roots.real, 0.0, None)
    return np.sqrt(np.sort(vals)[::-1])


def known_spectrum_matrix(n, d, kappa, seed):
    """U diag(s) V^T with random orthonormal U (n x d) and V (d x d), and s
    geometric from 1 down to 1/kappa. Returns the matrix and s: its singular
    values up to the rounding of the product, about 1e-16 relative to s[0]."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, d)))[0]
    v = np.linalg.qr(rng.standard_normal((d, d)))[0]
    s = np.geomspace(1.0, 1.0 / kappa, d)
    return (u * s) @ v.T, s


def dense_projection_product(t_dense, m):
    """Triple-loop product of a dense projection matrix and a matrix."""
    k, n = t_dense.shape
    d = m.shape[1]
    out = np.zeros((k, d))
    for i in range(k):
        for j in range(n):
            if t_dense[i, j] == 0.0:
                continue
            for c in range(d):
                out[i, c] += t_dense[i, j] * m[j, c]
    return out


def reference_butterfly(work):
    """Unnormalized Hadamard butterfly along axis 0, in place, one full pass
    per stage: stride n/2, n/4, ..., 1, each block updated as
    (top + bottom, top - bottom)."""
    n, d = work.shape
    h = n // 2
    while h >= 1:
        w = work.reshape(-1, 2, h, d)
        t = w[:, 0] + w[:, 1]
        u = w[:, 0] - w[:, 1]
        w[:, 0] = t
        w[:, 1] = u
        h //= 2


def counted_ops(transform, n, cols):
    """Run `transform` on an (n, cols) object array whose entries count
    every addition and subtraction made on them. Returns the count and the
    float values of the array, or of what `transform` returns."""
    tally = [0]

    class Counted:
        __slots__ = ("v",)

        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            tally[0] += 1
            return Counted(self.v + other.v)

        def __sub__(self, other):
            tally[0] += 1
            return Counted(self.v - other.v)

    work = np.empty((n, cols), dtype=object)
    for i in range(n):
        for j in range(cols):
            work[i, j] = Counted(float(i * cols + j))
    result = transform(work)
    values = work if result is None else result
    return tally[0], np.vectorize(lambda c: c.v, otypes=[float])(values)


def reference_rht(a, signs):
    """H D a with the reference butterfly, the operations of `apply_rht` in
    the same order."""
    work = np.asarray(a, dtype=np.float64) * signs[:, None]
    reference_butterfly(work)
    work *= 1.0 / np.sqrt(work.shape[0])
    return work


def reference_sparse_projection(k, n, q, seed, label="sparse-projection"):
    """COO triplets (rows, cols, signs) of the k x n sparse projection as
    drawn before the skip draw, the plain way: for q = 1 a fair sign bit per
    cell (as the current draw still does); for 0.02 < q < 1 one
    k x n grid of uniforms, row-major (u < q/2 gives +, q/2 <= u < q
    gives -); below that, geometric gaps between nonzero cells, then one
    uniform per sign."""
    rng = stream(seed, label)
    if q == 1.0:
        rows = np.repeat(np.arange(k, dtype=np.int32), n)
        cols = np.tile(np.arange(n, dtype=np.int32), k)
        bits = rng.integers(0, 2, size=k * n, dtype=np.uint8)
        return rows, cols, np.array([-1.0, 1.0])[bits]
    if q > 0.02:
        u = rng.random((k, n))
        mask = u < q
        rows, cols = np.nonzero(mask)
        signs = np.where(u[mask] < q / 2.0, 1.0, -1.0)
        return rows.astype(np.int32), cols.astype(np.int32), signs
    total = k * n
    chunks = []
    pos = -1
    while pos < total - 1:
        gaps = rng.geometric(q, size=max(16, int((total - 1 - pos) * q * 1.2) + 16))
        cum = pos + np.cumsum(gaps)
        chunks.append(cum[cum < total])
        pos = int(cum[-1])
    positions = np.concatenate(chunks).astype(np.int64)
    signs = np.where(rng.random(positions.shape[0]) < 0.5, 1.0, -1.0)
    return (positions // n).astype(np.int32), (positions % n).astype(np.int32), signs


def frozen_sparse_projection(k, n, q, seed, label="sparse-projection"):
    """The projection draw as it was before the skip draw: the triplets of
    `reference_sparse_projection`, packed as a `SparseProjection`. The
    digests of solves and ensembles taken before the re-roll hold on it."""
    rows, cols, signs = reference_sparse_projection(k, n, q, seed, label)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=k))))
    return SparseProjection(
        k=k, n=n, q=q, indptr=indptr.astype(np.int32), cols=cols, signs=signs,
        magnitude=1.0 / math.sqrt(k * q), seed=int(seed), label=label,
    )


def householder_orthonormal_basis(a, r_s=None):
    """The diagnostics' basis as it was before shifted CholeskyQR3:
    Householder QR with a nonnegative R diagonal, ignoring the sketch's
    `r_s`. The certificate digests taken before the re-roll hold on it."""
    return qr_factor(a)


def _cholesky_pass(q: np.ndarray, shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """One CholeskyQR pass, q = (q C^-1) C with C^T C = q^T q + shift
    tr(q^T q) I. LinAlgError when the Cholesky factor fails."""
    g = q.T @ q
    if not np.isfinite(g).all():
        raise np.linalg.LinAlgError("the Gram matrix is not finite")
    g[np.diag_indices(g.shape[0])] += shift * np.trace(g)
    c = np.linalg.cholesky(g).T
    return q @ np.linalg.inv(c), c


def _preconditioned_pass(a: np.ndarray, r_s: np.ndarray) -> Optional[QrFactors]:
    """a = U C r_s by one CholeskyQR pass on a r_s^-1, or None when one pass
    cannot give U^T U = I to roundoff: r_s is singular, the Cholesky factor
    fails, or kappa(C) > 16 (one pass leaves U^T U - I at about
    kappa(C)^2 u)."""
    # Past 2^+-64, a and r_s are first scaled by one power of two, which is
    # exact, so r_s^-1 stays in range; at ordinary scales that pass over a
    # would change no byte.
    e = int(np.frexp(np.abs(r_s).max())[1])
    a_e, r_e = (np.ldexp(a, -e), np.ldexp(r_s, -e)) if abs(e) > 64 else (a, r_s)
    try:
        # A nearly singular or far-off r_s overflows here, and the pass
        # fails on a Gram matrix that is not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            u, c = _cholesky_pass(a_e @ np.linalg.inv(r_e))
    except np.linalg.LinAlgError:
        return None
    if np.linalg.cond(c) > _ONE_PASS_COND:
        return None
    return QrFactors(u, c @ r_s)


def cholesky_qr3_orthonormal_basis(a, r_s=None) -> QrFactors:
    """The diagnostics' basis as it was before `qr_factor` replaced shifted
    CholeskyQR3: both routes of that `orthonormal_basis`, verbatim. The
    certificate digests taken before the re-roll hold on it.

    Thin QR factors a = U R by CholeskyQR, U an orthonormal basis of
    range(a), R upper triangular with a nonnegative diagonal.

    `r_s` is the R factor of a sketch X a (d x d; its rows are signed here
    so the diagonal is nonnegative). A sketch that embeds range(a) makes
    a r_s^-1 nearly orthonormal, so that is pass 1 and one plain pass
    finishes it, R = C r_s: randomized CholeskyQR (Balabanov 2022; Garrison
    and Ipsen 2024). Without `r_s`, or when that pass fails because the
    sketch embeds range(a) badly or not at all, it is shifted CholeskyQR3
    (Fukaya, Kannan, Nakatsukasa, Yamamoto and Yanagisawa, SISC 2020),
    R = C3 C2 C1: pass 1 factors Q^T Q + s I, s = 11 (nd + d(d+1)) 2^-53
    ||Q||_F^2, which holds up to kappa ~ 1e15; passes 2 and 3 are plain
    CholeskyQR. Either route works on a scaled exactly by a power of two
    where needed, so the products stay in range at any entry scale.

    Any orthonormal basis of the column space is equivalent for the
    structural-condition diagnostics: a rotation U -> U Q leaves both the
    singular values of X U and ||(X U)^T v|| unchanged. RankDeficient when a
    Cholesky factor of shifted CholeskyQR3 fails, or R fails `qr_factor`'s
    diagonal test; DimensionMismatch unless `r_s` is d x d.
    """
    a = _as_tall(a)
    n, d = a.shape
    if r_s is not None:
        r_s = as_matrix(r_s, "R_s")
        if r_s.shape != (d, d):
            raise DimensionMismatch(f"R_s must be {d} x {d}, got {r_s.shape[0]} x {r_s.shape[1]}")
        r_s = np.triu(np.where(np.diag(r_s) < 0.0, -1.0, 1.0)[:, None] * r_s)
        factors = _preconditioned_pass(a, r_s)
        if factors is not None:
            _require_full_rank(np.diag(factors.r))
            return factors
    e = int(np.frexp(np.abs(a).max())[1])
    q = np.ldexp(a, -e)
    r = np.eye(d)
    for shift in (11 * (n * d + d * (d + 1)) * 2.0**-53, 0.0, 0.0):
        try:
            q, c = _cholesky_pass(q, shift)
        except np.linalg.LinAlgError:
            raise RankDeficient("Cholesky factor of the Gram matrix failed") from None
        r = c @ r
    _require_full_rank(np.diag(r))
    return QrFactors(q, np.ldexp(r, e))


def householder_solve_exact_ls(a, b):
    """The least-squares solve as it was before the R of the stacked
    [A | b]: Q^T b by the Householder Q of `qr_factor`, then back
    substitution. The solution, certificate and cold-path digests taken
    before the re-roll hold on it."""
    a = as_matrix(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"matrix has {a.shape[0]} rows, rhs has {b.shape[0]}")
    f = qr_factor(a)
    with np.errstate(over="ignore", invalid="ignore"):
        x = solve_triangular(f.r, f.q.T @ b, lower=False, check_finite=False)
    if not np.isfinite(x).all():
        raise InvalidSpec("the least-squares solve overflowed float64; scale A and b toward 1")
    return x


def householder_exact_outcome(problem):
    """The exact solve as it was before the R of the stacked [A | b]: the
    Householder solution, then the nrm2 of its residual A x - b."""
    x = householder_solve_exact_ls(problem.a, problem.b)
    return x, vector_norm(problem.a @ x - problem.b)


def two_transform_diagnostics(problem, d_signs, op, sketched, eps):
    """The diagnostics as they were before X U came from the solve's own
    sketch: a second transform, of [U | b_perp], ignoring `sketched`. The
    basis is looked up in `solver` at call time, so the Householder-basis
    fixture reaches it. The certificate digests taken before the re-roll
    hold on it."""
    a_pad, b_pad = problem.stacked[:, :-1], problem.stacked[:, -1]
    u = solver.orthonormal_basis(a_pad).q
    bperp = project_out(u, b_pad)
    z = vector_norm(bperp)
    both = solver._apply(op, solver._transform(op, np.column_stack([u, bperp]), d_signs))
    check = solver.verify_conditions(both[:, :-1], both[:, -1], z, eps)
    sv = gram_singular_values(u.T @ a_pad)
    return solver.Diagnostics(
        z=z,
        gamma=solver.gamma_fraction(u, b_pad),
        kappa=float(sv[0] / sv[-1]),
        sigma_min=float(sv[-1]),
        **vars(check),
    )


def sketched_xu_diagnostics(problem, d_signs, op, sketched, eps):
    """The diagnostics as they were before the basis was preconditioned by
    the sketch's R: the basis from A alone, X U = (X H D A)(U^T A)^-1 from
    the solve's own sketch, and kappa and sigma_min from the d x d U^T A.
    The certificate digest taken before the re-roll holds on it."""
    a_pad, b_pad = problem.stacked[:, :-1], problem.stacked[:, -1]
    u = solver.orthonormal_basis(a_pad).q
    bperp = project_out(u, b_pad)
    z = vector_norm(bperp)
    uta = u.T @ a_pad
    xbperp = solver._apply(op, solver._transform(op, bperp[:, None], d_signs))[:, 0]
    e = -int(np.frexp(np.abs(uta).max())[1])
    xu = np.ldexp(sketched[:, :-1], e) @ np.linalg.inv(np.ldexp(uta, e))
    check = solver.verify_conditions(xu, xbperp, z, eps)
    sv = gram_singular_values(uta)
    return solver.Diagnostics(
        z=z,
        gamma=solver.gamma_fraction(u, b_pad),
        kappa=float(sv[0] / sv[-1]),
        sigma_min=float(sv[-1]),
        **vars(check),
    )


def reference_skip_projection(k, n, q, seed, label="sparse-projection"):
    """COO triplets (rows, cols, signs) of the k x n sparse projection for
    q < 1, drawn the plain way: k*n geometric(q) gaps in one call on the
    (seed, label + "/positions") stream, their cumulative sum minus one as
    row-major cell positions, cut at k*n; then one fair sign bit per
    nonzero from the (seed, label) stream."""
    gaps = stream(seed, label + "/positions").geometric(q, size=k * n)
    positions = np.cumsum(gaps) - 1
    positions = positions[positions < k * n]
    bits = stream(seed, label).integers(0, 2, size=positions.shape[0], dtype=np.uint8)
    return ((positions // n).astype(np.int32), (positions % n).astype(np.int32),
            np.array([-1.0, 1.0])[bits])


def reference_projection_product(k, n, rows, cols, signs, magnitude, m):
    """T m for T given as triplets, by the plain product's operations: BLAS
    on the sign grid when every cell is nonzero, otherwise a bincount of
    the signed entries for a vector and a COO -> CSR product for a matrix,
    times the magnitude."""
    m = np.asarray(m, dtype=np.float64)
    if rows.shape[0] == k * n:
        return (signs.reshape(k, n) @ m) * magnitude
    if m.ndim == 1:
        return np.bincount(rows, weights=signs * m[cols], minlength=k) * magnitude
    sp = scipy.sparse.csr_matrix((signs, (rows, cols)), shape=(k, n))
    return (sp @ m) * magnitude


def per_pair_moment_bound(n, k, q, seeds, pairs, base_seed=0):
    """`ensembles.moment_bound` as it was before one draw served every
    pair: each pair redraws the projection for every seed and applies it to
    its own [x y]. Returns the results and the (pairs, seeds) deltas."""
    results, all_deltas = [], np.empty((pairs, seeds))
    for pair_idx in range(pairs):
        x, y = _moment_pair(n, q, base_seed + 1000 * pair_idx)
        target = float(x @ y)
        bound = (2.0 / k) * 1.0 * 1.0 + (1.0 / (k * q)) * float(np.sum(x**2 * y**2))
        xy = np.column_stack([x, y])
        deltas = np.empty(seeds)
        for s in range(seeds):
            t = draw_sparse_projection(k, n, q, base_seed + s, label="ensemble/moment")
            tx, ty = np.ascontiguousarray(apply_sparse_projection(t, xy).T)
            deltas[s] = float(tx @ ty) - target
        all_deltas[pair_idx] = deltas
        second = float(np.mean(deltas**2))
        se = float(np.std(deltas) / math.sqrt(seeds))
        moment_ok = second <= 1.1 * bound
        unbiased_ok = abs(float(np.mean(deltas))) <= 3.0 * se
        results.append(
            EnsembleResult(
                f"moment-bound pair {pair_idx}",
                int(moment_ok) + int(unbiased_ok),
                2,
                1.0,
                details={
                    "ratio": round(second / bound, 4),
                    "mean_over_3se": round(abs(float(np.mean(deltas))) / (3 * se), 4),
                },
            )
        )
    return results, all_deltas
