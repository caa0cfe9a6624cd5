"""Sketch-and-solve pipeline and structural-condition diagnostics.

Both methods run one pipeline on the problem's [A | b]: draw the random
signs D and the sketch X over P = next_pow2(n) rows, apply the randomized
Hadamard transform H D, which reads [A | b] as zero-padded to P rows in
its own work copy, apply X, and solve the small problem exactly. The
methods differ only in X: `sketch_solve_sampling` samples r rows
uniformly and rescales them by sqrt(n/r), evaluating only those rows of
the transform; `sketch_solve_projection` multiplies by a sparse k x n
projection.
`SketchOutcome.timings` has the same phases for both:

  - "transform": the sign and sketch draws plus H D [A | b] (only the
    sampled rows of it when sampling),
  - "sketch-apply": the rescale, or the sparse product,
  - "small-solve": the exact solve of the sketched problem,
  - "diagnostics": the certificate below, only when one is asked for,
  - "total": the whole call, residual and diagnostics included.

Diagnostics (opt-in, O(n d^2)) measure the two structural conditions that
make the small solution a relative-error approximation of the full one:

  - subspace embedding: every singular value of X U satisfies
    sigma^2 >= 1/sqrt(2), and
  - cross term: ||(X U)^T X b_perp||^2 <= eps * Z^2 / 2,

where U is an orthonormal basis of range(A), b_perp the out-of-range part
of b, and Z the optimal residual. When both hold, the residual and
forward-error bounds follow deterministically. Both are read off the
sketch the solve already holds: X A = Q_s R_s, A = U R from one CholeskyQR
pass on A R_s^-1, and X U = Q_s (R_s R^-1), whose d x d factor R_s R^-1
has the singular values of X U, with relative accuracy about kappa(A)
times the unit roundoff; only b_perp is transformed again. One product
U^T b gives b_perp, Z and the fraction gamma of ||b|| inside range(A).

Keep every hadamard, sketches and linalg call a lookup of this module's
globals at call time: the benchmark's spans and the tests wrap or replace
those names here, and a call bound any other way would escape them
silently.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidEpsilon,
    InvalidGamma,
    InvalidSpec,
    RankDeficient,
    ZeroRhs,
)
from .hadamard import SignDiagonal, apply_rht, next_pow2, partial_rht_rows, sample_signs
from .linalg import (
    _stacked_lstsq,
    as_matrix,
    as_vector,
    gram_singular_values,
    orthonormal_basis,
    solve_exact_ls,
    vector_norm,
)
from .rng import check_integer
from .sketches import (
    SamplingPlan,
    SketchParams,
    SparseProjection,
    apply_sparse_projection,
    draw_sampling_plan,
    draw_sparse_projection,
    identity_plan,
)

METHOD_SAMPLING = "sampling"
METHOD_PROJECTION = "projection"
# The sampling pipeline with CGNR as its small solver.
METHOD_CGNR = "cgnr"

EMBEDDING_FLOOR = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class LsProblem:
    """Overdetermined pair (A, b) with n >= d >= 1.

    Construction validates A and b and copies them once into `stacked`,
    the n x (d+1) [A | b] with no zero rows; `a` and `b` are views of it.
    The transform reads it as zero-padded to a power of two, and zero rows
    leave the minimizer and the optimal residual those of (A, b).

    Full column rank is assumed, as the bounds require, and checked lazily:
    exact solves raise RankDeficient when it fails.
    """

    a: np.ndarray
    b: np.ndarray
    stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        b = as_vector(self.b, "b")
        n, d = a.shape
        if n != b.shape[0]:
            raise DimensionMismatch(f"A has {n} rows, b has {b.shape[0]}")
        if n < d:
            raise DimensionMismatch(f"need n >= d, got {n} x {d}")
        stacked = np.column_stack([a, b])
        object.__setattr__(self, "stacked", stacked)
        object.__setattr__(self, "a", stacked[:, :d])
        object.__setattr__(self, "b", stacked[:, d])

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class ConditionCheck:
    """Measured structural conditions for one sketch draw."""

    sigma_xu: np.ndarray
    cross_term: float
    embedding_ok: bool
    cross_term_ok: bool


@dataclass(frozen=True)
class Diagnostics:
    """Embedding spectrum, cross term, and problem geometry for one solve.

    `sigma_xu` and `cross_term` come from the solve's own sketch X A =
    Q_s R_s: X U = Q_s (R_s R^-1), R the R factor of A = U R, so they are
    read off the d x d R_s R^-1 and carry a relative error of about kappa(A)
    times the unit roundoff (~2e-4 at kappa = 1e12, ~2e-3 at 1e13); X b_perp
    is a transform of b_perp itself. Past kappa ~ 1e12 a flag whose value
    lies within that fraction of its threshold may differ from the exact
    one. `cross_term` is the squared norm ||(X U)^T X b_perp||^2, so it
    overflows to inf once entries exceed ~1e154; `cross_term_ok` compares
    norms and stays exact at any scale.
    `kappa` and `sigma_min` are A's, from one SVD of the d x d matrix R,
    ready for `predicted_error_bounds`; the solve has judged the rank, so
    `kappa` is not retested and can exceed 1e12.
    On a numerically consistent problem (b in range(A), `gamma` = 1), z
    and b_perp are roundoff, so `cross_term_ok` compares roundoff with
    roundoff and says nothing about the draw. At 4096 x 10, practical
    sizes, sampling seeds 0-19, it held on 0 of 20 draws for each kind at
    kappa = 10, and on 20 of 20 for `ill-conditioned` at kappa = 1e2, 1e4
    and 1e8; `embedding_ok` held on 19 or 20.
    """

    sigma_xu: np.ndarray
    cross_term: float
    z: float
    gamma: float
    kappa: float
    sigma_min: float
    embedding_ok: bool
    cross_term_ok: bool


@dataclass(frozen=True)
class SketchOutcome:
    """Result of one sketched solve; residual_tilde is measured against the
    original (A, b), never the sketched system."""

    x_tilde: np.ndarray
    residual_tilde: float
    method: str
    params: SketchParams
    seed: int
    timings: dict
    diagnostics: Optional[Diagnostics] = None
    retries: int = 0


def gamma_fraction(u, b) -> float:
    """Fraction of ||b|| lying in the column space spanned by u."""
    u = as_matrix(u)
    b = as_vector(b)
    if u.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"basis has {u.shape[0]} rows, vector has {b.shape[0]}")
    return _gamma(u.T @ b, b)


def _gamma(utb: np.ndarray, b: np.ndarray) -> float:
    """||U^T b|| / ||b||, given U^T b for an orthonormal U."""
    nb = vector_norm(b)
    if nb == 0.0:
        raise ZeroRhs("gamma undefined for b = 0")
    g = vector_norm(utb) / nb
    if g > 1.0 + 1e-12:
        raise InvalidGamma(f"computed fraction {g} exceeds 1")
    return min(g, 1.0)


def verify_conditions(xu, xbperp, z: float, eps: float) -> ConditionCheck:
    """Measure the embedding and cross-term conditions from the sketched
    basis X U and the sketched out-of-range component X b_perp, for eps
    in (0, 1). Both rotated onto range(X A), Q_s^T X U and Q_s^T X b_perp,
    give the same conditions from d rows."""
    xu = as_matrix(xu, "XU")
    xbperp = as_vector(xbperp, "Xb_perp")
    if xu.shape[0] != xbperp.shape[0]:
        raise DimensionMismatch(
            f"XU has {xu.shape[0]} rows, Xb_perp has {xbperp.shape[0]}"
        )
    if not z >= 0.0:
        raise InvalidSpec(f"z must be >= 0, got {z}")
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")
    sigma = gram_singular_values(xu)
    # ||v|| <= Z sqrt(eps/2) is ||v||^2 <= eps Z^2 / 2 without the squares,
    # which overflow or underflow at extreme scales.
    cross = vector_norm(xu.T @ xbperp)
    return ConditionCheck(
        sigma_xu=sigma,
        cross_term=cross * cross,
        embedding_ok=bool(sigma[-1] ** 2 >= EMBEDDING_FLOOR),
        cross_term_ok=bool(cross <= z * math.sqrt(eps / 2.0)),
    )


@dataclass(frozen=True)
class ErrorBounds:
    """Right-hand sides of the three relative-error bounds.

    forward_bound_gamma is None when gamma = 0 (the tangent blows up and
    the bound is vacuous).
    """

    residual_bound: float
    forward_bound_gamma: Optional[float]
    forward_bound_z: float


def predicted_error_bounds(
    kappa: float, gamma: float, eps: float, x_norm: float, z: float, sigma_min: float
) -> ErrorBounds:
    """Evaluate the bound formulas (1+eps) Z, sqrt(eps) kappa sqrt(1/gamma^2 - 1)
    ||x_opt||, and sqrt(eps) Z / sigma_min."""
    if not 0.0 <= gamma <= 1.0:
        raise InvalidGamma(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"eps must be in (0, 1), got {eps}")
    # Written as `not x >= ...` so that NaN fails each check too.
    if not kappa >= 1.0:
        raise InvalidSpec(f"kappa must be >= 1, got {kappa}")
    if not sigma_min > 0.0:
        raise InvalidSpec(f"sigma_min must be > 0, got {sigma_min}")
    if not z >= 0.0:
        raise InvalidSpec(f"z must be >= 0, got {z}")
    if not x_norm >= 0.0:
        raise InvalidSpec(f"x_norm must be >= 0, got {x_norm}")
    residual_bound = (1.0 + eps) * z
    if gamma == 0.0:
        forward_gamma = None
    else:
        forward_gamma = math.sqrt(eps) * kappa * math.sqrt(gamma**-2 - 1.0) * x_norm
    forward_z = math.sqrt(eps) * z / sigma_min
    return ErrorBounds(residual_bound, forward_gamma, forward_z)


def cgnr_solve(m, v, tol: float = 1e-10, max_iter: Optional[int] = None) -> np.ndarray:
    """Conjugate gradient on the normal equations of min ||m x - v||.

    Stops when ||m^T (v - m x)|| <= tol * ||m^T v||, or at the roundoff
    floor 1e-14 ||m||_F ||v|| (below which the normal-equations residual
    cannot be resolved; in particular v orthogonal to range(m) returns
    x = 0 immediately). With orthonormal columns this takes a single step.

    The iteration runs on m and v scaled by powers of two to a largest
    entry in [1/2, 1), which is exact, and scales x back: the result is
    the same at every entry scale, with the unscaled iteration's bytes
    wherever that stays in float64's normal range. A minimizer outside
    that range raises InvalidSpec.

    Without a preconditioner, CG on the normal equations squares kappa(m):
    it converges in max_iter (default 10 d + 20) steps only for
    well-conditioned m, and misses tol = 1e-12 from about kappa(m) = 1e4
    on, raising ConvergenceFailure; the qr small solver has no such limit.
    InvalidSpec unless tol >= 0 (NaN included) and max_iter is an integer
    >= 0.
    """
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"matrix has {m.shape[0]} rows, rhs has {v.shape[0]}")
    if not tol >= 0.0:
        raise InvalidSpec(f"tol must be >= 0, got {tol}")
    max_iter = 10 * m.shape[1] + 20 if max_iter is None else check_integer(max_iter, "max_iter")
    if max_iter < 0:
        raise InvalidSpec(f"max_iter must be >= 0, got {max_iter}")
    e_m = np.frexp(np.abs(m).max())[1]
    e_v = np.frexp(np.abs(v).max())[1]
    m = np.ldexp(m, -e_m)
    v = np.ldexp(v, -e_v)
    x = np.zeros(m.shape[1])
    r = v.copy()
    s = m.T @ r
    floor = 1e-14 * float(np.linalg.norm(m)) * float(np.linalg.norm(v))
    target = max(tol * float(np.linalg.norm(s)), floor)
    gamma = float(s @ s)
    p = s.copy()
    for _ in range(max_iter):
        if math.sqrt(gamma) <= target:
            break
        w = m @ p
        ww = float(w @ w)
        if ww == 0.0:
            raise RankDeficient("search direction annihilated; matrix lacks full rank")
        alpha = gamma / ww
        x = x + alpha * p
        r = r - alpha * w
        s = m.T @ r
        gamma_new = float(s @ s)
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    else:
        if math.sqrt(gamma) > target:
            raise ConvergenceFailure(
                f"CGNR missed tolerance after {max_iter} iterations; plain CG on the normal "
                "equations converges only for well-conditioned sketches, use the qr small solver"
            )
    # |x| = f 2^e with f in [1/2, 1): normal float64 needs -1021 <= e <= 1024.
    shift = e_v - e_m
    exponents = np.frexp(x[x != 0.0])[1] + shift
    if exponents.size and not -1021 <= exponents.min() <= exponents.max() <= 1024:
        worst = exponents.max() if exponents.max() > 1024 else exponents.min()
        raise InvalidSpec(
            f"CGNR's minimizer has an entry of order 2^{worst}, outside float64's normal "
            "range; rescale A or b"
        )
    return np.ldexp(x, shift)


def _transform(op, m, d_signs: SignDiagonal) -> np.ndarray:
    """H D m, evaluated only at the plan's rows when `op` samples."""
    if isinstance(op, SamplingPlan):
        return partial_rht_rows(m, d_signs, op.indices)
    return apply_rht(m, d_signs)


def _apply(op, hd: np.ndarray) -> np.ndarray:
    """The sketch `op` applied to the output of `_transform`."""
    if isinstance(op, SamplingPlan):
        return hd * op.scale
    return apply_sparse_projection(op, hd)


def _diagnostics(
    problem: LsProblem, d_signs: SignDiagonal, op, sketched: np.ndarray, eps: float
) -> Diagnostics:
    """Certify the draw (d_signs, op) whose sketch of [A | b] is `sketched`.

    X A = Q_s R_s, and R_s preconditions the basis: A = U R from one
    CholeskyQR pass on A R_s^-1. Then X U = X A R^-1 = Q_s F with
    F = R_s R^-1, and (X U)^T X b_perp = F^T w with w = Q_s^T X b_perp =
    R_s^-T (X A)^T X b_perp, so both conditions are read off d x d factors
    and A's spectrum is R's. One U^T b gives b_perp = b - U (U^T b), z and
    gamma. b_perp gets a transform of its own: X b - (X U)(U^T b) would
    cancel when Z << ||b||, and bias the cross-term check toward passing.
    """
    xa = sketched[:, :-1]
    r_s = np.linalg.qr(xa, mode="r")
    basis = orthonormal_basis(problem.a, r_s)
    utb = basis.q.T @ problem.b
    bperp = problem.b - basis.q @ utb
    z = vector_norm(bperp)
    # One 2-D column: the benchmark's spans read (n, cols) off every
    # transform's input.
    xbperp = _apply(op, _transform(op, bperp[:, None], d_signs))[:, 0]
    # R^-1 and R_s^-1 have norm about kappa / sigma_max(A), which overflows
    # for small data, so R, R_s and X A are first scaled, exactly, by one
    # power of two that takes R near 1, and X b_perp by one of its own.
    e = -int(np.frexp(np.abs(basis.r).max())[1])
    e_b = -int(np.frexp(np.abs(xbperp).max())[1])
    r_s = np.ldexp(r_s, e)
    f = r_s @ np.linalg.inv(np.ldexp(basis.r, e))
    w = np.linalg.inv(r_s).T @ (np.ldexp(xa, e).T @ np.ldexp(xbperp, e_b))
    check = verify_conditions(f, np.ldexp(w, -e_b), z, eps)
    sv = gram_singular_values(basis.r)
    return Diagnostics(
        z=z,
        gamma=_gamma(utb, problem.b),
        kappa=float(sv[0] / sv[-1]),
        sigma_min=float(sv[-1]),
        **vars(check),
    )


def _sketch_solve(
    problem: LsProblem,
    params: SketchParams,
    seed: int,
    method: str,
    draw: Callable[[int, str], object],
    draw_label: str,
    op,
    *,
    diagnostics: bool,
    small_solver: str,
    stream_prefix: str,
) -> SketchOutcome:
    """The pipeline behind both public solves: draw the signs and the
    sketch over the padded row count, transform the problem's [A | b], apply
    the sketch, solve the small problem.

    `draw(padded_n, label)` draws the sketch unless `op` injects one. If the
    sketched matrix loses rank, the solve retries once on the `:1` streams,
    then fails; an injected sketch never retries.
    """
    timings: dict = {}
    t_start = time.perf_counter()
    padded_n = next_pow2(problem.n)
    retries = 0
    for attempt in range(2):
        t0 = time.perf_counter()
        d_signs = sample_signs(padded_n, seed, label=f"{stream_prefix}signs:{attempt}")
        the_op = op if (op is not None and attempt == 0) else draw(
            padded_n, f"{stream_prefix}{draw_label}:{attempt}"
        )
        # Finite entries near the float64 limit can still overflow in the
        # transform's sums; one check of the small result below names the
        # cause instead of a warning per stage.
        with np.errstate(over="ignore", invalid="ignore"):
            hd = _transform(the_op, problem.stacked, d_signs)
            t1 = time.perf_counter()
            sketched = _apply(the_op, hd)
        t2 = time.perf_counter()
        if not np.isfinite(sketched).all():
            raise InvalidSpec("the sketch of [A | b] overflowed float64; scale A and b down")
        try:
            m, v = sketched[:, :-1], sketched[:, -1]
            x = solve_exact_ls(m, v) if small_solver == "qr" else cgnr_solve(m, v, tol=1e-12)
        except RankDeficient:
            if op is not None or attempt == 1:
                raise
            retries += 1
            continue
        t3 = time.perf_counter()
        timings["transform"] = t1 - t0
        timings["sketch-apply"] = t2 - t1
        timings["small-solve"] = t3 - t2
        break
    residual = _residual_norm(problem, x)
    diag = None
    if diagnostics:
        t4 = time.perf_counter()
        diag = _diagnostics(problem, d_signs, the_op, sketched, params.epsilon)
        timings["diagnostics"] = time.perf_counter() - t4
    timings["total"] = time.perf_counter() - t_start
    return SketchOutcome(
        x_tilde=x,
        residual_tilde=residual,
        method=method,
        params=params,
        seed=int(seed),
        timings=timings,
        diagnostics=diag,
        retries=retries,
    )


def _residual_norm(problem: LsProblem, x: np.ndarray) -> float:
    """||A x - b|| by nrm2. When A x - b overflows float64, as A ~ 1e300
    times x ~ 1e10 does, it is formed again from A and b scaled exactly by
    one power of two that takes A near 1; InvalidSpec when that overflows
    too, or the norm itself is out of range."""
    e = 0
    with np.errstate(over="ignore", invalid="ignore"):
        r = problem.a @ x - problem.b
        if not np.isfinite(r).all():
            e = int(np.frexp(np.abs(problem.a).max())[1])
            r = np.ldexp(problem.a, -e) @ x - np.ldexp(problem.b, -e)
        norm = float(np.ldexp(vector_norm(r), e)) if np.isfinite(r).all() else math.inf
    if not math.isfinite(norm):
        raise InvalidSpec("the residual A x - b overflowed float64; scale A and b toward 1")
    return norm


def check_sketch_size(method: str, params: SketchParams, d: int):
    """Raise InvalidSpec unless `params` holds the sizes `method`'s pipeline
    reads, r for sampling and cgnr or (k, q) for projection, with at least
    d sketch rows."""
    if method == METHOD_PROJECTION:
        if params.k is None or params.q is None:
            raise InvalidSpec("params.k and params.q are required for the projection pipeline")
        name, size = "k", params.k
    else:
        if params.r is None:
            raise InvalidSpec("params.r is required for the sampling pipeline")
        name, size = "r", params.r
    if size < d:
        raise InvalidSpec(f"need {name} >= d, got {name}={size}, d={d}")


def sketch_solve_sampling(
    problem: LsProblem,
    params: SketchParams,
    seed: int,
    *,
    diagnostics: bool = False,
    small_solver: str = "qr",
    plan: Optional[SamplingPlan] = None,
    stream_prefix: str = "",
) -> SketchOutcome:
    """Sample r transformed rows uniformly and solve the r x d problem.

    The row indices are drawn first and only those rows of the transform are
    evaluated. When r equals the padded row count, the exact degenerate plan
    (every row once, unit scale) is used, which reproduces the exact
    solution. If the sketched matrix loses rank, the solve retries once on
    the next derived stream, then fails.
    """
    check_sketch_size(METHOD_SAMPLING, params, problem.d)
    if small_solver not in ("qr", "cgnr"):
        raise InvalidSpec(f"unknown small solver {small_solver!r}")

    def draw(padded_n: int, label: str) -> SamplingPlan:
        if params.r >= padded_n:
            return identity_plan(padded_n)
        return draw_sampling_plan(padded_n, params.r, seed, label=label)

    return _sketch_solve(
        problem, params, seed, METHOD_SAMPLING, draw, "plan", plan,
        diagnostics=diagnostics, small_solver=small_solver, stream_prefix=stream_prefix,
    )


def sketch_solve_projection(
    problem: LsProblem,
    params: SketchParams,
    seed: int,
    *,
    diagnostics: bool = False,
    projection: Optional[SparseProjection] = None,
    stream_prefix: str = "",
) -> SketchOutcome:
    """Transform (A, b), apply the sparse projection, solve the k x d problem."""
    check_sketch_size(METHOD_PROJECTION, params, problem.d)
    # The (0, 1/2) range belongs to the closed-form size formula; the
    # pipeline itself runs for any eps in (0, 1) (SketchParams enforces it).

    def draw(padded_n: int, label: str) -> SparseProjection:
        return draw_sparse_projection(params.k, padded_n, params.q, seed, label=label)

    return _sketch_solve(
        problem, params, seed, METHOD_PROJECTION, draw, "projection", projection,
        diagnostics=diagnostics, small_solver="qr", stream_prefix=stream_prefix,
    )


def amplification_trials(delta: float) -> int:
    """Independent trials needed to push the failure probability below
    `delta`: each trial fails with probability at most 1/5, so keeping the
    best of ceil(ln(1/delta) / ln 5) residuals suffices."""
    if not 0.0 < delta < 1.0:
        raise InvalidSpec(f"delta must be in (0, 1), got {delta}")
    return max(1, math.ceil(math.log(1.0 / delta) / math.log(5.0)))


def sketch_solve_best_of(
    problem: LsProblem,
    params: SketchParams,
    seed: int,
    m: int = 1,
    method: str = METHOD_SAMPLING,
    **kwargs,
) -> SketchOutcome:
    """Run m independent trials of `method` and keep the one with the
    smallest true residual (ties broken by lowest trial index). Each trial
    draws from its own derived stream, so the whole bundle is reproducible
    from one seed. With `diagnostics=True` only the kept trial is
    certified, by running it again. The table below is the one place a
    method name picks its pipeline; "cgnr" is sampling with CGNR as the
    small solver."""
    if check_integer(m, "m") < 1:
        raise InvalidSpec(f"need m >= 1, got {m}")
    pipeline = {
        METHOD_SAMPLING: sketch_solve_sampling,
        METHOD_PROJECTION: sketch_solve_projection,
        METHOD_CGNR: partial(sketch_solve_sampling, small_solver="cgnr"),
    }.get(method)
    if pipeline is None:
        raise InvalidSpec(f"unknown method {method!r}")
    if m == 1:
        return pipeline(problem, params, seed, **kwargs)
    prefix = kwargs.pop("stream_prefix", "")
    diagnostics = kwargs.pop("diagnostics", False)
    outcomes = [
        pipeline(problem, params, seed, stream_prefix=f"{prefix}bestof{t}/", **kwargs)
        for t in range(m)
    ]
    best = min(range(m), key=lambda t: outcomes[t].residual_tilde)
    if not diagnostics:
        return outcomes[best]
    # Only the kept trial is certified: the same draw again, on its own
    # streams, so x and the residual are the ones that won.
    return pipeline(problem, params, seed, stream_prefix=f"{prefix}bestof{best}/",
                    diagnostics=True, **kwargs)


def exact_outcome(problem: LsProblem) -> tuple[np.ndarray, float]:
    """Exact x and optimal residual, both from the R of the problem's [A | b]."""
    return _stacked_lstsq(problem.stacked)
