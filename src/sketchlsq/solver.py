"""Sketch-and-solve pipeline and structural-condition diagnostics.

Both methods run one pipeline: zero-pad [A | b] to a power-of-two row
count, draw the random signs D and the sketch X, apply the randomized
Hadamard transform H D, apply X, and solve the small induced problem
exactly. The methods differ only in X: `sketch_solve_sampling` samples r
rows uniformly and rescales them by sqrt(n/r), evaluating only those rows
of the transform; `sketch_solve_projection` multiplies by a sparse k x n
projection. `SketchOutcome.timings` has the same phases for both:

  - "transform": the sign and sketch draws plus H D [A | b] (only the
    sampled rows of it when sampling),
  - "sketch-apply": the rescale, or the sparse product,
  - "small-solve": the exact solve of the sketched problem,
  - "total": the whole call, padding, residual and diagnostics included.

Diagnostics (opt-in, O(n d^2)) measure the two structural conditions that
make the small solution a relative-error approximation of the full one:

  - subspace embedding: every singular value of X U satisfies
    sigma^2 >= 1/sqrt(2), and
  - cross term: ||(X U)^T X b_perp||^2 <= eps * Z^2 / 2,

where U is an orthonormal basis of range(A), b_perp the out-of-range part
of b, and Z the optimal residual. When both hold, the residual and
forward-error bounds follow deterministically.

Keep every hadamard, sketches and linalg call a lookup of this module's
globals at call time: the benchmark's spans and the tests wrap or replace
those names here, and a call bound any other way would escape them
silently.
"""

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
# BLAS nrm2 on vectors: a scaled sum of squares that neither overflows nor
# underflows at extreme entry scales, unlike np.linalg.norm.
from scipy.linalg import norm

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidEpsilon,
    InvalidGamma,
    InvalidSpec,
    RankDeficient,
    ZeroRhs,
)
from .hadamard import (
    PaddedProblem,
    SignDiagonal,
    apply_rht,
    pad_pow2,
    partial_rht_rows,
    sample_signs,
)
from .linalg import (
    as_matrix,
    as_vector,
    condition_number,
    gram_singular_values,
    orthonormal_basis,
    project_out,
    solve_exact_ls,
)
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

    Full column rank is assumed, as the bounds require, and checked lazily:
    exact solves raise RankDeficient when it fails.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "A")
        b = as_vector(self.b, "b")
        if a.shape[0] != b.shape[0]:
            raise DimensionMismatch(f"A has {a.shape[0]} rows, b has {b.shape[0]}")
        if a.shape[0] < a.shape[1]:
            raise DimensionMismatch(f"need n >= d, got {a.shape[0]} x {a.shape[1]}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

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

    `cross_term` is the squared norm ||(X U)^T X b_perp||^2, so it overflows
    to inf once entries exceed ~1e154; `cross_term_ok` compares norms and
    stays exact at any scale.
    """

    sigma_xu: np.ndarray
    cross_term: float
    z: float
    gamma: float
    kappa: float
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
    nb = float(norm(b))
    if nb == 0.0:
        raise ZeroRhs("gamma undefined for b = 0")
    g = float(norm(u.T @ b)) / nb
    if g > 1.0 + 1e-12:
        raise InvalidGamma(f"computed fraction {g} exceeds 1")
    return min(g, 1.0)


def verify_conditions(xu, xbperp, z: float, eps: float) -> ConditionCheck:
    """Measure the embedding and cross-term conditions from the sketched
    basis X U and the sketched out-of-range component X b_perp."""
    xu = as_matrix(xu, "XU")
    xbperp = as_vector(xbperp, "Xb_perp")
    if xu.shape[0] != xbperp.shape[0]:
        raise DimensionMismatch(
            f"XU has {xu.shape[0]} rows, Xb_perp has {xbperp.shape[0]}"
        )
    if z < 0.0:
        raise InvalidSpec(f"z must be >= 0, got {z}")
    sigma = gram_singular_values(xu)
    # ||v|| <= Z sqrt(eps/2) is ||v||^2 <= eps Z^2 / 2 without the squares,
    # which overflow or underflow at extreme scales.
    cross = float(norm(xu.T @ xbperp))
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
    if kappa < 1.0:
        raise InvalidSpec(f"kappa must be >= 1, got {kappa}")
    if sigma_min <= 0.0:
        raise InvalidSpec(f"sigma_min must be > 0, got {sigma_min}")
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
    """
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"matrix has {m.shape[0]} rows, rhs has {v.shape[0]}")
    if max_iter is None:
        max_iter = 10 * m.shape[1] + 20
    x = np.zeros(m.shape[1])
    r = v.copy()
    s = m.T @ r
    floor = 1e-14 * float(np.linalg.norm(m)) * float(np.linalg.norm(v))
    target = max(tol * float(np.linalg.norm(s)), floor)
    gamma = float(s @ s)
    p = s.copy()
    for _ in range(max_iter):
        if math.sqrt(gamma) <= target:
            return x
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
    if math.sqrt(gamma) <= target:
        return x
    raise ConvergenceFailure(f"CGNR missed tolerance after {max_iter} iterations")


def _small_solve(m, v, small_solver: str) -> np.ndarray:
    if small_solver == "qr":
        return solve_exact_ls(m, v)
    if small_solver == "cgnr":
        return cgnr_solve(m, v, tol=1e-12)
    raise InvalidSpec(f"unknown small solver {small_solver!r}")


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


def _diagnostics(pad: PaddedProblem, d_signs: SignDiagonal, op, eps: float) -> Diagnostics:
    u = orthonormal_basis(pad.a_pad)
    bperp = project_out(u, pad.b_pad)
    z = float(norm(bperp))
    both = _apply(op, _transform(op, np.column_stack([u, bperp]), d_signs))
    check = verify_conditions(both[:, :-1], both[:, -1], z, eps)
    return Diagnostics(
        z=z,
        gamma=gamma_fraction(u, pad.b_pad),
        # A = U (U^T A), so kappa(A) = kappa(U^T A), a d x d matrix.
        kappa=condition_number(u.T @ pad.a_pad),
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
    signs: Optional[SignDiagonal],
    stream_prefix: str,
) -> SketchOutcome:
    """The pipeline behind both public solves: pad, draw the signs and the
    sketch, transform, apply the sketch, solve the small problem.

    `draw(padded_n, label)` draws the sketch unless `op` injects one. If the
    sketched matrix loses rank, the solve retries once on the `:1` streams,
    then fails; an injected sketch or injected signs never retry.
    """
    timings: dict = {}
    t_start = time.perf_counter()
    pad = pad_pow2(problem.a, problem.b)
    injected = op is not None or signs is not None
    retries = 0
    for attempt in range(2):
        t0 = time.perf_counter()
        d_signs = signs if (signs is not None and attempt == 0) else sample_signs(
            pad.padded_n, seed, label=f"{stream_prefix}signs:{attempt}"
        )
        the_op = op if (op is not None and attempt == 0) else draw(
            pad.padded_n, f"{stream_prefix}{draw_label}:{attempt}"
        )
        hd = _transform(the_op, pad.stacked, d_signs)
        t1 = time.perf_counter()
        sketched = _apply(the_op, hd)
        t2 = time.perf_counter()
        try:
            x = _small_solve(sketched[:, :-1], sketched[:, -1], small_solver)
        except RankDeficient:
            if injected or attempt == 1:
                raise
            retries += 1
            continue
        t3 = time.perf_counter()
        timings["transform"] = t1 - t0
        timings["sketch-apply"] = t2 - t1
        timings["small-solve"] = t3 - t2
        break
    residual = float(norm(problem.a @ x - problem.b))
    diag = _diagnostics(pad, d_signs, the_op, params.epsilon) if diagnostics else None
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


def sketch_solve_sampling(
    problem: LsProblem,
    params: SketchParams,
    seed: int,
    *,
    diagnostics: bool = False,
    small_solver: str = "qr",
    plan: Optional[SamplingPlan] = None,
    signs: Optional[SignDiagonal] = None,
    stream_prefix: str = "",
) -> SketchOutcome:
    """Sample r transformed rows uniformly and solve the r x d problem.

    The row indices are drawn first and only those rows of the transform are
    evaluated. When r equals the padded row count, the exact degenerate plan
    (every row once, unit scale) is used, which reproduces the exact
    solution. If the sketched matrix loses rank, the solve retries once on
    the next derived stream, then fails.
    """
    if params.r is None:
        raise InvalidSpec("params.r is required for the sampling pipeline")
    if params.r < problem.d:
        raise InvalidSpec(f"need r >= d, got r={params.r}, d={problem.d}")

    def draw(padded_n: int, label: str) -> SamplingPlan:
        if params.r >= padded_n:
            return identity_plan(padded_n)
        return draw_sampling_plan(padded_n, params.r, seed, label=label)

    return _sketch_solve(
        problem, params, seed, METHOD_SAMPLING, draw, "plan", plan,
        diagnostics=diagnostics, small_solver=small_solver, signs=signs,
        stream_prefix=stream_prefix,
    )


def sketch_solve_projection(
    problem: LsProblem,
    params: SketchParams,
    seed: int,
    *,
    diagnostics: bool = False,
    small_solver: str = "qr",
    projection: Optional[SparseProjection] = None,
    signs: Optional[SignDiagonal] = None,
    stream_prefix: str = "",
) -> SketchOutcome:
    """Transform (A, b), apply the sparse projection, solve the k x d problem."""
    if params.k is None or params.q is None:
        raise InvalidSpec("params.k and params.q are required for the projection pipeline")
    if params.k < problem.d:
        raise InvalidSpec(f"need k >= d, got k={params.k}, d={problem.d}")
    # The (0, 1/2) range belongs to the closed-form size formula; the
    # pipeline itself runs for any eps in (0, 1) (SketchParams enforces it).

    def draw(padded_n: int, label: str) -> SparseProjection:
        return draw_sparse_projection(params.k, padded_n, params.q, seed, label=label)

    return _sketch_solve(
        problem, params, seed, METHOD_PROJECTION, draw, "projection", projection,
        diagnostics=diagnostics, small_solver=small_solver, signs=signs,
        stream_prefix=stream_prefix,
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
    from one seed. The table below is the one place a method name picks its
    pipeline; "cgnr" is sampling with CGNR as the small solver."""
    if m < 1:
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
    outcomes = [
        pipeline(problem, params, seed, stream_prefix=f"{prefix}bestof{t}/", **kwargs)
        for t in range(m)
    ]
    best = min(range(m), key=lambda t: outcomes[t].residual_tilde)
    return outcomes[best]


def exact_outcome(problem: LsProblem) -> tuple[np.ndarray, float]:
    """Exact solution and optimal residual of the full problem."""
    x = solve_exact_ls(problem.a, problem.b)
    z = float(norm(problem.a @ x - problem.b))
    return x, z
