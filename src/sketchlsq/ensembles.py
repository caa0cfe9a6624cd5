"""Seed-ensemble experiments behind the `verify` command and the
acceptance tests.

Each function runs one probabilistic claim across many independent draws
and reports the observed pass rate next to its floor. The two bound
implications (residual and forward error under the structural conditions)
are deterministic consequences of the conditions, so their violation
counts must be zero on every seed where the conditions hold.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .approx_matmul import (
    ColumnSampler,
    approx_gram,
    gram_error,
    rescale_to_unit_spectral,
    theory_sample_size,
)
from .errors import InvalidSpec
from .hadamard import apply_rht, sample_signs
from .linalg import gram_singular_values, orthonormal_basis
from .problems import KIND_GAUSSIAN, ProblemSpec, gen_problem
from .rng import stream
from .sketches import (
    SketchParams,
    apply_sampling,
    apply_sparse_projection,
    draw_sampling_plan,
    draw_sparse_projection,
    projection_params,
)
from .solver import (
    EMBEDDING_FLOOR,
    METHOD_PROJECTION,
    METHOD_SAMPLING,
    exact_outcome,
    predicted_error_bounds,
    sketch_solve_best_of,
    sketch_solve_sampling,
)

# Multiplicative headroom for comparing floating-point quantities against
# bound expressions that hold with exact arithmetic.
_FP_GUARD = 1e-12

# Gaussian draws tried before giving up on a well-spread unit vector.
_SPREAD_TRIES = 256


@dataclass
class EnsembleResult:
    name: str
    passed: int
    total: int
    floor: float
    details: dict = field(default_factory=dict)
    # Wall time of the run behind this result, shared by results of one run.
    seconds: Optional[float] = field(default=None, compare=False)

    @property
    def rate(self) -> float:
        return self.passed / self.total if self.total else float("nan")

    @property
    def ok(self) -> bool:
        violations = sum(v for k, v in self.details.items() if k.startswith("violations"))
        return self.rate >= self.floor and violations == 0

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = "".join(f" {k}={v}" for k, v in self.details.items())
        if self.seconds is not None:
            extra += f" time={self.seconds:.3f}s"
        return (
            f"[{status}] {self.name}: {self.passed}/{self.total} "
            f"(rate {self.rate:.3f}, floor {self.floor:.2f}){extra}"
        )


def _fixed_basis(n: int, d: int, base_seed: int) -> np.ndarray:
    return orthonormal_basis(stream(base_seed, "ensemble/basis").standard_normal((n, d))).q


def _well_spread_unit(rng: np.random.Generator, n: int, cap: float) -> np.ndarray:
    """The first normalized Gaussian draw of length n whose entries are all
    at most `cap` in magnitude."""
    for _ in range(_SPREAD_TRIES):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        if np.abs(x).max() <= cap:
            return x
    raise InvalidSpec(f"no unit vector with entries <= {cap:.3g} in {_SPREAD_TRIES} draws")


def energy_spreading(
    n: int = 1024, d: int = 8, seeds: int = 200, base_seed: int = 0
) -> tuple[EnsembleResult, EnsembleResult]:
    """Row-energy and per-entry flattening of a transformed orthonormal basis.

    Checks max_i ||(HDU)_(i)||^2 <= 2 d ln(40nd) / n and the per-entry bound
    |(HDU)_{ij}| <= sqrt(2 ln(40nd) / n) across independent sign draws.
    """
    u = _fixed_basis(n, d, base_seed)
    row_bound = 2.0 * d * math.log(40.0 * n * d) / n
    entry_bound = math.sqrt(2.0 * math.log(40.0 * n * d) / n)
    row_ok = 0
    entry_ok = 0
    for s in range(seeds):
        hdu = apply_rht(u, sample_signs(n, base_seed + s, label="ensemble/signs"))
        row_ok += (hdu * hdu).sum(axis=1).max() <= row_bound
        entry_ok += np.abs(hdu).max() <= entry_bound
    return (
        EnsembleResult("energy-spreading rows", int(row_ok), seeds, 0.95),
        EnsembleResult("energy-spreading entries", int(entry_ok), seeds, 0.95),
    )


def embedding_ensemble(
    method: str,
    n: int = 1024,
    d: int = 8,
    size: int = 384,
    seeds: int = 100,
    base_seed: int = 0,
) -> EnsembleResult:
    """Rate at which the sketched basis keeps min sigma^2 >= 1/sqrt(2).

    The 0.90 floor needs size >= ~316 at d = 8: below it the
    Marchenko-Pastur edge (1 - sqrt(d/size))^2 falls under 1/sqrt(2), so
    no correct sketch meets the floor there.
    """
    u = _fixed_basis(n, d, base_seed)
    # The practical q does not depend on eps.
    q = SketchParams.practical(n, d, 0.5).q
    ok = 0
    for s in range(seeds):
        signs = sample_signs(n, base_seed + s, label="ensemble/signs")
        hdu = apply_rht(u, signs)
        if method == METHOD_SAMPLING:
            plan = draw_sampling_plan(n, size, base_seed + s, label="ensemble/plan")
            xu = apply_sampling(plan, hdu)
        elif method == METHOD_PROJECTION:
            proj = draw_sparse_projection(size, n, q, base_seed + s, label="ensemble/proj")
            xu = apply_sparse_projection(proj, hdu)
        else:
            raise InvalidSpec(f"unknown method {method!r}")
        sigma = gram_singular_values(xu)
        ok += sigma[-1] ** 2 >= EMBEDDING_FLOOR
    return EnsembleResult(f"subspace-embedding {method} size={size}", int(ok), seeds, 0.90)


def relative_error_ensemble(
    method: str,
    n: int = 1024,
    d: int = 8,
    eps: float = 0.5,
    size: int = 256,
    gamma: float = 0.9,
    kappa: float = 10.0,
    seeds: int = 100,
    base_seed: int = 0,
) -> EnsembleResult:
    """End-to-end relative-error success rate plus the deterministic
    bound implications on seeds where both structural conditions hold."""
    spec = ProblemSpec(
        kind=KIND_GAUSSIAN, n=n, d=d, kappa=kappa, gamma=gamma, seed=base_seed
    )
    problem = gen_problem(spec)
    x_opt, z = exact_outcome(problem)
    x_norm = float(np.linalg.norm(x_opt))
    # Sampling reads r, projection reads (k, q).
    params = SketchParams(epsilon=eps, r=size, k=size, q=SketchParams.practical(n, d, eps).q)
    ok = 0
    conditioned = 0
    violations_residual = 0
    violations_forward_z = 0
    violations_forward_gamma = 0
    for s in range(seeds):
        out = sketch_solve_best_of(
            problem, params, base_seed + s, m=1, method=method, diagnostics=True
        )
        diag = out.diagnostics
        bounds = predicted_error_bounds(diag.kappa, diag.gamma, eps, x_norm, z, diag.sigma_min)
        residual_bound = bounds.residual_bound * (1.0 + _FP_GUARD)
        if out.residual_tilde <= residual_bound:
            ok += 1
        if diag.embedding_ok and diag.cross_term_ok:
            conditioned += 1
            forward = float(np.linalg.norm(x_opt - out.x_tilde))
            if out.residual_tilde > residual_bound:
                violations_residual += 1
            if forward > bounds.forward_bound_z * (1.0 + _FP_GUARD):
                violations_forward_z += 1
            if forward > bounds.forward_bound_gamma * (1.0 + _FP_GUARD):
                violations_forward_gamma += 1
    return EnsembleResult(
        f"relative-error {method} size={size}",
        int(ok),
        seeds,
        0.80,
        details={
            "conditioned": conditioned,
            "violations_residual": violations_residual,
            "violations_forward_z": violations_forward_z,
            "violations_forward_gamma": violations_forward_gamma,
        },
    )


def gram_error_ensemble(
    m: int = 8,
    n: int = 100,
    eps: float = 0.5,
    delta: float = 0.1,
    seeds: int = 50,
    base_seed: int = 0,
) -> EnsembleResult:
    """Spectral error of the sampled Gram estimate at the closed-form
    sample size, on a matrix rescaled to unit spectral norm."""
    a = stream(base_seed, "ensemble/matmul").standard_normal((m, n))
    # Unit spectral norm puts ||A||_F^2 >= 1 above the 1/24 floor.
    a = rescale_to_unit_spectral(a)
    sampler_probe = ColumnSampler.norm_squared(a, c=1)
    c = theory_sample_size(a, eps, delta, sampler_probe)
    sampler = ColumnSampler.norm_squared(a, c=c)
    ok = 0
    worst = 0.0
    for s in range(seeds):
        gram = approx_gram(a, sampler, base_seed + s)
        err = gram_error(a, gram)
        worst = max(worst, err)
        ok += err <= eps
    return EnsembleResult(
        "gram-approximation",
        int(ok),
        seeds,
        1.0 - delta,
        details={"c": c, "worst_error": round(worst, 6)},
    )


def _moment_pair(n: int, q: float, pair_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A unit x with ||x||_inf <= sqrt(q) and a generic unit y."""
    rng = stream(pair_seed, "ensemble/moment-pair")
    x = _well_spread_unit(rng, n, math.sqrt(q))
    y = rng.standard_normal(n)
    y /= np.linalg.norm(y)
    return x, y


def _moment_deltas(n: int, k: int, q: float, seeds: int, pairs: int, base_seed: int):
    """The pairs (x, y) and x^T T^T T y - x^T y by pair and seed; each draw serves all pairs."""
    xys = [_moment_pair(n, q, base_seed + 1000 * pair_idx) for pair_idx in range(pairs)]
    # Columns x0 y0 x1 y1 ...; each sums as in a product with it alone.
    xy = np.column_stack([v for pair in xys for v in pair])
    products = np.empty((pairs, seeds))
    for s in range(seeds):
        t = draw_sparse_projection(k, n, q, base_seed + s, label="ensemble/moment")
        txy = np.ascontiguousarray(apply_sparse_projection(t, xy).T)
        products[:, s] = [float(txy[2 * p] @ txy[2 * p + 1]) for p in range(pairs)]
    return xys, products - np.array([[float(x @ y)] for x, y in xys])


def moment_bound(
    n: int = 256,
    k: int = 32,
    q: float = 0.125,
    seeds: int = 20000,
    pairs: int = 3,
    base_seed: int = 0,
) -> list[EnsembleResult]:
    """Monte-Carlo second moment of x^T T^T T y - x^T y against its
    closed-form bound 2/k ||x||^2 ||y||^2 + 1/(kq) sum_p x_p^2 y_p^2,
    with an unbiasedness check alongside."""
    results = []
    xys, all_deltas = _moment_deltas(n, k, q, seeds, pairs, base_seed)
    for pair_idx, ((x, y), deltas) in enumerate(zip(xys, all_deltas)):
        bound = (2.0 / k) * 1.0 * 1.0 + (1.0 / (k * q)) * float(np.sum(x**2 * y**2))
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
    return results


def sparse_jl(
    n: int = 4096,
    d: int = 8,
    eps: float = 0.25,
    seeds: int = 200,
    base_seed: int = 0,
) -> EnsembleResult:
    """Norm preservation of the sparse projection on one well-spread unit
    vector, at the closed-form (q, k) for this (n, d, eps)."""
    q, k, _ = projection_params(n, d, eps)
    alpha = math.sqrt(2.0 * math.log(40.0 * n * d) / n)
    x = _well_spread_unit(stream(base_seed, "ensemble/jl-vector"), n, alpha)
    ok = 0
    for s in range(seeds):
        t = draw_sparse_projection(k, n, q, base_seed + s, label="ensemble/jl")
        tx = apply_sparse_projection(t, x)
        ok += abs(float(np.linalg.norm(tx)) - 1.0) <= eps
    return EnsembleResult(
        f"sparse-jl k={k} q={q:.3g}", int(ok), seeds, 0.90
    )


def perf_comparison(
    n: int = 2**17, d: int = 30, runs: int = 5, base_seed: int = 0
) -> dict:
    """Median wall time of the sampled pipeline vs. LAPACK's gelsd
    (`np.linalg.lstsq`, numpy's OpenBLAS), which `verify --perf` gates on,
    and of the certified pipeline and the exact solve in the same loop.

    Informational: the asymptotic claims are not reproducible at desk
    scale, so this measures the one concrete comparison that is.
    """
    spec = ProblemSpec(kind=KIND_GAUSSIAN, n=n, d=d, kappa=10.0, gamma=0.9, seed=base_seed)
    problem = gen_problem(spec)
    params = SketchParams.practical(n, d, 0.5)
    solves = {
        "sketch": lambda run: sketch_solve_sampling(problem, params, base_seed + run),
        "certified": lambda run: sketch_solve_sampling(
            problem, params, base_seed + run, diagnostics=True
        ),
        "exact": lambda run: exact_outcome(problem),
        "gelsd": lambda run: np.linalg.lstsq(problem.a, problem.b, rcond=None),
    }
    times = {name: [] for name in solves}
    for run in range(runs):
        for name, solve in solves.items():
            t0 = time.perf_counter()
            solve(run)
            times[name].append(time.perf_counter() - t0)
    return {"n": n, "d": d, "r": params.r, "runs": runs,
            **{f"{name}_median_s": float(np.median(t)) for name, t in times.items()},
            **{f"{name}_times": t for name, t in times.items()}}


def standard_suite(
    quick: bool = False, base_seed: int = 0, seeds: Optional[int] = None
) -> list[EnsembleResult]:
    """The ensembles printed by `sketchlsq verify`, at their standard sizes,
    a quarter budget with quick=True, or a uniform per-ensemble count >= 2."""
    if seeds is not None and seeds < 2:
        raise InvalidSpec(f"seeds must be >= 2 (a standard error needs two draws), got {seeds}")
    scale = 0.25 if quick else 1.0

    def s(count: int) -> int:
        return seeds if seeds is not None else max(10, int(count * scale))

    def timed(ensemble, *args, count: int, **kwargs) -> list[EnsembleResult]:
        t0 = time.perf_counter()
        out = ensemble(*args, seeds=s(count), base_seed=base_seed, **kwargs)
        batch = [out] if isinstance(out, EnsembleResult) else list(out)
        for result in batch:
            result.seconds = time.perf_counter() - t0
        return batch

    return [
        *timed(energy_spreading, count=200),
        *timed(embedding_ensemble, METHOD_SAMPLING, count=100),
        *timed(embedding_ensemble, METHOD_PROJECTION, count=100),
        *timed(relative_error_ensemble, METHOD_SAMPLING, size=256, count=100),
        *timed(relative_error_ensemble, METHOD_PROJECTION, size=128, count=100),
        *timed(gram_error_ensemble, count=50),
        *timed(moment_bound, count=20000),
        *timed(sparse_jl, count=200),
    ]
