"""The four workloads: inputs from a seed, one timed op, and an independent
check of each op's output.

Every least-squares workload takes its optimum from LAPACK gelsd on the
unpadded problem and recomputes ||A x - b|| itself; the Gram workload judges
its estimate by a dense symmetric eigensolve. README.md in this directory
says why each workload exists and which layers it stresses.
"""

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from sketchlsq import approx_matmul, linalg, solver
from sketchlsq.approx_matmul import ColumnSampler, c_lower_bound
from sketchlsq.problems import ProblemSpec, gen_problem
from sketchlsq.sketches import SketchParams
from sketchlsq.solver import LsProblem

EPS = 0.5
# Roundoff allowance on the bounds, relative to ||b|| and ||x_opt||.
_BOUND_SLACK = 1e-9
# residual_tilde is computed by the same formula as the check, so it must agree
# to roundoff.
_RESIDUAL_AGREEMENT = 1e-12


@dataclass
class Check:
    eps_used: float
    failure: Optional[str] = None
    extra: dict = field(default_factory=dict)


def _median_time(fn: Callable) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class LsInputs:
    problem: LsProblem
    params: SketchParams
    x_opt: np.ndarray
    z: float
    b_norm: float
    gen_problem_s: float
    # Only for the forward bounds of certified draws.
    kappa: float = math.nan
    gamma: float = math.nan
    sigma_min: float = math.nan


@dataclass(frozen=True)
class LeastSquares:
    name: str
    kind: str
    n: int
    d: int
    kappa: float
    gamma: float
    method: str
    diagnostics: bool = False

    def setup(self, seed: int) -> LsInputs:
        t0 = time.perf_counter()
        problem = gen_problem(ProblemSpec(self.kind, self.n, self.d, self.kappa, self.gamma, seed))
        gen_s = time.perf_counter() - t0
        a, b = problem.a, problem.b
        x_opt = scipy.linalg.lstsq(a, b, lapack_driver="gelsd")[0]
        inputs = LsInputs(
            problem=problem,
            params=SketchParams.practical(self.n, self.d, EPS),
            x_opt=x_opt,
            z=float(np.linalg.norm(a @ x_opt - b)),
            b_norm=float(np.linalg.norm(b)),
            gen_problem_s=gen_s,
        )
        if self.diagnostics:
            sv = np.linalg.svd(a, compute_uv=False)
            inputs.kappa = float(sv[0] / sv[-1])
            inputs.gamma = float(np.linalg.norm(a @ x_opt)) / inputs.b_norm
            inputs.sigma_min = float(sv[-1])
        return inputs

    def op(self, inputs: LsInputs, seed: int):
        # Looked up through the module at call time, so a traced run sees it.
        solve = (
            solver.sketch_solve_sampling
            if self.method == "sampling"
            else solver.sketch_solve_projection
        )
        return solve(inputs.problem, inputs.params, seed, diagnostics=self.diagnostics)

    @staticmethod
    def output_bytes(out) -> bytes:
        return out.x_tilde.tobytes()

    def check(self, inputs: LsInputs, out) -> Check:
        x = out.x_tilde
        if not (np.isfinite(x).all() and math.isfinite(out.residual_tilde)):
            return Check(math.nan, "non-finite output")
        a, b, z = inputs.problem.a, inputs.problem.b, inputs.z
        residual = float(np.linalg.norm(a @ x - b))
        eps_used = (residual / z - 1.0) / EPS
        if abs(out.residual_tilde - residual) > _RESIDUAL_AGREEMENT * residual:
            return Check(eps_used, f"residual_tilde {out.residual_tilde!r} != {residual!r}")
        if residual > (1.0 + EPS) * z + _BOUND_SLACK * inputs.b_norm:
            return Check(eps_used, f"residual {residual!r} above (1+eps) Z, Z = {z!r}")
        diag = out.diagnostics
        if self.diagnostics and diag.embedding_ok and diag.cross_term_ok:
            # On a certified draw both forward bounds hold deterministically.
            x_norm = float(np.linalg.norm(inputs.x_opt))
            fe = float(np.linalg.norm(inputs.x_opt - x))
            slack = _BOUND_SLACK * x_norm
            by_gamma = math.sqrt(EPS) * inputs.kappa * math.sqrt(inputs.gamma**-2 - 1.0) * x_norm
            by_z = math.sqrt(EPS) * z / inputs.sigma_min
            if fe > by_gamma + slack:
                return Check(eps_used, f"forward error {fe!r} above the gamma bound {by_gamma!r}")
            if fe > by_z + slack:
                return Check(eps_used, f"forward error {fe!r} above the Z bound {by_z!r}")
        return Check(eps_used)

    def reference_times(self, inputs: LsInputs) -> dict:
        a, b = inputs.problem.a, inputs.problem.b
        return {
            "ref.gelsy_s": _median_time(lambda: scipy.linalg.lstsq(a, b, lapack_driver="gelsy")),
            "ref.gelsd_s": _median_time(lambda: scipy.linalg.lstsq(a, b, lapack_driver="gelsd")),
            "ref.exact_s": _median_time(lambda: linalg.solve_exact_ls(a, b)),
        }


@dataclass
class GramInputs:
    a: np.ndarray
    sampler: ColumnSampler
    aat: np.ndarray
    gen_problem_s: float = 0.0


@dataclass(frozen=True)
class Gram:
    name: str
    rows: int
    cols: int
    delta: float

    def setup(self, seed: int) -> GramInputs:
        raw = np.random.default_rng(seed).standard_normal((self.rows, self.cols))
        # Scaled by the exact spectral norm so that ||A||_2 <= 1 holds. The
        # package's rescale_to_unit_spectral and theory_sample_size estimate
        # it by power iteration, which can fail to converge here (the top
        # eigenvalues of A A^T are close); c is theory_sample_size's formula
        # for the norm-squared sampler (beta = 1) without that estimate.
        a = raw / math.sqrt(np.linalg.eigvalsh(raw @ raw.T)[-1])
        c = c_lower_bound(float(np.sum(a * a)), 1.0, EPS, self.delta)
        return GramInputs(a=a, sampler=ColumnSampler.norm_squared(a, c), aat=a @ a.T)

    def op(self, inputs: GramInputs, seed: int):
        # gram_error is left out: its power iteration raises ConvergenceFailure
        # on about one op in 750 here (README.md, "Known failure").
        return approx_matmul.approx_gram(inputs.a, inputs.sampler, seed)

    @staticmethod
    def output_bytes(out) -> bytes:
        return out.tobytes()

    def check(self, inputs: GramInputs, g) -> Check:
        if not np.isfinite(g).all():
            return Check(math.nan, "non-finite output")
        diff = inputs.aat - g
        true = float(np.abs(np.linalg.eigvalsh((diff + diff.T) / 2.0)).max())
        if true > EPS:
            return Check(true / EPS, f"spectral error {true!r} above eps")
        return Check(true / EPS)

    def reference_times(self, inputs: GramInputs) -> dict:
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        LeastSquares("sample-pow2", "gaussian-incoherent", 2**17, 30, 10.0, 0.9, "sampling"),
        LeastSquares("project-pad", "coherent-spiked", 2**16 + 1, 20, 10.0, 0.9, "projection"),
        LeastSquares("certify-ill", "ill-conditioned", 2**14, 50, 1e4, 0.5, "sampling", diagnostics=True),
        Gram("gram", 128, 32768, 0.1),
    )
}
