"""Synthetic least-squares problems with prescribed conditioning and
right-hand-side geometry.

A is assembled from random orthonormal factors around an explicit singular
spectrum, so its condition number is exact by construction. b mixes a unit
vector inside range(A) with a unit vector orthogonal to it, weighted so
that the requested fraction of ||b|| lies in the column space.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .linalg import project_out, qr_factor
from .rng import check_seed, stream
from .solver import LsProblem

KIND_GAUSSIAN = "gaussian-incoherent"
KIND_COHERENT = "coherent-spiked"
KIND_ILL_CONDITIONED = "ill-conditioned"
KINDS = (KIND_GAUSSIAN, KIND_COHERENT, KIND_ILL_CONDITIONED)

# Row spike applied to the leading d x d block for the coherent kind; large
# enough that the column space concentrates on the first d coordinates.
_COHERENT_SPIKE = 64.0


@dataclass(frozen=True)
class ProblemSpec:
    """Recipe for one synthetic problem, checked in full on construction."""

    kind: str
    n: int
    d: int
    kappa: float
    gamma: float
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown problem kind {self.kind!r}")
        if not 1 <= self.d <= self.n:
            raise InvalidSpec(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        if not 1.0 <= self.kappa < math.inf:
            raise InvalidSpec(f"need finite kappa >= 1, got {self.kappa}")
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidSpec(f"need gamma in (0, 1], got {self.gamma}")
        if self.gamma < 1.0 and self.n == self.d:
            # range(A) is all of R^n: no part of b can lie outside it.
            raise InvalidSpec(f"gamma < 1 needs n > d, got gamma={self.gamma}, n = d = {self.n}")
        if self.d == 1 and self.kappa != 1.0:
            raise InvalidSpec("a single-column matrix always has kappa = 1")
        check_seed(self.seed)


def _range_basis(spec: ProblemSpec) -> np.ndarray:
    rng = stream(spec.seed, "problem/basis")
    raw = rng.standard_normal((spec.n, spec.d))
    if spec.kind == KIND_COHERENT:
        # Dominant identity block concentrates the row norms of the basis
        # on the first d rows, the regime uniform sampling cannot handle
        # without the randomized transform.
        raw[: spec.d] += _COHERENT_SPIKE * math.sqrt(spec.n) * np.eye(spec.d)
    return qr_factor(raw).q


def _spectrum(spec: ProblemSpec) -> np.ndarray:
    if spec.d == 1:
        return np.ones(1)
    if spec.kind == KIND_ILL_CONDITIONED:
        # One collapsed direction; the rest of the spectrum is flat.
        sv = np.ones(spec.d)
        sv[-1] = 1.0 / spec.kappa
        return sv
    return np.geomspace(spec.kappa, 1.0, spec.d)


def gen_problem(spec: ProblemSpec) -> LsProblem:
    """Build the (A, b) pair described by `spec`.

    kappa(A) hits the target exactly up to roundoff, and the fraction of
    ||b|| inside range(A) equals gamma by construction.
    """
    u = _range_basis(spec)
    sv = _spectrum(spec)
    v = qr_factor(stream(spec.seed, "problem/rotation").standard_normal((spec.d, spec.d))).q
    a = (u * sv) @ v.T

    rng_b = stream(spec.seed, "problem/rhs")
    coeff = rng_b.standard_normal(spec.d)
    in_range = u @ (coeff / np.linalg.norm(coeff))
    b_norm = math.sqrt(spec.n)
    if spec.gamma == 1.0:
        b = b_norm * in_range
    else:
        raw = rng_b.standard_normal(spec.n)
        ortho = project_out(u, raw)
        ortho /= np.linalg.norm(ortho)
        b = b_norm * (spec.gamma * in_range + math.sqrt(1.0 - spec.gamma**2) * ortho)
    return LsProblem(a=a, b=b)
