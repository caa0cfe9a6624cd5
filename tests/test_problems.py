import hashlib

import numpy as np
import pytest

from sketchlsq.errors import InvalidSpec
from sketchlsq.linalg import gram_singular_values, orthonormal_basis
from sketchlsq.problems import (
    KIND_COHERENT,
    KIND_GAUSSIAN,
    KIND_ILL_CONDITIONED,
    KINDS,
    ProblemSpec,
    gen_problem,
)
from sketchlsq.solver import exact_outcome, gamma_fraction


@pytest.mark.parametrize("kind", KINDS)
def test_kappa_target(kind):
    spec = ProblemSpec(kind=kind, n=256, d=6, kappa=25.0, gamma=0.8, seed=2)
    problem = gen_problem(spec)
    sv = gram_singular_values(problem.a)
    assert sv[0] / sv[-1] == pytest.approx(25.0, rel=0.01)


@pytest.mark.parametrize("kind", KINDS)
def test_gamma_target(kind):
    spec = ProblemSpec(kind=kind, n=256, d=6, kappa=5.0, gamma=0.6, seed=3)
    problem = gen_problem(spec)
    u = orthonormal_basis(problem.a).q
    assert gamma_fraction(u, problem.b) == pytest.approx(0.6, abs=1e-6)


def test_gamma_one_is_consistent():
    for n in (128, 4):  # n = d builds at gamma = 1
        spec = ProblemSpec(kind=KIND_GAUSSIAN, n=n, d=4, kappa=3.0, gamma=1.0, seed=4)
        problem = gen_problem(spec)
        _, z = exact_outcome(problem)
        assert z <= 1e-8 * np.linalg.norm(problem.b)


def test_kappa_one_flat_spectrum():
    spec = ProblemSpec(kind=KIND_GAUSSIAN, n=128, d=5, kappa=1.0, gamma=0.9, seed=5)
    problem = gen_problem(spec)
    sv = gram_singular_values(problem.a)
    assert np.abs(sv - sv[0]).max() <= 1e-8 * sv[0]


def test_coherent_kind_concentrates_leverage():
    spec_c = ProblemSpec(kind=KIND_COHERENT, n=512, d=8, kappa=5.0, gamma=0.9, seed=6)
    spec_g = ProblemSpec(kind=KIND_GAUSSIAN, n=512, d=8, kappa=5.0, gamma=0.9, seed=6)
    u_c = orthonormal_basis(gen_problem(spec_c).a).q
    u_g = orthonormal_basis(gen_problem(spec_g).a).q
    max_row_c = (u_c**2).sum(axis=1).max()
    max_row_g = (u_g**2).sum(axis=1).max()
    assert max_row_c > 0.9  # nearly a full coordinate direction
    assert max_row_c > 5.0 * max_row_g


def test_ill_conditioned_spectrum_shape():
    spec = ProblemSpec(kind=KIND_ILL_CONDITIONED, n=128, d=5, kappa=100.0, gamma=0.9, seed=7)
    sv = gram_singular_values(gen_problem(spec).a)
    assert sv[0] / sv[-1] == pytest.approx(100.0, rel=0.01)
    assert np.abs(sv[:-1] - 1.0).max() <= 1e-8  # flat top, one collapsed value


def test_determinism():
    spec = ProblemSpec(kind=KIND_GAUSSIAN, n=64, d=3, kappa=2.0, gamma=0.5, seed=8)
    p1 = gen_problem(spec)
    p2 = gen_problem(spec)
    assert p1.a.tobytes() == p2.a.tobytes()
    assert p1.b.tobytes() == p2.b.tobytes()


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind="mystery", n=8, d=2, kappa=1.0, gamma=1.0, seed=0)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind=KIND_GAUSSIAN, n=4, d=8, kappa=1.0, gamma=1.0, seed=0)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind=KIND_GAUSSIAN, n=8, d=2, kappa=0.5, gamma=1.0, seed=0)
    with pytest.raises(InvalidSpec):
        ProblemSpec(kind=KIND_GAUSSIAN, n=8, d=2, kappa=1.0, gamma=0.0, seed=0)
    with pytest.raises(InvalidSpec, match="n > d"):
        # At n = d, range(A) is all of R^n: gen_problem used to normalize the
        # roundoff left by projecting b out of it, so gamma read 1.
        ProblemSpec(kind=KIND_GAUSSIAN, n=4, d=4, kappa=10.0, gamma=0.5, seed=0)
    with pytest.raises(InvalidSpec):
        gen_problem(ProblemSpec(kind=KIND_GAUSSIAN, n=8, d=1, kappa=2.0, gamma=1.0, seed=0))


@pytest.mark.parametrize("kappa", [float("nan"), float("inf")])
def test_non_finite_kappa_rejected(kappa):
    with pytest.raises(InvalidSpec, match="kappa"):
        ProblemSpec(kind=KIND_GAUSSIAN, n=8, d=2, kappa=kappa, gamma=1.0, seed=0)


# SHA-256 over the padded [A | b] of every kind at four shapes, computed
# while the generator's bases were the diagnostics' Householder Q, before
# `orthonormal_basis` became shifted CholeskyQR3. The problems, and the
# benchmark inputs built from them, must not move with the basis.
_PINNED_PROBLEM_DIGEST = "332d019f68b63f9fbaf7bdb4b78d0a22532417e5d25c06fdacbc6d55c72aa28e"


def test_generated_problem_bytes_pinned():
    h = hashlib.sha256()
    for kind in KINDS:
        for n, d in ((1024, 8), (1025, 8), (2**14, 50), (64, 1)):
            spec = ProblemSpec(kind, n, d, 1e4 if d > 1 else 1.0, 0.9 if d > 1 else 1.0, seed=n)
            h.update(gen_problem(spec).stacked.tobytes())
    assert h.hexdigest() == _PINNED_PROBLEM_DIGEST
