"""Fixtures shared by the test modules."""

import pytest

import sketchlsq.bench as bench
import sketchlsq.cli as cli
import sketchlsq.ensembles as ensembles
import sketchlsq.hadamard as hadamard
import sketchlsq.solver as solver
from oracles import (
    cholesky_qr3_orthonormal_basis,
    frozen_sparse_projection,
    householder_exact_outcome,
    householder_orthonormal_basis,
    householder_solve_exact_ls,
    padded_diagnostics,
    reference_butterfly,
    sketched_xu_diagnostics,
    two_transform_diagnostics,
)


@pytest.fixture
def frozen_projection_draw(monkeypatch):
    """Make every projection the solver and the ensembles draw come from
    the draw as it was before the skip draw, so that digests and seeds
    chosen on that draw keep their meaning."""
    for module in (solver, ensembles):
        monkeypatch.setattr(module, "draw_sparse_projection", frozen_sparse_projection)


@pytest.fixture
def householder_basis(monkeypatch):
    """Make the basis behind every certificate the Householder Q it was
    before shifted CholeskyQR3, so that digests taken on it keep their
    meaning."""
    monkeypatch.setattr(solver, "orthonormal_basis", householder_orthonormal_basis)


@pytest.fixture
def cholesky_qr3_basis(monkeypatch):
    """Make the basis behind every certificate the one it was before
    Householder QR replaced shifted CholeskyQR3 where no sketch's R
    preconditions it, so that digests taken on it keep their meaning."""
    monkeypatch.setattr(solver, "orthonormal_basis", cholesky_qr3_orthonormal_basis)


@pytest.fixture
def householder_solve(monkeypatch):
    """Make every least-squares solve, the small solve and every caller's
    exact solve, the Householder-Q route it was before the R of the
    stacked [A | b], so that digests taken on it keep their meaning."""
    monkeypatch.setattr(solver, "solve_exact_ls", householder_solve_exact_ls)
    for module in (solver, ensembles, bench, cli):
        monkeypatch.setattr(module, "exact_outcome", householder_exact_outcome)


@pytest.fixture
def two_transform(monkeypatch):
    """Make every certificate the two-transform one it was before X U came
    from the solve's own sketch, so that digests taken on it keep their
    meaning."""
    monkeypatch.setattr(solver, "_diagnostics", two_transform_diagnostics)


@pytest.fixture
def sketched_xu(monkeypatch):
    """Make every certificate the one it was before the basis was
    preconditioned by the sketch's R, X U = (X H D A)(U^T A)^-1, so that
    digests taken on it keep their meaning."""
    monkeypatch.setattr(solver, "_diagnostics", sketched_xu_diagnostics)


@pytest.fixture
def padded_certificate(monkeypatch):
    """Make every certificate the one it was before the problem held
    [A | b] without zero rows, with the basis, U^T b and b_perp over the
    zero-padded rows, so that digests taken on it keep their meaning."""
    monkeypatch.setattr(solver, "_diagnostics", padded_diagnostics)


@pytest.fixture
def butterfly_transform(monkeypatch):
    """Make every Hadamard transform the stage-by-stage butterfly it was
    before the GEMM kernel, so that digests taken on it keep their
    meaning."""
    monkeypatch.setattr(hadamard, "_transform", reference_butterfly)
