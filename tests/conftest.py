"""Fixtures shared by the test modules."""

import pytest

import sketchlsq.ensembles as ensembles
import sketchlsq.solver as solver
from oracles import frozen_sparse_projection, householder_orthonormal_basis


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
