"""The CSR product shared out across workers: same bytes as one worker and
as scipy's serial product, and small work never leaves the calling thread."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest
import scipy.sparse

from sketchlsq import sketches, workers
from sketchlsq.sketches import SparseProjection, apply_sparse_projection, draw_sparse_projection


@pytest.fixture
def three_workers(monkeypatch):
    """Three workers, more than a 2-core box has, on a pool of their own."""
    monkeypatch.setattr(workers, "WORKERS", 3)
    monkeypatch.setattr(workers, "_pool", None)
    yield
    if workers._pool is not None:
        workers._pool.shutdown()


class _Refused(Exception):
    pass


class _RefusingPool:
    def submit(self, *args, **kwargs):
        raise _Refused("work reached the pool")


def _serial_product(t, m):
    sp = scipy.sparse.csr_matrix((t.signs, t.cols, t.indptr), shape=(t.k, t.n))
    return (sp @ m) * t.magnitude


def _without_rows(t, dead):
    """`t` with every nonzero of the rows `dead` removed."""
    keep = ~np.isin(t.rows, dead)
    counts = np.bincount(t.rows[keep], minlength=t.k)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(t.indptr.dtype)
    return SparseProjection(
        k=t.k, n=t.n, q=t.q, indptr=indptr, cols=t.cols[keep], signs=t.signs[keep],
        magnitude=t.magnitude, seed=t.seed,
    )


def _projections():
    yield "k=1", draw_sparse_projection(1, 2**18, 0.6, 1)
    yield "k=7", draw_sparse_projection(7, 2**15, 0.7, 2)
    yield "k=160", draw_sparse_projection(160, 2**12, 0.3, 3)
    t = draw_sparse_projection(40, 2**14, 0.3, 4)
    yield "empty rows", _without_rows(t, [0, 1, 17, 38, 39])


@pytest.mark.parametrize("name,t", list(_projections()))
def test_pooled_product_matches_serial_scipy(monkeypatch, three_workers, name, t):
    rng = np.random.default_rng(t.k)
    m = rng.standard_normal((t.n, 5))
    # nnz one below the inline threshold, and one above it.
    for chunk in (t.nnz + 1, t.nnz - 1):
        monkeypatch.setattr(sketches, "_CHUNK", chunk)
        for operand in (m, m[:, 0], m[:, :1], np.asfortranarray(m)):
            got = apply_sparse_projection(t, operand)
            assert np.array_equal(got, _serial_product(t, operand)), (name, chunk, operand.shape)


def test_small_work_never_reaches_the_pool(monkeypatch):
    monkeypatch.setattr(workers, "WORKERS", 3)
    monkeypatch.setattr(workers, "_executor", _RefusingPool)
    a = np.random.default_rng(0).standard_normal((256, 4))
    # A product below `_CHUNK` nonzeros.
    t = draw_sparse_projection(32, 256, 0.125, 0)
    assert t.nnz < sketches._CHUNK
    apply_sparse_projection(t, a)
    # The same product from `_CHUNK` nonzeros on does reach it, so the
    # stand-in pool is live.
    monkeypatch.setattr(sketches, "_CHUNK", t.nnz)
    with pytest.raises(_Refused):
        apply_sparse_projection(t, a)


def test_split_covers_the_range_and_raises_the_first_error(three_workers):
    seen = []
    lock = threading.Lock()

    def record(lo, hi):
        with lock:
            seen.append((lo, hi))

    workers.split(record, 10)
    assert sorted(seen) == [(0, 3), (3, 6), (6, 10)]

    def fail_late(lo, hi):
        if lo:
            raise ValueError(f"run {lo}")

    with pytest.raises(ValueError, match="run 3"):
        workers.split(fail_late, 10)


def test_pooled_paths_under_fast_thread_switching(monkeypatch, three_workers):
    """Three workers on at most two cores, switching every few microseconds,
    from a second caller thread: the bytes stay those of one worker."""
    rng = np.random.default_rng(9)
    t = draw_sparse_projection(24, 2**14, 0.5, 9)
    m = rng.standard_normal((t.n, 3))
    monkeypatch.setattr(sketches, "_CHUNK", 64)
    monkeypatch.setattr(workers, "WORKERS", 1)
    want = apply_sparse_projection(t, m)
    monkeypatch.setattr(workers, "WORKERS", 3)
    results = []

    def body():
        for _ in range(40):
            results.append(np.array_equal(apply_sparse_projection(t, m), want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        caller = threading.Thread(target=body)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert len(results) == 40 and all(results)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_forked_child_starts_a_pool_of_its_own(monkeypatch, three_workers):
    # The child inherits the parent's pool object but none of its threads;
    # submitting to it would wait forever.
    t = draw_sparse_projection(24, 2**14, 0.5, 3)
    m = np.random.default_rng(3).standard_normal((t.n, 3))
    monkeypatch.setattr(sketches, "_CHUNK", 64)
    apply_sparse_projection(t, m)
    assert workers._pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=apply_sparse_projection, args=(t, m)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
