"""The butterfly and the CSR product shared out across workers: same bytes
as one worker and as the plain references, and small work never leaves the
calling thread."""

import multiprocessing
import sys
import threading

import numpy as np
import pytest
import scipy.sparse

from oracles import counted_ops, reference_butterfly
from sketchlsq import hadamard, sketches, workers
from sketchlsq.hadamard import apply_rht, sample_signs
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


def _butterfly_with(count, monkeypatch, work):
    monkeypatch.setattr(workers, "WORKERS", count)
    work = work.copy()
    hadamard._butterfly(work)
    return work


@pytest.mark.parametrize(
    "block,n,d",
    [(16, 64, 1), (16, 1024, 3), (16, 4096, 5), (256, 1024, 7), (256, 4096, 31), (None, 2**17, 21)],
)
def test_pooled_butterfly_matches_one_worker_and_reference(monkeypatch, three_workers, block, n, d):
    if block is not None:
        monkeypatch.setattr(hadamard, "_BLOCK", block)
    rows, width = hadamard._blocking(n, d)
    assert n // rows > 1 and rows // width > 1  # both phases split
    work = np.random.default_rng(n + d).standard_normal((n, d))
    pooled = _butterfly_with(3, monkeypatch, work)
    serial = _butterfly_with(1, monkeypatch, work)
    plain = work.copy()
    reference_butterfly(plain)
    assert np.array_equal(pooled, serial)
    assert np.array_equal(pooled, plain)


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
    # One cache block: the whole transform runs on the calling thread.
    a = np.random.default_rng(0).standard_normal((256, 4))
    apply_rht(a, sample_signs(256, 0))
    # A product below `_CHUNK` nonzeros.
    t = draw_sparse_projection(32, 256, 0.125, 0)
    assert t.nnz < sketches._CHUNK
    apply_sparse_projection(t, a)
    # Counted object arrays over several cache blocks tally on one thread.
    monkeypatch.setattr(hadamard, "_BLOCK", 16)
    n, cols = 64, 3
    plain = np.arange(n * cols, dtype=np.float64).reshape(n, cols)
    reference_butterfly(plain)
    count, values = counted_ops(hadamard._butterfly, n, cols)
    assert count == n * cols * 6
    assert np.array_equal(values, plain)
    # The same shape as floats does reach it, so the stand-in pool is live.
    with pytest.raises(_Refused):
        hadamard._butterfly(plain)


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
    monkeypatch.setattr(hadamard, "_BLOCK", 64)
    rng = np.random.default_rng(9)
    work = rng.standard_normal((4096, 3))
    t = draw_sparse_projection(24, 2**14, 0.5, 9)
    m = rng.standard_normal((t.n, 3))
    monkeypatch.setattr(workers, "WORKERS", 1)
    want_bf = work.copy()
    hadamard._butterfly(want_bf)
    want_sp = apply_sparse_projection(t, m)
    monkeypatch.setattr(workers, "WORKERS", 3)
    results = []

    def body():
        for _ in range(20):
            got = work.copy()
            hadamard._butterfly(got)
            results.append(np.array_equal(got, want_bf))
            results.append(np.array_equal(apply_sparse_projection(t, m), want_sp))

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
def test_a_forked_child_starts_a_pool_of_its_own(three_workers):
    # The child inherits the parent's pool object but none of its threads;
    # submitting to it would wait forever.
    work = np.random.default_rng(3).standard_normal((2**15, 9))
    hadamard._butterfly(work.copy())
    assert workers._pool is not None
    child = multiprocessing.get_context("fork").Process(
        target=hadamard._butterfly, args=(work.copy(),)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
