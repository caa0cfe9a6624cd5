"""Tests of the benchmark itself: tracing leaves results and the package
untouched, self times add up, and the computed kernel counts match a brute
force count of the operations the transform performs.

    python3 -m pytest perfbench
"""

from collections import Counter

import numpy as np
import pytest

from sketchlsq import hadamard

from layers import COUNTS, SELF_TIME, TARGETS, full_flops, op_values, pruned_flops
from run import metric_units, op_seed, tail, workload_names
from spans import Tracer
from workloads import WORKLOADS, Gram, LeastSquares

# Small instances of the benchmark's workload shapes, so the tests run fast.
# "fallback" requests more than a quarter of the rows, so partial_rht_rows
# falls back to the full transform.
SMALL = {
    "sampling": LeastSquares("sampling", "gaussian-incoherent", 4096, 8, 10.0, 0.9, "sampling"),
    "projection": LeastSquares("projection", "coherent-spiked", 2049, 6, 10.0, 0.9, "projection"),
    "certify": LeastSquares("certify", "ill-conditioned", 4096, 10, 1e4, 0.5, "sampling", diagnostics=True),
    "fallback": LeastSquares("fallback", "gaussian-incoherent", 1024, 8, 10.0, 0.9, "sampling"),
    "gram": Gram("gram", 16, 2048, 0.1),
}

_SAMPLING = ["op", "solver", "hadamard.sample_signs", "sketches.draw_sampling_plan",
             "hadamard.partial_rht_rows", "linalg.solve_exact_ls"]
# Span names with multiplicity: diagnostics transform the plan's rows a second
# time, and both verify_conditions and condition_number compute singular values.
EXPECTED_SPANS = {
    "sampling": Counter(_SAMPLING),
    "projection": Counter(["op", "solver", "hadamard.sample_signs", "hadamard.apply_rht",
                           "sketches.draw_sparse_projection", "sketches.apply_sparse_projection",
                           "linalg.solve_exact_ls"]),
    "certify": Counter(_SAMPLING + ["hadamard.partial_rht_rows", "linalg.orthonormal_basis",
                                    "linalg.gram_singular_values", "linalg.gram_singular_values"]),
    "fallback": Counter(_SAMPLING + ["hadamard.apply_rht"]),
    "gram": Counter(["op", "approx_matmul.approx_gram"]),
}


def _originals():
    return [(t.module, t.attr, getattr(t.module, t.attr)) for t in TARGETS]


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tracing_does_not_perturb(name, seed):
    workload = SMALL[name]
    inputs = workload.setup(seed)
    s = op_seed(seed, 1)
    before = _originals()
    plain = workload.op(inputs, s)
    tracer = Tracer()
    with tracer.installed(TARGETS), tracer.op(1):
        traced = workload.op(inputs, s)

    assert workload.output_bytes(traced) == workload.output_bytes(plain)
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    assert workload.check(inputs, traced).failure is None

    (spans,) = tracer.by_op().values()
    assert Counter(span.name for _, span, _ in spans) == EXPECTED_SPANS[name]
    root = next(span for _, span, _ in spans if span.name == "op")
    assert sum(own for _, _, own in spans) == pytest.approx(root.duration, rel=0, abs=1e-9)
    assert all(own >= -1e-9 for _, _, own in spans)


def test_installed_restores_when_the_body_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed(TARGETS):
            raise RuntimeError("boom")
    for module, attr, original in before:
        assert getattr(module, attr) is original


def test_fallback_flops_counted_once_by_the_full_transform():
    workload = SMALL["fallback"]
    inputs = workload.setup(4)
    tracer = Tracer()
    with tracer.installed(TARGETS), tracer.op(1):
        workload.op(inputs, op_seed(4, 1))
    (spans,) = tracer.by_op().values()
    values = op_values(spans)
    assert values["hadamard.flops"] == full_flops(1024, 9)
    assert values["hadamard.rows_frac"] > 0.25


def _counted_ops(transform, n: int, cols: int) -> int:
    """Run `transform` on an object array whose entries count every
    addition and subtraction performed on them."""
    tally = [0]

    class Counted:
        __slots__ = ("v",)

        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            tally[0] += 1
            return Counted(self.v + other.v)

        def __sub__(self, other):
            tally[0] += 1
            return Counted(self.v - other.v)

    work = np.empty((n, cols), dtype=object)
    for i in range(n):
        for j in range(cols):
            work[i, j] = Counted(float(i * cols + j))
    transform(work)
    return tally[0]


@pytest.mark.parametrize(
    "rows",
    [
        [37, 5, 5, 63, 12, 37, 0],
        [17],
        [63, 62, 61, 60, 1, 0, 0, 1],
        list(range(0, 64, 3))[::-1] + [9, 9],
    ],
)
def test_pruned_flops_matches_brute_force(rows):
    n, cols = 64, 3
    wanted = np.unique(rows)
    brute = _counted_ops(lambda w: hadamard._pruned_rows(w, wanted), n, cols)
    assert pruned_flops(n, cols, rows) == brute


def test_pruned_flops_with_every_row_equals_full_transform():
    n, cols = 64, 3
    brute_full = _counted_ops(hadamard._butterfly, n, cols)
    assert full_flops(n, cols) == brute_full == n * cols * 6
    every_row_shuffled = np.random.default_rng(0).permutation(n)
    assert pruned_flops(n, cols, every_row_shuffled) == brute_full


def test_tail_leaves_ten_samples_beyond_and_never_drops_below_the_median():
    assert tail(list(range(1, 101))) == (90.0, 90)
    assert tail(list(range(1, 31)))[1] == 20
    pct, value = tail(list(range(1, 13)))
    assert value == 6 and pct == 50.0


def test_benchmark_json_names_what_the_code_runs():
    assert workload_names() == list(WORKLOADS)
    assert set(SELF_TIME.values()) | set(COUNTS) <= set(metric_units("per_layer"))
