"""Which package functions the traced run wraps, and the per-layer metrics
computed from their spans.

Every target is the attribute its caller looks up at call time: the solver
imports the hadamard, sketches and linalg functions into its own namespace,
`condition_number` calls `gram_singular_values` through `sketchlsq.linalg`,
and `partial_rht_rows` falls back to `apply_rht` through
`sketchlsq.hadamard`. The benchmark calls the public entry points through
their modules too, so `sketch_solve_*` and `approx_gram` get spans of their
own.
"""

import statistics

import numpy as np

from sketchlsq import approx_matmul, hadamard, linalg, solver

from spans import Target, Tracer

BYTES_PER_ELEMENT_STAGE = 16  # one float64 read and one written per butterfly stage


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _capture_transform(args, kwargs, out):
    n, cols = np.shape(_arg(args, kwargs, 0, "a"))  # the solver passes [A | b] stacked
    return {"n": n, "cols": cols}


def _capture_partial(args, kwargs, out):
    info = _capture_transform(args, kwargs, out)
    info["rows"] = _arg(args, kwargs, 2, "rows")  # r indices, small next to a
    return info


def _capture_projection(args, kwargs, out):
    return {"nnz": out.nnz, "cells": out.k * out.n}


def _capture_sampler(args, kwargs, out):
    return {"c": _arg(args, kwargs, 1, "sampler").c}


def _capture_problem(args, kwargs, out):
    return {"n": _arg(args, kwargs, 0, "problem").n}


TARGETS = [
    Target(solver, "sketch_solve_sampling", "solver", _capture_problem),
    Target(solver, "sketch_solve_projection", "solver", _capture_problem),
    Target(solver, "sample_signs", "hadamard.sample_signs"),
    Target(solver, "partial_rht_rows", "hadamard.partial_rht_rows", _capture_partial),
    Target(solver, "apply_rht", "hadamard.apply_rht", _capture_transform),
    Target(hadamard, "apply_rht", "hadamard.apply_rht", _capture_transform),
    Target(solver, "draw_sampling_plan", "sketches.draw_sampling_plan"),
    Target(solver, "draw_sparse_projection", "sketches.draw_sparse_projection", _capture_projection),
    Target(solver, "apply_sparse_projection", "sketches.apply_sparse_projection"),
    Target(solver, "solve_exact_ls", "linalg.solve_exact_ls"),
    Target(solver, "orthonormal_basis", "linalg.orthonormal_basis"),
    Target(solver, "gram_singular_values", "linalg.gram_singular_values"),
    Target(linalg, "gram_singular_values", "linalg.gram_singular_values"),
    Target(approx_matmul, "approx_gram", "approx_matmul.approx_gram", _capture_sampler),
]

# Self-time metric of each span name; the "op" root span is benchmark glue.
SELF_TIME = {t.name: f"{t.name}_s" for t in TARGETS}
SELF_TIME["solver"] = "solver.self_s"

COUNTS = (
    "hadamard.flops",
    "hadamard.eff_gbps",
    "hadamard.padded_frac",
    "hadamard.rows_frac",
    "sketches.nnz",
    "sketches.nnz_frac",
    "approx_matmul.c",
)


def full_flops(n: int, cols: int) -> int:
    """Butterfly additions and subtractions of the full transform:
    n * cols per stage, log2(n) stages."""
    return n * cols * (n.bit_length() - 1)


def pruned_flops(n: int, cols: int, rows) -> int:
    """Butterfly additions and subtractions of the pruned transform.

    The stage that splits blocks of size m updates every live block in
    full, m * cols operations each; a block is live when a requested row
    falls inside it, so the live blocks are the distinct values of row // m.
    """
    wanted = np.unique(np.asarray(rows, dtype=np.int64))
    total = 0
    m = n
    while m > 1:
        total += np.unique(wanted // m).size * m * cols
        m //= 2
    return int(total)


def op_values(spans) -> dict:
    """Per-layer values of one op from its (index, span, self time) triples."""
    out = dict.fromkeys([*SELF_TIME.values(), *COUNTS], 0.0)
    for _, span, own in spans:
        if span.name in SELF_TIME:
            out[SELF_TIME[span.name]] += own
    fallback_parents = {s.parent for _, s, _ in spans if s.name == "hadamard.apply_rht"}
    flops = 0
    transforms = []
    for idx, span, _ in spans:
        if span.name == "hadamard.apply_rht":
            flops += full_flops(span.info["n"], span.info["cols"])
            transforms.append(span)
        elif span.name == "hadamard.partial_rht_rows":
            transforms.append(span)
            if idx not in fallback_parents:  # a fallback's child span counts its flops
                flops += pruned_flops(span.info["n"], span.info["cols"], span.info["rows"])
        elif span.name == "sketches.draw_sparse_projection":
            out["sketches.nnz"] = span.info["nnz"]
            out["sketches.nnz_frac"] = span.info["nnz"] / span.info["cells"]
        elif span.name == "approx_matmul.approx_gram":
            out["approx_matmul.c"] = span.info["c"]
    if transforms:
        first = transforms[0]  # the solve's transform; diagnostics reuse its rows
        busy = out["hadamard.partial_rht_rows_s"] + out["hadamard.apply_rht_s"]
        out["hadamard.flops"] = flops
        out["hadamard.eff_gbps"] = BYTES_PER_ELEMENT_STAGE * flops / busy / 1e9
        solver_spans = [s for _, s, _ in spans if s.name == "solver"]
        out["hadamard.padded_frac"] = first.info["n"] / solver_spans[0].info["n"]
        rows = first.info.get("rows")
        distinct = first.info["n"] if rows is None else np.unique(rows).size
        out["hadamard.rows_frac"] = distinct / first.info["n"]
    return out


def layer_metrics(tracer: Tracer, op_ids) -> dict:
    """Median over the traced ops `op_ids` of every per-op layer value. Ops
    that raised are left out by the caller: their spans lack captured info."""
    per_op = [op_values(spans) for op_id, spans in tracer.by_op().items() if op_id in op_ids]
    if not per_op:
        return {}
    return {key: statistics.median(v[key] for v in per_op) for key in per_op[0]}
