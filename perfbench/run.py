"""Benchmark of the sketchlsq public API: one workload per process, a closed
loop with one caller, inputs generated from a seed.

    python3 perfbench/run.py --workload sample-pow2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced ops and prints the per-layer metrics from the
traced ones. `all` runs every workload in its own child process, one after
the other. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every op's output is checked against
an independent oracle; a failed check prints its reason on standard error and
makes `correct` false, and `all` then exits with code 1. Run from the root of
a source checkout: the package is imported from ./src, and without it the
benchmark exits with code 1 before printing a result.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# numpy is imported inside functions only: the BLAS thread caps must be in the
# environment before it loads.

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def cap_blas_threads():
    """At most one BLAS thread per available core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_package():
    """Import sketchlsq from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import sketchlsq
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import sketchlsq from {SRC}: {exc}")
    if Path(sketchlsq.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: sketchlsq resolved to {sketchlsq.__file__}, not under {SRC}")


def op_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value.

    With fewer than 2 * TAIL_BEYOND samples that percentile would fall
    below the median, so the median order statistic is used instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, (n + 1) // 2)  # 1-based order statistic
    return 100.0 * rank / n, ordered[rank - 1]


def metadata(nproc: int, seed: int, ops: int, tail_samples: int, tail_pct: float) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "ops": ops,
        "op_s_tail_percentile": round(tail_pct, 2),
        "op_s_tail_samples": tail_samples,
    }


def call_op(workload, inputs, seed: int):
    """One op; an op that raises returns its exception, which counts as a
    failure, and measuring goes on."""
    try:
        return workload.op(inputs, seed)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return exc


def set_up(workload, seed: int):
    """Inputs, reference solve and one warm-up op, SETUP_REPS times; returns
    the last inputs, the set-up times, the gen_problem times and the warm-up
    outputs. Warm-up k uses op index k; timed ops follow."""
    setup_times, gen_times, warm_outs, inputs = [], [], [], None
    for k in range(SETUP_REPS):
        inputs = None  # free the previous copy before building the next
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        warm_outs.append(call_op(workload, inputs, op_seed(seed, k)))
        setup_times.append(time.perf_counter() - t0)
        gen_times.append(inputs.gen_problem_s)
    return inputs, setup_times, gen_times, warm_outs


def timed_loop(workload, inputs, seed: int, seconds: float, tracer=None, targets=()):
    """Closed loop of ops for `seconds`. With a tracer, odd-numbered ops run
    traced and the loop runs at least one of each kind. Returns (records,
    loop wall time); a record is (traced, duration, output or the exception
    raised)."""
    records = []
    min_ops = 1 if tracer is None else 2
    start = time.perf_counter()
    deadline = start + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        index = SETUP_REPS + len(records)
        traced = tracer is not None and len(records) % 2 == 1
        s = op_seed(seed, index)
        t0 = time.perf_counter()
        if traced:
            with tracer.installed(targets), tracer.op(index):
                out = call_op(workload, inputs, s)
        else:
            out = call_op(workload, inputs, s)
        records.append((traced, time.perf_counter() - t0, out))
    return records, time.perf_counter() - start


def check_all(workload, inputs, outs) -> tuple[list[float], int, dict]:
    """eps_used of every op, the number of ops that failed, and the values
    of each extra quantity the checks measured."""
    eps_used, failed, extra = [], 0, {}
    for out in outs:
        if isinstance(out, Exception):
            failed += 1
            continue
        check = workload.check(inputs, out)
        if math.isfinite(check.eps_used):
            eps_used.append(check.eps_used)
        for key, value in check.extra.items():
            extra.setdefault(key, []).append(value)
        if check.failure:
            failed += 1
            print(f"CHECK FAILED: {check.failure}", file=sys.stderr)
    return eps_used, failed, extra


def run_one(name: str, seed: int, seconds: int, trace: bool, nproc: int):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs, setup_times, gen_times, warm_outs = set_up(workload, seed)
    if trace:
        from layers import TARGETS, layer_metrics
        from spans import Tracer

        refs = workload.reference_times(inputs)
        tracer = Tracer()
        records, _ = timed_loop(workload, inputs, seed, seconds, tracer, TARGETS)
    else:
        records, wall = timed_loop(workload, inputs, seed, seconds)
    eps_used, failed, extra = check_all(workload, inputs, [out for _, _, out in records])
    failed += check_all(workload, inputs, warm_outs)[1]
    attempted = len(records) + len(warm_outs)
    plain = [d for traced, d, _ in records if not traced]
    tail_pct, tail_value = tail(plain)
    p50 = statistics.median(plain)

    if trace:
        traced = [d for t, d, _ in records if t]
        outs = [o for _, _, o in records if not isinstance(o, Exception)]
        retries = sum(getattr(o, "retries", 0) for o in outs)
        certified = sum(
            1 for o in outs
            if getattr(o, "diagnostics", None) is not None
            and o.diagnostics.embedding_ok and o.diagnostics.cross_term_ok
        )
        units = metric_units("per_layer")
        values = dict.fromkeys(units, 0.0)  # layers a workload does not run read 0
        ok_ops = {SETUP_REPS + i for i, (t, _, o) in enumerate(records)
                  if t and not isinstance(o, Exception)}
        values.update(layer_metrics(tracer, ok_ops))
        values.update({key: statistics.median(v) for key, v in extra.items()})
        values.update(refs)
        values.update({
            "solver.retry_frac": retries / len(records),
            "solver.conditioned_frac": certified / len(records),
            "problems.gen_problem_s": statistics.median(gen_times),
            "trace.overhead_frac": statistics.median(traced) / p50 - 1.0,
        })
        values["ref.speedup_vs_gelsy"] = values["ref.gelsy_s"] / p50
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
    else:
        units = metric_units("end_to_end")
        values = {
            "op_s_p50": p50,
            "op_s_tail": tail_value,
            "ops_per_s": len(records) / wall,
            "eps_used_p50": statistics.median(eps_used) if eps_used else float("nan"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    meta = metadata(nproc, seed, attempted, len(plain), tail_pct)
    print(f"workload {name}  trace {int(trace)}  ops {attempted} ({len(warm_outs)} warm-up)  "
          f"op_s_tail = p{tail_pct:.1f} of {len(plain)} untraced ops")
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:<24.10g} {m['unit']}")
    print(f"  {'fail_frac':36s} {failed / attempted:<24.10g} 1")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def benchmark_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def metric_units(section: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists in `section`."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def workload_names() -> list[str]:
    return [w["name"] for w in benchmark_spec()["workloads"]]


def run_all(args) -> int:
    """Each workload in its own child process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workload_names():
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"perfbench: {name} printed no result (exit {child.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        correct = correct and result["correct"] and child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workload_names(), "all"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    nproc = cap_blas_threads()
    import_package()
    run_one(args.workload, args.seed, args.seconds, bool(args.trace), nproc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
