"""Command-line front end: single solves, config sweeps, and the
verification ensembles.

Exit codes: 0 on success, 1 on usage or config errors, 2 on numerical
failures (rank deficiency, non-convergence).
"""

import argparse
import json
import statistics
import sys

from . import ensembles
from .bench import (
    METHODS,
    METHOD_EXACT,
    emit_report,
    load_config,
    run_experiment,
)
from .errors import (
    ConvergenceFailure,
    RankDeficient,
    SketchLsqError,
)
from .matrix_io import load_matrix_csv, save_matrix_csv
from .problems import KINDS, KIND_GAUSSIAN, ProblemSpec, gen_problem
from .sketches import SketchParams
from .solver import (
    LsProblem,
    METHOD_SAMPLING,
    exact_outcome,
    sketch_solve_best_of,
)

USAGE_EXIT = 1
NUMERICAL_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sketchlsq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one least-squares problem")
    src = solve.add_argument_group("problem source")
    src.add_argument("--matrix", help="CSV file holding A")
    src.add_argument("--rhs", help="CSV file holding b (one column)")
    src.add_argument("--header", action="store_true", help="skip one CSV header line")
    src.add_argument("--kind", choices=KINDS, default=KIND_GAUSSIAN)
    src.add_argument("--n", type=int, default=1024)
    src.add_argument("--d", type=int, default=8)
    src.add_argument("--kappa", type=float, default=10.0)
    src.add_argument("--gamma", type=float, default=0.9)
    src.add_argument("--problem-seed", type=int, default=0)
    solve.add_argument("--method", choices=METHODS, default=METHOD_SAMPLING)
    solve.add_argument("--eps", type=float, default=0.5)
    solve.add_argument("--r", type=int, help="sampling size override")
    solve.add_argument("--k", type=int, help="projection size override")
    solve.add_argument("--q", type=float, help="projection sparsity override")
    solve.add_argument("--theory", action="store_true",
                       help="use the closed-form sketch sizes (clamped to n)")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--seeds", type=int, default=1,
                       help="repeat over this many consecutive seeds")
    solve.add_argument("--best-of", type=int, default=1)
    solve.add_argument("--diagnostics", action="store_true")
    solve.add_argument("--out", help="write the solution vector as CSV")
    solve.add_argument("--format", choices=("csv", "json"), default="csv")

    bench = sub.add_parser("bench", help="run a config sweep")
    bench.add_argument("--config", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--format", choices=("csv", "json"), default="csv")

    verify = sub.add_parser("verify", help="run the property ensembles")
    verify.add_argument("--quick", action="store_true", help="reduced seed budget")
    verify.add_argument("--perf", action="store_true",
                        help="also time the sampled pipeline against the exact solve")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--seeds", type=int,
                        help="override every ensemble's seed count")
    verify.add_argument("--strict", action="store_true",
                        help="exit 2 when any ensemble misses its floor")
    return parser


def _load_problem(args) -> LsProblem:
    if (args.matrix is None) != (args.rhs is None):
        raise SketchLsqError("--matrix and --rhs must be given together")
    if args.matrix is not None:
        a = load_matrix_csv(args.matrix, header=args.header)
        b = load_matrix_csv(args.rhs, header=args.header)
        if b.shape[1] != 1:
            raise SketchLsqError(f"rhs file must have one column, got {b.shape[1]}")
        return LsProblem(a=a, b=b[:, 0])
    spec = ProblemSpec(
        kind=args.kind, n=args.n, d=args.d, kappa=args.kappa,
        gamma=args.gamma, seed=args.problem_seed,
    )
    return gen_problem(spec)


def _print_outcome(args, problem, params, outcome, seed):
    size = f"r={params.r}" if outcome.method == METHOD_SAMPLING else (
        f"k={params.k} q={params.q:.4g}"
    )
    print(f"method={args.method} n={problem.n} d={problem.d} {size} seed={seed}")
    print(f"residual={outcome.residual_tilde:.10e}")
    for phase, seconds in outcome.timings.items():
        print(f"time[{phase}]={seconds:.6f}s")
    if outcome.diagnostics is not None:
        diag = outcome.diagnostics
        print(
            f"diagnostics: gamma={diag.gamma:.6f} kappa={diag.kappa:.4f} "
            f"z={diag.z:.6e} min_sigma^2={diag.sigma_xu[-1] ** 2:.4f} "
            f"embedding={'ok' if diag.embedding_ok else 'violated'} "
            f"cross-term={'ok' if diag.cross_term_ok else 'violated'}"
        )


def _cmd_solve(args) -> int:
    if args.seeds < 1:
        raise SketchLsqError(f"--seeds must be >= 1, got {args.seeds}")
    problem = _load_problem(args)
    if args.method == METHOD_EXACT:
        x, z = exact_outcome(problem)
        print(f"method=exact n={problem.n} d={problem.d}")
        print(f"residual={z:.10e}")
    else:
        params = SketchParams.with_overrides(
            problem.n, problem.d, args.eps, args.theory, args.r, args.k, args.q
        )
        outcomes = []
        for seed in range(args.seed, args.seed + args.seeds):
            outcome = sketch_solve_best_of(
                problem, params, seed, m=args.best_of, method=args.method,
                diagnostics=args.diagnostics,
            )
            outcomes.append(outcome)
            _print_outcome(args, problem, params, outcome, seed)
        residuals = [o.residual_tilde for o in outcomes]
        best = residuals.index(min(residuals))
        if len(outcomes) > 1:
            print(
                f"summary: seeds={len(outcomes)} min={min(residuals):.10e} "
                f"median={statistics.median(residuals):.10e} max={max(residuals):.10e}"
            )
        x = outcomes[best].x_tilde
    if args.out:
        if args.format == "csv":
            save_matrix_csv(x.reshape(-1, 1), args.out)
        else:
            with open(args.out, "w") as fh:
                json.dump({"schema_version": 1, "x": list(map(float, x))}, fh)
                fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_bench(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config)
    emit_report(report, args.out, fmt=args.format)
    print(f"wrote {len(report)} rows to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = ensembles.standard_suite(
        quick=args.quick, base_seed=args.seed, seeds=args.seeds
    )
    for res in results:
        print(res.line())
    passed = sum(r.ok for r in results)
    faster = True
    if args.perf:
        perf = ensembles.perf_comparison(base_seed=args.seed)
        faster = perf["sketch_median_s"] < perf["gelsd_median_s"]
        print(
            f"[{'PASS' if faster else 'FAIL'}] perf n={perf['n']} d={perf['d']} "
            f"r={perf['r']}: sampled median {perf['sketch_median_s']:.3f}s vs "
            f"gelsd median {perf['gelsd_median_s']:.3f}s (exact median "
            f"{perf['exact_median_s']:.3f}s) over {perf['runs']} runs; certified median "
            f"{perf['certified_median_s']:.3f}s, "
            f"{perf['certified_median_s'] / perf['sketch_median_s']:.2f}x sampled"
        )
    print(f"{passed}/{len(results)} ensembles at floor")
    if args.strict and (passed < len(results) or not faster):
        return NUMERICAL_EXIT
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "verify":
            return _cmd_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except (RankDeficient, ConvergenceFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except (SketchLsqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
