"""Experiment sweeps over (problem, method, seed) grids plus report I/O.

Configs are JSON (documented in the README); reports serialize to CSV with
RFC-4180 quoting or to a schema-versioned JSON object. Floats are printed
with 17 significant digits so parse(emit(report)) reproduces the report
exactly; wall-clock columns are the only fields expected to differ between
repeated runs of the same config.
"""

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError
from .problems import KINDS, ProblemSpec, gen_problem
from .sketches import SketchParams
from .solver import (
    LsProblem,
    METHOD_CGNR,
    METHOD_PROJECTION,
    METHOD_SAMPLING,
    exact_outcome,
    sketch_solve_best_of,
)

SCHEMA_VERSION = 1

METHOD_EXACT = "exact"
METHODS = (METHOD_EXACT, METHOD_SAMPLING, METHOD_PROJECTION, METHOD_CGNR)

# Roundoff slack, relative to ||b||, applied when checking residual bounds.
_BOUND_SLACK = 1e-9

# Optima below this fraction of ||b|| are numerically zero: the ratio
# residual / z would compare two noise values, so rel_error is undefined.
_Z_FLOOR = 1e-12

_TIMING_FIELDS = ("t_transform", "t_sketch", "t_solve", "t_total")


def _rel_error(residual: float, z: float, b_norm: float) -> Optional[float]:
    if z <= _Z_FLOOR * b_norm:
        return None
    return residual / z


@dataclass(frozen=True)
class ReportRow:
    kind: str
    n: int
    d: int
    kappa: float
    gamma: float
    problem_seed: int
    method: str
    eps: float
    r: Optional[int]
    k: Optional[int]
    q: Optional[float]
    best_of: int
    seed: int
    residual: float
    z_exact: Optional[float]
    rel_error: Optional[float]
    forward_error: Optional[float]
    embedding_ok: Optional[bool]
    cross_term_ok: Optional[bool]
    residual_bound_ok: Optional[bool]
    forward_bound_ok: Optional[bool]
    t_transform: Optional[float] = field(default=None, compare=False)
    t_sketch: Optional[float] = field(default=None, compare=False)
    t_solve: Optional[float] = field(default=None, compare=False)
    t_total: Optional[float] = field(default=None, compare=False)


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple

    def __len__(self) -> int:
        return len(self.rows)


_COLUMNS = [f.name for f in fields(ReportRow)]
_INT_COLUMNS = {"n", "d", "problem_seed", "r", "k", "best_of", "seed"}
_BOOL_COLUMNS = {"embedding_ok", "cross_term_ok", "residual_bound_ok", "forward_bound_ok"}
_STR_COLUMNS = {"kind", "method"}


def _format_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name in _STR_COLUMNS:
        return str(value)
    if name in _BOOL_COLUMNS:
        return "true" if value else "false"
    if name in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


def _parse_cell(name: str, text: str):
    if text == "":
        return None
    if name in _STR_COLUMNS:
        return text
    if name in _BOOL_COLUMNS:
        return text == "true"
    if name in _INT_COLUMNS:
        return int(text)
    return float(text)


def emit_report(report: ExperimentReport, path, fmt: str = "csv"):
    """Write a report as CSV (header + one line per cell) or JSON."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_COLUMNS)
            for row in report.rows:
                writer.writerow([_format_cell(c, getattr(row, c)) for c in _COLUMNS])
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [
                {c: getattr(row, c) for c in _COLUMNS} for row in report.rows
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ConfigError(f"format: expected 'csv' or 'json', got {fmt!r}")


def parse_report_csv(path) -> ExperimentReport:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _COLUMNS:
            raise ConfigError(f"unexpected report header {header!r}")
        rows = tuple(
            ReportRow(**{c: _parse_cell(c, cell) for c, cell in zip(header, record)})
            for record in reader
            if record
        )
    return ExperimentReport(rows=rows)


def parse_report_json(path) -> ExperimentReport:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {payload.get('schema_version')!r}"
        )
    return ExperimentReport(rows=tuple(ReportRow(**row) for row in payload["rows"]))


_CONFIG_KEYS = {
    "problems",
    "methods",
    "epsilon",
    "seeds",
    "seed_base",
    "r",
    "k",
    "q",
    "theory",
    "best_of",
    "diagnostics",
}


def _require(cond: bool, context: str, message: str):
    if not cond:
        raise ConfigError(f"{context}: {message}")


def load_config(path) -> dict:
    """Read and validate a JSON experiment config."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.msg}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    _require(isinstance(raw, dict), "config", "top level must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    _require(not unknown, "config", f"unknown keys {sorted(unknown)}")

    problems = raw.get("problems")
    _require(
        isinstance(problems, list) and problems, "problems", "expected a nonempty list"
    )
    for i, p in enumerate(problems):
        ctx = f"problems[{i}]"
        _require(isinstance(p, dict), ctx, "expected an object")
        for key in ("kind", "n", "d"):
            _require(key in p, f"{ctx}.{key}", "missing")
        _require(p["kind"] in KINDS, f"{ctx}.kind", f"expected one of {KINDS}")
        for key in ("n", "d"):
            _require(
                isinstance(p[key], int) and p[key] >= 1,
                f"{ctx}.{key}",
                "expected a positive integer",
            )
        _require(p["d"] <= p["n"], f"{ctx}.d", "d must not exceed n")

    methods = raw.get("methods")
    _require(
        isinstance(methods, list) and methods, "methods", "expected a nonempty list"
    )
    for m in methods:
        _require(m in METHODS, "methods", f"unknown method {m!r}")

    eps = raw.get("epsilon", 0.5)
    _require(
        isinstance(eps, (int, float)) and 0.0 < eps < 1.0,
        "epsilon",
        "expected a number in (0, 1)",
    )

    seeds = raw.get("seeds", 1)
    if isinstance(seeds, int):
        _require(seeds >= 1, "seeds", "expected a positive count or a list")
    else:
        _require(
            isinstance(seeds, list) and all(isinstance(s, int) for s in seeds) and seeds,
            "seeds",
            "expected a positive count or a nonempty list of integers",
        )

    for key in ("r", "k"):
        if raw.get(key) is not None:
            _require(
                isinstance(raw[key], int) and raw[key] >= 1,
                key,
                "expected a positive integer",
            )
    if raw.get("q") is not None:
        _require(
            isinstance(raw["q"], (int, float)) and 0.0 < raw["q"] <= 1.0,
            "q",
            "expected a number in (0, 1]",
        )
    best_of = raw.get("best_of", 1)
    _require(
        isinstance(best_of, int) and best_of >= 1, "best_of", "expected a positive integer"
    )
    for key in ("theory", "diagnostics"):
        if key in raw:
            _require(isinstance(raw[key], bool), key, "expected true or false")
    if "seed_base" in raw:
        _require(isinstance(raw["seed_base"], int), "seed_base", "expected an integer")
    return raw


def _problem_spec(p: dict) -> ProblemSpec:
    return ProblemSpec(
        kind=p["kind"],
        n=p["n"],
        d=p["d"],
        kappa=float(p.get("kappa", 1.0)),
        gamma=float(p.get("gamma", 1.0)),
        seed=int(p.get("seed", 0)),
    )


def _row(
    spec: ProblemSpec, method: str, eps: float, seed: int, residual: float, z: float,
    b_norm: float, **columns,
) -> ReportRow:
    """A report row: the problem's columns and the cell's, then `columns`."""
    return ReportRow(
        kind=spec.kind, n=spec.n, d=spec.d, kappa=spec.kappa, gamma=spec.gamma,
        problem_seed=spec.seed, method=method, eps=eps, seed=seed, residual=residual,
        z_exact=z, rel_error=_rel_error(residual, z, b_norm), **columns,
    )


def _sketch_row(
    spec: ProblemSpec,
    problem: LsProblem,
    method: str,
    params: SketchParams,
    seed: int,
    best_of: int,
    diagnostics: bool,
    x_opt: np.ndarray,
    z: float,
    b_norm: float,
) -> ReportRow:
    outcome = sketch_solve_best_of(
        problem, params, seed, m=best_of, method=method, diagnostics=diagnostics
    )
    slack = _BOUND_SLACK * b_norm
    residual = outcome.residual_tilde
    forward = float(np.linalg.norm(x_opt - outcome.x_tilde))
    diag = outcome.diagnostics
    residual_ok = residual <= (1.0 + params.epsilon) * z + slack
    forward_ok = None
    if diag is not None and diag.gamma > 0.0:
        bound = (
            math.sqrt(params.epsilon)
            * diag.kappa
            * math.sqrt(diag.gamma**-2 - 1.0)
            * float(np.linalg.norm(x_opt))
        )
        forward_ok = forward <= bound + slack
    return _row(
        spec, method, params.epsilon, seed, residual, z, b_norm,
        r=params.r, k=params.k, q=params.q, best_of=best_of, forward_error=forward,
        embedding_ok=None if diag is None else diag.embedding_ok,
        cross_term_ok=None if diag is None else diag.cross_term_ok,
        residual_bound_ok=residual_ok, forward_bound_ok=forward_ok,
        t_transform=outcome.timings.get("transform"),
        t_sketch=outcome.timings.get("sketch-apply"),
        t_solve=outcome.timings.get("small-solve"),
        t_total=outcome.timings.get("total"),
    )


def run_experiment(config) -> ExperimentReport:
    """Run every (problem, method, seed) cell of a validated config.

    The exact solve happens once per problem and is shared by all cells;
    rows come out ordered by (problem, canonical method order, seed).
    """
    if not isinstance(config, dict):
        config = load_config(config)
    else:
        config = validate_config(config)
    seeds = config.get("seeds", 1)
    if isinstance(seeds, int):
        base = int(config.get("seed_base", 0))
        seed_list = list(range(base, base + seeds))
    else:
        seed_list = sorted(seeds)
    methods = sorted(set(config["methods"]), key=METHODS.index)
    best_of = int(config.get("best_of", 1))
    diagnostics = bool(config.get("diagnostics", False))

    rows = []
    for p in config["problems"]:
        spec = _problem_spec(p)
        problem = gen_problem(spec)
        x_opt, z = exact_outcome(problem)
        b_norm = float(np.linalg.norm(problem.b))
        params = SketchParams.with_overrides(
            spec.n, spec.d, float(config.get("epsilon", 0.5)), config.get("theory", False),
            config.get("r"), config.get("k"), config.get("q"),
        )
        for method in methods:
            for seed in seed_list:
                if method == METHOD_EXACT:
                    rows.append(_row(
                        spec, method, params.epsilon, seed, z, z, b_norm,
                        r=None, k=None, q=None, best_of=1, forward_error=0.0,
                        embedding_ok=None, cross_term_ok=None,
                        residual_bound_ok=None, forward_bound_ok=None,
                    ))
                else:
                    rows.append(_sketch_row(
                        spec, problem, method, params, seed, best_of,
                        diagnostics, x_opt, z, b_norm,
                    ))
    return ExperimentReport(rows=tuple(rows))


def strip_timings(report: ExperimentReport) -> ExperimentReport:
    """Copy of the report with wall-clock fields cleared, for byte-stable
    comparisons across runs."""
    cleared = dict.fromkeys(_TIMING_FIELDS)
    return ExperimentReport(rows=tuple(replace(row, **cleared) for row in report.rows))
