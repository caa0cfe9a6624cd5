"""Experiment sweeps over (problem, method, seed) grids plus report I/O.

A JSON config (see the README) gets only shape and type checks here; its
ranges are those of the ProblemSpec and SketchParams built for every problem
before any solve. Reports go to RFC-4180 CSV or schema-versioned JSON, each
column typed by its ReportRow annotation and floats printed to 17 digits, so
parse(emit(report)) is exact; only wall-clock columns differ between reruns.
"""

import csv
import json
from dataclasses import dataclass, field, fields, replace
from typing import Optional, get_args

import numpy as np

from .errors import ConfigError, SketchLsqError
from .problems import ProblemSpec, gen_problem
from .rng import check_seed
from .sketches import SketchParams
from .solver import (
    LsProblem,
    METHOD_CGNR,
    METHOD_PROJECTION,
    METHOD_SAMPLING,
    check_sketch_size,
    exact_outcome,
    predicted_error_bounds,
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


# Each column's type from its ReportRow annotation, Optional[T] read as T.
_COLUMN_TYPES = {f.name: (get_args(f.type) or (f.type,))[0] for f in fields(ReportRow)}
_COLUMNS = list(_COLUMN_TYPES)


def _format_cell(name: str, value) -> str:
    kind = _COLUMN_TYPES[name]
    if value is None:
        return ""
    if kind is bool:
        return "true" if value else "false"
    if kind is float:
        return format(float(value), ".17g")
    return str(kind(value))


def _parse_cell(name: str, text: str):
    kind = _COLUMN_TYPES[name]
    if text == "":
        return None
    if kind is bool:
        return text == "true"
    return kind(text)


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


# JSON type and default of each top-level field but seeds, and of each
# problem field ("kind", "n" and "d" are required). The library objects the
# fields build own their ranges.
_CONFIG_FIELDS = {
    "problems": (list, None), "methods": (list, None), "epsilon": (float, 0.5),
    "r": (int, None), "k": (int, None), "q": (float, None), "theory": (bool, False),
    "best_of": (int, 1), "diagnostics": (bool, False), "seed_base": (int, 0),
}
_PROBLEM_FIELDS = {
    "kind": (str, None), "n": (int, None), "d": (int, None),
    "kappa": (float, 1.0), "gamma": (float, 1.0), "seed": (int, 0),
}
_TYPE_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false", list: "a list",
}


def _require(cond: bool, context: str, message: str):
    if not cond:
        raise ConfigError(f"{context}: {message}")


def _fields(obj: dict, table: dict, context: str, others=()) -> dict:
    """Every field of `table` from `obj`, type-checked (a float takes any
    number, as a float; true and false are not numbers; null is of no type),
    or its default where absent. Keys in neither `table` nor `others` fail."""
    unknown = sorted(set(obj) - set(table) - set(others))
    _require(not unknown, context.rstrip(".") or "config", f"unknown keys {unknown}")
    out = {key: default for key, (_, default) in table.items()}
    for key in [key for key in table if key in obj]:
        kind, value = table[key][0], obj[key]
        ok = isinstance(value, (int, float) if kind is float else kind)
        ok = ok and isinstance(value, bool) == (kind is bool)
        _require(ok, context + key, f"expected {_TYPE_NAMES[kind]}")
        out[key] = float(value) if kind is float else value
    return out


def _built(context: str, make, *args, **kwargs):
    """make(*args, **kwargs), with the typed error it raises for a bad value
    re-raised as a ConfigError under `context`."""
    try:
        return make(*args, **kwargs)
    except SketchLsqError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _sweep(raw) -> tuple[list, dict]:
    """The (ProblemSpec, SketchParams) of every problem, and the typed
    top-level fields with methods and seeds in row order. Checks the JSON
    shape and types; the ranges are checked by building, before any solve."""
    _require(isinstance(raw, dict), "config", "top level must be an object")
    config = _fields(raw, _CONFIG_FIELDS, "", others=("seeds",))
    for key in ("problems", "methods"):
        _require(config[key], key, "expected a nonempty list")
    for m in config["methods"]:
        _require(m in METHODS, "methods", f"unknown method {m!r}")
    config["methods"] = sorted(set(config["methods"]), key=METHODS.index)
    _require(config["best_of"] >= 1, "best_of", "expected a positive integer")
    for key in ("epsilon", "r", "k", "q"):
        _built(key, SketchParams, **{"epsilon": config["epsilon"], key: config[key]})

    seeds = raw.get("seeds", 1)
    if isinstance(seeds, list):
        ok = seeds and all(isinstance(s, int) and not isinstance(s, bool) for s in seeds)
        _require(ok, "seeds", "expected a positive count or a nonempty list of integers")
        seeds = sorted(seeds)
    else:
        ok = isinstance(seeds, int) and not isinstance(seeds, bool) and seeds >= 1
        _require(ok, "seeds", "expected a positive count or a list")
        seeds = range(config["seed_base"], config["seed_base"] + seeds)
    for seed in (seeds[0], seeds[-1]):  # every other seed lies between them
        _built("seeds", check_seed, seed)
    config["seeds"] = seeds

    cells = []
    for i, p in enumerate(config["problems"]):
        ctx = f"problems[{i}]"
        _require(isinstance(p, dict), ctx, "expected an object")
        for key in ("kind", "n", "d"):
            _require(key in p, f"{ctx}.{key}", "missing")
        spec = _built(ctx, ProblemSpec, **_fields(p, _PROBLEM_FIELDS, f"{ctx}."))
        # With eps, r, k and q each valid, only the theory sizes can fail (eps >= 1/2).
        params = _built("epsilon", SketchParams.with_overrides, spec.n, spec.d,
                        config["epsilon"], config["theory"], config["r"], config["k"], config["q"])
        for method in config["methods"]:
            if method != METHOD_EXACT:
                _built(ctx, check_sketch_size, method, params, spec.d)
        cells.append((spec, params))
    return cells, config


def load_config(path) -> dict:
    """Read and validate a JSON experiment config."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.msg}") from exc
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    """`raw` unchanged if it is a valid config, else a ConfigError naming the
    bad field. JSON types are checked here; ranges by building every problem's
    `ProblemSpec` and `SketchParams`, by `check_sketch_size` for each method
    and by `rng.check_seed`, solving nothing."""
    _sweep(raw)
    return raw


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
    config: dict,
    x_opt: np.ndarray,
    z: float,
    b_norm: float,
) -> ReportRow:
    best_of = config["best_of"]
    outcome = sketch_solve_best_of(
        problem, params, seed, m=best_of, method=method, diagnostics=config["diagnostics"]
    )
    slack = _BOUND_SLACK * b_norm
    residual = outcome.residual_tilde
    forward = float(np.linalg.norm(x_opt - outcome.x_tilde))
    diag = outcome.diagnostics
    residual_ok = residual <= (1.0 + params.epsilon) * z + slack
    forward_ok = None
    if diag is not None:
        bound = predicted_error_bounds(
            diag.kappa, diag.gamma, params.epsilon, float(np.linalg.norm(x_opt)), z,
            diag.sigma_min,
        ).forward_bound_gamma
        if bound is not None:
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
    """Run every (problem, method, seed) cell of a config (a dict, or a
    JSON file's path), all of them built and checked before the first solve.

    The exact solve happens once per problem and is shared by all cells;
    rows come out ordered by (problem, canonical method order, seed).
    """
    cells, config = _sweep(config if isinstance(config, dict) else load_config(config))
    rows = []
    for spec, params in cells:
        problem = gen_problem(spec)
        x_opt, z = exact_outcome(problem)
        b_norm = float(np.linalg.norm(problem.b))
        for method in config["methods"]:
            for seed in config["seeds"]:
                if method == METHOD_EXACT:
                    rows.append(_row(
                        spec, method, params.epsilon, seed, z, z, b_norm,
                        r=None, k=None, q=None, best_of=1, forward_error=0.0,
                        embedding_ok=None, cross_term_ok=None,
                        residual_bound_ok=None, forward_bound_ok=None,
                    ))
                else:
                    rows.append(_sketch_row(
                        spec, problem, method, params, seed, config, x_opt, z, b_norm,
                    ))
    return ExperimentReport(rows=tuple(rows))


def strip_timings(report: ExperimentReport) -> ExperimentReport:
    """Copy of the report with wall-clock fields cleared, for byte-stable
    comparisons across runs."""
    cleared = dict.fromkeys(_TIMING_FIELDS)
    return ExperimentReport(rows=tuple(replace(row, **cleared) for row in report.rows))
