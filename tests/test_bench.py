import hashlib
import json
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from sketchlsq import bench, ensembles
from sketchlsq.bench import (
    emit_report,
    load_config,
    run_experiment,
    strip_timings,
    validate_config,
)
from sketchlsq.errors import ConfigError
from sketchlsq.problems import KINDS


_PROBLEM = {"kind": "gaussian-incoherent", "n": 256, "d": 4, "kappa": 10.0,
            "gamma": 0.9, "seed": 1}


def _base_config(**overrides):
    config = {
        "problems": [_PROBLEM],
        "methods": ["exact"],
        "epsilon": 0.5,
        "seeds": 2,
    }
    config.update(overrides)
    return config


def test_exact_rel_error_is_one():
    report = run_experiment(_base_config())
    assert len(report) == 2
    for row in report.rows:
        assert row.method == "exact"
        assert row.rel_error == 1.0
        assert row.forward_error == 0.0


def test_all_methods_run():
    report = run_experiment(
        _base_config(methods=["cgnr", "projection", "exact", "sampling"],
                     r=64, k=32, q=0.5, seeds=1, diagnostics=True)
    )
    methods = [row.method for row in report.rows]
    assert methods == ["exact", "sampling", "projection", "cgnr"]  # canonical order
    for row in report.rows:
        assert row.rel_error >= 1.0 - 1e-9
        if row.method != "exact":
            assert row.embedding_ok is not None
            assert row.t_total is not None


def test_rows_ordered_and_deterministic():
    config = _base_config(methods=["sampling"], r=64, seeds=[5, 3, 4])
    r1 = run_experiment(config)
    r2 = run_experiment(config)
    assert [row.seed for row in r1.rows] == [3, 4, 5]
    assert strip_timings(r1) == strip_timings(r2)


def test_report_bytes_stable(tmp_path):
    config = _base_config(methods=["sampling", "exact"], r=64, seeds=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(strip_timings(run_experiment(config)), p1, fmt="csv")
    emit_report(strip_timings(run_experiment(config)), p2, fmt="csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_full_row_sampling_degenerate():
    # r = n selects every row once, so the sketched solve is exact.
    report = run_experiment(
        _base_config(methods=["sampling"], r=256, seeds=1)
    )
    row = report.rows[0]
    assert row.rel_error == pytest.approx(1.0, abs=1e-9)


def test_best_of_runs_and_respects_floor():
    multi = run_experiment(_base_config(methods=["sampling"], r=16, seeds=3, best_of=4))
    for row in multi.rows:
        assert row.best_of == 4
        assert row.residual >= row.z_exact - 1e-10


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_base_config()))
    config = load_config(path)
    assert config["methods"] == ["exact"]


def test_config_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "mutation,context",
    [
        ({"problems": []}, "problems"),
        ({"problems": [{"kind": "nope", "n": 8, "d": 2}]}, "kind"),
        ({"problems": [{"kind": "gaussian-incoherent", "n": 8}]}, "d"),
        ({"problems": [{"kind": "gaussian-incoherent", "n": 4, "d": 8}]}, "d"),
        ({"methods": ["levenberg"]}, "methods"),
        ({"epsilon": 2.0}, "epsilon"),
        ({"seeds": []}, "seeds"),
        ({"q": 3.0}, "q"),
        ({"best_of": 0}, "best_of"),
        ({"bogus_key": 1}, "config"),
        ({"problems": [{**_PROBLEM, "kappa": "abc"}]}, "problems[0].kappa"),
        ({"problems": [{**_PROBLEM, "kappa": None}]}, "problems[0].kappa"),
        ({"problems": [{**_PROBLEM, "kappa": 0.5}]}, "kappa"),
        ({"problems": [{**_PROBLEM, "gamma": 0}]}, "gamma"),
        ({"problems": [{**_PROBLEM, "seed": "x"}]}, "problems[0].seed"),
        ({"problems": [{**_PROBLEM, "seed": -1}]}, "seed"),
        ({"problems": [{**_PROBLEM, "n": True, "d": 1}]}, "problems[0].n"),
        ({"r": True}, "r"),
        ({"best_of": True}, "best_of"),
        ({"seeds": [1.5]}, "seeds"),
    ],
)
def test_config_validation_errors(mutation, context):
    config = _base_config(**mutation)
    with pytest.raises(ConfigError) as err:
        validate_config(config)
    assert context in str(err.value)


def test_bad_later_problem_raises_before_any_problem_is_generated(monkeypatch):
    generated = []
    monkeypatch.setattr(bench, "gen_problem", generated.append)
    config = _base_config(problems=[_PROBLEM, {**_PROBLEM, "kappa": 0.5}])
    with pytest.raises(ConfigError, match=r"problems\[1\]"):
        run_experiment(config)
    assert generated == []


@pytest.mark.parametrize(
    "method,size", [("sampling", {"r": 2}), ("cgnr", {"r": 3}), ("projection", {"k": 2})]
)
def test_sketch_smaller_than_d_fails_validation_before_any_solve(monkeypatch, method, size):
    generated = []
    monkeypatch.setattr(bench, "gen_problem", generated.append)
    config = _base_config(methods=["exact", method], **size)
    (name,) = size
    with pytest.raises(ConfigError, match=rf"problems\[0\]: need {name} >= d"):
        validate_config(config)
    with pytest.raises(ConfigError, match=rf"need {name} >= d"):
        run_experiment(config)
    assert generated == []
    # A size no listed method reads is not checked.
    other = "projection" if name == "r" else "sampling"
    assert validate_config(_base_config(methods=[other], **size))


def test_readme_config_example_validates():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert validate_config(json.loads(example))["problems"]


def test_gamma_one_consistent_system_rows():
    config = _base_config(
        problems=[{"kind": "gaussian-incoherent", "n": 128, "d": 4, "kappa": 2.0,
                   "gamma": 1.0, "seed": 2}],
        methods=["exact", "sampling"],
        r=64,
        seeds=1,
    )
    report = run_experiment(config)
    for row in report.rows:
        assert row.z_exact <= 1e-8 * np.sqrt(128)
        # rel_error is None only when the optimum is exactly zero;
        # at roundoff-scale optima it stays defined and >= 1.
        if row.rel_error is not None:
            assert row.rel_error >= 1.0 - 1e-9


# SHA-256 over _cold_path_corpus, computed before the method-name dispatch
# and the sketch-size constants were folded, on the projection draw of that
# time (now `frozen_sparse_projection`): report rows and ensemble results
# must keep every byte through refactors of the code around the solves.
_PINNED_COLD_PATH_DIGEST = "1ff2f4b8ff0e7af25b413d25a82a0a5dd4bcc508b6326a6fcd868e57d7b19cdb"

# The same corpus on the geometric-skip projection draw, computed when that
# draw replaced the per-cell uniforms.
_PINNED_SKIP_DRAW_COLD_PATH_DIGEST = "acf1977e4cb8c5baa63fb03583c7583a0b79fd6fe6eca618c0f0995e1237fc6a"


def _canon(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _cold_path_corpus() -> list:
    """Timing-free report rows of every method on every problem kind at two
    n that are not powers of two, certified, best of 2, at the practical
    sizes (q capped at 1) and again with sparse overrides; then small runs
    of every ensemble."""
    config = {
        "problems": [{"kind": kind, "n": n, "d": 5, "kappa": 1e3, "gamma": 0.8, "seed": n}
                     for kind in KINDS for n in (300, 513)],
        "methods": ["exact", "sampling", "projection", "cgnr"],
        "seeds": 2, "best_of": 2, "diagnostics": True,
    }
    sparse = {**config, "problems": config["problems"][::2], "methods": ["sampling", "projection"],
              "seeds": [3, 5], "r": 64, "k": 48, "q": 0.3, "best_of": 1}
    parts = [tuple(map(_canon, astuple(row)))
             for c in (config, sparse) for row in strip_timings(run_experiment(c)).rows]
    results = [*ensembles.energy_spreading(n=256, d=4, seeds=10)]
    for method in ("sampling", "projection"):
        results.append(ensembles.embedding_ensemble(method, n=1024, d=2, size=64, seeds=10))
        results.append(ensembles.relative_error_ensemble(method, n=1024, d=2, size=64, seeds=10))
    results += ensembles.moment_bound(n=64, k=16, q=0.25, seeds=200, pairs=2)
    results.append(ensembles.sparse_jl(n=256, d=2, eps=0.25, seeds=10))
    results.append(ensembles.gram_error_ensemble(m=6, n=60, seeds=5))
    for r in results:
        parts.append((r.name, r.passed, r.total, _canon(r.floor),
                      tuple((k, _canon(v)) for k, v in sorted(r.details.items()))))
    return parts


def test_cold_path_bytes_pinned(frozen_projection_draw, householder_solve):
    digest = hashlib.sha256(repr(_cold_path_corpus()).encode()).hexdigest()
    assert digest == _PINNED_COLD_PATH_DIGEST


def test_cold_path_bytes_pinned_on_the_skip_draw(householder_solve):
    digest = hashlib.sha256(repr(_cold_path_corpus()).encode()).hexdigest()
    assert digest == _PINNED_SKIP_DRAW_COLD_PATH_DIGEST


# Both cold-path digests above were computed on the Householder solve (now
# `householder_solve_exact_ls` and `householder_exact_outcome`); their
# twins pin the R of the stacked [A | b], the same at 1 and at 2 BLAS
# threads.
_PINNED_STACKED_R_COLD_PATH_DIGEST = (
    "f39099527896f3d1626a935499f1b72b18201ed7872d790bac9432a58e5c2d2f"
)
_PINNED_STACKED_R_SKIP_DRAW_COLD_PATH_DIGEST = (
    "8565ecdf94befae58e2a6e891e9cdb59af1efe62312405589fe1b66c08caa7f9"
)


def test_cold_path_bytes_pinned_on_the_stacked_r(frozen_projection_draw):
    digest = hashlib.sha256(repr(_cold_path_corpus()).encode()).hexdigest()
    assert digest == _PINNED_STACKED_R_COLD_PATH_DIGEST


def test_cold_path_bytes_pinned_on_the_skip_draw_and_the_stacked_r():
    digest = hashlib.sha256(repr(_cold_path_corpus()).encode()).hexdigest()
    assert digest == _PINNED_STACKED_R_SKIP_DRAW_COLD_PATH_DIGEST
