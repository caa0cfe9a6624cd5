import json
import re
import statistics

import numpy as np
import pytest

from sketchlsq import cli, ensembles
from sketchlsq.bench import parse_report_csv
from sketchlsq.ensembles import EnsembleResult
from sketchlsq.matrix_io import load_matrix_csv, save_matrix_csv
from sketchlsq.problems import KIND_GAUSSIAN, ProblemSpec, gen_problem
from sketchlsq.sketches import SketchParams
from sketchlsq.solver import sketch_solve_best_of


def test_solve_generated_problem(capsys):
    code = cli.main(
        ["solve", "--n", "256", "--d", "4", "--method", "sampling", "--r", "64",
         "--seed", "3", "--diagnostics"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "residual=" in out
    assert "diagnostics:" in out
    phases = re.findall(r"^time\[(.*)\]=", out, re.MULTILINE)
    assert phases == ["transform", "sketch-apply", "small-solve", "diagnostics", "total"]


def test_solve_exact_and_output(tmp_path, capsys):
    out_path = tmp_path / "x.csv"
    code = cli.main(
        ["solve", "--n", "64", "--d", "3", "--method", "exact", "--out", str(out_path)]
    )
    assert code == 0
    x = load_matrix_csv(out_path)
    assert x.shape == (3, 1)


def test_solve_from_csv_files(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 3))
    b = rng.standard_normal((32, 1))
    save_matrix_csv(a, tmp_path / "a.csv")
    save_matrix_csv(b, tmp_path / "b.csv")
    code = cli.main(
        ["solve", "--matrix", str(tmp_path / "a.csv"), "--rhs", str(tmp_path / "b.csv"),
         "--method", "exact"]
    )
    assert code == 0
    assert "method=exact" in capsys.readouterr().out


def test_solve_rank_deficient_exits_2(tmp_path):
    a = np.ones((8, 2))  # duplicate columns
    b = np.ones((8, 1))
    save_matrix_csv(a, tmp_path / "a.csv")
    save_matrix_csv(b, tmp_path / "b.csv")
    code = cli.main(
        ["solve", "--matrix", str(tmp_path / "a.csv"), "--rhs", str(tmp_path / "b.csv"),
         "--method", "exact"]
    )
    assert code == 2


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_solve_non_finite_csv_exits_1(tmp_path, capsys, cell):
    (tmp_path / "a.csv").write_text(f"1,0\n0,1\n1,{cell}\n")
    save_matrix_csv(np.ones((3, 1)), tmp_path / "b.csv")
    code = cli.main(
        ["solve", "--matrix", str(tmp_path / "a.csv"), "--rhs", str(tmp_path / "b.csv"),
         "--method", "exact"]
    )
    assert code == 1
    assert "error: row 3, col 2" in capsys.readouterr().err


def test_solve_cgnr_prints_the_sampling_size(capsys):
    code = cli.main(["solve", "--n", "256", "--d", "4", "--method", "cgnr", "--r", "64"])
    assert code == 0
    assert "method=cgnr n=256 d=4 r=64 seed=0" in capsys.readouterr().out


def test_solve_projection_prints_the_practical_k_and_q(capsys):
    code = cli.main(["solve", "--n", "512", "--d", "4", "--method", "projection"])
    assert code == 0
    params = SketchParams.practical(512, 4, 0.5)
    line = f"method=projection n=512 d=4 k={params.k} q={params.q:.4g} seed=0"
    assert line in capsys.readouterr().out.splitlines()


def test_solve_seeds_summary_and_json_hold_the_best_seed(tmp_path, capsys):
    out_path = tmp_path / "x.json"
    code = cli.main(
        ["solve", "--n", "256", "--d", "4", "--r", "32", "--seed", "5", "--seeds", "4",
         "--out", str(out_path), "--format", "json"]
    )
    assert code == 0
    out = capsys.readouterr().out
    seeds = [int(s) for s in re.findall(r"^method=sampling .* seed=(\d+)$", out, re.MULTILINE)]
    residuals = [float(r) for r in re.findall(r"^residual=(\S+)$", out, re.MULTILINE)]
    assert seeds == [5, 6, 7, 8] and len(residuals) == 4
    summary = re.search(r"^summary: seeds=4 min=(\S+) median=(\S+) max=(\S+)$", out, re.MULTILINE)
    assert [float(v) for v in summary.groups()] == pytest.approx(
        [min(residuals), statistics.median(residuals), max(residuals)], rel=1e-9
    )
    saved = json.loads(out_path.read_text())
    assert saved["schema_version"] == 1
    problem = gen_problem(ProblemSpec(KIND_GAUSSIAN, 256, 4, 10.0, 0.9, 0))
    params = SketchParams.with_overrides(256, 4, 0.5, r=32)
    best = seeds[residuals.index(min(residuals))]
    x = sketch_solve_best_of(problem, params, best).x_tilde
    assert np.array(saved["x"]).tobytes() == x.tobytes()


def test_solve_two_column_rhs_exits_1(tmp_path, capsys):
    save_matrix_csv(np.eye(4, 2), tmp_path / "a.csv")
    save_matrix_csv(np.ones((4, 2)), tmp_path / "b.csv")
    code = cli.main(
        ["solve", "--matrix", str(tmp_path / "a.csv"), "--rhs", str(tmp_path / "b.csv"),
         "--method", "exact"]
    )
    assert code == 1
    assert "error: rhs file must have one column, got 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--eps", "nan"], "eps must be in (0, 1), got nan"),
        (["--eps", "0"], "eps must be in (0, 1), got 0.0"),
        (["--kappa", "nan"], "need finite kappa >= 1, got nan"),
        (["--seeds", "0"], "--seeds must be >= 1, got 0"),
        (["--seeds", "-3"], "--seeds must be >= 1, got -3"),
        (["--n", "4", "--d", "4", "--gamma", "0.9"], "gamma < 1 needs n > d"),
    ],
    ids=["eps-nan", "eps-0", "kappa-nan", "seeds-0", "seeds-negative", "gamma-at-n-equals-d"],
)
def test_solve_bad_value_exits_1(capsys, flags, message):
    code = cli.main(["solve", "--n", "64", "--d", "3", *flags])
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_solve_matrix_without_rhs_exits_1(tmp_path):
    a = np.ones((4, 1))
    save_matrix_csv(a, tmp_path / "a.csv")
    assert cli.main(["solve", "--matrix", str(tmp_path / "a.csv")]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["solve", "--method", "unknown-method"])
    assert err.value.code == 1


def test_bench_round_trip(tmp_path, capsys):
    config = {
        "problems": [{"kind": "gaussian-incoherent", "n": 128, "d": 4,
                      "kappa": 5.0, "gamma": 0.9, "seed": 1}],
        "methods": ["exact", "sampling"],
        "epsilon": 0.5,
        "seeds": 2,
        "r": 64,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "report.csv"
    code = cli.main(["bench", "--config", str(config_path), "--out", str(out_path)])
    assert code == 0
    report = parse_report_csv(out_path)
    assert len(report) == 4


def test_bench_bad_config_exits_1(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"problems": [], "methods": ["exact"]}))
    out_path = tmp_path / "report.csv"
    assert cli.main(["bench", "--config", str(config_path), "--out", str(out_path)]) == 1


def test_bench_missing_config_exits_1(tmp_path):
    assert cli.main(
        ["bench", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]
    ) == 1


def test_verify_prints_rates(monkeypatch, capsys):
    canned = [
        EnsembleResult("alpha", 95, 100, 0.9),
        EnsembleResult("beta", 50, 100, 0.9),
    ]
    monkeypatch.setattr(cli.ensembles, "standard_suite", lambda **kw: canned)
    code = cli.main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] alpha" in out
    assert "[FAIL] beta" in out


@pytest.mark.parametrize("seeds", ["0", "1"])
def test_verify_seeds_below_two_exits_1(capsys, seeds):
    # The moment ensemble's standard error needs two draws per ensemble.
    assert cli.main(["verify", "--quick", "--seeds", seeds]) == 1
    err = capsys.readouterr().err
    assert "seeds must be >= 2" in err and f"got {seeds}" in err


def test_verify_strict_exit(monkeypatch):
    canned = [EnsembleResult("beta", 50, 100, 0.9)]
    monkeypatch.setattr(cli.ensembles, "standard_suite", lambda **kw: canned)
    assert cli.main(["verify", "--strict"]) == 2


def test_verify_prints_each_ensemble_time_and_gelsd(monkeypatch, capsys):
    perf = ensembles.perf_comparison(n=1024, d=4, runs=2)
    assert len(perf["gelsd_times"]) == 2
    assert perf["gelsd_median_s"] == float(np.median(perf["gelsd_times"])) > 0.0
    monkeypatch.setattr(cli.ensembles, "perf_comparison", lambda base_seed: perf)
    assert cli.main(["verify", "--quick", "--seeds", "2", "--perf"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ensemble_lines = [line for line in lines if line.startswith("[") and "perf n=" not in line]
    assert len(ensemble_lines) == 11
    assert all(re.search(r" time=\d+\.\d{3}s$", line) for line in ensemble_lines)
    assert f"(gelsd median {perf['gelsd_median_s']:.3f}s)" in lines[-2]
    # The certified solve's cost next to the bare one: ROADMAP item 3 asks
    # for at most 2x.
    assert len(perf["certified_times"]) == 2
    ratio = perf["certified_median_s"] / perf["sketch_median_s"]
    assert lines[-2].endswith(
        f"certified median {perf['certified_median_s']:.3f}s, {ratio:.2f}x sampled"
    )
