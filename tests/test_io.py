import numpy as np
import pytest

from sketchlsq.bench import (
    ExperimentReport,
    ReportRow,
    emit_report,
    parse_report_csv,
    parse_report_json,
)
from sketchlsq.errors import ConfigError, ParseError, RaggedRows
from sketchlsq.matrix_io import load_matrix_csv, save_matrix_csv


def test_load_literal(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(load_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])


def test_save_load_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((7, 3))
    m[0, 0] = 1e-300
    m[1, 1] = -1e300
    m[2, 2] = -0.0
    m[3, 0] = 1.0 / 3.0
    path = tmp_path / "m.csv"
    save_matrix_csv(m, path)
    back = load_matrix_csv(path)
    assert back.tobytes() == m.tobytes()


def test_header_flag(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("colA,colB\n1,2\n")
    with pytest.raises(ParseError):
        load_matrix_csv(path)
    assert np.array_equal(load_matrix_csv(path, header=True), [[1.0, 2.0]])


def test_ragged_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(RaggedRows) as err:
        load_matrix_csv(path)
    assert err.value.row == 2


def test_parse_error_position(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_matrix_csv(path)
    assert (err.value.row, err.value.col) == (2, 2)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_cell_rejected(tmp_path, cell):
    path = tmp_path / "m.csv"
    path.write_text(f"1,2\n3,4\n5,{cell}\n")
    with pytest.raises(ParseError) as err:
        load_matrix_csv(path)
    assert (err.value.row, err.value.col) == (3, 2)


def test_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_matrix_csv(path)


def _row(seed: int, method: str = "sampling") -> ReportRow:
    return ReportRow(
        kind="gaussian-incoherent",
        n=64,
        d=4,
        kappa=10.0,
        gamma=0.9,
        problem_seed=1,
        method=method,
        eps=0.5,
        r=32 if method != "exact" else None,
        k=None,
        q=None,
        best_of=1,
        seed=seed,
        residual=1.234567890123456789,
        z_exact=1.1,
        rel_error=1.234567890123456789 / 1.1,
        forward_error=0.01,
        embedding_ok=True,
        cross_term_ok=False,
        residual_bound_ok=True,
        forward_bound_ok=None,
        t_transform=0.001,
        t_sketch=0.002,
        t_solve=0.003,
        t_total=0.006,
    )


def test_empty_report_is_header_only(tmp_path):
    path = tmp_path / "r.csv"
    emit_report(ExperimentReport(rows=()), path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1


def test_two_rows_three_lines(tmp_path):
    path = tmp_path / "r.csv"
    emit_report(ExperimentReport(rows=(_row(0), _row(1))), path, fmt="csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3


def test_csv_round_trip(tmp_path):
    report = ExperimentReport(rows=(_row(0), _row(1, method="exact")))
    path = tmp_path / "r.csv"
    emit_report(report, path, fmt="csv")
    assert parse_report_csv(path) == report


def test_json_round_trip(tmp_path):
    report = ExperimentReport(rows=(_row(0), _row(2)))
    path = tmp_path / "r.json"
    emit_report(report, path, fmt="json")
    assert parse_report_json(path) == report


def test_json_schema_version(tmp_path):
    import json

    path = tmp_path / "r.json"
    emit_report(ExperimentReport(rows=()), path, fmt="json")
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1


def test_bad_schema_rejected(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"schema_version": 99, "rows": []}')
    with pytest.raises(ConfigError):
        parse_report_json(path)


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        parse_report_csv(path)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ConfigError):
        emit_report(ExperimentReport(rows=()), tmp_path / "r.x", fmt="xml")
