"""Report tables: shape checks, serialization, byte-level determinism."""

import json

import numpy as np
import pytest

from specx import ReportError, RunReport, emit_report, load_report


def sample_report():
    return RunReport(
        run_id="unit",
        meta={"seed": 7, "f_nyq_hz": 560e6, "note": "fixture"},
        aggregate_columns=("snr_db", "pd"),
        aggregates=({"snr_db": -5.0, "pd": 0.91}, {"snr_db": 0.0, "pd": 1.0}),
        trial_columns=("trial", "pd", "flags", "label"),
        trials=(
            {"trial": 0, "pd": 0.5, "flags": [True, False], "label": "a,b"},
            {"trial": 1, "pd": 1.0, "flags": [], "label": 'quote"inside'},
            {"trial": 2, "pd": None, "flags": [False], "label": "z"},
        ),
    )


def test_validation():
    with pytest.raises(ReportError):
        RunReport(run_id="")
    with pytest.raises(ReportError):
        RunReport(run_id="a/b")
    with pytest.raises(ReportError):
        RunReport(run_id="x", aggregate_columns=("a", "a"))
    with pytest.raises(ReportError):
        RunReport(
            run_id="x",
            trial_columns=("a",),
            trials=({"a": 1, "mystery": 2},),
        )


def test_values_become_plain():
    """Complex numbers become [re, im], arrays lists, NumPy scalars Python
    ones, and mapping keys strings."""
    rep = RunReport(
        run_id="x",
        meta={1: {2: np.int64(3)}, "z": 1 + 2j},
        trial_columns=("a", "b", "c", "d"),
        trials=({"a": np.array([[1.5, 2.0]]), "b": np.complex128(0.5 - 1j),
                 "c": np.bool_(True), "d": np.array([1j])},),
    )
    assert rep.meta == {"1": {"2": 3}, "z": [1.0, 2.0]}
    assert rep.trials[0] == {"a": [[1.5, 2.0]], "b": [0.5, -1.0], "c": True, "d": [[0.0, 1.0]]}
    assert type(rep.meta["1"]["2"]) is int and type(rep.trials[0]["c"]) is bool


@pytest.mark.parametrize(
    "meta, row",
    [
        ({}, {"a": float("nan")}),
        ({"x": float("inf")}, {}),
        ({}, {"a": np.array([1.0, np.nan])}),
        ({}, {"a": complex(1.0, float("inf"))}),
        ({}, {"a": {1, 2}}),
    ],
    ids=["nan-row", "inf-meta", "nan-in-array", "inf-in-complex", "set"],
)
def test_non_finite_or_unsupported_value_refused(meta, row):
    with pytest.raises(ReportError):
        RunReport(run_id="x", meta=meta, trial_columns=("a",), trials=(row,))


def test_missing_row_keys_become_none():
    rep = RunReport(run_id="x", trial_columns=("a", "b"), trials=({"a": 1},))
    assert rep.trials[0] == {"a": 1, "b": None}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_round_trip(tmp_path, fmt):
    rep = sample_report()
    paths = emit_report(rep, tmp_path, formats=fmt)
    assert all(p.exists() for p in paths)
    back = load_report(tmp_path, "unit", format=fmt)
    assert back.aggregate_columns == rep.aggregate_columns
    assert back.trial_columns == rep.trial_columns
    assert back.aggregates == rep.aggregates
    assert back.trials == rep.trials
    assert back.meta["seed"] == 7


def test_emitted_files_and_names(tmp_path):
    paths = emit_report(sample_report(), tmp_path)
    names = sorted(p.name for p in paths)
    assert names == [
        "unit-aggregate.csv",
        "unit-aggregate.json",
        "unit-meta.csv",
        "unit-trials.csv",
        "unit-trials.json",
    ]


def test_csv_uses_crlf_and_quotes(tmp_path):
    emit_report(sample_report(), tmp_path, formats="csv")
    raw = (tmp_path / "unit-trials.csv").read_bytes()
    assert raw.endswith(b"\r\n")
    assert b'"a,b"' in raw           # embedded comma quoted
    assert b'"quote""inside"' in raw  # embedded quote doubled


def test_empty_report_writes_header_only(tmp_path):
    rep = RunReport(run_id="empty", trial_columns=("a", "b"))
    emit_report(rep, tmp_path, formats="csv")
    assert (tmp_path / "empty-trials.csv").read_bytes() == b"a,b\r\n"


def test_emit_is_byte_deterministic(tmp_path):
    rep = sample_report()
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    p1 = emit_report(rep, d1)
    p2 = emit_report(rep, d2)
    for a, b in zip(sorted(p1), sorted(p2)):
        assert a.read_bytes() == b.read_bytes(), a.name


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ReportError):
        emit_report(sample_report(), tmp_path, formats="yaml")


def test_csv_collapses_empty_string_to_none(tmp_path):
    # CSV has one encoding for both; JSON keeps them apart
    rep = RunReport(run_id="edge", trial_columns=("s",), trials=({"s": ""},))
    emit_report(rep, tmp_path)
    assert load_report(tmp_path, "edge", format="csv").trials[0]["s"] is None
    assert load_report(tmp_path, "edge", format="json").trials[0]["s"] == ""


def _edit_json(path, **changes):
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("table", ["aggregate", "trials", "meta"])
def test_load_refuses_headerless_csv(tmp_path, table):
    emit_report(sample_report(), tmp_path, formats="csv")
    (tmp_path / f"unit-{table}.csv").write_text("")
    with pytest.raises(ReportError, match="expected a header row"):
        load_report(tmp_path, "unit", format="csv")


def test_load_refuses_a_json_table_of_another_run(tmp_path):
    emit_report(sample_report(), tmp_path, formats="json")
    _edit_json(tmp_path / "unit-trials.json", run_id="other")
    with pytest.raises(ReportError, match="does not belong to run unit"):
        load_report(tmp_path, "unit")


def test_load_refuses_json_tables_whose_metadata_disagree(tmp_path):
    emit_report(sample_report(), tmp_path, formats="json")
    _edit_json(tmp_path / "unit-trials.json", meta={"seed": 8})
    with pytest.raises(ReportError, match="metadata disagrees"):
        load_report(tmp_path, "unit")


def test_load_refuses_an_unknown_format(tmp_path):
    emit_report(sample_report(), tmp_path)
    with pytest.raises(ReportError, match="format must be"):
        load_report(tmp_path, "unit", format="yaml")
