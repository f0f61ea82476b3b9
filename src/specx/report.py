"""Deterministic run reports: one aggregate table plus per-trial records.

Reports are emitted as CSV (RFC-4180 quoting) and JSON (UTF-8, one document
per file). Emission is byte-deterministic for a fixed report: no timestamps,
floats via shortest round-trip repr, stable column order, sorted keys in
JSON. Structured cells (lists, pairs, traces) are JSON-encoded inside CSV
fields so that a reload recovers the original values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = ["ReportError", "RunReport", "emit_report", "load_report"]


class ReportError(ValueError):
    """Malformed report content or files."""


def _plain(value: Any) -> Any:
    """Normalize to JSON-encodable Python types; reject non-finite floats."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (str, bool, int)) or value is None:
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ReportError("non-finite float in report; use None instead")
        return value
    if isinstance(value, complex):
        return [_plain(value.real), _plain(value.imag)]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    raise ReportError(f"unsupported report value type {type(value).__name__}")


@dataclass(frozen=True)
class RunReport:
    """Aggregate rows + per-trial rows with fixed column order, plus metadata.

    Every aggregate must be recomputable from the trial records; this class
    only carries the tables, it does not enforce that.
    """

    run_id: str
    meta: dict[str, Any] = field(default_factory=dict)
    aggregate_columns: tuple[str, ...] = ()
    aggregates: tuple[dict[str, Any], ...] = ()
    trial_columns: tuple[str, ...] = ()
    trials: tuple[dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.run_id or "/" in self.run_id:
            raise ReportError("run_id must be a non-empty path-free name")
        for label, cols, rows in (
            ("aggregate", self.aggregate_columns, self.aggregates),
            ("trial", self.trial_columns, self.trials),
        ):
            cols = tuple(str(c) for c in cols)
            if len(set(cols)) != len(cols):
                raise ReportError(f"duplicate {label} column names")
            norm = []
            for row in rows:
                extra = set(row) - set(cols)
                if extra:
                    raise ReportError(f"{label} row has unknown keys {sorted(extra)}")
                norm.append({c: _plain(row.get(c)) for c in cols})
            object.__setattr__(self, f"{label}_columns", cols)
            key = "aggregates" if label == "aggregate" else "trials"
            object.__setattr__(self, key, tuple(norm))
        object.__setattr__(self, "meta", {str(k): _plain(v) for k, v in self.meta.items()})


def _cell(value: Any) -> str:
    """One CSV cell. Scalars verbatim, structures as compact JSON."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _parse_cell(text: str) -> Any:
    if text == "":
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[Mapping[str, Any]]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)  # default \r\n terminator per RFC 4180
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])


def _write_json(path: Path, doc: Mapping[str, Any]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8")


def _table_doc(report: RunReport, kind: str) -> dict[str, Any]:
    cols = report.aggregate_columns if kind == "aggregate" else report.trial_columns
    rows = report.aggregates if kind == "aggregate" else report.trials
    return {
        "run_id": report.run_id,
        "kind": kind,
        "meta": report.meta,
        "columns": list(cols),
        "rows": [[row[c] for c in cols] for row in rows],
    }


def emit_report(
    report: RunReport,
    out_dir: str | Path,
    formats: str | Sequence[str] = ("csv", "json"),
) -> list[Path]:
    """Write the report tables under out_dir; returns the files written.

    csv writes <run-id>-aggregate.csv, <run-id>-trials.csv and a
    <run-id>-meta.csv key/value table (CSV has nowhere else to carry run
    metadata). json writes <run-id>-aggregate.json and <run-id>-trials.json,
    each embedding the metadata. An empty report yields header-only tables.
    """
    if isinstance(formats, str):
        formats = (formats,)
    bad = set(formats) - {"csv", "json"}
    if bad:
        raise ReportError(f"unknown format(s) {sorted(bad)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if "csv" in formats:
        agg = out / f"{report.run_id}-aggregate.csv"
        _write_csv(agg, report.aggregate_columns, report.aggregates)
        tri = out / f"{report.run_id}-trials.csv"
        _write_csv(tri, report.trial_columns, report.trials)
        meta = out / f"{report.run_id}-meta.csv"
        meta_rows = [{"key": k, "value": report.meta[k]} for k in sorted(report.meta)]
        _write_csv(meta, ("key", "value"), meta_rows)
        written += [agg, tri, meta]
    if "json" in formats:
        agg = out / f"{report.run_id}-aggregate.json"
        _write_json(agg, _table_doc(report, "aggregate"))
        tri = out / f"{report.run_id}-trials.json"
        _write_json(tri, _table_doc(report, "trials"))
        written += [agg, tri]
    return written


def _read_csv(path: Path) -> tuple[tuple[str, ...], list[dict[str, Any]]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ReportError(f"{path} is empty (expected a header row)")
    cols = tuple(rows[0])
    return cols, [{c: _parse_cell(v) for c, v in zip(cols, row)} for row in rows[1:]]


def load_report(out_dir: str | Path, run_id: str, format: str = "json") -> RunReport:
    """Reload an emitted report; inverse of emit_report for either format."""
    out = Path(out_dir)
    if format == "json":
        tables, metas = [], []
        for kind in ("aggregate", "trials"):
            path = out / f"{run_id}-{kind}.json"
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc.get("run_id") != run_id:
                raise ReportError(f"{path} does not belong to run {run_id}")
            cols = tuple(doc["columns"])
            tables.append((cols, [dict(zip(cols, row)) for row in doc["rows"]]))
            metas.append(doc["meta"])
        if metas[0] != metas[1]:
            raise ReportError("metadata disagrees between table files")
        meta = metas[0]
    elif format == "csv":
        tables = [_read_csv(out / f"{run_id}-{kind}.csv") for kind in ("aggregate", "trials")]
        _, meta_rows = _read_csv(out / f"{run_id}-meta.csv")
        meta = {str(r["key"]): r["value"] for r in meta_rows}
    else:
        raise ReportError("format must be 'csv' or 'json'")
    (agg_cols, agg_rows), (tri_cols, tri_rows) = tables
    return RunReport(
        run_id=run_id,
        meta=meta,
        aggregate_columns=agg_cols,
        aggregates=agg_rows,
        trial_columns=tri_cols,
        trials=tri_rows,
    )
