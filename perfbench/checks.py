"""Output checks: reference outcomes, the paper's orderings, byte identity.

Reference outcomes are the discrete columns of specx's reports at the
preset's own seed: the sweeps' exact_pks, exact_omp, hit_rate and
n_detections per trial, and the single-shot commands' supports, band sets,
hit rates and detection counts. Floats compare within REL_TOL relative
(ABS_TOL absolute near zero), so float drift far below that still passes
while any flipped outcome fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-6

# columns that identify a row, then the outcome columns compared
KEY_FIELDS = ("band_layout", "snr_db", "trial", "iteration")
OUTCOME_FIELDS = (
    "exact_pks", "exact_omp", "hit_rate", "n_detections",
    "comm_support_true", "comm_support_est", "support_exact", "f_c_est", "f_r", "s_r",
)

# the acceptance suite's band-placement check runs at this SNR
BAND_ORDER_SNR_DB = -18.0


def outcomes(out_dir: Path, run_id: str) -> dict:
    """Key and outcome columns of one report's JSON tables."""
    doc = {}
    for kind in ("aggregate", "trials"):
        table = json.loads((out_dir / f"{run_id}-{kind}.json").read_text(encoding="utf-8"))
        keep = [c for c in table["columns"] if c in KEY_FIELDS + OUTCOME_FIELDS]
        idx = [table["columns"].index(c) for c in keep]
        doc[kind] = {"columns": keep, "rows": [[row[i] for i in idx] for row in table["rows"]]}
    return doc


def mismatch(got, want, where: str = "") -> str | None:
    """First difference between two JSON values, or None when they agree."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return None if got == want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{where}: {got!r} != {want!r}"
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return None
        return f"{where}: {got!r} != {want!r}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length {len(got) if isinstance(got, list) else got!r} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = mismatch(g, w, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"
        for k in want:
            diff = mismatch(got[k], want[k], f"{where}.{k}")
            if diff:
                return diff
        return None
    raise TypeError(f"unexpected reference value {want!r}")


def snr_ordering(report) -> str | None:
    """pd_pks >= pd_omp - (ci95_pks + ci95_omp) at every SNR point."""
    for row in report.aggregates:
        if row["pd_pks"] < row["pd_omp"] - (row["ci95_pks"] + row["ci95_omp"]):
            return f"pd_pks {row['pd_pks']} below pd_omp {row['pd_omp']} at {row['snr_db']} dB"
    return None


def band_ordering(report) -> str | None:
    """separated >= wideband >= adjacent hit rate within their CIs."""
    agg = {r["band_layout"]: r for r in report.aggregates if r["snr_db"] == BAND_ORDER_SNR_DB}
    if set(agg) != {"separated", "wideband", "adjacent"}:
        return f"no layout rows at {BAND_ORDER_SNR_DB} dB"
    for hi, lo in (("separated", "wideband"), ("wideband", "adjacent")):
        if agg[hi]["hit_rate"] < agg[lo]["hit_rate"] - (agg[hi]["ci95"] + agg[lo]["ci95"]):
            return f"{hi} hit rate {agg[hi]['hit_rate']} below {lo} {agg[lo]['hit_rate']}"
    return None


def read_files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def same_files(got: dict[str, bytes], want: dict[str, bytes]) -> str | None:
    if sorted(got) != sorted(want):
        return f"files {sorted(got)} != {sorted(want)}"
    for name in want:
        if got[name] != want[name]:
            return f"{name} differs"
    return None
