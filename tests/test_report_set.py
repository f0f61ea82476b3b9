"""The report-set comparison on small synthetic reports."""

import io
import math

import pytest
from _report_set import compare_report_sets

from specx import RunReport, emit_report


def _report(pd=0.75, exact=True, support=(3, 5), noise_var=0.125):
    return RunReport(
        run_id="toy-snr",
        meta={"seed": 7, "f_p_hz": 20e6},
        aggregate_columns=("snr_db", "pd_pks"),
        aggregates=({"snr_db": 10.0, "pd_pks": pd},),
        trial_columns=("trial", "exact_pks", "support", "noise_var"),
        trials=(
            {"trial": 0, "exact_pks": exact, "support": list(support), "noise_var": noise_var},
            {"trial": 1, "exact_pks": True, "support": [4], "noise_var": None},
        ),
    )


def _compare(tmp_path, a, b, rtol=0.0):
    emit_report(a, tmp_path / "a" / "w1")
    emit_report(b, tmp_path / "b" / "w1")
    out = io.StringIO()
    problems = compare_report_sets(tmp_path / "a", tmp_path / "b", rtol, out=out)
    return problems, out.getvalue()


def test_identical_sets_match_exactly(tmp_path):
    problems, printed = _compare(tmp_path, _report(), _report())
    assert problems == []
    assert "aggregate:pd_pks" in printed and "trials:noise_var" in printed


def test_one_ulp_float_change_is_caught_at_zero_tolerance(tmp_path):
    pd = 0.75
    problems, printed = _compare(tmp_path, _report(pd=pd), _report(pd=math.nextafter(pd, 1.0)))
    # the aggregate table's JSON and CSV files
    assert len(problems) == 2 and all("pd_pks" in p for p in problems)
    drift = next(ln for ln in printed.splitlines() if ln.startswith("aggregate:pd_pks"))
    assert float(drift.split()[1]) == pytest.approx(math.ulp(pd) / math.nextafter(pd, 1.0))


def test_float_drift_within_tolerance_passes(tmp_path):
    drifted = _report(noise_var=0.125 * (1 + 1e-9))
    problems, _ = _compare(tmp_path, _report(noise_var=0.125), drifted, rtol=1e-8)
    assert problems == []


@pytest.mark.parametrize(
    "changed",
    [{"exact": False}, {"support": (3, 6)}, {"support": (3,)}, {"noise_var": None}],
    ids=["flipped-boolean", "support-entry", "support-length", "float-to-null"],
)
def test_discrete_change_is_caught_at_any_tolerance(tmp_path, changed):
    problems, _ = _compare(tmp_path, _report(), _report(**changed), rtol=1.0)
    assert len(problems) == 2  # the trial table's JSON and CSV files


def test_missing_file_is_caught(tmp_path):
    emit_report(_report(), tmp_path / "a")
    emit_report(_report(), tmp_path / "b", formats="csv")
    problems = compare_report_sets(tmp_path / "a", tmp_path / "b", out=io.StringIO())
    assert sorted(p.rsplit(": ", 1)[-1] for p in problems) == [
        "toy-snr-aggregate.json", "toy-snr-trials.json",
    ]


def test_refine_config_is_compared_byte_for_byte(tmp_path):
    from _report_set import REFINE_CONFIG

    for side, text in (("a", '{"seed": 7}\n'), ("b", '{"seed": 8}\n')):
        (tmp_path / side / "desk").mkdir(parents=True)
        (tmp_path / side / "desk" / REFINE_CONFIG).write_text(text)
    problems = compare_report_sets(tmp_path / "a", tmp_path / "b", out=io.StringIO())
    assert problems == [f"desk/{REFINE_CONFIG}: configs differ"]
