"""Self-test of the benchmark harness, kept out of the tier-1 suite.

    python3 -m pytest perfbench/selftest.py -q

Each case runs perfbench/run.py on a tiny trial count (about a minute and a
half in all on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ("--seed", "3", "--seconds", "1", "--trials", "2")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def printed(lines: list[str], prefix: str) -> str:
    (line,) = [l for l in lines if l.startswith(prefix)]
    return line[len(prefix):]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_unit(workload: str, trace: int) -> None:
    proc = run_bench("--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed(lines, f"metric {m['name']} = ").split()[1] == m["unit"]
    assert printed(lines, "metric failed_frac = ").split()[:2] == ["0", "ratio"]
    if trace:
        # the recorder loses no time: root spans cover the traced wall time
        coverage = float(printed(lines, "note top_level_coverage = "))
        assert 0.9 <= coverage <= 1.1


def test_corrupted_reference_counts_as_failure(tmp_path: Path) -> None:
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    table = ref["sweep:snr"]["trials"]
    col = table["columns"].index("exact_pks")
    table["rows"][0][col] = not table["rows"][0][col]
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref), encoding="utf-8")
    proc = run_bench("--workload", "desk-snr", "--trace", "0", "--reference", str(bad), *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    assert float(printed(lines, "metric failed_frac = ").split()[0]) > 0


def test_refuses_to_run_without_the_source(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "desk-snr", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
