"""Command-line entry point, run as a real subprocess."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import specx

# the subprocess imports the same specx as the tests, installed or not
SRC = str(Path(specx.__file__).resolve().parents[1])


def run_cli(*args, cwd=None):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "specx", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def desk_doc():
    text = resources.files("specx").joinpath("presets/desk.json").read_text()
    return json.loads(text)


def test_sense_preset_writes_reports(tmp_path):
    proc = run_cli("sense", "--config", "desk", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "sampling rate:" in proc.stdout
    wrote = [ln for ln in proc.stdout.splitlines() if ln.startswith("wrote ")]
    assert len(wrote) == 5  # csv aggregate/trials/meta + json report/meta
    for line in wrote:
        assert (tmp_path / line.removeprefix("wrote ").rsplit("/", 1)[-1]).exists()


def test_format_selects_file_set(tmp_path):
    json_dir = tmp_path / "j"
    csv_dir = tmp_path / "c"
    json_dir.mkdir()
    csv_dir.mkdir()
    p1 = run_cli("sense", "--config", "desk", "--out", str(json_dir), "--format", "json")
    p2 = run_cli("sense", "--config", "desk", "--out", str(csv_dir), "--format", "csv")
    assert p1.returncode == 0 and p2.returncode == 0
    assert len(list(json_dir.iterdir())) == 2
    assert len(list(csv_dir.iterdir())) == 3


def test_unknown_preset_lists_options(tmp_path):
    proc = run_cli("sense", "--config", "nope", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "desk" in proc.stderr and "paper_sw" in proc.stderr


def test_invalid_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("sense", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_infeasible_scene_exits_3(tmp_path):
    doc = desk_doc()
    doc["scene"]["n_targets"] = 20
    path = tmp_path / "crowded.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("radar", "--config", str(path), "--out", str(tmp_path))
    assert proc.returncode == 3
    assert "infeasible:" in proc.stderr


def test_snr_sweep_without_transmissions_exits_2(tmp_path):
    doc = desk_doc()
    doc["comm"]["transmissions"] = []
    path = tmp_path / "silent.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(
        "sweep", "--config", str(path), "--axis", "snr", "--trials", "1",
        "--workers", "1", "--out", str(tmp_path),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "comm.transmissions" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_trials_override(tmp_path):
    proc = run_cli(
        "sweep", "--config", "desk", "--axis", "snr", "--trials", "2",
        "--workers", "1", "--out", str(tmp_path), "--format", "csv",
    )
    assert proc.returncode == 0, proc.stderr
    doc = desk_doc()
    n_points = len(doc["sweep"]["snr_db"])
    trials_csv = next(p for p in tmp_path.iterdir() if "trials" in p.name)
    rows = trials_csv.read_text().strip().splitlines()
    assert len(rows) - 1 == 2 * n_points


def test_seed_override_changes_meta(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    run_cli("sense", "--config", "desk", "--out", str(d1), "--format", "json")
    run_cli("sense", "--config", "desk", "--seed", "99", "--out", str(d2), "--format", "json")
    meta1 = json.loads(next(d1.glob("*aggregate.json")).read_text())["meta"]
    meta2 = json.loads(next(d2.glob("*aggregate.json")).read_text())["meta"]
    assert meta1["seed"] == 1234
    assert meta2["seed"] == 99


def test_bad_axis_rejected(tmp_path):
    proc = run_cli("sweep", "--config", "desk", "--axis", "volume", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_verbose_prints_trials(tmp_path):
    quiet = run_cli("select-bands", "--config", "desk", "--out", str(tmp_path))
    loud = run_cli("select-bands", "--config", "desk", "--out", str(tmp_path), "--verbose")
    assert quiet.returncode == 0 and loud.returncode == 0
    assert len(loud.stdout.splitlines()) > len(quiet.stdout.splitlines())


SWEEP_ONE = ("--trials", "1", "--workers", "1")


def run_doc(tmp_path, doc, *args):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return run_cli(*args, "--config", str(path), "--out", str(tmp_path))


def test_snr_sweep_without_prune_runs(tmp_path):
    doc = desk_doc()
    doc["comm"]["prune_db"] = None
    proc = run_doc(tmp_path, doc, "sweep", "--axis", "snr", *SWEEP_ONE)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "section, key, value, args, message",
    [
        (None, "seed", "abc", ("sense",), "seed must be an integer"),
        ("sweep", "n_trials", True, ("sweep", "--axis", "snr", "--workers", "1"),
         "sweep.n_trials must be an integer"),
        # desk's radar band touches 4 slices, so radar-aware sensing needs 5
        ("grid", "n_channels", 4, ("specx",), "grid.n_channels (4) must be >= 5"),
        ("grid", "n_channels", 4, ("sweep", "--axis", "snr", *SWEEP_ONE),
         "grid.n_channels (4) must be >= 5"),
        ("sweep", "channel_counts", [12, 4], ("sweep", "--axis", "channels", *SWEEP_ONE),
         "sweep.channel_counts entry (4) must be >= 5"),
    ],
    ids=["seed", "n_trials", "specx-channels", "snr-channels", "channel-counts"],
)
def test_bad_config_exits_2_in_one_line(tmp_path, section, key, value, args, message):
    doc = desk_doc()
    (doc[section] if section else doc)[key] = value
    proc = run_doc(tmp_path, doc, *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and message in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["sense", "select-bands"])
def test_few_channels_suffice_without_radar_slices(tmp_path, command):
    """Neither command seeds the greedy search with the radar slices."""
    doc = desk_doc()
    doc["grid"]["n_channels"] = 4
    assert run_doc(tmp_path, doc, command).returncode == 0
