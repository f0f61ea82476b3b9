"""Command-line entry point, run as a real subprocess."""

import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specx
from specx import pipeline

# the subprocess imports the same specx as the tests, installed or not
SRC = str(Path(specx.__file__).resolve().parents[1])
_REAL_TRIAL_BAND = pipeline._trial_band


def run_python(*args, cwd=None):
    """Run a fresh interpreter that imports the tests' specx."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args, cwd=None):
    return run_python("-m", "specx", *args, cwd=cwd)


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


def test_snr_sweep_with_more_picks_than_slices_runs(tmp_path):
    """The radar-unaware pursuit's budget of 4 * n_sig = 32 picks exceeds
    desk's 30 slices; it is capped at the slice count."""
    doc = desk_doc()
    doc["comm"]["n_sig"] = 8
    proc = run_doc(tmp_path, doc, "sweep", "--axis", "snr", *SWEEP_ONE)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("absent", [False, True], ids=["empty", "absent"])
def test_sense_runs_without_channel_counts(tmp_path, absent):
    """An empty or absent sweep.channel_counts concerns only the channels
    sweep; the mixing-bank size check still passes."""
    doc = desk_doc()
    if absent:
        del doc["sweep"]["channel_counts"]
    else:
        doc["sweep"]["channel_counts"] = []
    proc = run_doc(tmp_path, doc, "sense")
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
        ("grid", "n_channels", 18.5, ("sense",), "grid.n_channels must be an integer"),
        ("grid", "n_channels", "18", ("sense",), "grid.n_channels must be an integer"),
        ("loop", "max_iterations", 2.5, ("specx",), "loop.max_iterations must be an integer"),
        ("radar", "n_pulses", 24.0, ("radar",), "radar.n_pulses must be an integer"),
        ("sweep", "channel_counts", [12.7], ("sweep", "--axis", "channels", *SWEEP_ONE),
         "sweep.channel_counts[0] must be an integer"),
        ("sweep", "channel_counts", [], ("sweep", "--axis", "channels", *SWEEP_ONE),
         "sweep.channel_counts must be non-empty"),
        ("comm.transmissions.0", "carrier", float("nan"), ("sense",),
         "comm.transmissions[0].carrier must be a finite number"),
        ("radar", "noise_var", float("inf"), ("radar",),
         "radar.noise_var must be a finite number"),
        ("sweep", "snr_db", [True, 10], ("sweep", "--axis", "snr", *SWEEP_ONE),
         "sweep.snr_db[0] must be a finite number"),
        ("sweep", "snr_db", [0, "10"], ("sweep", "--axis", "snr", *SWEEP_ONE),
         "sweep.snr_db[1] must be a finite number"),
        ("sweep", "band_snr_db", ["-18"], ("sweep", "--axis", "band_placement", *SWEEP_ONE),
         "sweep.band_snr_db[0] must be a finite number"),
        ("rem.energies", 0, False, ("select-bands",),
         "rem.energies[0] must be a finite number"),
        ("rem.energies", 1, "1.0", ("select-bands",),
         "rem.energies[1] must be a finite number"),
        ("grid", "f_nyq", 10**400, ("sense",), "grid.f_nyq must be a finite number"),
        ("sweep", "snr_db", [10**400], ("sweep", "--axis", "snr", *SWEEP_ONE),
         "sweep.snr_db[0] must be a finite number"),
        ("rem.energies", 0, -1.0, ("select-bands",), "rem.energies[0] must be >= 0"),
        ("radar", "max_detections", -1, ("radar",), "radar.max_detections must be >= 0"),
        ("comm", "noise_psd", -1.0, ("sense",), "comm.noise_psd must be >= 0"),
        # 1 - (1 - p_fa)^(1/3888) rounds to 0, so no GLRT threshold exists
        ("radar", "p_fa", 1e-13, ("radar",), "radar.p_fa (1e-13) is too small"),
        ("sweep", "occupancy", 0.9, ("sweep", "--axis", "band_placement", *SWEEP_ONE),
         "separated layout blocks overlap"),
        # carrier +- 5e-14 rounds to one float, so the band would be empty
        ("comm.transmissions.0", "bandwidth", 1e-13, ("sweep", "--axis", "snr", *SWEEP_ONE),
         "bandwidth 1e-13 Hz rounds to an empty band"),
        # 0.95 s * 1.62 MHz is 1.5 million delay bins, a frame of terabytes
        ("radar", "pri", 0.95, ("radar",), "delay bins) must be <= 4096"),
        # complex arrays over 256 MiB: 30 slices of 2**20 bins (480 MiB), 18
        # sequences of 2**20 chips (288 MiB), 162 delay bins by 2**17 pulses
        # (324 MiB)
        ("grid", "n_grid", 2**20, ("sense",), "must be <= 16777216 slice bins"),
        ("grid", "n_chips", 2**20, ("sense",), "must be <= 16777216 mixing-bank chips"),
        ("radar", "n_pulses", 2**17, ("radar",), "must be <= 16777216 delay-Doppler cells"),
        # the frame is n_channels squared: 4097**2 entries (256 MiB and more)
        ("grid", "n_channels", 4097, ("sense",), "must be <= 16777216 frame entries"),
        ("sweep", "band_layouts", [[]], ("sense",), "sweep.band_layouts[0] must be a string"),
        (None, "run_id", None, ("sense",), "run_id must be a string"),
        ("comm.transmissions.0", "bandwidth", "x", ("sense",),
         "comm.transmissions[0].bandwidth must be a finite number"),
    ],
    ids=[
        "seed", "n_trials", "specx-channels", "snr-channels", "channel-counts",
        "float-channels", "string-channels", "float-max-iterations", "float-pulses",
        "float-channel-count", "empty-channel-counts", "nan-carrier", "inf-noise-var",
        "bool-snr", "string-snr", "string-band-snr", "bool-energy", "string-energy",
        "huge-int-f-nyq", "huge-int-snr",
        "negative-energy", "negative-max-detections", "negative-noise-psd",
        "tiny-p-fa", "overlapping-occupancy", "tiny-bandwidth", "huge-delay-grid",
        "huge-slice-grid", "huge-mixing-bank", "huge-pulse-train", "huge-channel-bank",
        "list-layout", "null-run-id", "string-bandwidth",
    ],
)
def test_bad_config_exits_2_in_one_line(tmp_path, section, key, value, args, message):
    doc = desk_doc()
    target = doc
    for step in section.split(".") if section else ():
        target = target[int(step) if step.isdigit() else step]
    target[key] = value
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


def _dying_trial(cfg, task):
    """Kills a child that runs it; the calling process runs the real trial."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _REAL_TRIAL_BAND(cfg, task)


def test_dead_sweep_worker_exits_3(tmp_path, monkeypatch, capsys):
    from specx import cli

    monkeypatch.delenv("SPECX_WORKERS", raising=False)  # the sweep must not run serially
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pipeline, "_trial_band", _dying_trial)
    code = cli.main([
        "sweep", "--config", "desk", "--axis", "band_placement", "--trials", "2",
        "--workers", "2", "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: a sweep worker died:") and "code 1" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.iterdir())
    assert multiprocessing.active_children() == []


def test_radar_command_never_imports_scipy(tmp_path):
    """The central GLRT threshold is closed-form, so a cold CLI run leaves
    SciPy unimported."""
    proc = run_python(
        "-c",
        "import sys, specx, specx.cli\n"
        f"code = specx.cli.main(['radar', '--config', 'desk', '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_cli_never_imports_multiprocessing(tmp_path):
    """Only a sweep that starts children imports multiprocessing."""
    proc = run_python(
        "-c",
        "import sys, specx.cli\n"
        f"code = specx.cli.main(['radar', '--config', 'desk', '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_noncentral_threshold_imports_scipy_when_used():
    proc = run_python(
        "-c",
        "import sys\n"
        "from specx import glrt_threshold\n"
        "loaded = 'scipy.stats' in sys.modules\n"
        "gamma = glrt_threshold(0.01, 3888, rho=5.0, model='noncentral')\n"
        "print(loaded, 'scipy.stats' in sys.modules, gamma > glrt_threshold(0.01, 3888))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


# desk fields the fuzz test may replace; "size" fields count or index
# something, so only those in HUGE_SIZES, whose huge values a size cap refuses
# before anything is allocated, are given a huge integer
FUZZ_FIELDS = {
    "size": [
        "seed", "grid.n_grid", "grid.n_channels", "grid.n_chips", "comm.n_sig",
        "radar.n_bands", "radar.n_pulses", "radar.max_detections", "scene.n_targets",
        "loop.max_iterations",
    ],
    "number": [
        "grid.f_nyq", "grid.f_p", "grid.f_s", "comm.transmissions.0.carrier",
        "comm.transmissions.0.bandwidth", "comm.transmissions.0.power", "comm.noise_psd",
        "comm.prune_db", "rem.energies.3", "rem.b_y", "radar.carrier", "radar.b_h",
        "radar.pri", "radar.p_t", "radar.noise_var", "radar.p_fa", "scene.amplitude",
        "sweep.channels_snr_db", "sweep.occupancy",
    ],
    "other": [
        "comm.transmissions", "comm.transmissions.0.shape", "comm.phase2_transmissions",
        "rem.energies", "radar.glrt_model", "sweep.snr_db", "sweep.band_snr_db",
        "sweep.band_layouts", "sweep.channel_counts",
    ],
}
FUZZ_VALUES = [
    "x", None, True, {}, float("nan"), float("inf"), float("-inf"), -1, -1.0, 0, 0.0,
    [], [None], ["x"], [float("nan")], [-1.0], [0],
]
HUGE_SIZES = {"grid.n_grid", "grid.n_chips", "grid.n_channels", "radar.n_pulses"}
FUZZ_COMMANDS = [
    ("sense",), ("select-bands",), ("radar",), ("specx",),
    *(("sweep", "--axis", axis, "--trials", "1", "--workers", "1")
      for axis in ("snr", "band_placement", "channels")),
]


@st.composite
def fuzzed_desk(draw):
    kind = draw(st.sampled_from(sorted(FUZZ_FIELDS)))
    path = draw(st.sampled_from(FUZZ_FIELDS[kind]))
    values = FUZZ_VALUES + ([10**400, 1e-13, 0.95] if kind == "number" else [])
    if path in HUGE_SIZES:
        values = values + [2**20, 2**31]
    return path, draw(st.sampled_from(values)), draw(st.sampled_from(FUZZ_COMMANDS))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(fuzzed_desk())
def test_cli_survives_one_bad_field(case):
    """One desk field replaced by a wrong type, a non-finite, negative or zero
    value, an empty or bad list, a huge integer, a tiny or a near-one number:
    the CLI either runs or exits 2 or 3 with one message line."""
    from specx import cli

    path, value, command = case
    doc = desk_doc()
    *parents, key = path.split(".")
    target = doc
    for step in parents:
        target = target[int(step) if step.isdigit() else step]
    target[int(key) if key.isdigit() else key] = value
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "scenario.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--config", str(config), "--out", out])
    lines = err.getvalue().strip().splitlines()
    assert code in (0, 2, 3), (path, value, command)
    if code:
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:" if code == 2 else ("error:", "infeasible:"))
