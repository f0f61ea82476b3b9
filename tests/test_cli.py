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
_REAL_DRAW_BAND = pipeline._draw_band


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


def _desk_text_with(old, new):
    text = json.dumps(desk_doc())
    assert text.count(old) == 1
    return text.replace(old, new).encode()


def _deep_run_id():
    run_id = json.dumps(desk_doc()["run_id"])
    return _desk_text_with(f'"run_id": {run_id}', '"run_id": ' + "[" * 5000 + "]" * 5000)


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(
            lambda: _desk_text_with('"radar": {', '"radar": {"noise_var": 0.5, '),
            id="duplicate-key",
        ),
        pytest.param(lambda: b"[" * 200_000, id="deep-array"),
        pytest.param(_deep_run_id, id="deep-run-id"),
        pytest.param(lambda: b"\xff\xfe", id="non-utf8"),
    ],
)
def test_unreadable_config_exits_2_with_one_line(tmp_path, content):
    """A config the parser would misread (a repeated key keeps only its last
    value) or crash on is refused with one error line."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content())
    proc = run_cli("radar", "--config", str(bad), "--out", str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_value_nested_near_the_recursion_limit_is_refused():
    """A value nested just shallow enough to parse can still overflow the
    stack in the repr of its error message; from_json refuses it at every
    depth."""
    doc = desk_doc()
    doc["grid"]["f_nyq"] = "@"
    text = json.dumps(doc)
    limit = sys.getrecursionlimit()
    for depth in range(limit // 2, limit + 10):
        with pytest.raises(specx.ConfigError):
            specx.ScenarioConfig.from_json(text.replace('"@"', "[" * depth + "]" * depth))


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
        ("sweep", "workers", 0, ("sweep", "--axis", "snr", "--trials", "1", "--workers", "-1"),
         "sweep.workers must be >= 0"),
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
        ("sweep", "band_layouts", ["bogus"], ("sweep", "--axis", "band_placement", *SWEEP_ONE),
         "sweep.band_layouts: unknown layouts ['bogus']"),
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
        # desk's bins are 625 kHz apart, so a 100 kHz band can hold none
        ("comm.transmissions.0", "bandwidth", 1e5, ("sweep", "--axis", "snr", *SWEEP_ONE),
         "bandwidth 100000 Hz is narrower than 1.02 grid bins of 625000 Hz"),
        ("comm.transmissions.0", "shape", "square", ("sense",),
         "comm.transmissions[0]: shape must be one of ('flat', 'raised-cosine')"),
        ("comm.transmissions.0", "bandwidth", 0.0, ("sense",),
         "comm.transmissions[0]: bandwidth must be positive"),
        ("comm.transmissions.0", "power", -1.0, ("sense",),
         "comm.transmissions[0]: power must be nonnegative"),
        (None, "run_id", "", ("sense",), "run_id must be a non-empty path-free name"),
        (None, "run_id", "a/b", ("sense",), "run_id must be a non-empty path-free name"),
        ("grid", "n_grid", 31, ("sense",), "grid: n_grid must be even and >= 2"),
        ("grid", "n_chips", 4, ("sense",), "grid.n_chips (4) must be >= the slice count (30)"),
        # 279 MHz + 2 MHz reaches past f_nyq / 2 = 280 MHz
        ("comm.transmissions.0", "carrier", 2.79e8, ("sense",),
         "comm transmission 0 (phase 1) exceeds the Nyquist range"),
        ("comm.transmissions.0", "bandwidth", 2.1e7, ("sense",),
         "comm transmission 0 (phase 1) is wider than one slice"),
        ("radar", "carrier", 2.8e8, ("radar",), "radar band must lie within (0, f_nyq/2)"),
        # 1e-4 s * 1.61 MHz is 161 delay bins
        ("radar", "b_h", 1.61e6, ("radar",), "pri * b_h must be even"),
        ("radar", "p_fa", 1.0, ("radar",), "radar.p_fa must be in (0, 1)"),
        ("radar", "glrt_model", "bogus", ("radar",),
         "radar.glrt_model must be 'central' or 'noncentral'"),
        ("radar", "p_t", 0.0, ("radar",), "radar.p_t must be > 0"),
        ("rem", "energies", [1.0, 2.0, 3.0], ("select-bands",),
         "rem must have at least n_bands entries"),
        # desk's Doppler grid has 24 pulses
        ("scene", "n_targets", 25, ("radar",), "scene.n_targets exceeds the delay or Doppler grid"),
        ("sweep", "occupancy", 1.5, ("sweep", "--axis", "band_placement", *SWEEP_ONE),
         "sweep.occupancy must be in (0, 1]"),
        ("sweep", "snr_db", [], ("sweep", "--axis", "snr", *SWEEP_ONE),
         "sweep.snr_db must be non-empty"),
        ("sweep", "band_layouts", [], ("sweep", "--axis", "band_placement", *SWEEP_ONE),
         "sweep.band_layouts and the SNR grid must be non-empty"),
    ],
    ids=[
        "seed", "n_trials", "negative-workers", "specx-channels", "snr-channels", "channel-counts",
        "float-channels", "string-channels", "float-max-iterations", "float-pulses",
        "float-channel-count", "empty-channel-counts", "nan-carrier", "inf-noise-var",
        "bool-snr", "string-snr", "string-band-snr", "bool-energy", "string-energy",
        "huge-int-f-nyq", "huge-int-snr",
        "negative-energy", "negative-max-detections", "negative-noise-psd",
        "tiny-p-fa", "overlapping-occupancy", "unknown-layout", "tiny-bandwidth",
        "huge-delay-grid", "huge-slice-grid", "huge-mixing-bank", "huge-pulse-train",
        "huge-channel-bank", "list-layout", "null-run-id", "string-bandwidth",
        "narrow-bandwidth", "unknown-shape", "zero-bandwidth", "negative-power", "empty-run-id",
        "path-run-id", "odd-n-grid", "few-chips", "carrier-past-nyquist", "wide-bandwidth",
        "radar-past-nyquist", "odd-delay-bins", "p-fa-one", "unknown-glrt-model", "zero-p-t",
        "few-rem-entries", "too-many-targets", "occupancy-above-one", "empty-snr",
        "empty-band-layouts",
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


def test_missing_required_key_exits_2_in_one_line(tmp_path):
    doc = desk_doc()
    del doc["radar"]["pri"]
    proc = run_doc(tmp_path, doc, "radar")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: radar: missing required keys ['pri']\n"
    assert not list(tmp_path.glob("*.csv"))


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seed", list(range(100_000)), "error: seed must be an integer, got [0, 1, 2, "),
        ("seed", "9" * 100_000, "error: seed must be an integer, got '999"),
        ("run_id", _nested(500), "error: run_id must be a string, got [[[["),
    ],
    ids=["long-list", "long-string", "deep-list"],
)
def test_huge_wrong_typed_value_exits_2_in_one_short_line(tmp_path, key, value, message):
    """The error line shows a huge or deeply nested value cut down to its
    two ends, not its whole repr."""
    doc = desk_doc()
    doc[key] = value
    proc = run_doc(tmp_path, doc, "sense")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1
    assert len(proc.stderr) < 200, len(proc.stderr)


# only the band-placement sweep lays out blocks at sweep.occupancy, so the
# occupancy its separated layout cannot fit leaves every other command alone
@pytest.mark.parametrize(
    "args",
    [("sense",), ("select-bands",), ("radar",), ("specx",),
     ("sweep", "--axis", "snr", *SWEEP_ONE), ("sweep", "--axis", "channels", *SWEEP_ONE)],
    ids=lambda args: args[0] if len(args) == 1 else args[2],
)
def test_overlapping_occupancy_only_stops_band_placement(tmp_path, args):
    doc = desk_doc()
    doc["sweep"]["occupancy"] = 0.9
    proc = run_doc(tmp_path, doc, *args)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["sense", "select-bands"])
def test_few_channels_suffice_without_radar_slices(tmp_path, command):
    """Neither command seeds the greedy search with the radar slices."""
    doc = desk_doc()
    doc["grid"]["n_channels"] = 4
    assert run_doc(tmp_path, doc, command).returncode == 0


def test_dead_sweep_worker_exits_3(tmp_path, monkeypatch, capsys):
    from specx import cli

    child_drew = multiprocessing.Event()

    def dying_draw(cfg, point_idx, trial):
        """Kills a child that runs it; the calling process waits until the
        child has claimed a trial, so the child cannot find none left, and
        draws the real trial."""
        if multiprocessing.parent_process() is not None:
            child_drew.set()
            os._exit(1)
        child_drew.wait(timeout=30)
        return _REAL_DRAW_BAND(cfg, point_idx, trial)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(pipeline, "_draw_band", dying_draw)
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
    """Only a sweep that starts children imports multiprocessing: neither a
    single-shot command nor a serial sweep does."""
    for argv in (
        ["radar", "--config", "desk"],
        ["sweep", "--config", "desk", "--axis", "band_placement", "--trials", "1",
         "--workers", "1"],
    ):
        proc = run_python(
            "-c",
            "import sys, specx.cli\n"
            f"code = specx.cli.main({argv + ['--out', str(tmp_path)]!r})\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []", argv


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
        "comm.prune_db", "comm.refine_db", "rem.energies.3", "rem.b_y", "radar.carrier",
        "radar.b_h", "radar.pri", "radar.p_t", "radar.noise_var", "radar.p_fa",
        "scene.amplitude", "sweep.channels_snr_db", "sweep.occupancy",
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


@pytest.mark.parametrize("key", ["prune_db", "refine_db"])
def test_negative_db_margin_exits_2_on_every_command(key):
    """A negative comm.prune_db or comm.refine_db would drop even the
    strongest comm slice or bin, so every command refuses it in one line
    instead of sensing an empty comm map."""
    from specx import cli

    doc = desk_doc()
    doc["comm"][key] = -1.0
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "scenario.json"
        config.write_text(json.dumps(doc))
        for command in FUZZ_COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([*command, "--config", str(config), "--out", out])
            assert code == 2, command
            assert err.getvalue().splitlines() == [f"error: comm.{key} must be >= 0"], command
        assert not list(Path(out).glob("*.csv"))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_out_of_range_exits_2_on_every_command(seed):
    """derive_rng reads a master seed modulo 2**64, so a seed below 0 or
    from 2**64 would run as another seed's alias; every command refuses it
    in one line, from the config file or from --seed."""
    from specx import cli

    message = "error: seed must be >= 0" if seed < 0 else f"error: seed must be < {2**64}"
    doc = desk_doc()
    doc["seed"] = seed
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "scenario.json"
        config.write_text(json.dumps(doc))
        for command in FUZZ_COMMANDS:
            for args in (["--config", str(config)], ["--config", "desk", "--seed", str(seed)]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = cli.main([*command, *args, "--out", out])
                assert code == 2, (command, args)
                assert err.getvalue().splitlines() == [message], (command, args)
        assert not list(Path(out).glob("*.csv"))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_at_either_end_of_its_range_runs_every_command(seed):
    from specx import cli

    for command in FUZZ_COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*command, "--config", "desk", "--seed", str(seed), "--out", out])
            assert code == 0, command
            meta = json.loads(next(Path(out).glob("*aggregate.json")).read_text())["meta"]
            assert meta["seed"] == seed, command


# report columns that hold a rate or a share, each in [0, 1] when set
RATE_COLUMNS = {
    "hit_rate", "final_hit_rate", "pd_omp", "pd_pks", "exact_rate_omp", "exact_rate_pks",
    "exact_rate", "occupancy_ratio", "final_occupancy_ratio", "rate_ratio",
}
EDGE_COMMANDS = [
    ("sense",), ("select-bands",), ("radar",), ("specx",),
    *(("sweep", "--axis", axis, "--trials", "2", "--workers", "1")
      for axis in ("snr", "band_placement", "channels")),
]


@st.composite
def edge_desk(draw):
    """Desk with several fields at once set to values at the edge of their
    range: comm bands from 1.02 bins to a slice wide, with carriers at
    either Nyquist edge, at 0 Hz, on the radar carrier or anywhere; 0 to 3
    transmissions per phase; no sub-slice refinement or one at 3 or 30 dB;
    1 to 18 radar bands, occupancy 0.01 to 1, 0 to 6 targets, noise from 0
    to 1e6 and zeros in the REM."""
    doc = desk_doc()
    grid, radar = doc["grid"], doc["radar"]
    half_nyq = grid["f_nyq"] / 2.0

    def transmission():
        bandwidth = draw(st.sampled_from([1.02 * grid["f_s"] / grid["n_grid"], 4e6, grid["f_p"]]))
        reach = half_nyq - bandwidth / 2.0
        carrier = draw(st.sampled_from([-reach, reach, 0.0, radar["carrier"], None]))
        if carrier is None:
            carrier = draw(st.floats(-reach, reach))
        return {
            "carrier": carrier,
            "bandwidth": bandwidth,
            "power": draw(st.sampled_from([1e-3, 1.0, 1e3])),
            "shape": draw(st.sampled_from(["flat", "raised-cosine"])),
        }

    comm = doc["comm"]
    comm["transmissions"] = [transmission() for _ in range(draw(st.integers(0, 3)))]
    comm["phase2_transmissions"] = draw(st.sampled_from([None, "draw"]))
    if comm["phase2_transmissions"]:
        comm["phase2_transmissions"] = [transmission() for _ in range(draw(st.integers(0, 3)))]
    comm["noise_psd"] = draw(st.sampled_from([0.0, 4e-11, 1e-3, 1e6]))
    comm["refine_db"] = draw(st.sampled_from([None, 3.0, 30.0]))
    radar["n_bands"] = draw(st.integers(1, len(doc["rem"]["energies"])))
    radar["noise_var"] = draw(st.sampled_from([0.0, 3.0, 1e6]))
    doc["scene"]["n_targets"] = draw(st.integers(0, 6))
    doc["sweep"]["occupancy"] = draw(st.sampled_from([0.01, 0.2, 0.5, 1.0]))
    for i in draw(st.sets(st.integers(0, len(doc["rem"]["energies"]) - 1), max_size=6)):
        doc["rem"]["energies"][i] = 0.0
    return doc


@pytest.mark.parametrize("command", EDGE_COMMANDS, ids=lambda c: c[0] if len(c) == 1 else c[2])
@settings(max_examples=6, derandomize=True, deadline=None, database=None)
@given(doc=edge_desk())
def test_cli_edge_configs_run_correctly_or_exit_in_one_line(command, doc):
    """Several desk fields at edge values, 6 configs per command: the CLI
    either exits 2 or 3 with one message line, or writes reports whose radar
    bands miss the sensed comm map, whose sensed comm map stays on its comm
    slices, whose rates lie in [0, 1], and whose true comm support is not
    empty when its phase has transmissions."""
    from _oracles import off_slices

    from specx import cli
    from specx.pipeline import GridConfig

    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "scenario.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--config", str(config), "--out", out, "--format", "json"])
        reports = [
            json.loads(path.read_text())
            for path in sorted(Path(out).glob("*.json"))
            if path.name != "scenario.json"
        ]
    lines = err.getvalue().strip().splitlines()
    assert code in (0, 2, 3), command
    if code:
        assert len(lines) == 1, lines
        assert lines[0].startswith("error:" if code == 2 else ("error:", "infeasible:"))
        return
    assert reports
    phases = {1: doc["comm"]["transmissions"], 2: doc["comm"]["phase2_transmissions"]}
    grid = GridConfig(**doc["grid"]).to_grid()
    for report in reports:
        for value in (report["meta"].get(c) for c in RATE_COLUMNS):
            assert value is None or 0.0 <= value <= 1.0
        for row in (dict(zip(report["columns"], r)) for r in report["rows"]):
            for value in (row.get(c) for c in RATE_COLUMNS):
                assert value is None or 0.0 <= value <= 1.0, row
            assert row.get("f_r_fc_disjoint") in (None, True), row
            if "comm_support_est" in row:
                off = off_slices(row["f_c_est"], row["comm_support_est"], grid)
                assert off <= 1e-6 * grid.delta_f, row
            if "f_c_true" in row and phases[row.get("phase", 1)]:
                assert row["f_c_true"], row
