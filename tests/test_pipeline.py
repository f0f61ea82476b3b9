"""Scenario configuration, the coexistence loop, and the sweep harness."""

import dataclasses
import json
import multiprocessing
import time

import numpy as np
import pytest

from specx import (
    ConfigError,
    InfeasibleError,
    ScenarioConfig,
    available_presets,
    band_layout,
    emit_report,
    load_config,
    run_radar,
    run_select_bands,
    run_sense,
    run_specx,
    sweep,
)
from specx import pipeline
from specx.pipeline import _resolve_workers


@pytest.fixture(scope="module")
def desk():
    return load_config("desk")


def small_sweep(cfg, **changes):
    return dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, **changes))


# -- configuration ------------------------------------------------------------


def test_presets_available_and_loadable():
    names = available_presets()
    assert "desk" in names and "paper_sw" in names
    for name in names:
        cfg = load_config(name)
        cfg.validate()
    # dashes normalize to underscores
    assert load_config("paper-sw").run_id == load_config("paper_sw").run_id


def test_load_config_from_file(tmp_path, desk):
    raw = desk_to_dict(desk)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.run_id == desk.run_id
    assert cfg.grid == desk.grid


def desk_to_dict(cfg):
    """Rebuild the JSON document for a loaded preset."""
    import importlib.resources as res

    text = res.files("specx").joinpath("presets/desk.json").read_text()
    return json.loads(text)


def test_unknown_keys_rejected(desk):
    raw = desk_to_dict(desk)
    raw["surprise"] = 1
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(raw)
    raw = desk_to_dict(desk)
    raw["grid"]["surprise"] = 1
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(raw)


def test_unknown_preset_mentions_options():
    with pytest.raises(ConfigError) as exc:
        load_config("not-a-preset")
    assert "desk" in str(exc.value)


def test_rem_width_must_match_radar_band(desk):
    raw = desk_to_dict(desk)
    raw["rem"]["b_y"] = 80e3  # 18 * 80 kHz != 1.62 MHz
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(raw).validate()


def test_rem_resolution_must_align_with_coefficient_bins(desk):
    # q * b_y == b_h but b_y is not a whole number of coefficient bins
    raw = desk_to_dict(desk)
    raw["rem"]["energies"] = raw["rem"]["energies"][:12]
    raw["rem"]["b_y"] = 1.62e6 / 12  # 135 kHz = 13.5 bins of 10 kHz
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig.from_dict(raw).validate()
    assert "multiple" in str(exc.value)


def test_pri_band_product_validation(desk):
    raw = desk_to_dict(desk)
    raw["radar"]["pri"] = 1.001e-4  # pri * b_h no longer an integer
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(raw).validate()


def test_feasibility_summary(desk):
    req = desk.feasibility()
    assert req.feasible
    assert req.k_min == 2 * desk.scene.n_targets
    crowded = dataclasses.replace(
        desk, scene=dataclasses.replace(desk.scene, n_targets=20)
    )
    assert not crowded.feasibility().feasible
    with pytest.raises(InfeasibleError):
        run_radar(crowded)


def _radar_with_no_pulses(desk, tmp_path, capsys):
    cfg = dataclasses.replace(desk, radar=dataclasses.replace(desk.radar, n_pulses=0))
    with pytest.raises(ConfigError, match=r"radar\.n_pulses must be >= 1"):
        run_radar(cfg)


def _sweep_on_listed_snrs(desk, tmp_path, capsys):
    files = []
    for snr_db in ([0, 10], (0.0, 10.0)):
        rep = sweep(small_sweep(desk, snr_db=snr_db, n_trials=2), "snr", workers=1)
        paths = emit_report(rep, tmp_path / str(len(files)))
        files.append({path.name: path.read_bytes() for path in paths})
    assert files[0] == files[1]


def _cli_sweep_of_no_trials(desk, tmp_path, capsys):
    from specx import cli

    code = cli.main([
        "sweep", "--config", "desk", "--axis", "snr", "--trials", "0",
        "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: sweep.n_trials must be >= 1")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "case", [_radar_with_no_pulses, _sweep_on_listed_snrs, _cli_sweep_of_no_trials],
    ids=["radar-no-pulses", "sweep-listed-snrs", "cli-no-trials"],
)
def test_config_changed_after_loading_is_checked_and_normalized(desk, tmp_path, capsys, case):
    """Every entry point rebuilds its config through validate, so a config
    changed with dataclasses.replace is checked, and its lists become
    tuples of floats, as if it had been loaded."""
    case(desk, tmp_path, capsys)


def test_int_in_float_field_reads_as_float(desk, tmp_path):
    """An int literal in a scalar float field reports as the float it
    stands for: the same bytes as the preset."""
    raw = desk_to_dict(desk)
    raw["radar"]["carrier"] = 150000000
    files = []
    for cfg in (ScenarioConfig.from_dict(raw), desk):
        paths = emit_report(run_sense(cfg), tmp_path / str(len(files)))
        files.append({path.name: path.read_bytes() for path in paths})
    assert files[0] == files[1]


# -- transmit layouts ----------------------------------------------------------


@pytest.mark.parametrize("name", ["separated", "adjacent", "wideband"])
def test_band_layout_geometry(name):
    b_h, n_bands, n_bins = 1.62e6, 4, 162
    bands = band_layout(name, b_h, n_bands, occupancy=0.2, n_bins=n_bins)
    assert bands.within(-b_h / 2, b_h / 2, tol=1e-6)
    if name == "wideband":
        assert bands.measure() == pytest.approx(b_h, rel=1e-9)
        assert len(bands) == 1
    else:
        assert bands.measure() == pytest.approx(0.2 * b_h, rel=0.05)
        assert len(bands) == (1 if name == "adjacent" else n_bands)


def test_separated_layout_spacing_is_aperiodic():
    bands = band_layout("separated", 1.62e6, 4, 0.2, 162)
    centers = sorted(iv.center for iv in bands)
    gaps = np.diff(centers)
    assert len(set(np.round(gaps, 3))) > 1  # no single repeated spacing


def test_band_layout_rejects_unknown():
    with pytest.raises(ValueError, match="zigzag"):
        band_layout("zigzag", 1.62e6, 4, 0.2, 162)


# -- end-to-end loop -----------------------------------------------------------


@pytest.fixture(scope="module")
def desk_report(desk):
    return run_specx(desk)


def test_loop_converges(desk_report):
    agg = desk_report.aggregates[0]
    assert agg["converged"] is True
    assert agg["iterations"] >= 2
    assert agg["final_hit_rate"] == 1.0
    assert agg["final_support_exact"] is True
    # one reselection triggered by the scripted carrier move
    assert agg["band_selections"] == 2


def test_loop_records_disjointness_every_iteration(desk_report):
    checked = 0
    for row in desk_report.trials:
        # the converged iteration re-senses but never re-selects bands, so its
        # row carries the previous f_r with no fresh disjointness check
        if row["f_r_fc_disjoint"] is not None:
            assert row["f_r_fc_disjoint"] is True
            checked += 1
    assert checked >= 1


def test_loop_rate_metadata(desk_report, desk):
    meta = desk_report.meta
    assert meta["f_total_hz"] == desk.grid.n_channels * desk.grid.f_s
    assert meta["rate_ratio"] == desk.grid.n_channels / 30
    assert meta["nyquist_fraction"] == pytest.approx(360e6 / 560e6)


def test_loop_is_deterministic(desk, desk_report):
    again = run_specx(desk)
    assert again.aggregates == desk_report.aggregates
    assert again.trials == desk_report.trials
    assert again.meta == desk_report.meta


def test_single_stage_runners(desk, tmp_path):
    sense = run_sense(desk)
    assert sense.run_id == "desk-sense"
    assert sense.aggregates[0]["support_exact"] is True

    bands = run_select_bands(desk)
    assert bands.run_id == "desk-bands"
    assert bands.aggregates[0]["n_blocks"] <= desk.radar.n_bands
    assert bands.trials[0]["f_r_fc_disjoint"] is True

    radar = run_radar(desk)
    assert radar.run_id == "desk-radar"
    assert 0.0 <= radar.aggregates[0]["hit_rate"] <= 1.0

    paths = emit_report(sense, tmp_path)
    assert len(paths) == 5


# -- sweeps ---------------------------------------------------------------------


def test_sweep_snr_shape_and_determinism(desk):
    cfg = small_sweep(desk, snr_db=(0.0, 10.0), n_trials=6)
    rep1 = sweep(cfg, "snr", workers=1)
    rep2 = sweep(cfg, "snr", workers=2)  # worker count must not matter
    assert rep1.run_id == "desk-snr"
    assert [a["snr_db"] for a in rep1.aggregates] == [0.0, 10.0]
    assert len(rep1.trials) == 12
    assert rep1.trials == rep2.trials
    assert rep1.aggregates == rep2.aggregates
    for agg in rep1.aggregates:
        assert 0.0 <= agg["pd_omp"] <= 1.0
        assert 0.0 <= agg["pd_pks"] <= 1.0


def test_sweep_band_placement_uses_band_grid(desk):
    cfg = small_sweep(desk, band_snr_db=(-15.0,), n_trials=4)
    rep = sweep(cfg, "band_placement", workers=1)
    assert {a["band_layout"] for a in rep.aggregates} == {
        "separated",
        "adjacent",
        "wideband",
    }
    assert all(a["snr_db"] == -15.0 for a in rep.aggregates)
    assert rep.meta["occupancy"] == 0.2


def test_sweep_channels_rate_columns(desk):
    cfg = small_sweep(desk, channel_counts=(12, 18), n_trials=4)
    rep = sweep(cfg, "channels", workers=1)
    by_m = {a["n_channels"]: a for a in rep.aggregates}
    assert by_m[12]["f_total_hz"] == 12 * desk.grid.f_s
    assert by_m[18]["rate_ratio"] == 18 / 30


@pytest.mark.parametrize(
    "axis, changes",
    [
        ("band_placement", {"band_snr_db": (-18.0,), "n_trials": 3}),
        ("channels", {"channel_counts": (12, 18), "n_trials": 3}),
        ("snr", {"snr_db": (0.0, 10.0), "n_trials": 3}),
        # two SNRs per layout, so the points of a layout share one frame
        ("band_placement", {"band_snr_db": (-21.0, -15.0), "n_trials": 3}),
    ],
)
def test_sweep_report_bytes_independent_of_workers(desk, tmp_path, axis, changes):
    cfg = small_sweep(desk, **changes)
    files = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        paths = emit_report(sweep(cfg, axis, workers=workers), out)
        files.append({path.name: path.read_bytes() for path in paths})
    assert files[0] == files[1]


def test_sweep_caps_blas_threads_and_restores_them(desk, monkeypatch):
    control = pipeline._openblas_thread_control()
    if control is None:
        pytest.skip("NumPy's BLAS exposes no thread control")
    get, set_ = control
    cfg = small_sweep(desk, snr_db=(10.0,), n_trials=2)
    saved = get()
    set_(2)
    try:
        sweep(cfg, "snr", workers=1)
        assert get() == 2

        seen = []

        def failing_trial(cfg, task):
            seen.append(get())
            raise RuntimeError("trial failed")

        monkeypatch.setattr(pipeline, "_trial_snr", failing_trial)
        with pytest.raises(RuntimeError, match="trial failed"):
            sweep(cfg, "snr", workers=1)
        assert seen == [1]
        assert get() == 2
    finally:
        set_(saved)


def counted(monkeypatch, name):
    """Replace pipeline.<name> by a wrapper that records each call's args."""
    calls = []
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapper)
    return calls


def test_band_sweep_builds_each_point_setup_once(desk, monkeypatch):
    """The frame once per layout, the GLRT threshold once per point."""
    cfg = small_sweep(desk, band_snr_db=(-21.0, -15.0), n_trials=3)
    fourier = counted(monkeypatch, "partial_fourier")
    threshold = counted(monkeypatch, "glrt_threshold")
    rep = sweep(cfg, "band_placement", workers=1)
    assert len(rep.trials) == 18
    assert len(fourier) == len(cfg.sweep.band_layouts) == 3
    assert len(threshold) == len(rep.aggregates) == 6


@pytest.mark.parametrize(
    "axis, changes, builds",
    [
        ("snr", {"snr_db": (0.0, 10.0), "n_trials": 3}, 1),
        ("channels", {"channel_counts": (12, 18), "n_trials": 3}, 2),
    ],
)
def test_sensing_sweep_builds_front_end_once(desk, monkeypatch, axis, changes, builds):
    """Once per sweep for snr, once per channel count for channels."""
    matrices = counted(monkeypatch, "build_sensing_matrix")
    sweep(small_sweep(desk, **changes), axis, workers=1)
    assert len(matrices) == builds


@pytest.mark.parametrize(
    "axis, changes",
    [
        ("snr", {"snr_db": (0.0, 10.0), "n_trials": 3}),
        ("channels", {"channel_counts": (12, 18), "n_trials": 3}),
    ],
    ids=["snr", "channels"],
)
def test_sensing_sweep_builds_rem_once(desk, monkeypatch, axis, changes):
    """The REM is built once per sweep, not once per trial."""
    calls = []
    to_rem = pipeline.RemConfig.to_rem

    def counted_to_rem(self):
        calls.append(self)
        return to_rem(self)

    monkeypatch.setattr(pipeline.RemConfig, "to_rem", counted_to_rem)
    rep = sweep(small_sweep(desk, **changes), axis, workers=1)
    assert len(rep.trials) == 6
    assert len(calls) == 1


@pytest.mark.parametrize(
    "axis, changes, n_matrices",
    [
        ("snr", {"snr_db": (0.0, 10.0), "n_trials": 3}, 1),
        ("channels", {"channel_counts": (12, 18), "n_trials": 3}, 2),
    ],
    ids=["snr", "channels"],
)
def test_sensing_sweep_builds_radar_emission_once(desk, monkeypatch, axis, changes, n_matrices):
    """desk's comm carriers are drawn clear of the radar, so every trial
    selects its bands against the same (empty) map: the bands, waveform and
    emission profile are built once per sweep, not once per trial. The QR
    of the known radar columns is built once per sensing matrix."""
    selections = counted(monkeypatch, "select_bands")
    waveforms = counted(monkeypatch, "design_radar_waveform")
    profiles = counted(monkeypatch, "radar_emission")
    matrices = counted(monkeypatch, "build_sensing_matrix")
    qr_calls = []
    qr = np.linalg.qr

    def counted_qr(*args, **kwargs):
        qr_calls.append(args)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    rep = sweep(small_sweep(desk, **changes), axis, workers=1)
    assert len(rep.trials) == 6
    assert len(selections) == len(waveforms) == len(profiles) == 1
    assert len(qr_calls) == len(matrices) == n_matrices


def test_sweep_empties_point_setups(desk, monkeypatch):
    cfg = small_sweep(desk, band_snr_db=(-18.0,), n_trials=2)
    sweep(cfg, "band_placement", workers=1)
    assert pipeline._POINT_SETUPS == {}

    trial_band = pipeline._trial_band
    held = []

    def failing_trial(cfg, task):
        trial_band(cfg, task)
        held.append(len(pipeline._POINT_SETUPS))
        raise RuntimeError("trial failed")

    monkeypatch.setattr(pipeline, "_trial_band", failing_trial)
    with pytest.raises(RuntimeError, match="trial failed"):
        sweep(cfg, "band_placement", workers=1)
    assert held == [2]  # the point's setup and the frame of its bands
    assert pipeline._POINT_SETUPS == {}


def test_sweep_without_blas_thread_control(desk, monkeypatch):
    cfg = small_sweep(desk, band_snr_db=(-18.0,), n_trials=2)
    expected = sweep(cfg, "band_placement", workers=1)
    monkeypatch.setattr(pipeline, "_openblas_thread_control", lambda: None)
    got = sweep(cfg, "band_placement", workers=1)
    assert got.trials == expected.trials
    assert got.aggregates == expected.aggregates


@pytest.fixture
def two_cpus(monkeypatch):
    """A sweep may use two processes, whatever this machine has."""
    monkeypatch.delenv("SPECX_WORKERS", raising=False)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_without_clear_carrier_is_infeasible(desk, two_cpus, workers):
    """The radar's avoid zone covers every carrier a transmission can take."""
    tx = dataclasses.replace(desk.comm.transmissions[0], carrier=-10e6)
    cfg = dataclasses.replace(
        small_sweep(desk, snr_db=(10.0,), n_trials=2),
        grid=dataclasses.replace(desk.grid, f_nyq=80e6),
        radar=dataclasses.replace(desk.radar, carrier=20e6),
        comm=dataclasses.replace(desk.comm, transmissions=(tx,), phase2_transmissions=(tx,)),
    )
    with pytest.raises(InfeasibleError, match=r"transmissions\[0\].*10000 draws"):
        sweep(cfg, "snr", workers=workers)
    assert multiprocessing.active_children() == []


# task index -> message of the trial that fails there; with two processes the
# calling one runs the even tasks and its child the odd ones
@pytest.mark.parametrize("failing", [{1: "odd", 2: "even"}, {0: "even", 3: "odd"}])
@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_sweep_raises_the_first_failing_task(desk, two_cpus, monkeypatch,
                                                      failing, workers):
    trial_band = pipeline._trial_band

    def failing_trial(cfg, task):
        index = 2 * task[-2] + task[-1]  # point and trial: 2 trials per point
        if index in failing:
            raise RuntimeError(failing[index])
        return trial_band(cfg, task)

    monkeypatch.setattr(pipeline, "_trial_band", failing_trial)
    cfg = small_sweep(desk, band_layouts=("separated", "adjacent"), band_snr_db=(-18.0,),
                      n_trials=2)
    with pytest.raises(RuntimeError, match=f"^{failing[min(failing)]}$"):
        sweep(cfg, "band_placement", workers=workers)
    assert multiprocessing.active_children() == []
    assert pipeline._POINT_SETUPS == {}


def test_interrupt_terminates_children_at_once(desk, two_cpus, monkeypatch):
    def trial(cfg, task):
        if multiprocessing.parent_process() is None:
            raise KeyboardInterrupt
        time.sleep(60)  # the child's share would outlast the test

    monkeypatch.setattr(pipeline, "_trial_band", trial)
    cfg = small_sweep(desk, band_layouts=("separated",), band_snr_db=(-18.0,), n_trials=2)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep(cfg, "band_placement", workers=2)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self, what, where):  # pickle rebuilds it from args alone
        super().__init__(f"{what} at {where}")


def test_child_failure_that_does_not_pickle(desk, two_cpus, monkeypatch):
    trial_band = pipeline._trial_band

    def failing_trial(cfg, task):
        if task[-1]:  # trial 1, run by the child
            raise _Unpicklable("trial failed", "task")
        return trial_band(cfg, task)

    monkeypatch.setattr(pipeline, "_trial_band", failing_trial)
    cfg = small_sweep(desk, band_layouts=("separated",), band_snr_db=(-18.0,), n_trials=2)
    with pytest.raises(RuntimeError, match=r"^_Unpicklable\('trial failed at task'\)$"):
        sweep(cfg, "band_placement", workers=2)
    assert multiprocessing.active_children() == []


def test_sweep_rejects_unknown_axis(desk):
    with pytest.raises(ConfigError):
        sweep(desk, "volume")


def test_worker_env_cap(desk, monkeypatch):
    monkeypatch.setenv("SPECX_WORKERS", "2")
    assert _resolve_workers(desk, 8) == 2
    monkeypatch.setenv("SPECX_WORKERS", "not-a-number")
    assert _resolve_workers(desk, 8) == 8
    monkeypatch.delenv("SPECX_WORKERS")
    assert _resolve_workers(desk, None) == max(1, desk.sweep.workers)


class _InlineSplit:
    """Stands in for _run_split: records how many processes would share the
    trials (the calling one plus its children) and runs them all in this
    process, so no child is ever started."""

    requested: list[int] = []

    @classmethod
    def run(cls, fn, tasks, w):
        cls.requested.append(w)
        return [fn(t) for t in tasks]


def _sized_sweeps(desk):
    """A 6-task channels sweep and a 200-task band-placement sweep."""
    six = dataclasses.replace(desk, sweep=dataclasses.replace(desk.sweep, n_trials=2))
    many = dataclasses.replace(
        desk,
        sweep=dataclasses.replace(
            desk.sweep, band_layouts=("separated",), band_snr_db=(-20.0, -15.0), n_trials=100
        ),
    )
    return (six, "channels"), (many, "band_placement")


@pytest.mark.parametrize("cpus, want", [(2, [2, 2]), (16, [6, 16])])
def test_sweep_pool_capped_by_tasks_and_cpus(desk, monkeypatch, cpus, want):
    monkeypatch.delenv("SPECX_WORKERS", raising=False)
    monkeypatch.setattr(pipeline, "_run_split", _InlineSplit.run)
    monkeypatch.setattr(
        pipeline.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
    )
    monkeypatch.setattr(_InlineSplit, "requested", [])
    for cfg, axis in _sized_sweeps(desk):
        report = sweep(cfg, axis, workers=64)
        assert len(report.trials) == cfg.sweep.n_trials * len(report.aggregates)
    assert _InlineSplit.requested == want


def test_sweep_pool_cap_without_affinity(desk, monkeypatch):
    monkeypatch.delenv("SPECX_WORKERS", raising=False)
    monkeypatch.setattr(pipeline, "_run_split", _InlineSplit.run)
    monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_InlineSplit, "requested", [])
    for cfg, axis in _sized_sweeps(desk):
        sweep(cfg, axis, workers=64)
    assert _InlineSplit.requested == [3, 3]

