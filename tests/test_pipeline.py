"""Scenario configuration, the coexistence loop, and the sweep harness."""

import dataclasses
import json

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
    cfg = small_sweep(desk, band_snr_db=(-21.0, -15.0), n_trials=3)
    fourier = counted(monkeypatch, "partial_fourier")
    threshold = counted(monkeypatch, "glrt_threshold")
    rep = sweep(cfg, "band_placement", workers=1)
    assert len(rep.trials) == 18
    assert len(fourier) == len(threshold) == len(rep.aggregates) == 6


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
    assert held == [1]
    assert pipeline._POINT_SETUPS == {}


def test_sweep_without_blas_thread_control(desk, monkeypatch):
    cfg = small_sweep(desk, band_snr_db=(-18.0,), n_trials=2)
    expected = sweep(cfg, "band_placement", workers=1)
    monkeypatch.setattr(pipeline, "_openblas_thread_control", lambda: None)
    got = sweep(cfg, "band_placement", workers=1)
    assert got.trials == expected.trials
    assert got.aggregates == expected.aggregates


def test_sweep_without_clear_carrier_is_infeasible(desk):
    """The radar's avoid zone covers every carrier a transmission can take."""
    tx = dataclasses.replace(desk.comm.transmissions[0], carrier=-10e6)
    cfg = dataclasses.replace(
        small_sweep(desk, snr_db=(10.0,), n_trials=1),
        grid=dataclasses.replace(desk.grid, f_nyq=80e6),
        radar=dataclasses.replace(desk.radar, carrier=20e6),
        comm=dataclasses.replace(desk.comm, transmissions=(tx,), phase2_transmissions=(tx,)),
    )
    with pytest.raises(InfeasibleError, match=r"transmissions\[0\].*10000 draws"):
        sweep(cfg, "snr", workers=1)


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
