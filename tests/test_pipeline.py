"""Scenario configuration, the coexistence loop, and the sweep harness."""

import contextlib
import ctypes
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specx import (
    ConfigError,
    FrequencySet,
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
from specx import engine, pipeline
from test_engine import caller_claims_first, run_python


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


# desk's grid, and one whose f_nyq sits 5e-10 above a slice-count step, so
# slice_count's tolerance leaves its top bin below +f_nyq/2 without a mirror
@pytest.mark.parametrize("f_nyq", [560e6, 540e6 * (1 + 5e-10)], ids=["desk", "edge"])
def test_every_accepted_comm_band_holds_a_bin(desk, f_nyq):
    """Bandwidths near the bound at random carriers, Nyquist edges included:
    validate accepts a band only when it holds a mirrored dense bin."""
    from specx.signals import comm_occupancy

    g = dataclasses.replace(desk.grid, f_nyq=f_nyq)
    grid = g.to_grid()
    half_nyq = f_nyq / 2.0
    tx = desk.comm.transmissions[0]

    def narrowed(carrier, bandwidth):
        return dataclasses.replace(tx, carrier=carrier, bandwidth=bandwidth)

    if f_nyq != 560e6:
        # a band exactly one bin wide at the top edge holds no mirrored bin
        edge = narrowed(half_nyq - grid.delta_f / 2.0, grid.delta_f)
        assert comm_occupancy([edge], grid).measure() == 0.0
    rng = np.random.default_rng(11)
    outcomes = {"accepted": 0, "narrow": 0}
    for _ in range(400):
        scale = rng.choice([0.98, 1.0, 1 + 1e-9, 1 + 1e-7, 1.01, 1.02, rng.uniform(0.98, 1.06)])
        bandwidth = grid.delta_f * scale
        reach = half_nyq - bandwidth / 2.0
        carrier = rng.choice([-reach, reach, rng.uniform(-reach, reach)])
        comm = dataclasses.replace(
            desk.comm, transmissions=(narrowed(carrier, bandwidth),), phase2_transmissions=None
        )
        cfg = dataclasses.replace(desk, grid=g, comm=comm)
        try:
            cfg.validate()
        except ConfigError as exc:
            if "narrower than" in str(exc):
                outcomes["narrow"] += 1
            continue
        outcomes["accepted"] += 1
        assert comm_occupancy(cfg.comm.transmissions, grid).measure() > 0.0
    assert min(outcomes.values()) > 50


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


def blas_control():
    control = engine._openblas_thread_control()
    if control is None:
        pytest.skip("NumPy's BLAS exposes no thread control")
    return control


# each entry point and a BLAS-using kernel it calls; for sweep, one its plan
# calls, before any trial runs in engine.run
_ENTRY_POINTS = {
    "sense": (run_sense, "build_sensing_matrix"),
    "select_bands": (run_select_bands, "build_sensing_matrix"),
    "radar": (run_radar, "partial_fourier"),
    "specx": (run_specx, "build_sensing_matrix"),
    "sweep": (lambda cfg: sweep(small_sweep(cfg, n_trials=1), "snr", workers=1),
              "build_sensing_matrix"),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_every_run_caps_blas_threads_and_restores_them(desk, monkeypatch, entry):
    """Every single-shot run and sweep runs on one BLAS thread, and the
    caller's count is back after it returns and after it raises."""
    get, set_ = blas_control()
    run, kernel = _ENTRY_POINTS[entry]
    original, seen, failing = getattr(pipeline, kernel), [], []

    def watched(*args, **kwargs):
        seen.append(get())
        if failing:
            raise RuntimeError("kernel failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, kernel, watched)
    saved = get()
    set_(2)
    try:
        run(desk)
        assert seen and set(seen) == {1}
        assert get() == 2
        seen.clear()
        failing.append(True)
        with pytest.raises(RuntimeError, match="kernel failed"):
            run(desk)
        assert seen == [1]
        assert get() == 2
    finally:
        set_(saved)


@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_single_shot_reports_do_not_depend_on_the_callers_blas_threads(tmp_path, preset):
    get, set_ = blas_control()
    cfg = load_config(preset)
    saved, written = get(), {}
    try:
        for threads in (1, 2):
            set_(threads)
            for run in (run_sense, run_select_bands, run_radar, run_specx):
                paths = emit_report(run(cfg), tmp_path / f"{run.__name__}-{threads}")
                written[run.__name__, threads] = {path.name: path.read_bytes() for path in paths}
    finally:
        set_(saved)
    for run in (run_sense, run_select_bands, run_radar, run_specx):
        assert written[run.__name__, 1] == written[run.__name__, 2], run.__name__


@pytest.mark.parametrize("refine_db", [3.0, 30.0])
@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_refined_comm_map_stays_on_the_pruned_slices(preset, refine_db):
    """With comm.refine_db the loop's comm map is the sub-slice refinement
    of the pruned comm slices, mirrored: no bin of a pruned slice reaches
    the map, which is symmetric about 0 Hz and misses the radar bands."""
    from _oracles import off_slices

    base = load_config(preset)
    grid = base.grid.to_grid()
    comm = dataclasses.replace(base.comm, refine_db=refine_db)
    for seed in range(6):
        report = run_specx(dataclasses.replace(base, seed=seed, comm=comm))
        for row in report.trials:
            f_c = FrequencySet(row["f_c_est"])
            assert off_slices(row["f_c_est"], row["comm_support_est"], grid) <= 1e-6 * grid.delta_f
            assert f_c == f_c.mirrored(), (seed, row["iteration"])
            assert row["f_r_fc_disjoint"] in (None, True)


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


@pytest.mark.parametrize("trials", [1, 4, 16, 40])
@pytest.mark.parametrize("axis", ["snr", "band_placement", "channels"])
@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_sweep_report_bytes_independent_of_batching(tmp_path, monkeypatch, preset, axis, trials):
    """A preset sweep's report files at 1 and 2 workers, whose batches span
    the points of a key in near-equal claims, hold the bytes of the sweep
    that runs every trial as a batch of its own."""
    cfg = small_sweep(load_config(preset), n_trials=trials)
    files = []
    for workers, max_batch in ((1, 1), (1, engine._MAX_BATCH), (2, engine._MAX_BATCH)):
        monkeypatch.setattr(engine, "_MAX_BATCH", max_batch)
        out = tmp_path / f"w{workers}-b{max_batch}"
        paths = emit_report(sweep(cfg, axis, workers=workers), out)
        files.append({path.name: path.read_bytes() for path in paths})
    assert files[0] == files[1] == files[2]


# each axis's report columns: the point's keys, then "trial" and the batch's
# measurements in a trial row, then the point's stats in an aggregate row
_SWEEP_COLUMNS = {
    "snr": (
        ("snr_db", "trial", "pd_omp", "pd_pks", "exact_omp", "exact_pks", "noise_var"),
        ("snr_db", "n_trials", "pd_omp", "pd_pks", "ci95_omp", "ci95_pks",
         "exact_rate_omp", "exact_rate_pks"),
    ),
    "band_placement": (
        ("band_layout", "snr_db", "trial", "hit_rate", "n_detections", "truncated",
         "rmse_range_m", "kappa_size"),
        ("band_layout", "snr_db", "hit_rate", "ci95"),
    ),
    "channels": (
        ("n_channels", "trial", "pd_pks", "exact_pks"),
        ("n_channels", "n_trials", "pd_pks", "ci95", "exact_rate", "f_total_hz", "rate_ratio"),
    ),
}


@pytest.mark.parametrize("axis", list(_SWEEP_COLUMNS))
def test_sweep_columns(desk, axis):
    report = sweep(small_sweep(desk, n_trials=1), axis, workers=1)
    assert (report.trial_columns, report.aggregate_columns) == _SWEEP_COLUMNS[axis]


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
    """A sensing sweep's comm carriers are drawn clear of the radar, so its
    radar is selected once against an empty comm map: the bands, waveform
    and emission profile are built once per sweep, not once per trial. The
    QR of the known radar columns is built once per sensing matrix."""
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


# desk's REM widened by 1e-7 (9e-7 of a coefficient bin per REM band), about
# as far as validate's alignment check lets it go
@pytest.mark.parametrize(
    "preset, widen", [("desk", 1.0), ("paper_sw", 1.0), ("desk", 1 + 1e-7)]
)
def test_sweep_comm_layouts_miss_the_rem_span(preset, widen):
    """The carriers a sensing-sweep trial draws leave its comm map on the
    REM span empty, which lets the sweep select its radar bands once."""
    from specx.signals import comm_occupancy

    cfg = load_config(preset)
    cfg = dataclasses.replace(cfg, rem=dataclasses.replace(cfg.rem, b_y=cfg.rem.b_y * widen))
    cfg = cfg.validate()
    grid = cfg.grid.to_grid()
    span = cfg.rem.to_rem().span
    avoid = pipeline._radar_avoid_zone(cfg.grid, cfg.radar)
    for tag in ("snr", "chan"):
        for k in range(200):
            rng = pipeline.derive_rng(cfg.seed, tag, *divmod(k, 40))
            specs = pipeline._random_transmissions(cfg, avoid, rng)
            f_c = comm_occupancy(specs, grid)
            assert f_c.measure() > 0.0
            assert f_c.shifted(-cfg.radar.carrier).intersection(span) == pipeline.FrequencySet()


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


# band edges on a quarter-unit grid, so that bands and zones often abut
_EDGES = st.integers(-24, 24).map(lambda k: k / 4)


@settings(max_examples=400, deadline=None, database=None)
@given(
    carrier=st.one_of(_EDGES, st.floats(-6.0, 6.0), st.floats(-0.3, 0.3)),
    half=st.one_of(st.integers(1, 12).map(lambda k: k / 8), st.floats(0.01, 3.0)),
    zone=st.lists(st.tuples(_EDGES, _EDGES).filter(lambda iv: iv[0] < iv[1]), min_size=1,
                  max_size=3),
    mirrored=st.booleans(),
)
@example(carrier=0.0, half=0.5, zone=[(0.5, 1.0)], mirrored=False)  # abuts, meets its mirror
@example(carrier=0.5, half=0.5, zone=[(-1.0, 0.0)], mirrored=False)  # mirror abuts the zone
@example(carrier=0.25, half=0.5, zone=[(-0.5, -0.25)], mirrored=False)  # mirror meets it
@example(carrier=2.0, half=0.5, zone=[(-2.5, -1.5)], mirrored=False)  # only the mirror hits
def test_float_clear_test_agrees_with_frequency_sets(carrier, half, zone, mirrored):
    """_clear's interval arithmetic agrees with the FrequencySet test it
    replaced: the band and its mirror meet the avoid zone in zero measure."""
    avoid = FrequencySet(zone)
    if mirrored:
        avoid = avoid.union(avoid.mirrored())
    band = FrequencySet([(carrier - half, carrier + half)])
    want = band.union(band.mirrored()).intersection(avoid).measure() == 0.0
    assert pipeline._clear(carrier - half, carrier + half, [(iv.lo, iv.hi) for iv in avoid]) == want


def test_stacked_readout_equals_per_trial_readout():
    """The read-out (comm_supports) reads every refit of a stack as the
    first-written per-trial readout does, with and without a prune: empty
    supports, a support inside the radar slices, slice 0 (no mirror),
    all-zero rows. sense_spectrum reads a noisy desk frame, the radar
    slices known, out through it as a stack of one, and its f_c is that
    read-out's slice-granular frequency content."""
    from _oracles import comm_support_per_trial

    from specx import gen_comm_slices, support_to_freqs, xample
    from specx.sensing import SliceEstimate, sense_spectrum
    from specx.signals import draw_radar_emission

    cfg = load_config("desk")
    grid = cfg.grid.to_grid()
    n, rng = grid.n_slices, np.random.default_rng(3)
    s_r = pipeline.SliceSupport([11, 12, 18, 19])
    supports = [
        pipeline.SliceSupport(),
        pipeline.SliceSupport([11, 12]),
        pipeline.SliceSupport([0, 1, 5, 11]),
        pipeline.SliceSupport([3, 4, 26, 27, 12]),
        *(pipeline.SliceSupport(rng.choice(n, size=k, replace=False)) for k in (1, 6, 9, 14)),
    ]
    x_hat = np.zeros((len(supports), n, grid.n_grid), dtype=complex)
    for b, s in enumerate(supports[:-1]):
        rows = s.to_array()
        scale = 10.0 ** rng.uniform(-3.0, 0.0, size=(len(rows), 1))
        x_hat[b, rows] = scale * (rng.standard_normal((len(rows), grid.n_grid)) + 1j)

    a = pipeline._sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, cfg.grid.n_channels)
    emission, radar_slices = pipeline._radar_emission(cfg.rem, cfg.radar, grid)
    x, _, s_c = gen_comm_slices(cfg.comm.transmissions, grid, cfg.comm.noise_psd, seed=5)
    # channel noise about 12 dB below the comm power pads the greedy support
    z = xample(x + draw_radar_emission(emission, seed=6), a, noise_var=1e-10, seed=7)
    sensed = {}
    for prune_db in (None, 12.0, 0.0, 40.0):
        got = pipeline.comm_supports(x_hat, supports, s_r, prune_db)
        for b, s in enumerate(supports):
            want = comm_support_per_trial(SliceEstimate(x_hat[b], s, grid), s_r, prune_db)
            assert got[b] == want

        result = sense_spectrum(z, a, grid, s_r=radar_slices, n_sig_cap=2, prune_db=prune_db)
        est = result.estimate
        (stacked,) = pipeline.comm_supports(est.x_hat[None], [est.support], radar_slices, prune_db)
        assert result.comm_support == comm_support_per_trial(est, radar_slices, prune_db)
        assert result.comm_support == stacked
        assert result.f_c == support_to_freqs(result.comm_support, grid)
        sensed[prune_db] = result.comm_support
    assert sensed[12.0] == s_c != sensed[None]


@pytest.mark.parametrize("axis", ["snr", "channels"])
def test_failure_at_one_trial_of_a_stack_is_pinned_on_it(desk, monkeypatch, axis):
    """A failure at trial 5 of a stacked batch of 8, an InfeasibleError
    from its carrier draw or a ValueError from the stacked comm draw at its
    seed, fails the whole batch, and the engine raises that failure pinned
    at task 5; the sweep raises it too."""
    cfg = small_sweep(desk, n_trials=8)
    tag, point, k = {"snr": "snr", "channels": "chan"}[axis], 0, 5
    points, setups, keys = pipeline._SWEEPS[axis].plan(cfg, cfg.grid.to_grid())
    batch = functools.partial(pipeline._SWEEPS[axis].batch, cfg, points, setups)
    tasks = [(keys[point], point, t) for t in range(8)]
    carriers, comm = pipeline._random_transmissions, pipeline.gen_comm_slices_batch
    failing_seed = pipeline._child_seed(cfg.seed, f"{tag}-comm", point, k)

    def infeasible(cfg_, avoid, rng):
        failing = pipeline.derive_rng(cfg.seed, tag, point, k)
        if rng.bit_generator.state == failing.bit_generator.state:
            raise InfeasibleError(f"no carrier for trial {k}")
        return carriers(cfg_, avoid, rng)

    def bad_draw(specs, grid, noise_psd, seeds):
        if failing_seed in seeds:
            raise ValueError(f"bad draw for trial {k}")
        return comm(specs, grid, noise_psd, seeds)

    for name, fake, error in (("_random_transmissions", infeasible, InfeasibleError),
                              ("gen_comm_slices_batch", bad_draw, ValueError)):
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, name, fake)
            with pytest.raises(error, match=f"trial {k}$"):
                batch(tasks)
            failure = engine._run_share(batch, tasks, 1, ctypes.c_longlong(0),
                                        contextlib.nullcontext())
            assert isinstance(failure, engine._Failure)
            assert failure.index == k and type(failure.exc) is error
            with pytest.raises(error, match=f"trial {k}$"):
                sweep(cfg, axis, workers=1)


class _ChildFirst:
    """Lays out a 2-process sweep's claims for a test: the calling process
    makes the first claim and the child the second (caller_claims_first),
    and the caller's draws wait until the child's first draw. Records the
    pid of the process that ran a chosen trial, so a test can assert where
    that trial ran instead of assuming it."""

    def __init__(self, workers, monkeypatch):
        caller_claims_first(monkeypatch)
        self.workers = workers
        self.child_drew = multiprocessing.Event()
        self.pid = multiprocessing.Value("q", 0)

    def draw(self):
        """Call first thing in every draw."""
        if multiprocessing.parent_process() is not None:
            self.child_drew.set()
        elif self.workers > 1:
            self.child_drew.wait(timeout=30)

    def ran(self):
        """Call in the draw, pursuit or readout of the chosen trial."""
        self.pid.value = os.getpid()

    def where(self):
        return {0: None, os.getpid(): "caller"}.get(self.pid.value, "child")


# task index -> the failing tasks; 2 points of 2 trials, so at two processes
# the calling one claims tasks 0 and 1 (point 0), its child task 2 and
# either one task 3
@pytest.mark.parametrize(
    "failing, where",
    [
        pytest.param(failing, where, id=f"failing{i}")
        for i, (failing, where) in enumerate(
            [({1, 2}, "caller"), ({0, 3}, "caller"), ({2, 3}, "child")]
        )
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_sweep_raises_the_first_failing_task(desk, two_cpus, monkeypatch,
                                                      failing, where, workers):
    draw_band = pipeline._draw_band
    layout = _ChildFirst(workers, monkeypatch)

    def failing_draw(cfg, point_idx, trial):
        layout.draw()
        index = 2 * point_idx + trial  # 2 trials per point
        if index in failing:
            if index == min(failing):
                layout.ran()
            raise RuntimeError(f"task {index}")
        return draw_band(cfg, point_idx, trial)

    monkeypatch.setattr(pipeline, "_draw_band", failing_draw)
    cfg = small_sweep(desk, band_layouts=("separated", "adjacent"), band_snr_db=(-18.0,),
                      n_trials=2)
    with pytest.raises(RuntimeError, match=f"^task {min(failing)}$"):
        sweep(cfg, "band_placement", workers=workers)
    assert layout.where() == (where if workers > 1 else "caller")
    assert multiprocessing.active_children() == []


def test_interrupt_terminates_children_at_once(desk, two_cpus, monkeypatch):
    def draw(cfg, point_idx, trial):
        if multiprocessing.parent_process() is None:
            raise KeyboardInterrupt
        time.sleep(60)  # the child's share would outlast the test

    monkeypatch.setattr(pipeline, "_draw_band", draw)
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
    draw_band = pipeline._draw_band
    layout = _ChildFirst(2, monkeypatch)

    def failing_draw(cfg, point_idx, trial):
        layout.draw()
        if trial:  # trial 1, claimed by the child
            layout.ran()
            raise _Unpicklable("trial failed", "task")
        return draw_band(cfg, point_idx, trial)

    monkeypatch.setattr(pipeline, "_draw_band", failing_draw)
    cfg = small_sweep(desk, band_layouts=("separated",), band_snr_db=(-18.0,), n_trials=2)
    with pytest.raises(RuntimeError, match=r"^_Unpicklable\('trial failed at task'\)$"):
        sweep(cfg, "band_placement", workers=2)
    assert layout.where() == "child"
    assert multiprocessing.active_children() == []


def counted_in_every_process(monkeypatch, name, module=pipeline):
    """Replace module.<name> by a wrapper that counts its calls in this
    process and in every child it forks, in one shared counter."""
    calls = multiprocessing.Value("i", 0)
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "axis, changes, builder, builds",
    [
        ("band_placement", {"band_snr_db": (-21.0, -15.0), "n_trials": 3}, "partial_fourier", 3),
        ("snr", {"snr_db": (0.0, 10.0), "n_trials": 3}, "build_sensing_matrix", 1),
    ],
    ids=["band_placement", "snr"],
)
def test_parallel_sweep_builds_each_setup_once(desk, two_cpus, monkeypatch, axis, changes,
                                               builder, builds):
    """At two workers a sweep still builds its setups once, in the calling
    process: the child it forks inherits them and builds none."""
    cfg = small_sweep(desk, **changes)
    expected = sweep(cfg, axis, workers=1)
    built = counted_in_every_process(monkeypatch, builder)
    children = counted_in_every_process(monkeypatch, "_child_share", engine)
    assert sweep(cfg, axis, workers=2) == expected
    assert children.value == 1
    assert built.value == builds


@pytest.mark.parametrize(
    "axis, changes, fronts",
    [
        ("snr", {"snr_db": (0.0, 10.0), "n_trials": 3}, 1),
        ("channels", {"channel_counts": (12, 18), "n_trials": 3}, 2),
    ],
    ids=["snr", "channels"],
)
def test_parallel_sensing_sweep_builds_front_end_caches_once(desk, two_cpus, monkeypatch, axis,
                                                             changes, fronts):
    """At two workers the QR of the radar's known columns is built once per
    front end, in the calling process with the setups: the child, which
    runs pursuits of its own, inherits it and builds none."""
    cfg = small_sweep(desk, **changes)
    expected = sweep(cfg, axis, workers=1)
    caller_qrs, child_qrs = multiprocessing.Value("i", 0), multiprocessing.Value("i", 0)
    child_pursued = multiprocessing.Event()
    qr, pursue = np.linalg.qr, pipeline.omp_pks_batch

    def counted_qr(*args, **kwargs):
        calls = child_qrs if multiprocessing.parent_process() else caller_qrs
        with calls.get_lock():
            calls.value += 1
        return qr(*args, **kwargs)

    def pursue_after_the_child(*args, **kwargs):
        if multiprocessing.parent_process() is None:
            child_pursued.wait(timeout=30)
        else:
            child_pursued.set()
        return pursue(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    monkeypatch.setattr(pipeline, "omp_pks_batch", pursue_after_the_child)
    assert sweep(cfg, axis, workers=2) == expected
    assert child_pursued.is_set()
    assert (caller_qrs.value, child_qrs.value) == (fronts, 0)


def test_plan_failure_raises_before_any_trial(desk, two_cpus, monkeypatch):
    """A setup that cannot be built raises from the plan: no share of
    trials runs and no child starts."""

    def failing_frame(r, f_r):
        raise ValueError("frame failed")

    monkeypatch.setattr(pipeline, "_radar_frame", failing_frame)
    draws = counted_in_every_process(monkeypatch, "_draw_band")
    shares = counted_in_every_process(monkeypatch, "_run_share", engine)
    cfg = small_sweep(desk, band_snr_db=(-18.0,), n_trials=2)
    with pytest.raises(ValueError, match="^frame failed$"):
        sweep(cfg, "band_placement", workers=2)
    assert draws.value == shares.value == 0
    assert multiprocessing.active_children() == []


# band and snr sweeps at 2 workers under the start method sys.argv[1] (spawn by
# default) against the 1-worker rows
_UNFORKED_SWEEPS = """
import dataclasses, multiprocessing, sys
from specx import engine, load_config, pipeline

multiprocessing.set_start_method(sys.argv[1] if len(sys.argv) > 1 else "spawn")
engine._usable_cpus = lambda: 2
desk = load_config("desk")
for axis, changes in (
    ("band_placement", {"band_layouts": ("separated", "wideband"), "band_snr_db": (-18.0,)}),
    ("snr", {"snr_db": (0.0, 10.0)}),
):
    cfg = dataclasses.replace(desk, sweep=dataclasses.replace(desk.sweep, n_trials=3, **changes))
    assert pipeline.sweep(cfg, axis, workers=2) == pipeline.sweep(cfg, axis, workers=1), axis
print(multiprocessing.get_start_method())
"""


def test_spawned_sweep_children_get_the_setups():
    """Under the spawn start method the setups reach the child pickled with
    its batch function, and a 2-worker sweep gives the 1-worker rows. A
    child that cannot unpickle them can leave the caller blocked starting
    it, so the sweeps run in a subprocess under a timeout."""
    proc = run_python(_UNFORKED_SWEEPS, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "spawn\n"


def test_forkserver_sweep_children_give_the_serial_rows():
    """Under the forkserver start method too, band and snr sweeps at 2
    workers give the 1-worker rows, in a subprocess under a timeout."""
    proc = run_python(_UNFORKED_SWEEPS, 60, "forkserver")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "forkserver\n"


# -- claims from the shared cursor, on toy task lists ---------------------------


# trials per point, each point its own key, or (key, trials) per point: points
# 0-2 share key "a", 3 and 4 key "b", and 5 and 6 key "a" again, after "b"
@pytest.mark.parametrize(
    "sizes",
    [(1,), (5, 40, 3), (70, 1, 1, 33), (2,) * 9,
     (("a", 3), ("a", 3), ("a", 3), ("b", 1), ("b", 1), ("a", 40), ("a", 33))],
)
@pytest.mark.parametrize("w", [1, 2, 3])
def test_claims_take_every_task_once_in_order(sizes, w):
    """Claims from one cursor, in whatever order the processes make them,
    cover the (key, point, trial) tasks once and in order; none crosses a
    key, though it may span the points of one, or exceeds _MAX_BATCH or
    ceil(unclaimed / w), and at one process a key's run of n tasks goes out
    in ceil(n / _MAX_BATCH) near-equal claims, a batch call each."""
    tasks = [
        (key, i, t)
        for i, size in enumerate(sizes)
        for key, n in [size if isinstance(size, tuple) else (i, size)]
        for t in range(n)
    ]
    ends, cursor, claims = engine._run_ends(tasks), ctypes.c_longlong(0), []
    while (claim := engine._claim(ends, w, cursor, contextlib.nullcontext()))[1] > claim[0]:
        claims.append(claim)
    assert [j for lo, hi in claims for j in range(lo, hi)] == list(range(len(tasks)))
    for lo, hi in claims:
        assert {task[0] for task in tasks[lo:hi]} == {tasks[lo][0]}
        assert hi - lo <= min(engine._MAX_BATCH, math.ceil((len(tasks) - lo) / w))
    if w == 1:
        batches = []  # each run of one key in near-equal parts, the longer ones first
        for _, group in itertools.groupby(tasks, key=lambda task: task[0]):
            run = list(group)
            size, longer = divmod(len(run), math.ceil(len(run) / engine._MAX_BATCH))
            while run:
                n = size + (longer > 0)
                batches.append(run[:n])
                run, longer = run[n:], longer - 1
        assert [tasks[lo:hi] for lo, hi in claims] == batches
        calls = []

        def batch(claimed):
            calls.append(claimed)
            return [{"task": task} for task in claimed]

        assert engine._run_split(batch, tasks, 1) == [{"task": task} for task in tasks]
        assert calls == batches


# -- batched sensing sweep points against the one-by-one oracle ------------------


def sweep_rows(points, tasks, measured):
    """Trial rows as sweep writes them from (key, point_idx, trial) tasks and
    a batch's measurements: the point's columns, then "trial", then the
    measurements."""
    return [{**points[i], "trial": t, **m} for (_, i, t), m in zip(tasks, measured)]


def _frame_ranks(monkeypatch):
    """Record the rank of every frame the sweep code builds."""
    ranks = []
    build = pipeline.build_frame_batch

    def recording(z):
        frames = build(z)
        ranks.extend(frame.rank for frame in frames)
        return frames

    monkeypatch.setattr(pipeline, "build_frame_batch", recording)
    return ranks


@pytest.mark.parametrize("axis", ["snr", "channels"])
@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_batched_sensing_rows_equal_one_by_one_oracle(preset, axis, monkeypatch):
    """A batch of 1, 2, 7 or _MAX_BATCH trials of the highest SNR point (or
    the widest channel bank) gives the rows the trials give one by one.
    On desk that point mixes frames of rank 16 to 18 in one batch."""
    import _oracles

    base = load_config(preset)
    batch = getattr(pipeline, f"_batch_{axis}")
    oracle = getattr(_oracles, f"trial_{axis}")
    key, values = (
        ("snr_db", base.sweep.snr_db) if axis == "snr"
        else ("n_channels", base.sweep.channel_counts)
    )
    point = len(values) - 1
    ranks = _frame_ranks(monkeypatch)
    mixed = []
    for seed in (base.seed, 1, 2):
        cfg = dataclasses.replace(base, seed=seed)
        points, setups, keys = pipeline._SWEEPS[axis].plan(cfg, cfg.grid.to_grid())
        assert points == [{key: value} for value in values]
        for size in (1, 2, 7, engine._MAX_BATCH):
            trials = list(range(size))
            tasks = [(keys[point], point, t) for t in trials]
            ranks.clear()
            got = sweep_rows(points, tasks, batch(cfg, points, setups, tasks))
            want = [oracle(cfg, (values[point], point, t)) for t in trials]
            assert got == want
            mixed.append(len(set(ranks)) > 1)
    if (preset, axis) == ("desk", "snr"):
        assert any(mixed)


@pytest.mark.parametrize("axis", ["snr", "band_placement", "channels"])
@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_batches_that_mix_points_give_the_oracle_rows(preset, axis):
    """One batch of tasks from every point of a key, trials 0, 3 and 4 of
    each, gives each task the row the per-task oracle gives it on its own:
    the snr points at their own SNRs, a layout's points at their own noise
    variances and thresholds on one frame, and the two points of one
    channel count around another count."""
    import _oracles

    cfg = load_config(preset)
    if axis == "channels":
        counts = cfg.sweep.channel_counts
        cfg = small_sweep(cfg, channel_counts=(counts[-1], counts[0], counts[-1]))
    spec = pipeline._SWEEPS[axis]
    oracle = getattr(_oracles, f"trial_{axis.split('_')[0]}")
    points, setups, keys = spec.plan(cfg, cfg.grid.to_grid())
    mixed = [i for i, key in enumerate(keys) if key == keys[-1]]
    assert len(mixed) > 1
    tasks = [(keys[i], i, t) for i in mixed for t in (0, 3, 4)]
    got = sweep_rows(points, tasks, spec.batch(cfg, points, setups, tasks))
    assert got == [oracle(cfg, (*points[i].values(), i, t)) for _, i, t in tasks]


# band-placement configs: the preset, one that truncates every pursuit with a
# target left, and one with no targets, whose trials all score 1
_BAND_VARIANTS = {
    "preset": lambda cfg: cfg,
    "truncating": lambda cfg: dataclasses.replace(
        cfg, radar=dataclasses.replace(cfg.radar, max_detections=1)
    ),
    "no-targets": lambda cfg: dataclasses.replace(
        cfg, scene=dataclasses.replace(cfg.scene, n_targets=0)
    ),
}


@pytest.mark.parametrize("variant", list(_BAND_VARIANTS))
@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_batched_band_rows_equal_one_by_one_oracle(preset, variant):
    """A batch of 1, 2, 7 or _MAX_BATCH band-placement trials gives the rows
    the trials give one by one on the one-scene synthesis, focus and
    pursuit. Each seed takes another layout, at the top, middle and bottom
    SNR in turn, so trials stop after different numbers of detections."""
    from _oracles import trial_band

    base = _BAND_VARIANTS[variant](load_config(preset))
    snrs = base.sweep.band_snr_db
    counts, truncated = set(), False
    for i, seed in enumerate((base.seed, 1, 2)):
        cfg = dataclasses.replace(base, seed=seed)
        points, setups, keys = pipeline._band_plan(cfg, cfg.grid.to_grid())
        assert points == [
            {"band_layout": layout, "snr_db": snr}
            for layout in base.sweep.band_layouts for snr in snrs
        ]
        layout = cfg.sweep.band_layouts[i % len(cfg.sweep.band_layouts)]
        j = (len(snrs) - 1) * (2 - i) // 2
        point = i * len(snrs) + j
        assert points[point] == {"band_layout": layout, "snr_db": snrs[j]}
        for size in (1, 2, 7, engine._MAX_BATCH):
            trials = list(range(size))
            tasks = [(keys[point], point, t) for t in trials]
            measured = pipeline._batch_band(cfg, points, setups, tasks)
            got = sweep_rows(points, tasks, measured)
            want = [trial_band(cfg, (layout, snrs[j], point, t)) for t in trials]
            assert got == want
            counts |= {row["n_detections"] for row in got}
            truncated |= any(row["truncated"] for row in got)
    if variant == "truncating":
        assert truncated and counts <= {0, 1}
    elif variant == "no-targets":
        assert not truncated
    else:
        assert len(counts) > 1


@pytest.mark.parametrize("size", [1, 8])
@pytest.mark.parametrize("n_targets", [0, 1, 3])
@pytest.mark.parametrize("preset", ["desk", "paper_sw"])
def test_stacked_scene_draw_equals_first_written_draws(preset, n_targets, size):
    """A batch's raw draws made into (B, L) target stacks hold, row by row,
    the bits of the scenes drawn one TargetScene at a time from the same
    streams, and the noise seeds are the trials' own; the one-scene draw of
    a single-shot run is the same stack at B = 1."""
    from _oracles import draw_scene_per_trial

    base = load_config(preset)
    cfg = dataclasses.replace(base, scene=dataclasses.replace(base.scene, n_targets=n_targets))
    point = 2
    *draws, seeds = zip(*(pipeline._draw_band(cfg, point, t) for t in range(size)))
    stacks = pipeline._scenes(cfg, *draws)
    assert [a.shape for a in stacks] == [(size, n_targets)] * 3
    for t in range(size):
        want = draw_scene_per_trial(cfg, pipeline.derive_rng(cfg.seed, "band-scene", point, t))
        for got, field in zip(stacks, ("delays", "dopplers", "amplitudes")):
            assert got[t].tobytes() == getattr(want, field).tobytes(), field
        assert seeds[t] == pipeline._child_seed(cfg.seed, "band-radar", point, t)
    lone = pipeline._draw_scene(cfg, pipeline.derive_rng(cfg.seed, "scene"))
    want = draw_scene_per_trial(cfg, pipeline.derive_rng(cfg.seed, "scene"))
    for got, field in zip(lone, ("delays", "dopplers", "amplitudes")):
        assert got.shape == (1, n_targets) and got[0].tobytes() == getattr(want, field).tobytes()


def test_scene_stack_checks_keep_their_messages(desk):
    """TargetScene's checks and check_scenes_in_train, run once on a batch's
    stacks, reject a bad target in any row with the lone scene's message."""
    from specx.signals import check_scenes, radar_fourier_coeffs_batch

    train = desk.radar.train()
    delays = np.full((3, 2), 0.5 * train.pri)
    dopplers, amplitudes = np.zeros((3, 2)), np.ones((3, 2), complex)
    check_scenes(delays, dopplers, amplitudes)
    bad = delays.copy()
    bad[2, 1] = -1e-9
    with pytest.raises(ValueError, match="^delays must be nonnegative$"):
        check_scenes(bad, dopplers, amplitudes)
    with pytest.raises(ValueError, match="^delays, dopplers, amplitudes must be 1-D"):
        check_scenes(delays, dopplers[:, :1], amplitudes)
    frame = pipeline._radar_frame(desk.radar, FrequencySet([(-1e5, 1e5)]))
    for stack, message in (
        ((bad + 2 * train.pri, dopplers), "delays must be < pri"),
        ((delays, dopplers + [[0.0, 0.0], [0.0, 0.6 / train.pri], [0.0, 0.0]]),
         "dopplers must be within"),
    ):
        with pytest.raises(ValueError, match=message):
            radar_fourier_coeffs_batch(
                *stack, amplitudes, frame.h, frame.k_c, train, [0.0] * 3, [0, 1, 2]
            )


def _exact_radar(desk):
    """A radar whose delay bins and Doppler grid are binary fractions, so
    equal bin offsets give bit-equal gaps and distances tie exactly."""
    return dataclasses.replace(desk.radar, pri=2.0**-13, b_h=64 * 2.0**13, n_pulses=16)


def _score_case(r, trials, truncated=()):
    """Pursuits and (B, L) target stacks of trials given as (picked cells,
    target cells), each cell a (delay bin, Doppler bin) pair."""
    from specx.radar import Pursuit

    found = [
        Pursuit({cell: complex(i, -i) for i, cell in enumerate(cells)}, [], b in truncated)
        for b, (cells, _) in enumerate(trials)
    ]
    grid = r.train().doppler_grid()
    targets = np.array([t for _, t in trials], dtype=np.intp).reshape(len(trials), -1, 2)
    return found, targets[..., 0] * r.pri / r.n_delay_bins, grid[targets[..., 1]]


def _tie_trial(rng, n_far):
    """A trial whose three tied distances decide its hit count: detection e0
    sits 3 delay bins from targets t0 and t1, and e1 3 Doppler bins from t1,
    all at distance exactly 1. If e0 claims t1 first, t0 goes unmatched. The
    far detections share distances among themselves too; the cells are
    shuffled, so the ties fall at other places of the block."""
    x, y = int(rng.integers(8, 50)), int(rng.integers(4, 12))
    targets = [(x - 3, y), (x + 3, y), ((x + 32) % 64, (y + 8) % 16)]
    close = [(x, y), (x + 3, y + 3)]
    far = [((x + 16 + 2 * k) % 64, (y + 4 + k % 2) % 16) for k in range(n_far)]
    cells = close + far
    order = rng.permutation(len(cells))
    return [cells[i] for i in order], targets


def test_stacked_scorers_equal_first_written_scorers(desk):
    """The hit rates and range RMSEs of a padded stack of trials equal those
    of the first-written scorers on each trial's DetectionList and scene, bit
    for bit, and the one-trial hit_or_miss gives the first-written flags:
    with no detections, with no targets, with gaps that wrap around in delay
    and in Doppler, with more detections than targets, with a map cut at
    max_iter, and with exact distance ties inside blocks of 18 to 24
    entries, beside a much wider trial, whose order the matching keeps."""
    from _oracles import hit_or_miss_per_trial, rmse_range_m_per_trial

    from specx import DetectionList, TargetScene, hit_or_miss

    r = _exact_radar(desk)
    train, n, grid = r.train(), r.n_delay_bins, r.train().doppler_grid()
    rng = np.random.default_rng(25)
    far_targets = [(5, 2), (20, 7), (40, 12)]
    cases = [
        # (trials, indices of the trials cut at max_iter)
        ([([], far_targets), ([(6, 2)], far_targets)], ()),
        ([([], []), ([(1, 1), (9, 3)], [])], ()),
        (
            [
                ([(63, 3), (30, 15)], [(0, 3), (30, 0), (50, 8)]),  # wrap-around
                ([(k * 7 % 64, k % 16) for k in range(8)], far_targets),  # 8 for 3
                ([(4, 2), (21, 7), (60, 1), (40, 11), (2, 2), (6, 14), (33, 9), (41, 12)],
                 far_targets),  # cut at max_iter = 8
                ([], far_targets),
            ],
            (2,),
        ),
        *(
            # beside a trial of 22 detections, a block padded to its width would
            # hold 66 entries and sort its ties in another order
            ([*(_tie_trial(rng, n_far) for n_far in (4, 5, 6, 4, 6, 5)),
              ([(k * 5 % 64, k * 3 % 16) for k in range(22)], far_targets)], ())
            for _ in range(6)
        ),
    ]
    hits = 0
    for trials, cut in cases:
        found, delays, dopplers = _score_case(r, trials, cut)
        rates, rmses = pipeline._score(r, found, delays, dopplers)
        for b, p in enumerate(found):
            dets = DetectionList.from_pursuit(p, n, grid, r.pri)
            scene = TargetScene(delays[b], dopplers[b], np.ones(delays.shape[1], complex))
            want_rate, want_flags = hit_or_miss_per_trial(dets, scene, r.b_h, train)
            assert rates[b] == want_rate
            assert hit_or_miss(dets, scene, r.b_h, train) == (want_rate, want_flags)
            assert rmses[b] == rmse_range_m_per_trial(dets, scene, r.pri)
            hits += want_rate > 0
    assert hits


def test_sweep_points_span_batches_like_one_by_one_trials(desk, two_cpus):
    """Two points of _MAX_BATCH + 3 trials share one key: serially they run
    as three near-equal batches, one of which spans both points, and they
    split across shrinking claims when the cursor is shared by two
    processes; the rows are the one-by-one trials'."""
    from _oracles import trial_snr

    cfg = small_sweep(desk, snr_db=(0.0, 20.0), n_trials=engine._MAX_BATCH + 3)
    points, setups, keys = pipeline._snr_plan(cfg, cfg.grid.to_grid())
    assert points == [{"snr_db": snr} for snr in cfg.sweep.snr_db]
    tasks = [(keys[i], i, t) for i in range(len(points)) for t in range(cfg.sweep.n_trials)]
    want = [trial_snr(cfg, (points[i]["snr_db"], i, t)) for _, i, t in tasks]
    assert list(sweep(cfg, "snr", workers=1).trials) == want
    assert list(sweep(cfg, "snr", workers=2).trials) == want
    # the claims of two processes from one cursor, all made by this one
    batch = functools.partial(pipeline._batch_snr, cfg, points, setups)
    runs = engine._run_share(batch, tasks, 2, ctypes.c_longlong(0), contextlib.nullcontext())
    for point_idx in range(len(points)):
        assert sum(tasks[lo][1] == point_idx for lo, _ in runs) > 1
    assert [row for lo, run in runs for row in sweep_rows(points, tasks[lo:], run)] == want
    serial = engine._run_share(batch, tasks, 1, ctypes.c_longlong(0), contextlib.nullcontext())
    assert [len(run) for _, run in serial] == [24, 23, 23]
    assert {i for _, i, _ in tasks[24:47]} == {0, 1}


# trial -> the step at which it fails: its draw, a pursuit or a readout, and
# the process that runs the first failing trial at two processes. The point
# has max(8, last failing trial + 1) trials. At 8 the calling process claims
# trials 0-3 and its child 4 and 5; at 66 or 67 the caller claims 0-21 or
# 0-22 and the child 22-43 or 23-44, and a serial run of 66 or 67 trials
# runs three batches of 22 or 23, reaching trial 40 in its second and trial
# 66 in its third. Later trials go to whichever process asks first.
@pytest.mark.parametrize(
    "failing, where",
    [
        pytest.param(failing, where, id=f"failing{i}")
        for i, (failing, where) in enumerate([
            ({3: "draw"}, "caller"),
            ({2: "pursuit", 5: "draw"}, "caller"),
            ({1: "draw", 4: "pursuit"}, "caller"),
            ({5: "pursuit", 2: "pursuit"}, "caller"),
            ({3: "pursuit"}, "caller"),
            ({4: "readout", 6: "pursuit"}, "child"),
            ({3: "pursuit", 2: "readout"}, "caller"),
            ({66: "draw"}, "either"),
            ({40: "pursuit", 65: "readout"}, "child"),
            ({5: "draw"}, "child"),
            ({5: "pursuit", 4: "pursuit"}, "child"),
        ])
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_sensing_sweep_raises_the_first_failing_task(desk, two_cpus, monkeypatch,
                                                     failing, where, workers):
    draw, pursue = pipeline._draw_sensing, pipeline.omp_pks_batch
    refit, readout = pipeline.recover_slices_batch, pipeline.comm_supports
    trial_of = {}  # id of a drawn frame -> its trial; of a sample or refit stack -> its trials
    first = min(failing)
    layout = _ChildFirst(workers, monkeypatch)

    def fail(step, trial):
        if failing.get(trial) == step:
            if trial == first:
                layout.ran()
            raise RuntimeError(f"{step} {trial}")

    def failing_draw(cfg, setup, tag, snrs_db, comm_snr, paths):
        trials = [trial for _, trial in paths]
        for trial in trials:
            layout.draw()
            fail("draw", trial)
        d = draw(cfg, setup, tag, snrs_db, comm_snr, paths)
        trial_of.update((id(frame), trial) for frame, trial in zip(d.frames, trials))
        trial_of[id(d.z)] = trials
        return d

    def failing_pursuit(frames, a, s_r, k_extra):
        for frame in frames:
            fail("pursuit", trial_of[id(frame)])
        return pursue(frames, a, s_r, k_extra)

    def traced_refit(z, a, sups):
        x_hat = refit(z, a, sups)
        trial_of[id(x_hat)] = trial_of[id(z)]
        return x_hat

    def failing_readout(x_hat, sups, s_r, prune_db):
        for trial in trial_of[id(x_hat)]:
            fail("readout", trial)
        return readout(x_hat, sups, s_r, prune_db)

    monkeypatch.setattr(pipeline, "_draw_sensing", failing_draw)
    monkeypatch.setattr(pipeline, "omp_pks_batch", failing_pursuit)
    monkeypatch.setattr(pipeline, "recover_slices_batch", traced_refit)
    monkeypatch.setattr(pipeline, "comm_supports", failing_readout)
    cfg = small_sweep(desk, snr_db=(10.0,), n_trials=max(8, max(failing) + 1))
    with pytest.raises(RuntimeError, match=f"^{failing[first]} {first}$"):
        sweep(cfg, "snr", workers=workers)
    if workers == 1:
        assert layout.where() == "caller"
    else:
        assert layout.where() in ({"caller", "child"} if where == "either" else {where})
    assert multiprocessing.active_children() == []


def test_run_radar_draws_no_comm_spectrum(desk, monkeypatch):
    """run_radar reads the comm bands off their specs, not off a drawn
    spectrum."""
    expected = run_radar(desk)
    calls = counted(monkeypatch, "gen_comm_slices_batch")
    got = run_radar(desk)
    assert calls == []
    assert got == expected


def test_sweep_rejects_unknown_axis(desk):
    with pytest.raises(ConfigError):
        sweep(desk, "volume")


@pytest.mark.parametrize(
    "workers, message",
    [(2.0, "sweep.workers must be an integer"), (-3, "sweep.workers must be >= 0")],
    ids=["float", "negative"],
)
def test_sweep_workers_go_through_the_config_check(desk, workers, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        sweep(desk, "snr", workers=workers)


class _InlineSplit:
    """Stands in for _run_split: records how many processes would share the
    trials (the calling one plus its children) and runs them all in this
    process, so no child is ever started."""

    requested: list[int] = []

    @classmethod
    def run(cls, batch, tasks, w):
        cls.requested.append(w)
        runs = engine._run_share(batch, tasks, 1, ctypes.c_longlong(0), contextlib.nullcontext())
        return [m for _, run in runs for m in run]


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
    """workers=64, and sweep.workers = 64 with no workers argument, ask for
    the same pool."""
    monkeypatch.setattr(engine, "_run_split", _InlineSplit.run)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(_InlineSplit, "requested", [])
    for cfg, axis in _sized_sweeps(desk):
        report = sweep(cfg, axis, workers=64)
        assert len(report.trials) == cfg.sweep.n_trials * len(report.aggregates)
        assert sweep(small_sweep(cfg, workers=64), axis) == report
    assert _InlineSplit.requested[::2] == _InlineSplit.requested[1::2] == want


def test_sweep_pool_cap_without_affinity(desk, monkeypatch):
    monkeypatch.setattr(engine, "_run_split", _InlineSplit.run)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_InlineSplit, "requested", [])
    for cfg, axis in _sized_sweeps(desk):
        sweep(cfg, axis, workers=64)
    assert _InlineSplit.requested == [3, 3]

