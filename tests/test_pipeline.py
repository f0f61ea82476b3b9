"""Scenario configuration, the coexistence loop, and the sweep harness."""

import dataclasses
import functools
import json
import multiprocessing
import time

import numpy as np
import pytest

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

        def failing_draw(cfg, setup, point, point_idx, trial):
            seen.append(get())
            raise RuntimeError("trial failed")

        monkeypatch.setattr(pipeline, "_draw_snr", failing_draw)
        with pytest.raises(RuntimeError, match="trial failed"):
            sweep(cfg, "snr", workers=1)
        assert seen == [1, 1]  # the batch, then its first trial on its own
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
    draw_band = pipeline._draw_band

    def failing_draw(cfg, point_idx, trial):
        index = 2 * point_idx + trial  # 2 trials per point
        if index in failing:
            raise RuntimeError(failing[index])
        return draw_band(cfg, point_idx, trial)

    monkeypatch.setattr(pipeline, "_draw_band", failing_draw)
    cfg = small_sweep(desk, band_layouts=("separated", "adjacent"), band_snr_db=(-18.0,),
                      n_trials=2)
    with pytest.raises(RuntimeError, match=f"^{failing[min(failing)]}$"):
        sweep(cfg, "band_placement", workers=workers)
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

    def failing_draw(cfg, point_idx, trial):
        if trial:  # trial 1, run by the child
            raise _Unpicklable("trial failed", "task")
        return draw_band(cfg, point_idx, trial)

    monkeypatch.setattr(pipeline, "_draw_band", failing_draw)
    cfg = small_sweep(desk, band_layouts=("separated",), band_snr_db=(-18.0,), n_trials=2)
    with pytest.raises(RuntimeError, match=r"^_Unpicklable\('trial failed at task'\)$"):
        sweep(cfg, "band_placement", workers=2)
    assert multiprocessing.active_children() == []


def counted_in_every_process(monkeypatch, name):
    """Replace pipeline.<name> by a wrapper that counts its calls in this
    process and in every child it forks, in one shared counter."""
    calls = multiprocessing.Value("i", 0)
    original = getattr(pipeline, name)

    def wrapper(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, wrapper)
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
    children = counted_in_every_process(monkeypatch, "_child_share")
    assert sweep(cfg, axis, workers=2) == expected
    assert children.value == 1
    assert built.value == builds


def test_plan_failure_raises_before_any_trial(desk, two_cpus, monkeypatch):
    """A setup that cannot be built raises from the plan: no share of
    trials runs and no child starts."""

    def failing_frame(r, f_r):
        raise ValueError("frame failed")

    monkeypatch.setattr(pipeline, "_radar_frame", failing_frame)
    draws = counted_in_every_process(monkeypatch, "_draw_band")
    shares = counted_in_every_process(monkeypatch, "_run_share")
    cfg = small_sweep(desk, band_snr_db=(-18.0,), n_trials=2)
    with pytest.raises(ValueError, match="^frame failed$"):
        sweep(cfg, "band_placement", workers=2)
    assert draws.value == shares.value == 0
    assert multiprocessing.active_children() == []


_SPAWN_SWEEPS = """
import dataclasses, multiprocessing
from specx import load_config, pipeline

multiprocessing.set_start_method("spawn")
pipeline._usable_cpus = lambda: 2
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
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN_SWEEPS], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "spawn\n"


# -- batched sensing sweep points against the one-by-one oracle ------------------


def sweep_rows(points, tasks, measured):
    """Trial rows as sweep writes them from (point_idx, trial) tasks and a
    batch's measurements: the point's columns, then "trial", then the
    measurements."""
    return [{**points[i], "trial": t, **m} for (i, t), m in zip(tasks, measured)]


def _frame_ranks(monkeypatch):
    """Record the rank of every frame the sweep code builds."""
    ranks = []
    build = pipeline.build_frame

    def recording(z):
        frame = build(z)
        ranks.append(frame.rank)
        return frame

    monkeypatch.setattr(pipeline, "build_frame", recording)
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
        points, setups = pipeline._SWEEPS[axis].plan(cfg, cfg.grid.to_grid())
        assert points == [{key: value} for value in values]
        for size in (1, 2, 7, pipeline._MAX_BATCH):
            trials = list(range(size))
            tasks = [(point, t) for t in trials]
            ranks.clear()
            got = sweep_rows(points, tasks, batch(cfg, points, setups, point, trials))
            want = [oracle(cfg, (values[point], point, t)) for t in trials]
            assert got == want
            mixed.append(len(set(ranks)) > 1)
    if (preset, axis) == ("desk", "snr"):
        assert any(mixed)


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
        points, setups = pipeline._band_plan(cfg, cfg.grid.to_grid())
        assert points == [
            {"band_layout": layout, "snr_db": snr}
            for layout in base.sweep.band_layouts for snr in snrs
        ]
        layout = cfg.sweep.band_layouts[i % len(cfg.sweep.band_layouts)]
        j = (len(snrs) - 1) * (2 - i) // 2
        point = i * len(snrs) + j
        assert points[point] == {"band_layout": layout, "snr_db": snrs[j]}
        for size in (1, 2, 7, pipeline._MAX_BATCH):
            trials = list(range(size))
            tasks = [(point, t) for t in trials]
            measured = pipeline._batch_band(cfg, points, setups, point, trials)
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


def test_sweep_points_span_batches_like_one_by_one_trials(desk):
    """Points of _MAX_BATCH + 3 trials run as two batches each, serially and
    in two interleaved shares; the rows are the one-by-one trials'."""
    from _oracles import trial_snr

    cfg = small_sweep(desk, snr_db=(0.0, 20.0), n_trials=pipeline._MAX_BATCH + 3)
    points, setups = pipeline._snr_plan(cfg, cfg.grid.to_grid())
    assert points == [{"snr_db": snr} for snr in cfg.sweep.snr_db]
    tasks = [(i, t) for i in range(len(points)) for t in range(cfg.sweep.n_trials)]
    want = [trial_snr(cfg, (points[i]["snr_db"], i, t)) for i, t in tasks]
    assert list(sweep(cfg, "snr", workers=1).trials) == want
    batch = functools.partial(pipeline._batch_snr, cfg, points, setups)
    shares = [pipeline._run_share(batch, tasks, k, 2) for k in (0, 1)]
    assert [sweep_rows(points, tasks[k::2], share) for k, share in enumerate(shares)] == [
        want[0::2], want[1::2]
    ]


# trial -> the step at which it fails: its draw, a pursuit or a readout; with
# two processes the calling one runs the even trials and its child the odd ones.
# The point has max(8, last failing trial + 1) trials, so in the last two
# layouts (67 trials) a failing trial lies in a later batch of its share: the
# second or third of three at one process, the second of two at two
@pytest.mark.parametrize(
    "failing",
    [
        {3: "draw"},
        {2: "pursuit", 5: "draw"},
        {1: "draw", 4: "pursuit"},
        {5: "pursuit", 2: "pursuit"},
        {3: "pursuit"},
        {4: "readout", 6: "pursuit"},
        {3: "pursuit", 2: "readout"},
        {66: "draw"},
        {40: "pursuit", 65: "readout"},
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_sensing_sweep_raises_the_first_failing_task(desk, two_cpus, monkeypatch,
                                                     failing, workers):
    draw, pursue = pipeline._draw_snr, pipeline.omp_pks_batch
    refit, readout = pipeline.recover_slices_batch, pipeline._comm_support
    trial_of = {}  # id of a drawn frame, sample set or refit -> its trial

    def failing_draw(cfg, setup, point, point_idx, trial):
        if failing.get(trial) == "draw":
            raise RuntimeError(f"draw {trial}")
        d = draw(cfg, setup, point, point_idx, trial)
        trial_of[id(d.frame)] = trial_of[id(d.z)] = trial
        return d

    def failing_pursuit(frames, a, s_r, k_extra):
        for frame in frames:
            if failing.get(trial_of[id(frame)]) == "pursuit":
                raise RuntimeError(f"pursuit {trial_of[id(frame)]}")
        return pursue(frames, a, s_r, k_extra)

    def traced_refit(zs, a, sups):
        ests = refit(zs, a, sups)
        for z, est in zip(zs, ests):
            trial_of[id(est)] = trial_of[id(z)]
        return ests

    def failing_readout(est, s_r, prune_db):
        if failing.get(trial_of[id(est)]) == "readout":
            raise RuntimeError(f"readout {trial_of[id(est)]}")
        return readout(est, s_r, prune_db)

    monkeypatch.setattr(pipeline, "_draw_snr", failing_draw)
    monkeypatch.setattr(pipeline, "omp_pks_batch", failing_pursuit)
    monkeypatch.setattr(pipeline, "recover_slices_batch", traced_refit)
    monkeypatch.setattr(pipeline, "_comm_support", failing_readout)
    cfg = small_sweep(desk, snr_db=(10.0,), n_trials=max(8, max(failing) + 1))
    first = min(failing)
    with pytest.raises(RuntimeError, match=f"^{failing[first]} {first}$"):
        sweep(cfg, "snr", workers=workers)
    assert multiprocessing.active_children() == []


def test_run_radar_draws_no_comm_spectrum(desk, monkeypatch):
    """run_radar reads the comm bands off their specs, not off a drawn
    spectrum."""
    expected = run_radar(desk)
    calls = counted(monkeypatch, "gen_comm_slices")
    got = run_radar(desk)
    assert calls == []
    assert got == expected


def test_sweep_rejects_unknown_axis(desk):
    with pytest.raises(ConfigError):
        sweep(desk, "volume")


def test_worker_env_cap(desk):
    assert _resolve_workers(desk, None) == max(1, desk.sweep.workers)


class _InlineSplit:
    """Stands in for _run_split: records how many processes would share the
    trials (the calling one plus its children) and runs them all in this
    process, so no child is ever started."""

    requested: list[int] = []

    @classmethod
    def run(cls, batch, tasks, w):
        cls.requested.append(w)
        return pipeline._run_share(batch, tasks, 0, 1)


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
    monkeypatch.setattr(pipeline, "_run_split", _InlineSplit.run)
    monkeypatch.delattr(pipeline.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(_InlineSplit, "requested", [])
    for cfg, axis in _sized_sweeps(desk):
        sweep(cfg, axis, workers=64)
    assert _InlineSplit.requested == [3, 3]

