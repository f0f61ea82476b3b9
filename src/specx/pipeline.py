"""End-to-end coexistence runs and Monte-Carlo sweeps.

A scenario couples a wideband sensing receiver, a set of communication
transmissions, a radio environment map, and a multiband radar. run_specx
executes the closed loop: sense the comm support, select radar bands away
from it, recover targets from the radar's sparse coefficients, then re-sense
with the radar support known, iterating while the detected comm support
keeps changing. sweep() runs Monte-Carlo experiments along one axis (SNR,
band placement, or channel count) with per-trial derived seeds, so reports
are byte-reproducible for a fixed master seed regardless of worker count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import numbers
import os
import pickle
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from types import GenericAlias, UnionType
from typing import Any, Callable, Mapping, NamedTuple, Sequence, get_type_hints

import numpy as np

from .bands import RemGrid, select_bands
from .freqs import FrequencySet, GridSpec, KappaSet, SliceSupport
from .mwc import (
    ChannelSamples,
    SensingMatrix,
    build_sensing_matrix,
    gen_mixing_sequences,
    total_rate,
    xample,
)
from .radar import (
    DetectionList,
    MinRequirements,
    delay_to_range_m,
    doppler_focus,
    focused_noise_var,
    focused_omp,
    glrt_threshold,
    hit_or_miss,
    make_kappa,
    min_requirements,
    partial_fourier,
    per_test_level,
)
from .report import RunReport
from .rng import derive_rng
from .sensing import (
    build_frame,
    omp_pks,
    radar_slice_support,
    recover_slices,
    sense_spectrum,
    somp,
    support_to_freqs,
)
from .signals import (
    CommTransmissionSpec,
    PulseTrainSpec,
    RadarEmission,
    RadarWaveformSpec,
    SliceSpectrum,
    TargetScene,
    design_radar_waveform,
    draw_radar_emission,
    gen_comm_slices,
    radar_emission,
    radar_fourier_coeffs,
)

__all__ = [
    "ConfigError",
    "InfeasibleError",
    "GridConfig",
    "CommConfig",
    "RemConfig",
    "RadarConfig",
    "SceneConfig",
    "SweepConfig",
    "LoopConfig",
    "ScenarioConfig",
    "load_config",
    "available_presets",
    "band_layout",
    "run_specx",
    "run_sense",
    "run_select_bands",
    "run_radar",
    "sweep",
]

_LAYOUT_NAMES = ("separated", "adjacent", "wideband")

# Size caps: no complex array a config sets may exceed 256 MiB, 2**24 entries
# of 16 bytes.
_MAX_ARRAY_ENTRIES = 2**24
_MAX_DELAY_BINS = 4096  # a full-band partial Fourier frame, n_bins**2 entries


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


class InfeasibleError(RuntimeError):
    """The configured scene cannot be recovered even noiselessly, or a sweep
    cannot place a comm transmission clear of the radar band."""


class WorkerDied(RuntimeError):
    """A sweep's child process exited without sending back its trials."""


def _child_seed(master: int, *path) -> int:
    return int(derive_rng(master, *path).integers(0, 2**63 - 1))


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    if type(value) is float:
        return math.isfinite(value)
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _at_least(lo: int, default: Any = MISSING) -> Any:
    """A config field whose value, or each entry of it, must be >= lo."""
    return field(default=default, metadata={"min": lo})


class _Plan(NamedTuple):
    fields: tuple[tuple[str, Any, Any], ...]  # name, annotation, lower bound
    names: frozenset[str]
    required: frozenset[str]


@functools.cache
def _field_plan(cls) -> _Plan:
    """How _typed builds a config dataclass, read off its annotations once."""
    hints = get_type_hints(cls)
    return _Plan(
        tuple((f.name, hints[f.name], f.metadata.get("min")) for f in fields(cls)),
        frozenset(f.name for f in fields(cls)),
        frozenset(
            f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
        ),
    )


def _typed(cls: Any, value: Any, where: str, lo: Any = None) -> Any:
    """value checked and built as an instance of the annotation cls.

    cls is int, float, str, X | None, tuple[X, ...] or a config dataclass.
    An int holds an integer and a float a finite number (bools are
    neither); an int read as a float becomes one, so a report prints 10 as
    10.0. A list becomes a tuple entry by entry, and lo bounds the value or
    each entry. A dataclass is built from a mapping or from an instance of
    it, with strict keys, each field typed by its annotation."""
    if cls is float:
        if not _is_finite(value):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        value = float(value)
    elif cls is int:
        if not _is_int(value):
            raise ConfigError(f"{where} must be an integer, got {value!r}")
    elif cls is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {value!r}")
    elif isinstance(cls, GenericAlias):  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list")
        item = cls.__args__[0]
        return tuple(_typed(item, v, f"{where}[{i}]", lo) for i, v in enumerate(value))
    elif isinstance(cls, UnionType):  # X | None
        return None if value is None else _typed(cls.__args__[0], value, where, lo)
    else:
        return _typed_dataclass(cls, value, where)
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}")
    return value


def _typed_dataclass(cls: Any, value: Any, where: str) -> Any:
    plan = _field_plan(cls)
    label = where or "scenario"
    if isinstance(value, cls):
        value = vars(value)
    elif not isinstance(value, Mapping):
        raise ConfigError(f"{label}: expected an object, got {type(value).__name__}")
    unknown = value.keys() - plan.names
    if unknown:
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)}")
    missing = plan.required - value.keys()
    if missing:
        raise ConfigError(f"{label}: missing required keys {sorted(missing)}")
    prefix = f"{where}." if where else ""
    kwargs = {
        name: _typed(kind, value[name], prefix + name, lo)
        for name, kind, lo in plan.fields
        if name in value
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a check of the class itself
        raise ConfigError(f"{label}: {exc}") from exc


@dataclass(frozen=True)
class GridConfig:
    """Wideband receiver front end: spectral grid plus channel bank size."""

    f_nyq: float
    f_p: float
    f_s: float
    n_grid: int
    n_channels: int = _at_least(1)
    n_chips: int

    def to_grid(self) -> GridSpec:
        return GridSpec(
            f_nyq=self.f_nyq, f_p=self.f_p, f_s=self.f_s, n_grid=self.n_grid, n_slices=0
        )


@dataclass(frozen=True)
class CommConfig:
    """Transmissions on the air plus the receiver's working assumptions.

    The greedy support recovery always spends its whole slice budget, so
    under ambient noise it returns spurious low-energy slices on top of the
    true ones. prune_db sets the pipeline's model-order selection: recovered
    slices whose energy falls more than prune_db below the strongest comm
    slice are discarded before anything downstream sees the support. None
    disables pruning (adequate only for noise-free scenarios).
    """

    transmissions: tuple[CommTransmissionSpec, ...]
    noise_psd: float = _at_least(0, 0.0)
    n_sig: int = 0
    prune_db: float | None = None
    refine_db: float | None = None
    phase2_transmissions: tuple[CommTransmissionSpec, ...] | None = None

    @property
    def n_sig_effective(self) -> int:
        counts = [len(self.transmissions), self.n_sig]
        if self.phase2_transmissions is not None:
            counts.append(len(self.phase2_transmissions))
        return max(1, *counts)


@dataclass(frozen=True)
class RemConfig:
    energies: tuple[float, ...] = _at_least(0)
    b_y: float

    def to_rem(self) -> RemGrid:
        return RemGrid(energies=np.asarray(self.energies), b_y=self.b_y)


@dataclass(frozen=True)
class RadarConfig:
    carrier: float
    b_h: float
    n_bands: int = _at_least(1)
    pri: float
    n_pulses: int = _at_least(1)
    p_t: float = 1.0
    noise_var: float = _at_least(0, 0.0)
    p_fa: float = 0.01
    glrt_model: str = "central"
    max_detections: int = _at_least(0, 0)  # 0 picks the default

    @property
    def n_delay_bins(self) -> int:
        return int(round(self.pri * self.b_h))

    def train(self) -> PulseTrainSpec:
        return PulseTrainSpec(pri=self.pri, n_pulses=self.n_pulses)


@dataclass(frozen=True)
class SceneConfig:
    n_targets: int = _at_least(0, 0)
    amplitude: float = 1.0


@dataclass(frozen=True)
class SweepConfig:
    """Monte-Carlo sweep settings.

    snr_db drives the sensing sweep; the radar band-placement sweep uses
    band_snr_db when given (radar detection saturates far below sensing
    SNRs thanks to the pulse-integration gain), falling back to snr_db.
    """

    snr_db: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    band_snr_db: tuple[float, ...] = ()
    band_layouts: tuple[str, ...] = _LAYOUT_NAMES
    channel_counts: tuple[int, ...] = ()
    channels_snr_db: float = 10.0
    occupancy: float = 0.2
    n_trials: int = _at_least(1, 1000)
    workers: int = _at_least(0, 0)


@dataclass(frozen=True)
class LoopConfig:
    max_iterations: int = _at_least(1, 5)


@dataclass(frozen=True)
class ScenarioConfig:
    run_id: str
    seed: int
    grid: GridConfig
    comm: CommConfig
    rem: RemConfig
    radar: RadarConfig
    scene: SceneConfig = SceneConfig()
    sweep: SweepConfig = SweepConfig()
    loop: LoopConfig = LoopConfig()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        return _typed(cls, data, "").validate()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def validate(self) -> "ScenarioConfig":
        """This config rebuilt through the field checks of _typed, so a
        config changed after loading is checked and normalized too, then
        checked across fields; the rebuilt config is returned."""
        cfg = _typed(ScenarioConfig, self, "")
        if not cfg.run_id or "/" in cfg.run_id:
            raise ConfigError("run_id must be a non-empty path-free name")
        try:
            grid = cfg.grid.to_grid()
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        if cfg.grid.n_chips < grid.n_slices:
            raise ConfigError(
                f"grid.n_chips ({cfg.grid.n_chips}) must be >= the slice count "
                f"({grid.n_slices})"
            )
        # a slice stack, n_slices * n_grid (the dense grid is shorter)
        if grid.n_slices * grid.n_grid > _MAX_ARRAY_ENTRIES:
            raise ConfigError(
                f"grid.n_grid ({grid.n_grid}) times {grid.n_slices} slices must be "
                f"<= {_MAX_ARRAY_ENTRIES} slice bins"
            )
        # the chip sequences' spectra, n_channels * n_chips, at the widest
        # bank a sweep builds
        widest = max((cfg.grid.n_channels, *cfg.sweep.channel_counts))
        if widest * cfg.grid.n_chips > _MAX_ARRAY_ENTRIES:
            raise ConfigError(
                f"grid.n_chips ({cfg.grid.n_chips}) times {widest} channels must be "
                f"<= {_MAX_ARRAY_ENTRIES} mixing-bank chips"
            )
        # the frame and the greedy bases, n_channels**2 each
        if widest**2 > _MAX_ARRAY_ENTRIES:
            raise ConfigError(
                f"the widest channel bank ({widest} channels) squared must be "
                f"<= {_MAX_ARRAY_ENTRIES} frame entries"
            )
        half_nyq = cfg.grid.f_nyq / 2.0
        for phase, specs in (
            (1, cfg.comm.transmissions),
            (2, cfg.comm.phase2_transmissions or ()),
        ):
            for i, t in enumerate(specs):
                if abs(t.carrier) + t.bandwidth / 2.0 > half_nyq:
                    raise ConfigError(
                        f"comm transmission {i} (phase {phase}) exceeds the Nyquist range"
                    )
                if t.bandwidth > cfg.grid.f_p:
                    raise ConfigError(
                        f"comm transmission {i} (phase {phase}) is wider than one slice"
                    )
                # c is the band's farthest reach from 0 Hz: its own carrier or
                # the outermost one a sweep draws for it, moved to radar
                # baseband. Rounding its edges at the carrier, then again
                # after the move, narrows it by at most 2 ulp(c) in all.
                c = max(abs(t.carrier), half_nyq - cfg.grid.f_p / 2.0 - t.bandwidth / 2.0)
                c += abs(cfg.radar.carrier)
                if t.bandwidth <= 2.0 * math.ulp(c):
                    raise ConfigError(
                        f"comm transmission {i} (phase {phase}): bandwidth "
                        f"{t.bandwidth:g} Hz rounds to an empty band at {c:g} Hz"
                    )
        r = cfg.radar
        if r.carrier - r.b_h / 2.0 < 0 or r.carrier + r.b_h / 2.0 > half_nyq:
            raise ConfigError("radar band must lie within (0, f_nyq/2)")
        n_bins = r.n_delay_bins
        if abs(r.pri * r.b_h - n_bins) > 1e-6 * max(1, n_bins) or n_bins < 2:
            raise ConfigError("pri * b_h must be an integer number of delay bins >= 2")
        if n_bins % 2:
            raise ConfigError("pri * b_h must be even")
        if n_bins > _MAX_DELAY_BINS:
            raise ConfigError(f"pri * b_h ({n_bins} delay bins) must be <= {_MAX_DELAY_BINS}")
        # a back-projected map, n_bins * n_pulses
        if n_bins * r.n_pulses > _MAX_ARRAY_ENTRIES:
            raise ConfigError(
                f"radar.n_pulses ({r.n_pulses}) times {n_bins} delay bins must be "
                f"<= {_MAX_ARRAY_ENTRIES} delay-Doppler cells"
            )
        if not 0.0 < r.p_fa < 1.0:
            raise ConfigError("radar.p_fa must be in (0, 1)")
        n_tests = n_bins * r.n_pulses
        if per_test_level(r.p_fa, n_tests) <= 0.0:
            raise ConfigError(
                f"radar.p_fa ({r.p_fa:g}) is too small for {n_tests} delay-Doppler "
                "tests: the per-test false-alarm level rounds to 0"
            )
        if r.glrt_model not in ("central", "noncentral"):
            raise ConfigError("radar.glrt_model must be 'central' or 'noncentral'")
        if r.p_t <= 0:
            raise ConfigError("radar.p_t must be > 0")
        rem = cfg.rem
        if len(rem.energies) < r.n_bands:
            raise ConfigError("rem must have at least n_bands entries")
        if abs(len(rem.energies) * rem.b_y - r.b_h) > 1e-6 * r.b_h:
            raise ConfigError("rem width (q * b_y) must equal the radar bandwidth b_h")
        coeff_bin = r.b_h / n_bins
        ratio = rem.b_y / coeff_bin
        if abs(ratio - round(ratio)) > 1e-6 or round(ratio) < 1:
            raise ConfigError(
                "rem.b_y must be an integer multiple of the radar coefficient bin "
                f"b_h / (pri * b_h) = {coeff_bin:g} Hz, got {rem.b_y:g} Hz; otherwise "
                "selected band edges cut through coefficient bins"
            )
        if cfg.scene.n_targets > min(n_bins, r.n_pulses):
            raise ConfigError("scene.n_targets exceeds the delay or Doppler grid")
        s = cfg.sweep
        if not 0.0 < s.occupancy <= 1.0:
            raise ConfigError("sweep.occupancy must be in (0, 1]")
        bad = sorted(set(s.band_layouts) - set(_LAYOUT_NAMES))
        if bad:
            raise ConfigError(f"sweep.band_layouts: unknown layouts {bad}")
        for layout in s.band_layouts:
            try:
                band_layout(layout, r.b_h, r.n_bands, s.occupancy, n_bins)
            except ValueError as exc:
                raise ConfigError(f"sweep.occupancy ({s.occupancy:g}): {exc}") from exc
        return cfg

    def feasibility(self) -> MinRequirements:
        """Worst-case sample-count check: each selected band spans at least
        one REM band, so b_y is the guaranteed per-band width."""
        req = min_requirements(
            self.scene.n_targets,
            self.radar.n_delay_bins,
            self.radar.b_h,
            (self.rem.b_y,) * self.radar.n_bands,
        )
        feasible = req.feasible and self.radar.n_pulses >= req.p_min
        return replace(req, feasible=feasible)


def available_presets() -> list[str]:
    root = resources.files("specx") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(source: str | Path) -> ScenarioConfig:
    """Load a scenario from a JSON file path or a named built-in preset."""
    path = Path(source)
    if path.exists():
        return ScenarioConfig.from_json(path.read_text(encoding="utf-8"))
    name = str(source).replace("-", "_")
    candidate = resources.files("specx") / "presets" / f"{name}.json"
    if candidate.is_file():
        return ScenarioConfig.from_json(candidate.read_text(encoding="utf-8"))
    raise ConfigError(
        f"'{source}' is neither a file nor a preset (presets: {', '.join(available_presets())})"
    )


# ---------------------------------------------------------------------------
# shared building blocks


def _flat_base(n_bins: int) -> np.ndarray:
    return np.ones(n_bins)


def _draw_scene(cfg: ScenarioConfig, rng: np.random.Generator) -> TargetScene:
    l = cfg.scene.n_targets
    n_bins = cfg.radar.n_delay_bins
    train = cfg.radar.train()
    delay_bins = rng.choice(n_bins, size=l, replace=False)
    dopp_bins = rng.choice(train.n_pulses, size=l, replace=False)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=l)
    return TargetScene(
        delays=delay_bins * train.pri / n_bins,
        dopplers=train.doppler_grid()[dopp_bins],
        amplitudes=cfg.scene.amplitude * np.exp(1j * phases),
    )


def band_layout(
    name: str, b_h: float, n_bands: int, occupancy: float, n_bins: int
) -> FrequencySet:
    """Scripted transmit-band layouts at matched total occupancy.

    separated spreads n_bands equal blocks across the band with irregular
    spacing (equal spacing would put coherent grating lobes in the delay
    profile at the inverse of the band period); adjacent packs the same
    blocks back to back at the center; wideband uses all of b_h. Blocks are
    aligned to the n_bins coefficient grid.
    """
    if name == "wideband":
        return FrequencySet([(-b_h / 2.0, b_h / 2.0)])
    if name not in _LAYOUT_NAMES:
        raise ValueError(f"unknown layout '{name}'")
    delta = b_h / n_bins
    per = max(1, int(round(occupancy * n_bins)) // n_bands)
    if per * n_bands > n_bins:
        raise ValueError("occupancy too high for this bin count")
    if name == "adjacent":
        start = n_bins // 2 - (per * n_bands) // 2
        lo = (start - n_bins // 2) * delta
        return FrequencySet([(lo, lo + per * n_bands * delta)])
    intervals = []
    for j in range(n_bands):
        # deterministic aperiodic jitter, at most 0.35 of a segment
        center = (j + 0.5 + 0.35 * math.sin(2.4 * j + 1.0)) / n_bands
        start = int(round(center * n_bins - per / 2.0))
        start = min(max(start, 0), n_bins - per)
        lo = (start - n_bins // 2) * delta
        intervals.append((lo, lo + per * delta))
    out = FrequencySet(intervals)
    if len(out) != n_bands:
        raise ValueError("separated layout blocks overlap; lower the occupancy")
    return out


def _detections_payload(dets: DetectionList) -> list[list[float | None]]:
    rows = []
    for d in dets:
        stat = float(d.statistic) if math.isfinite(d.statistic) else None
        rows.append(
            [float(d.delay), float(d.doppler), float(d.amplitude.real),
             float(d.amplitude.imag), stat]
        )
    return rows


def _rmse_range_m(dets: DetectionList, scene: TargetScene, pri: float) -> float | None:
    """Per-target nearest-detection delay error, as range RMSE in meters.

    Targets with no detection anywhere count at the worst wrapped distance
    pri/2 rather than being dropped.
    """
    if len(scene) == 0:
        return None
    if len(dets) == 0:
        errs = np.full(len(scene), pri / 2.0)
    else:
        d = np.abs(dets.delays()[:, None] - scene.delays[None, :]) % pri
        d = np.minimum(d, pri - d)
        errs = d.min(axis=0)
    return float(delay_to_range_m(math.sqrt(float(np.mean(errs**2)))))


class _RadarFrame(NamedTuple):
    """What a radar pass fixes once its baseband bands f_r are chosen: the
    waveform on f_r, its coefficient indices and partial Fourier frame."""

    f_r: FrequencySet
    waveform: RadarWaveformSpec
    kappa: KappaSet
    f_kappa: np.ndarray


def _radar_frame(r: RadarConfig, f_r: FrequencySet) -> _RadarFrame:
    """The noise-independent part of a radar pass over baseband bands f_r."""
    n_bins = r.n_delay_bins
    waveform = design_radar_waveform(_flat_base(n_bins), r.b_h, f_r, r.p_t)
    kappa = make_kappa(f_r, r.b_h, n_bins)
    f_kappa = partial_fourier(kappa)
    f_kappa.flags.writeable = False  # shared by every trial on these bands
    return _RadarFrame(f_r, waveform, kappa, f_kappa)


class _RadarSetup(NamedTuple):
    """What a radar pass fixes before its scene is drawn: its frame, the
    coefficient noise variance, the focused-map noise variance and the GLRT
    threshold."""

    frame: _RadarFrame
    noise_var: float
    fvar: float
    gamma: float


def _radar_setup(r: RadarConfig, frame: _RadarFrame, noise_var: float) -> _RadarSetup:
    """The noise-dependent part of a radar pass on frame."""
    if noise_var > 0:
        fvar = focused_noise_var(noise_var, frame.waveform, frame.kappa, r.train())
        rho = r.p_t / (noise_var * frame.f_r.measure())
        gamma = glrt_threshold(
            r.p_fa, r.n_delay_bins * r.n_pulses, rho=rho, model=r.glrt_model
        )
    else:
        fvar = 0.0
        gamma = 0.0
    return _RadarSetup(frame, noise_var, fvar, gamma)


def _radar_trial(
    cfg: ScenarioConfig, setup: _RadarSetup, scene: TargetScene, seed: int
) -> dict[str, Any]:
    """One radar transmit/receive/recover pass of scene under setup."""
    r = cfg.radar
    train = r.train()
    frame = setup.frame
    coeffs = radar_fourier_coeffs(
        scene, frame.waveform, train, frame.kappa, setup.noise_var, seed
    )
    focused = doppler_focus(coeffs, frame.waveform, frame.kappa, train)
    max_iter = r.max_detections or max(8, 2 * cfg.scene.n_targets)
    dets = focused_omp(focused, frame.f_kappa, setup.gamma, setup.fvar, max_iter)
    hit_rate, _ = hit_or_miss(dets, scene, r.b_h, train)
    return {
        "hit_rate": hit_rate,
        "n_detections": len(dets),
        "truncated": dets.truncated,
        "detections": _detections_payload(dets),
        "rmse_range_m": _rmse_range_m(dets, scene, r.pri),
        "kappa_size": frame.kappa.k,
        "occupancy_ratio": frame.f_r.measure() / r.b_h,
    }


def _require_feasible(cfg: ScenarioConfig) -> MinRequirements:
    req = cfg.feasibility()
    if not req.feasible:
        raise InfeasibleError(
            f"{cfg.scene.n_targets} targets need K >= {req.k_min} coefficients and "
            f"P >= {req.p_min} pulses; the configuration guarantees only "
            f"{req.b_tot_bins} coefficient bins and {cfg.radar.n_pulses} pulses"
        )
    return req


def _require_channels(cfg: ScenarioConfig, grid: GridSpec, n_channels: int, where: str) -> None:
    """Radar-aware sensing seeds its greedy search with every radar slice and
    needs one channel more; the whole radar band bounds that slice count."""
    r = cfg.radar
    band = FrequencySet([(r.carrier - r.b_h / 2.0, r.carrier + r.b_h / 2.0)])
    floor = len(radar_slice_support(band, grid)) + 1
    if n_channels < floor:
        raise ConfigError(
            f"{where} ({n_channels}) must be >= {floor}, one more than the radar's "
            f"{floor - 1} slices"
        )


def _sensing_matrix(seed: int, n_chips: int, grid: GridSpec, n_channels: int) -> SensingMatrix:
    """MWC front end of n_channels mixing sequences drawn from the scenario seed."""
    seqs = gen_mixing_sequences(n_channels, n_chips, _child_seed(seed, "mix"))
    return build_sensing_matrix(seqs, grid.n_slices)


# What the trials of the running sweep share, keyed on (builder, *inputs).
# The calling process and each child it starts fill their own copy on first
# use, so nothing large travels to the children and fork and spawn both work;
# sweep() empties it when it returns or raises.
_POINT_SETUPS: dict[tuple, Any] = {}


def _per_point(build: Callable[..., Any], *args: Any) -> Any:
    """build(*args), built once per process and sweep; args must be hashable."""
    key = (build, *args)
    try:
        return _POINT_SETUPS[key]
    except KeyError:
        value = _POINT_SETUPS[key] = build(*args)
        return value


def _base_meta(cfg: ScenarioConfig, grid: GridSpec) -> dict[str, Any]:
    rate = total_rate(cfg.grid.n_channels, cfg.grid.f_s, grid)
    req = cfg.feasibility()
    return {
        "seed": cfg.seed,
        "f_nyq_hz": grid.f_nyq,
        "f_p_hz": grid.f_p,
        "f_s_hz": grid.f_s,
        "n_slices": grid.n_slices,
        "n_grid": grid.n_grid,
        "n_channels": cfg.grid.n_channels,
        "f_total_hz": rate.f_total,
        "rate_ratio": rate.channel_ratio,
        "nyquist_fraction": rate.nyquist_ratio,
        "radar_carrier_hz": cfg.radar.carrier,
        "radar_b_h_hz": cfg.radar.b_h,
        "n_delay_bins": cfg.radar.n_delay_bins,
        "n_pulses": cfg.radar.n_pulses,
        "p_fa": cfg.radar.p_fa,
        "glrt_model": cfg.radar.glrt_model,
        "n_targets": cfg.scene.n_targets,
        "recovery_budget_feasible": req.feasible,
        "min_coeffs": req.k_min,
        "min_pulses": req.p_min,
    }


def _report(
    cfg: ScenarioConfig, grid: GridSpec, suffix: str, aggregates: Sequence[dict],
    trials: Sequence[dict], trial_columns: tuple[str, ...] | None = None, **meta: Any,
) -> RunReport:
    """The report of a run named after the scenario's run id plus suffix:
    the base meta and meta, the aggregate rows and the trial rows, whose
    columns are those of the first row unless given."""
    return RunReport(
        run_id=cfg.run_id + suffix,
        meta={**_base_meta(cfg, grid), **meta},
        aggregate_columns=tuple(aggregates[0]),
        aggregates=tuple(aggregates),
        trial_columns=trial_columns or tuple(trials[0]),
        trials=tuple(trials),
    )


def _prune_support(
    estimate, support: SliceSupport, grid: GridSpec, prune_db: float | None
) -> SliceSupport:
    """Drop recovered slices whose energy trails the strongest by > prune_db.

    The greedy recovery spends its full budget, so under noise the raw
    support carries spurious low-energy slices; this is the pipeline's model
    order selection. The result is re-symmetrized so mirror slices survive
    together.
    """
    if prune_db is None or len(support) == 0:
        return support
    energies = np.sum(np.abs(estimate.x_hat) ** 2, axis=1)
    rows = support.to_array()
    ref = float(energies[rows].max())
    if ref <= 0.0:
        return support
    cutoff = ref * 10.0 ** (-prune_db / 10.0)
    kept = SliceSupport(int(i) for i in rows if energies[i] >= cutoff)
    return kept.symmetrized(grid.n_slices)


def _medium(
    cfg: ScenarioConfig, grid: GridSpec, specs: Sequence[CommTransmissionSpec],
    noise_psd: float, prefix: str, path: tuple,
    radar: Callable[[FrequencySet], tuple[RadarEmission | None, SliceSupport]],
) -> tuple[SliceSpectrum, SliceSpectrum, FrequencySet, SliceSupport, SliceSupport]:
    """One sensing pass's medium: the comm signals specs over ambient noise
    noise_psd, plus one draw of the radar emission. radar(f_c_true) gives
    that emission (None when the radar is silent) and the radar's slices.
    The draws are seeded by prefix + "comm" and prefix + "rslice" under path.
    Returns (comm_x, x, f_c_true, s_c_true, s_r); x is comm plus radar."""
    comm_x, f_c_true, s_c_true = gen_comm_slices(
        specs, grid, noise_psd, _child_seed(cfg.seed, prefix + "comm", *path)
    )
    emission, s_r = radar(f_c_true)
    x = comm_x
    if emission is not None:
        x = x + draw_radar_emission(emission, _child_seed(cfg.seed, prefix + "rslice", *path))
    return comm_x, x, f_c_true, s_c_true, s_r


def _sense_once(
    cfg: ScenarioConfig,
    grid: GridSpec,
    a: SensingMatrix,
    specs: Sequence[CommTransmissionSpec],
    s_r: SliceSupport,
    emission: RadarEmission | None,
    it: int,
):
    """Sense the _medium of single-shot iteration it, the radar emission on
    the air unless it is None, seeding recovery with the radar slices s_r.

    Returns the raw sensing result plus the pipeline's operational view:
    the pruned comm slice support and the frequency set used for masking
    (sub-slice refined when configured, slice-granular otherwise).
    """
    _, x, f_c_true, s_c_true, _ = _medium(
        cfg, grid, specs, cfg.comm.noise_psd, "", (it,), lambda _: (emission, s_r)
    )
    z = xample(x, a)
    result = sense_spectrum(
        z, a, grid, s_r=s_r,
        n_sig_cap=cfg.comm.n_sig_effective,
        refine_db=cfg.comm.refine_db,
    )
    s_c_hat = _prune_support(result.estimate, result.comm_support, grid, cfg.comm.prune_db)
    if cfg.comm.refine_db is not None:
        f_c_op = result.f_c
    else:
        f_c_op = support_to_freqs(s_c_hat, grid)
    return result, s_c_hat, f_c_op, f_c_true, s_c_true


# ---------------------------------------------------------------------------
# single-shot runs


def run_specx(cfg: ScenarioConfig) -> RunReport:
    """Execute the full coexistence loop and return its report.

    Raises InfeasibleError when the configured scene cannot be recovered
    even without noise; ConfigError for inconsistent parameters.
    """
    cfg = cfg.validate()
    _require_feasible(cfg)
    grid = cfg.grid.to_grid()
    _require_channels(cfg, grid, cfg.grid.n_channels, "grid.n_channels")
    a = _sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, cfg.grid.n_channels)
    rem = cfg.rem.to_rem()
    scene = _draw_scene(cfg, derive_rng(cfg.seed, "scene"))

    rows: list[dict[str, Any]] = []
    f_c_prev: FrequencySet | None = None
    f_r: FrequencySet | None = None
    waveform: RadarWaveformSpec | None = None
    kappa_size = None
    occupancy = None
    converged = False
    band_selections = 0

    for it in range(cfg.loop.max_iterations):
        phase = 1
        active = cfg.comm.transmissions
        if cfg.comm.phase2_transmissions is not None and it >= 1:
            active = cfg.comm.phase2_transmissions
            phase = 2
        if f_r is None:
            s_r, emission = SliceSupport(), None
        else:
            s_r = radar_slice_support(f_r.shifted(cfg.radar.carrier), grid)
            emission = radar_emission(waveform, cfg.radar.carrier, grid, cfg.radar.p_t)
        result, s_c_hat, f_c_hat, f_c_true, s_c_true = _sense_once(
            cfg, grid, a, active, s_r, emission, it
        )
        changed = f_c_prev is None or f_c_hat != f_c_prev
        row: dict[str, Any] = {
            "iteration": it,
            "phase": phase,
            "f_c_true": f_c_true.to_pairs(),
            "f_c_est": f_c_hat.to_pairs(),
            "comm_support_est": list(s_c_hat),
            "support_exact": list(s_c_hat) == list(s_c_true),
            "f_c_changed": changed,
            "f_r": f_r.to_pairs() if f_r is not None else None,
            "s_r": list(s_r),
            "kappa_size": kappa_size,
            "occupancy_ratio": occupancy,
            "f_r_fc_disjoint": None,
            "hit_rate": None,
            "n_detections": None,
            "truncated": None,
            "detections": None,
            "rmse_range_m": None,
        }
        if not changed:
            converged = True
            rows.append(row)
            break
        f_c_prev = f_c_hat
        f_c_base = f_c_hat.shifted(-cfg.radar.carrier).intersection(rem.span)
        _, f_r = select_bands(rem, f_c_base, cfg.radar.n_bands)
        band_selections += 1
        setup = _radar_setup(cfg.radar, _radar_frame(cfg.radar, f_r), cfg.radar.noise_var)
        radar = _radar_trial(cfg, setup, scene, _child_seed(cfg.seed, "radar", it))
        waveform = setup.frame.waveform
        kappa_size = radar["kappa_size"]
        occupancy = radar["occupancy_ratio"]
        row.update(radar)
        row["f_r"] = f_r.to_pairs()
        row["f_r_fc_disjoint"] = f_r.intersection(f_c_base).measure() == 0.0
        rows.append(row)

    agg = {
        "iterations": len(rows),
        "converged": converged,
        "band_selections": band_selections,
        "final_hit_rate": next(
            (r["hit_rate"] for r in reversed(rows) if r["hit_rate"] is not None), None
        ),
        "final_support_exact": rows[-1]["support_exact"],
        "final_occupancy_ratio": occupancy,
        "final_kappa_size": kappa_size,
        "total_detections": sum(r["n_detections"] or 0 for r in rows),
    }
    return _report(
        cfg, grid, "", [agg], rows,
        radar_occupancy_ratio=occupancy, loop_cap=cfg.loop.max_iterations,
    )


def run_sense(cfg: ScenarioConfig) -> RunReport:
    """Single sensing pass on the phase-1 comm signal, no radar on the air."""
    cfg = cfg.validate()
    grid = cfg.grid.to_grid()
    a = _sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, cfg.grid.n_channels)
    result, s_c_hat, f_c_op, f_c_true, s_c_true = _sense_once(
        cfg, grid, a, cfg.comm.transmissions, SliceSupport(), None, 0
    )
    row = {
        "f_c_true": f_c_true.to_pairs(),
        "f_c_est": f_c_op.to_pairs(),
        "comm_support_true": list(s_c_true),
        "comm_support_est": list(s_c_hat),
        "support_exact": list(s_c_hat) == list(s_c_true),
        "frame_rank": result.frame_rank,
    }
    agg = {
        "support_exact": row["support_exact"],
        "n_slices_est": len(s_c_hat),
        "n_slices_true": len(s_c_true),
    }
    return _report(cfg, grid, "-sense", [agg], [row])


def run_select_bands(cfg: ScenarioConfig) -> RunReport:
    """Sense the comm support, then pick the radar bands away from it."""
    cfg = cfg.validate()
    grid = cfg.grid.to_grid()
    a = _sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, cfg.grid.n_channels)
    rem = cfg.rem.to_rem()
    result, _, f_c_op, f_c_true, _ = _sense_once(
        cfg, grid, a, cfg.comm.transmissions, SliceSupport(), None, 0
    )
    f_c_base = f_c_op.shifted(-cfg.radar.carrier).intersection(rem.span)
    bsv, f_r = select_bands(rem, f_c_base, cfg.radar.n_bands)
    kappa = make_kappa(f_r, cfg.radar.b_h, cfg.radar.n_delay_bins)
    row = {
        "f_c_est": f_c_op.to_pairs(),
        "f_r": f_r.to_pairs(),
        "n_blocks": bsv.blocks,
        "occupancy_ratio": f_r.measure() / cfg.radar.b_h,
        "kappa_size": kappa.k,
        "f_r_fc_disjoint": f_r.intersection(f_c_base).measure() == 0.0,
    }
    agg = {k: row[k] for k in ("n_blocks", "occupancy_ratio", "kappa_size")}
    return _report(
        cfg, grid, "-bands", [agg], [row], radar_occupancy_ratio=row["occupancy_ratio"]
    )


def run_radar(cfg: ScenarioConfig) -> RunReport:
    """Radar-only run: bands selected against the true comm support."""
    cfg = cfg.validate()
    _require_feasible(cfg)
    grid = cfg.grid.to_grid()
    rem = cfg.rem.to_rem()
    _, f_c_true, _ = gen_comm_slices(
        cfg.comm.transmissions, grid, cfg.comm.noise_psd, _child_seed(cfg.seed, "comm", 0)
    )
    f_c_base = f_c_true.shifted(-cfg.radar.carrier).intersection(rem.span)
    _, f_r = select_bands(rem, f_c_base, cfg.radar.n_bands)
    scene = _draw_scene(cfg, derive_rng(cfg.seed, "scene"))
    setup = _radar_setup(cfg.radar, _radar_frame(cfg.radar, f_r), cfg.radar.noise_var)
    radar = _radar_trial(cfg, setup, scene, _child_seed(cfg.seed, "radar", 0))
    rows = []
    for i, det in enumerate(radar["detections"]):
        delay, doppler, re, im, stat = det
        rows.append(
            {
                "index": i,
                "delay_s": delay,
                "doppler_hz": doppler,
                "range_m": float(delay_to_range_m(delay)),
                "amp_re": re,
                "amp_im": im,
                "statistic": stat,
            }
        )
    agg = {
        "hit_rate": radar["hit_rate"],
        "n_detections": radar["n_detections"],
        "truncated": radar["truncated"],
        "kappa_size": radar["kappa_size"],
        "occupancy_ratio": radar["occupancy_ratio"],
        "rmse_range_m": radar["rmse_range_m"],
    }
    columns = ("index", "delay_s", "doppler_hz", "range_m", "amp_re", "amp_im", "statistic")
    return _report(
        cfg, grid, "-radar", [agg], rows, columns,
        radar_occupancy_ratio=radar["occupancy_ratio"],
    )


# ---------------------------------------------------------------------------
# Monte-Carlo sweeps


# a draw clears the avoid zone with probability p, the clear share of the
# carrier range; 10 000 straight misses happen with odds below 5e-5 unless
# p < 1e-3, so they mark a layout with (almost) no room left
_MAX_CARRIER_DRAWS = 10_000


def _random_transmissions(
    cfg: ScenarioConfig, avoid: FrequencySet, rng: np.random.Generator
) -> tuple[CommTransmissionSpec, ...]:
    """Per-trial carrier draw, rejecting positions inside the avoid zone.

    Raises InfeasibleError when a transmission finds no clear carrier within
    _MAX_CARRIER_DRAWS draws.
    """
    out = []
    half_nyq = cfg.grid.f_nyq / 2.0
    for idx, spec in enumerate(cfg.comm.transmissions):
        half = spec.bandwidth / 2.0
        lo = -(half_nyq - cfg.grid.f_p / 2.0 - half)
        hi = half_nyq - cfg.grid.f_p / 2.0 - half
        for _ in range(_MAX_CARRIER_DRAWS):
            c = float(rng.uniform(lo, hi))
            band = FrequencySet([(c - half, c + half)])
            if band.union(band.mirrored()).intersection(avoid).measure() == 0.0:
                break
        else:
            raise InfeasibleError(
                f"comm.transmissions[{idx}]: no carrier clear of the radar band "
                f"in {_MAX_CARRIER_DRAWS} draws"
            )
        out.append(replace(spec, carrier=c))
    return tuple(out)


def _radar_avoid_zone(g: GridConfig, r: RadarConfig) -> FrequencySet:
    pad = 1.5 * g.f_p
    lo = r.carrier - r.b_h / 2.0 - pad
    hi = r.carrier + r.b_h / 2.0 + pad
    zone = FrequencySet([(lo, hi)])
    return zone.union(zone.mirrored())


def _index_ratio(est: SliceSupport, truth: SliceSupport) -> float:
    if len(truth) == 0:
        return 1.0
    return len(est.intersection(truth)) / len(truth)


def _radar_emission(
    rem_cfg: RemConfig, r: RadarConfig, grid: GridSpec, f_c_base: FrequencySet
) -> tuple[RadarEmission, SliceSupport]:
    """The radar side of a sensing-sweep trial whose comm map on the REM
    span is f_c_base: the emission profile of the waveform on the bands
    selected against that map, and the grid slices those bands occupy."""
    rem = _per_point(RemConfig.to_rem, rem_cfg)
    _, f_r = select_bands(rem, f_c_base, r.n_bands)
    waveform = design_radar_waveform(_flat_base(r.n_delay_bins), r.b_h, f_r, r.p_t)
    return (
        radar_emission(waveform, r.carrier, grid, r.p_t),
        radar_slice_support(f_r.shifted(r.carrier), grid),
    )


def _comm_trial(
    cfg: ScenarioConfig, grid: GridSpec, tag: str, point_idx: int, trial: int
) -> tuple[SliceSpectrum, SliceSpectrum, SliceSupport, SliceSupport]:
    """The _medium of one sensing-sweep trial, seeded by tag under
    (point_idx, trial): a random comm layout clear of the radar, radar bands
    selected against its true support, and the radar emission on them.
    Returns (comm_x, x, s_c_true, s_r): the comm signal alone, comm plus
    radar, the true comm slices and the radar slices.

    The bands, waveform, emission profile and radar slices depend on the
    trial only through its comm map on the REM span, so each process builds
    them once per distinct map in a sweep, and the trial only draws the
    emission. Comm carriers are drawn clear of the radar's avoid zone, so on
    the presets that map is empty in every trial and they are built once
    per sweep."""
    rem = _per_point(RemConfig.to_rem, cfg.rem)
    rng = derive_rng(cfg.seed, tag, point_idx, trial)
    specs = _random_transmissions(cfg, _per_point(_radar_avoid_zone, cfg.grid, cfg.radar), rng)

    def radar(f_c_true: FrequencySet) -> tuple[RadarEmission, SliceSupport]:
        f_c_base = f_c_true.shifted(-cfg.radar.carrier).intersection(rem.span)
        return _per_point(_radar_emission, cfg.rem, cfg.radar, grid, f_c_base)

    comm_x, x, _, s_c_true, s_r = _medium(
        cfg, grid, specs, 0.0, f"{tag}-", (point_idx, trial), radar
    )
    return comm_x, x, s_c_true, s_r


def _comm_support(
    cfg: ScenarioConfig, grid: GridSpec, z: ChannelSamples, a: SensingMatrix,
    sup: SliceSupport, s_r: SliceSupport,
) -> SliceSupport:
    """Comm slices of a greedy support: refit on it, drop the radar slices,
    prune, and re-symmetrize."""
    est = recover_slices(z, a, sup)
    comm = _prune_support(est, sup.difference(s_r), grid, cfg.comm.prune_db)
    return comm.symmetrized(grid.n_slices)


def _trial_snr(cfg: ScenarioConfig, task: tuple) -> dict[str, Any]:
    snr_db, point_idx, trial = task
    grid = _per_point(GridConfig.to_grid, cfg.grid)
    a = _per_point(_sensing_matrix, cfg.seed, cfg.grid.n_chips, grid, cfg.grid.n_channels)
    comm_x, x, s_c_true, s_r = _comm_trial(cfg, grid, "snr", point_idx, trial)
    # SNR is defined against the comm signal alone; the radar emission is
    # interference at a fixed power, not part of the signal being detected
    p_sig = float(np.mean(np.abs(xample(comm_x, a).z) ** 2))
    noise_var = p_sig * 10.0 ** (-snr_db / 10.0)
    z = xample(x, a, noise_var, _child_seed(cfg.seed, "snr-noise", point_idx, trial))

    if cfg.comm.prune_db is not None:
        # score against slices holding non-negligible comm power: same
        # relative floor as the readout prune, with a 3 dB guard band so
        # knife-edge slices (a carrier sliver straddling a slice boundary)
        # cannot flip the outcome; without a prune there is no floor
        energies = np.sum(np.abs(comm_x.values) ** 2, axis=1)
        strongest = max(energies[i] for i in s_c_true)
        floor = strongest * 10.0 ** (-max(cfg.comm.prune_db - 3.0, 0.0) / 10.0)
        s_c_true = SliceSupport([i for i in s_c_true if energies[i] >= floor])

    n_sig = cfg.comm.n_sig_effective
    frame = build_frame(z)
    pks_comm = _comm_support(cfg, grid, z, a, omp_pks(frame, a, s_r, k_extra=4 * n_sig), s_r)
    # the radar-unaware receiver budgets sparsity for the comm signals only,
    # so the radar emission competes for its greedy picks
    # (a pursuit picks at most a.n columns, so the cap changes no pick)
    omp_comm = _comm_support(
        cfg, grid, z, a, somp(frame, a, max_sparsity=min(4 * n_sig, a.n)), s_r
    )
    return {
        "snr_db": snr_db,
        "trial": trial,
        "pd_omp": _index_ratio(omp_comm, s_c_true),
        "pd_pks": _index_ratio(pks_comm, s_c_true),
        "exact_omp": list(omp_comm) == list(s_c_true),
        "exact_pks": list(pks_comm) == list(s_c_true),
        "noise_var": noise_var,
    }


def _band_setup(r: RadarConfig, occupancy: float, layout: str, snr_db: float) -> _RadarSetup:
    """Radar setup of one band-placement point: a scripted layout, with the
    coefficient noise snr_db below the power of a flat full-band emission.
    Every point on the same bands shares one frame."""
    f_r = band_layout(layout, r.b_h, r.n_bands, occupancy, r.n_delay_bins)
    noise_var = (r.p_t / (r.b_h * r.pri**2)) * 10.0 ** (-snr_db / 10.0)
    return _radar_setup(r, _per_point(_radar_frame, r, f_r), noise_var)


def _trial_band(cfg: ScenarioConfig, task: tuple) -> dict[str, Any]:
    layout, snr_db, point_idx, trial = task
    setup = _per_point(_band_setup, cfg.radar, cfg.sweep.occupancy, layout, snr_db)
    scene = _draw_scene(cfg, derive_rng(cfg.seed, "band-scene", point_idx, trial))
    radar = _radar_trial(
        cfg, setup, scene, _child_seed(cfg.seed, "band-radar", point_idx, trial)
    )
    return {
        "band_layout": layout,
        "snr_db": snr_db,
        "trial": trial,
        "hit_rate": radar["hit_rate"],
        "n_detections": radar["n_detections"],
        "truncated": radar["truncated"],
        "rmse_range_m": radar["rmse_range_m"],
        "kappa_size": radar["kappa_size"],
    }


def _trial_channels(cfg: ScenarioConfig, task: tuple) -> dict[str, Any]:
    m, point_idx, trial = task
    grid = _per_point(GridConfig.to_grid, cfg.grid)
    a = _per_point(_sensing_matrix, cfg.seed, cfg.grid.n_chips, grid, m)
    _, x, s_c_true, s_r = _comm_trial(cfg, grid, "chan", point_idx, trial)
    p_sig = float(np.mean(np.abs(xample(x, a).z) ** 2))
    noise_var = p_sig * 10.0 ** (-cfg.sweep.channels_snr_db / 10.0)
    z = xample(x, a, noise_var, _child_seed(cfg.seed, "chan-noise", point_idx, trial))
    sup = omp_pks(build_frame(z), a, s_r, k_extra=4 * cfg.comm.n_sig_effective)
    comm = _comm_support(cfg, grid, z, a, sup, s_r)
    return {
        "n_channels": m,
        "trial": trial,
        "pd_pks": _index_ratio(comm, s_c_true),
        "exact_pks": list(comm) == list(s_c_true),
    }


def _mean(rows: list[dict[str, Any]], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


def _ci95(rows: list[dict[str, Any]], key: str) -> float:
    arr = np.asarray([r[key] for r in rows], dtype=float)
    if arr.size < 2:
        return 0.0
    return float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def _resolve_workers(cfg: ScenarioConfig, workers: int | None) -> int:
    requested = workers if workers is not None else cfg.sweep.workers
    if requested < 1:
        requested = 1
    cap = os.environ.get("SPECX_WORKERS", "")
    if cap.strip():
        try:
            requested = min(requested, max(1, int(cap)))
        except ValueError:
            pass
    return requested


@functools.cache
def _openblas_thread_control():
    """(get, set) thread-count functions of the OpenBLAS bundled with NumPy.

    None when NumPy ships no such library or it lacks the symbols. Looked up
    on first use rather than at import, so importing specx stays cheap.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _single_blas_thread():
    """Cap NumPy's BLAS at one thread; restore the caller's count on exit.

    Sweep matrices are tiny, and forked children inherit the cap, so no
    process of a sweep builds a BLAS thread pool that would contend with the
    others for the cores. A no-op when the BLAS offers no thread control.
    """
    control = _openblas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Failure(NamedTuple):
    """The first failing trial of a share: its index in the task list."""

    index: int
    exc: BaseException


def _run_share(fn, tasks: list[tuple], k: int, w: int) -> list[dict[str, Any]] | _Failure:
    """Rows of the interleaved share tasks[k::w], or its first failure."""
    rows = []
    try:
        for task in tasks[k::w]:
            rows.append(fn(task))
    except Exception as exc:
        return _Failure(k + len(rows) * w, exc)
    return rows


def _child_share(fn, tasks: list[tuple], k: int, w: int, conn) -> None:
    """Body of child k: send its share's outcome through conn. An exception
    that does not survive pickling travels as a RuntimeError with its repr."""
    outcome = _run_share(fn, tasks, k, w)
    if isinstance(outcome, _Failure):
        try:
            pickle.loads(pickle.dumps(outcome.exc))
        except Exception:
            outcome = _Failure(outcome.index, RuntimeError(repr(outcome.exc)))
    conn.send(outcome)
    conn.close()


def _run_split(fn, tasks: list[tuple], w: int) -> list[dict[str, Any]]:
    """Run tasks in w interleaved shares: share 0 in this process while w - 1
    children run the others, each sending its outcome through a one-way pipe.

    Rows come back in task order. A failing trial raises the failure with
    the lowest task index, the one a serial run raises; a child that exits
    without sending raises WorkerDied. Every child is joined before this
    returns or raises, and an interrupt terminates them first.
    """
    import multiprocessing

    children = []
    try:
        for k in range(1, w):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_child_share, args=(fn, tasks, k, w, send), name=f"specx-share-{k}"
            )
            child.start()
            send.close()
            children.append((child, recv))
        outcomes = [_run_share(fn, tasks, 0, w)]
        for child, recv in children:
            try:
                outcomes.append(recv.recv())
            except EOFError:
                child.join()
                raise WorkerDied(
                    f"{child.name} exited with code {child.exitcode} before sending its trials"
                ) from None
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    failures = [o for o in outcomes if isinstance(o, _Failure)]
    if failures:
        raise min(failures, key=lambda f: f.index).exc
    rows: list[Any] = [None] * len(tasks)
    for k, share in enumerate(outcomes):
        rows[k::w] = share
    return rows


def _run_trials(fn, tasks: list[tuple], workers: int) -> list[dict[str, Any]]:
    """Run the trials and return their rows in task order, using
    w = min(workers, tasks, usable CPUs) processes: this one alone when w is
    1, else this one and w - 1 children (_run_split). The count includes the
    calling process, which runs a share like any child.
    """
    w = min(workers, len(tasks), _usable_cpus())
    with _single_blas_thread():
        if w <= 1:
            return [fn(t) for t in tasks]
        return _run_split(fn, tasks, w)


def _snr_points(cfg: ScenarioConfig, grid: GridSpec) -> list[dict[str, Any]]:
    if not cfg.sweep.snr_db:
        raise ConfigError("sweep.snr_db must be non-empty")
    if not cfg.comm.transmissions:
        raise ConfigError("an snr sweep needs at least one comm.transmissions entry")
    _require_channels(cfg, grid, cfg.grid.n_channels, "grid.n_channels")
    return [{"snr_db": snr} for snr in cfg.sweep.snr_db]


def _snr_stats(cfg: ScenarioConfig, grid: GridSpec, rows: list[dict]) -> dict[str, Any]:
    return {
        "n_trials": len(rows),
        "pd_omp": _mean(rows, "pd_omp"),
        "pd_pks": _mean(rows, "pd_pks"),
        "ci95_omp": _ci95(rows, "pd_omp"),
        "ci95_pks": _ci95(rows, "pd_pks"),
        "exact_rate_omp": _mean(rows, "exact_omp"),
        "exact_rate_pks": _mean(rows, "exact_pks"),
    }


def _band_points(cfg: ScenarioConfig, grid: GridSpec) -> list[dict[str, Any]]:
    _require_feasible(cfg)
    snr_grid = cfg.sweep.band_snr_db or cfg.sweep.snr_db
    if not cfg.sweep.band_layouts or not snr_grid:
        raise ConfigError("sweep.band_layouts and the SNR grid must be non-empty")
    return [
        {"band_layout": layout, "snr_db": snr}
        for layout in cfg.sweep.band_layouts
        for snr in snr_grid
    ]


def _band_stats(cfg: ScenarioConfig, grid: GridSpec, rows: list[dict]) -> dict[str, Any]:
    return {"hit_rate": _mean(rows, "hit_rate"), "ci95": _ci95(rows, "hit_rate")}


def _channel_points(cfg: ScenarioConfig, grid: GridSpec) -> list[dict[str, Any]]:
    if not cfg.sweep.channel_counts:
        raise ConfigError("sweep.channel_counts must be non-empty")
    for m in cfg.sweep.channel_counts:
        _require_channels(cfg, grid, m, "sweep.channel_counts entry")
    return [{"n_channels": m} for m in cfg.sweep.channel_counts]


def _channel_stats(cfg: ScenarioConfig, grid: GridSpec, rows: list[dict]) -> dict[str, Any]:
    rate = total_rate(rows[0]["n_channels"], cfg.grid.f_s, grid)
    return {
        "n_trials": len(rows),
        "pd_pks": _mean(rows, "pd_pks"),
        "ci95": _ci95(rows, "pd_pks"),
        "exact_rate": _mean(rows, "exact_pks"),
        "f_total_hz": rate.f_total,
        "rate_ratio": rate.channel_ratio,
    }


class _SweepAxis(NamedTuple):
    """One sweep axis: its points (leading columns of its trial and aggregate
    rows), the name of its trial function (looked up when the sweep starts,
    so it can be replaced like any module attribute), the per-point stats
    that complete an aggregate row, and any extra report meta."""

    points: Callable[[ScenarioConfig, GridSpec], list[dict[str, Any]]]
    trial: str
    stats: Callable[[ScenarioConfig, GridSpec, list[dict]], dict[str, Any]]
    meta: Callable[[ScenarioConfig], dict[str, Any]] = lambda cfg: {}


_SWEEPS = {
    "snr": _SweepAxis(_snr_points, "_trial_snr", _snr_stats),
    "band_placement": _SweepAxis(
        _band_points, "_trial_band", _band_stats,
        lambda cfg: {"occupancy": cfg.sweep.occupancy},
    ),
    "channels": _SweepAxis(
        _channel_points, "_trial_channels", _channel_stats,
        lambda cfg: {"channels_snr_db": cfg.sweep.channels_snr_db},
    ),
}
SWEEP_AXES = tuple(_SWEEPS)


def sweep(cfg: ScenarioConfig, axis: str, workers: int | None = None) -> RunReport:
    """Monte-Carlo sweep along one axis; deterministic for a fixed seed.

    snr re-senses randomized comm layouts under channel noise and compares
    plain greedy recovery against the radar-aware variant; band_placement
    scores radar hit rates for scripted transmit layouts; channels varies
    the sampler's channel count. Trial records carry every per-run metric
    the aggregates are computed from.

    What trials share is built once per process that runs them. For snr
    and channels: the grid, with its dense frequencies, mirror positions and
    slice index map, and the REM and radar avoid zone once per sweep; the
    MWC front end, with its column norms, matched filters and the QR of the
    radar's known columns, once per sweep for snr and once per channel count
    for channels; the radar bands, waveform, emission variance profile and
    slices once per distinct comm map on the REM span (once per sweep on the
    presets), so a trial only draws the emission. For band_placement:
    the waveform, kappa and partial Fourier frame once per band set, so once
    per layout however many SNRs share it; the focused noise variance and
    GLRT threshold once per point.

    With w = min(workers, trials, usable CPUs) of 2 or more, this process
    runs every w-th trial and w - 1 children it starts run the rest; the
    rows are put back in task order, so the report does not depend on w.
    The trials run with NumPy's BLAS capped at one thread, in this process
    and so in every child it forks, and the caller's thread count is
    restored when the sweep returns or raises.
    """
    cfg = cfg.validate()
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}")
    spec = _SWEEPS[axis]
    n_workers = _resolve_workers(cfg, workers)
    n_trials = cfg.sweep.n_trials
    grid = cfg.grid.to_grid()
    points = spec.points(cfg, grid)
    tasks = [
        (*point.values(), i, t) for i, point in enumerate(points) for t in range(n_trials)
    ]
    trial = functools.partial(globals()[spec.trial], cfg)
    try:
        rows = _run_trials(trial, tasks, n_workers)
    finally:
        _POINT_SETUPS.clear()
    aggregates = tuple(
        {**point, **spec.stats(cfg, grid, rows[i * n_trials : (i + 1) * n_trials])}
        for i, point in enumerate(points)
    )
    return _report(
        cfg, grid, f"-{axis}", aggregates, rows, axis=axis, n_trials=n_trials,
        **spec.meta(cfg),
    )
