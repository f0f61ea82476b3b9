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
import itertools
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
    doppler_focus_batch,
    focus_weights,
    focused_noise_var,
    focused_omp_batch,
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
    FrameMatrix,
    SliceEstimate,
    build_frame,
    omp_pks_batch,
    radar_slice_support,
    recover_slices_batch,
    refine_support_by_energy,
    sense_spectrum,
    support_to_freqs,
)
from .signals import (
    CommTransmissionSpec,
    PulseTrainSpec,
    RadarEmission,
    RadarWaveformSpec,
    SliceSpectrum,
    TargetScene,
    comm_occupancy,
    design_radar_waveform,
    draw_radar_emission,
    gen_comm_slices,
    radar_emission,
    radar_fourier_coeffs_batch,
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
        return GridSpec(f_nyq=self.f_nyq, f_p=self.f_p, f_s=self.f_s, n_grid=self.n_grid)


@dataclass(frozen=True)
class CommConfig:
    """Transmissions on the air plus the receiver's working assumptions.

    The greedy support recovery always spends its whole slice budget, so
    under ambient noise it returns spurious low-energy slices on top of the
    true ones. prune_db sets the pipeline's model-order selection: recovered
    slices whose energy falls more than prune_db below the strongest comm
    slice are discarded before anything downstream sees the support. None
    disables pruning (adequate only for noise-free scenarios). refine_db
    then narrows the single-shot runs' comm map to the bins of the pruned
    slices within refine_db of their peak, mirrored about 0 Hz.
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
                # A band holding no mirrored dense bin is not on the air. A
                # band a bin wide holds one, but bins within slice_count's
                # tolerance of a Nyquist edge may lack a mirror: 1e-9 times
                # at most 2**23 bins (the slice bin cap), under 1% of a bin
                # per edge. Rounding costs far less.
                if t.bandwidth < 1.02 * grid.delta_f:
                    raise ConfigError(
                        f"comm transmission {i} (phase {phase}): bandwidth {t.bandwidth:g} Hz "
                        f"is narrower than 1.02 grid bins of {grid.delta_f:g} Hz"
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
        if not 0.0 < cfg.sweep.occupancy <= 1.0:
            raise ConfigError("sweep.occupancy must be in (0, 1]")
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
    waveform on f_r, its coefficient indices kappa (k_c centered), the
    transmitted spectrum h on them, the slow-time signs and per-coefficient
    scales of Doppler focusing, the partial Fourier frame f_kappa and its
    adjoint f_adj, and the pulse train. Every array is read-only: the
    trials on these bands share it."""

    f_r: FrequencySet
    waveform: RadarWaveformSpec
    kappa: KappaSet
    k_c: np.ndarray
    h: np.ndarray
    signs: np.ndarray
    scale: np.ndarray
    f_kappa: np.ndarray
    f_adj: np.ndarray
    train: PulseTrainSpec


def _radar_frame(r: RadarConfig, f_r: FrequencySet) -> _RadarFrame:
    """The noise-independent part of a radar pass over baseband bands f_r."""
    n_bins = r.n_delay_bins
    train = r.train()
    waveform = design_radar_waveform(_flat_base(n_bins), r.b_h, f_r, r.p_t)
    kappa = make_kappa(f_r, r.b_h, n_bins)
    h = waveform.values_on(kappa)
    f_kappa = partial_fourier(kappa)
    # a transposed view, so a back-projection sees the strides it always has
    f_adj = f_kappa.conj().T
    arrays = (kappa.centered(), h, *focus_weights(h, train), f_kappa, f_adj)
    for a in arrays:
        a.flags.writeable = False
    return _RadarFrame(f_r, waveform, kappa, *arrays, train)


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


def _radar_trials(
    cfg: ScenarioConfig, setup: _RadarSetup, scenes: Sequence[TargetScene],
    seeds: Sequence[int],
) -> list[dict[str, Any]]:
    """Radar transmit/receive/recover passes of scenes under setup, scene b's
    coefficient noise drawn from seeds[b]: one coefficient synthesis, one
    Doppler focus and one first back-projection for the stack, then each
    scene's own greedy pursuit and scoring. Each pass does the float
    operations it does alone, so its row does not depend on the others."""
    r = cfg.radar
    frame = setup.frame
    # no name holds the coefficients, so they are freed once focused
    psi = doppler_focus_batch(
        radar_fourier_coeffs_batch(
            scenes, frame.h, frame.k_c, frame.train, setup.noise_var, seeds
        ),
        frame.signs, frame.scale,
    )
    max_iter = r.max_detections or max(8, 2 * cfg.scene.n_targets)
    found = focused_omp_batch(
        psi, frame.f_kappa, setup.gamma, setup.fvar, max_iter,
        f_adj=frame.f_adj, doppler_grid=frame.train.doppler_grid(), pri=r.pri,
    )
    rows = []
    for dets, scene in zip(found, scenes):
        hit_rate, _ = hit_or_miss(dets, scene, r.b_h, frame.train)
        rows.append({
            "hit_rate": hit_rate,
            "n_detections": len(dets),
            "truncated": dets.truncated,
            "detections": _detections_payload(dets),
            "rmse_range_m": _rmse_range_m(dets, scene, r.pri),
            "kappa_size": frame.kappa.k,
            "occupancy_ratio": frame.f_r.measure() / r.b_h,
        })
    return rows


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


def _strong_slices(x: np.ndarray, support: SliceSupport, db: float) -> SliceSupport:
    """The slices of support whose energy in the slice stack x is at least
    the strongest one's less db decibels."""
    if not support:
        return support
    energies = np.sum(np.abs(x) ** 2, axis=1)
    rows = support.to_array()
    floor = float(energies[rows].max()) * 10.0 ** (-db / 10.0)
    return SliceSupport(int(i) for i in rows if energies[i] >= floor)


def _comm_support(est: SliceEstimate, s_r: SliceSupport, prune_db: float | None) -> SliceSupport:
    """The comm slices of the greedy support est was refit on: less the
    radar slices s_r, pruned to those within prune_db of the strongest (the
    model-order selection; None keeps all), and symmetrized."""
    comm = est.support.difference(s_r)
    if prune_db is not None:
        comm = _strong_slices(est.x_hat, comm, prune_db)
    return comm.symmetrized(est.grid.n_slices)


def _medium(
    cfg: ScenarioConfig, grid: GridSpec, specs: Sequence[CommTransmissionSpec],
    noise_psd: float, prefix: str, path: tuple, emission: RadarEmission | None,
) -> tuple[SliceSpectrum, SliceSpectrum, FrequencySet, SliceSupport]:
    """One sensing pass's medium: the comm signals specs over ambient noise
    noise_psd, plus one draw of the radar emission unless it is None. The
    draws are seeded by prefix + "comm" and prefix + "rslice" under path.
    Returns (comm_x, x, f_c_true, s_c_true); x is comm plus radar."""
    comm_x, f_c_true, s_c_true = gen_comm_slices(
        specs, grid, noise_psd, _child_seed(cfg.seed, prefix + "comm", *path)
    )
    x = comm_x
    if emission is not None:
        x = x + draw_radar_emission(emission, _child_seed(cfg.seed, prefix + "rslice", *path))
    return comm_x, x, f_c_true, s_c_true


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

    Returns the sensing result plus the pipeline's operational view: the
    comm slices (_comm_support) and the frequency set used for masking,
    slice-granular or, with comm.refine_db, refined on them and mirrored.
    """
    _, x, f_c_true, s_c_true = _medium(
        cfg, grid, specs, cfg.comm.noise_psd, "", (it,), emission
    )
    z = xample(x, a)
    result = sense_spectrum(z, a, grid, s_r=s_r, n_sig_cap=cfg.comm.n_sig_effective)
    s_c_hat = _comm_support(result.estimate, s_r, cfg.comm.prune_db)
    if cfg.comm.refine_db is None:
        f_c_op = support_to_freqs(s_c_hat, grid)
    else:
        f_c = refine_support_by_energy(result.estimate, s_c_hat, grid, cfg.comm.refine_db)
        f_c_op = f_c.union(f_c.mirrored())
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
    emission, s_r = None, SliceSupport()  # the radar is silent until it picks bands
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
        radar = _radar_trials(cfg, setup, [scene], [_child_seed(cfg.seed, "radar", it)])[0]
        emission = radar_emission(setup.frame.waveform, cfg.radar.carrier, grid, cfg.radar.p_t)
        s_r = radar_slice_support(f_r.shifted(cfg.radar.carrier), grid)
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
    f_c_true = comm_occupancy(cfg.comm.transmissions, grid)
    f_c_base = f_c_true.shifted(-cfg.radar.carrier).intersection(rem.span)
    _, f_r = select_bands(rem, f_c_base, cfg.radar.n_bands)
    scene = _draw_scene(cfg, derive_rng(cfg.seed, "scene"))
    setup = _radar_setup(cfg.radar, _radar_frame(cfg.radar, f_r), cfg.radar.noise_var)
    radar = _radar_trials(cfg, setup, [scene], [_child_seed(cfg.seed, "radar", 0)])[0]
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
    rem_cfg: RemConfig, r: RadarConfig, grid: GridSpec
) -> tuple[RadarEmission, SliceSupport]:
    """The radar of a sensing sweep: the emission profile of the waveform on
    the bands selected against an empty comm map, and their grid slices.

    Every trial's comm map on the REM span is empty, so _sensing_setups
    builds this once per sweep for all its trials.
    _random_transmissions rejects any carrier whose band or mirror meets
    _radar_avoid_zone, the radar band padded by 1.5 f_p on each side. The
    REM span, moved to the radar carrier, is wider than the radar band by
    at most 1e-6 b_h (validate). A sensing sweep needs more channels than
    the radar has slices (_require_channels), hence more than b_h / f_p,
    and validate caps the channels at 4096, so f_p > b_h / 4096 and the pad
    exceeds that overhang about 700 times over."""
    _, f_r = select_bands(rem_cfg.to_rem(), FrequencySet(), r.n_bands)
    waveform = design_radar_waveform(_flat_base(r.n_delay_bins), r.b_h, f_r, r.p_t)
    return (
        radar_emission(waveform, r.carrier, grid, r.p_t),
        radar_slice_support(f_r.shifted(r.carrier), grid),
    )


class _SensingSetup(NamedTuple):
    """What the trials of a sensing-sweep point share: the grid, the MWC
    front end a, the zone their comm carriers keep clear of
    (_radar_avoid_zone), and the radar's emission profile and slices s_r
    (_radar_emission)."""

    grid: GridSpec
    a: SensingMatrix
    avoid: FrequencySet
    emission: RadarEmission
    s_r: SliceSupport


def _sensing_setups(
    cfg: ScenarioConfig, grid: GridSpec, counts: Sequence[int]
) -> list[_SensingSetup]:
    """The setup of each sensing-sweep point, point i's front end having
    counts[i] channels: one avoid zone and one radar per sweep, and one
    front end per distinct channel count."""
    avoid = _radar_avoid_zone(cfg.grid, cfg.radar)
    emission, s_r = _radar_emission(cfg.rem, cfg.radar, grid)
    fronts = {m: _sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, m) for m in set(counts)}
    return [_SensingSetup(grid, fronts[m], avoid, emission, s_r) for m in counts]


def _comm_trial(
    cfg: ScenarioConfig, setup: _SensingSetup, tag: str, point_idx: int, trial: int
) -> tuple[SliceSpectrum, SliceSpectrum, SliceSupport]:
    """The _medium of one sensing-sweep trial, seeded by tag under
    (point_idx, trial): a random comm layout clear of setup.avoid, and the
    sweep's radar emission on the air. Returns (comm_x, x, s_c_true): the
    comm signal alone, comm plus radar, and the true comm slices.

    No comm layout reaches the REM span (_radar_emission says why), so
    every trial shares the sweep's one radar, and a trial only draws the
    emission from setup.emission."""
    rng = derive_rng(cfg.seed, tag, point_idx, trial)
    specs = _random_transmissions(cfg, setup.avoid, rng)
    comm_x, x, _, s_c_true = _medium(
        cfg, setup.grid, specs, 0.0, f"{tag}-", (point_idx, trial), setup.emission
    )
    return comm_x, x, s_c_true


class _Drawn(NamedTuple):
    """A sensing-sweep trial up to its pursuits: the channel samples z and
    their frame, the comm slices it is scored against, the channel noise
    variance, and the (known support, budget) of each greedy pursuit it
    runs, in order."""

    z: ChannelSamples
    frame: FrameMatrix
    s_c_true: SliceSupport
    noise_var: float
    pursuits: tuple[tuple[SliceSupport, int], ...]


def _draw_snr(
    cfg: ScenarioConfig, setup: _SensingSetup, point: dict, point_idx: int, trial: int
) -> _Drawn:
    a = setup.a
    comm_x, x, s_c_true = _comm_trial(cfg, setup, "snr", point_idx, trial)
    # SNR is defined against the comm signal alone; the radar emission is
    # interference at a fixed power, not part of the signal being detected
    p_sig = float(np.mean(np.abs(xample(comm_x, a).z) ** 2))
    noise_var = p_sig * 10.0 ** (-point["snr_db"] / 10.0)
    z = xample(x, a, noise_var, _child_seed(cfg.seed, "snr-noise", point_idx, trial))

    if cfg.comm.prune_db is not None:
        # score against slices holding non-negligible comm power: same
        # relative floor as the readout prune, with a 3 dB guard band so
        # knife-edge slices (a carrier sliver straddling a slice boundary)
        # cannot flip the outcome; without a prune there is no floor
        s_c_true = _strong_slices(comm_x.values, s_c_true, max(cfg.comm.prune_db - 3.0, 0.0))

    # the radar-aware pursuit, then the radar-unaware one: that receiver
    # budgets sparsity for the comm signals only, so the radar emission
    # competes for its greedy picks (a pursuit picks at most a.n columns,
    # so the cap changes no pick)
    budget = 4 * cfg.comm.n_sig_effective
    pursuits = ((setup.s_r, budget), (SliceSupport(), min(budget, a.n)))
    return _Drawn(z, build_frame(z), s_c_true, noise_var, pursuits)


def _snr_row(d: _Drawn, comm: list[SliceSupport]) -> dict[str, Any]:
    pks_comm, omp_comm = comm
    return {
        "pd_omp": _index_ratio(omp_comm, d.s_c_true),
        "pd_pks": _index_ratio(pks_comm, d.s_c_true),
        "exact_omp": list(omp_comm) == list(d.s_c_true),
        "exact_pks": list(pks_comm) == list(d.s_c_true),
        "noise_var": d.noise_var,
    }


def _draw_band(cfg: ScenarioConfig, point_idx: int, trial: int) -> tuple[TargetScene, int]:
    """A band-placement trial's scene and the seed of its coefficient noise."""
    scene = _draw_scene(cfg, derive_rng(cfg.seed, "band-scene", point_idx, trial))
    return scene, _child_seed(cfg.seed, "band-radar", point_idx, trial)


def _draw_channels(
    cfg: ScenarioConfig, setup: _SensingSetup, point: dict, point_idx: int, trial: int
) -> _Drawn:
    a = setup.a
    _, x, s_c_true = _comm_trial(cfg, setup, "chan", point_idx, trial)
    p_sig = float(np.mean(np.abs(xample(x, a).z) ** 2))
    noise_var = p_sig * 10.0 ** (-cfg.sweep.channels_snr_db / 10.0)
    z = xample(x, a, noise_var, _child_seed(cfg.seed, "chan-noise", point_idx, trial))
    pursuits = ((setup.s_r, 4 * cfg.comm.n_sig_effective),)
    return _Drawn(z, build_frame(z), s_c_true, noise_var, pursuits)


def _channels_row(d: _Drawn, comm: list[SliceSupport]) -> dict[str, Any]:
    return {
        "pd_pks": _index_ratio(comm[0], d.s_c_true),
        "exact_pks": list(comm[0]) == list(d.s_c_true),
    }


def _sensing_batch(
    cfg: ScenarioConfig, points: list[dict], setups: list, point_idx: int, trials: list[int],
    draw: Callable[[ScenarioConfig, _SensingSetup, dict, int, int], _Drawn],
    measure: Callable[[_Drawn, list[SliceSupport]], dict[str, Any]],
) -> list[dict]:
    """Measurements of the given trials of one sensing-sweep point, on the
    point's setup.

    Each trial is drawn (comm layout, radar emission, channel samples and
    frame) in trial order; then each of its pursuits runs once for all the
    trials through omp_pks_batch on the point's front end; then each
    pursuit's supports are refit for all the trials through
    recover_slices_batch; then, per trial in order, each refit is read out
    as comm slices (_comm_support) and measured. The point's columns and
    the trial index are sweep's to write. Any failure raises; _run_share
    pins it on its trial.
    """
    setup = setups[point_idx]
    drawn = [draw(cfg, setup, points[point_idx], point_idx, t) for t in trials]
    frames, zs, a = [d.frame for d in drawn], [d.z for d in drawn], setup.a
    found = [omp_pks_batch(frames, a, s_r, k_extra) for s_r, k_extra in drawn[0].pursuits]
    refits = [recover_slices_batch(zs, a, sups) for sups in found]
    return [
        measure(d, [_comm_support(ests[i], setup.s_r, cfg.comm.prune_db) for ests in refits])
        for i, d in enumerate(drawn)
    ]


def _batch_snr(
    cfg: ScenarioConfig, points: list[dict], setups: list, point_idx: int, trials: list[int]
) -> list[dict]:
    return _sensing_batch(cfg, points, setups, point_idx, trials, _draw_snr, _snr_row)


def _batch_channels(
    cfg: ScenarioConfig, points: list[dict], setups: list, point_idx: int, trials: list[int]
) -> list[dict]:
    return _sensing_batch(cfg, points, setups, point_idx, trials, _draw_channels, _channels_row)


_BAND_MEASURES = ("hit_rate", "n_detections", "truncated", "rmse_range_m", "kappa_size")


def _batch_band(
    cfg: ScenarioConfig, points: list[dict], setups: list, point_idx: int, trials: list[int]
) -> list[dict]:
    """Measurements of the given trials of one band-placement point, on the
    point's radar setup.

    Each trial's scene and noise seed are drawn in trial order
    (_draw_band), and the trials run as one stack through _radar_trials:
    one coefficient synthesis, one Doppler focus and one first
    back-projection, then a pursuit per trial. Every stacked step does
    each trial's float operations on the operands, and with the strides, a
    lone trial has, so the measurements are those of the trials run one by
    one. Each holds the five _BAND_MEASURES; the point's columns and the
    trial index are sweep's to write. Any failure raises; _run_share pins
    it on its trial.
    """
    scenes, seeds = zip(*(_draw_band(cfg, point_idx, t) for t in trials))
    return [
        {key: radar[key] for key in _BAND_MEASURES}
        for radar in _radar_trials(cfg, setups[point_idx], scenes, seeds)
    ]


def _mean(rows: list[dict[str, Any]], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


def _ci95(rows: list[dict[str, Any]], key: str) -> float:
    arr = np.asarray([r[key] for r in rows], dtype=float)
    if arr.size < 2:
        return 0.0
    return float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def _resolve_workers(cfg: ScenarioConfig, workers: int | None) -> int:
    return max(1, workers if workers is not None else cfg.sweep.workers)


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


# A sweep point's trials go to its batch function at most this many at a
# time: the batched pursuit gains little beyond 10 to 20 trials, and this
# bounds its stacked arrays.
_MAX_BATCH = 32


def _run_share(
    batch, tasks: list[tuple[int, int]], k: int, w: int
) -> list[dict[str, Any]] | _Failure:
    """Measurements of the interleaved share tasks[k::w] of (point_idx,
    trial) tasks, or its first failure.

    batch(point_idx, trials) gets the share's runs of same-point trials,
    _MAX_BATCH at most at a time, and returns one measurement dict per
    trial. When it raises, that run's trials are re-run one at a time in
    task order, and the first to raise is the share's failure: the
    exception a serial run of the trials one by one raises, at its index
    in the task list."""
    measured: list[dict[str, Any]] = []
    for point_idx, group in itertools.groupby(tasks[k::w], key=lambda task: task[0]):
        trials = [trial for _, trial in group]
        for lo in range(0, len(trials), _MAX_BATCH):
            run = trials[lo : lo + _MAX_BATCH]
            try:
                measured += batch(point_idx, run)
            except Exception:
                for trial in run:
                    try:
                        measured += batch(point_idx, [trial])
                    except Exception as exc:
                        return _Failure(k + len(measured) * w, exc)
    return measured


def _child_share(batch, tasks: list[tuple], k: int, w: int, conn) -> None:
    """Body of child k: send its share's outcome through conn. An exception
    that does not survive pickling travels as a RuntimeError with its repr."""
    outcome = _run_share(batch, tasks, k, w)
    if isinstance(outcome, _Failure):
        try:
            pickle.loads(pickle.dumps(outcome.exc))
        except Exception:
            outcome = _Failure(outcome.index, RuntimeError(repr(outcome.exc)))
    conn.send(outcome)
    conn.close()


def _run_split(batch, tasks: list[tuple], w: int) -> list[dict[str, Any]]:
    """Run tasks in w interleaved shares: share 0 in this process while w - 1
    children run the others, each sending its outcome through a one-way pipe.
    At w = 1 no child is started and multiprocessing is not imported.

    Measurements come back in task order. A failing trial raises the
    failure with the lowest task index, the one a serial run of the trials
    one by one raises; a child that exits without sending raises
    WorkerDied. Every child is joined before this returns or raises, and an
    interrupt terminates them first.
    """
    if w > 1:
        import multiprocessing
    children = []
    try:
        for k in range(1, w):
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_child_share, args=(batch, tasks, k, w, send), name=f"specx-share-{k}"
            )
            child.start()
            send.close()
            children.append((child, recv))
        outcomes = [_run_share(batch, tasks, 0, w)]
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
    measured: list[Any] = [None] * len(tasks)
    for k, share in enumerate(outcomes):
        measured[k::w] = share
    return measured


def _snr_plan(cfg: ScenarioConfig, grid: GridSpec) -> tuple[list[dict], list[_SensingSetup]]:
    if not cfg.sweep.snr_db:
        raise ConfigError("sweep.snr_db must be non-empty")
    if not cfg.comm.transmissions:
        raise ConfigError("an snr sweep needs at least one comm.transmissions entry")
    _require_channels(cfg, grid, cfg.grid.n_channels, "grid.n_channels")
    points = [{"snr_db": snr} for snr in cfg.sweep.snr_db]
    return points, _sensing_setups(cfg, grid, [cfg.grid.n_channels] * len(points))


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


def _band_plan(cfg: ScenarioConfig, grid: GridSpec) -> tuple[list[dict], list[_RadarSetup]]:
    """Each layout at each SNR, and each point's radar setup: the layout's
    scripted bands, with the coefficient noise snr_db below the power of a
    flat full-band emission. Every point on the same bands shares one
    frame."""
    s, r = cfg.sweep, cfg.radar
    bad = sorted(set(s.band_layouts) - set(_LAYOUT_NAMES))
    if bad:
        raise ConfigError(f"sweep.band_layouts: unknown layouts {bad}")
    bands = {}
    for layout in s.band_layouts:
        try:
            bands[layout] = band_layout(layout, r.b_h, r.n_bands, s.occupancy, r.n_delay_bins)
        except ValueError as exc:
            raise ConfigError(f"sweep.occupancy ({s.occupancy:g}): {exc}") from exc
    _require_feasible(cfg)
    snr_grid = s.band_snr_db or s.snr_db
    if not s.band_layouts or not snr_grid:
        raise ConfigError("sweep.band_layouts and the SNR grid must be non-empty")
    points = [
        {"band_layout": layout, "snr_db": snr} for layout in s.band_layouts for snr in snr_grid
    ]
    frames = {f_r: _radar_frame(r, f_r) for f_r in set(bands.values())}
    full_band = r.p_t / (r.b_h * r.pri**2)
    return points, [
        _radar_setup(r, frames[bands[p["band_layout"]]], full_band * 10.0 ** (-p["snr_db"] / 10.0))
        for p in points
    ]


def _band_stats(cfg: ScenarioConfig, grid: GridSpec, rows: list[dict]) -> dict[str, Any]:
    return {"hit_rate": _mean(rows, "hit_rate"), "ci95": _ci95(rows, "hit_rate")}


def _channel_plan(cfg: ScenarioConfig, grid: GridSpec) -> tuple[list[dict], list[_SensingSetup]]:
    counts = cfg.sweep.channel_counts
    if not counts:
        raise ConfigError("sweep.channel_counts must be non-empty")
    for m in counts:
        _require_channels(cfg, grid, m, "sweep.channel_counts entry")
    return [{"n_channels": m} for m in counts], _sensing_setups(cfg, grid, counts)


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
    """One sweep axis: its plan, (cfg, grid) -> (points, setups), which
    checks the points and builds one setup per point, what that point's
    trials share, before any trial runs (the points' keys lead its trial
    and aggregate rows); its batch function, (cfg, points, setups,
    point_idx, trials) -> one measurement dict per trial; the per-point
    stats that complete an aggregate row, and any extra report meta. sweep
    writes each trial row's point columns and "trial"."""

    plan: Callable[[ScenarioConfig, GridSpec], tuple[list[dict[str, Any]], list[Any]]]
    batch: Callable[[ScenarioConfig, list[dict], list[Any], int, list[int]], list[dict]]
    stats: Callable[[ScenarioConfig, GridSpec, list[dict]], dict[str, Any]]
    meta: Callable[[ScenarioConfig], dict[str, Any]] = lambda cfg: {}


_SWEEPS = {
    "snr": _SweepAxis(_snr_plan, _batch_snr, _snr_stats),
    "band_placement": _SweepAxis(
        _band_plan, _batch_band, _band_stats,
        lambda cfg: {"occupancy": cfg.sweep.occupancy},
    ),
    "channels": _SweepAxis(
        _channel_plan, _batch_channels, _channel_stats,
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

    What a point's trials share is built once per sweep, in this process,
    by the axis's plan before any trial runs, so a failure to build it
    raises before any trial or child starts. Forked children inherit it;
    under spawn it travels pickled with the batch function. For snr and
    channels: the grid, with its dense frequencies, mirror positions and
    slice index map, and the REM and radar avoid zone once per sweep; the
    MWC front end, with its column norms, matched filters and the QR of the
    radar's known columns, once per sweep for snr and once per channel count
    for channels; the radar bands, waveform, emission variance profile and
    slices once per sweep, selected against an empty comm map, because the
    comm carriers are drawn clear of the radar band and the REM span, so a
    trial only draws the emission. For band_placement:
    the waveform, kappa, partial Fourier frame and what Doppler focusing
    and the pursuit take from them once per band set, so once per layout
    however many SNRs share it; the focused noise variance and GLRT
    threshold once per point.

    Each process runs its trials of a point in batches of at most
    _MAX_BATCH (32). An snr or channels batch draws its trials one by one
    in task order (comm layout, radar emission, channel samples, frame),
    runs each pursuit once for the whole batch through omp_pks_batch, and
    reads each support out per trial in task order as a single-shot run
    does (_comm_support on the refit). A band_placement batch
    draws its trials' scenes and noise seeds in task order, synthesizes,
    focuses and back-projects their coefficients as one stack, and runs
    each trial's pursuit from its slice (_radar_trials). Every trial does
    the float operations it does on its own, on operands with the same
    strides, so the rows do not depend on the batching.

    The tasks are (point_idx, trial) pairs, point by point. A batch returns
    only what its trials measure; this function writes each trial row as
    the point's columns, then "trial", then the measurements, so every
    axis's rows share that layout.

    With w = min(workers, tasks, usable CPUs) of 2 or more, this process
    runs every w-th task and w - 1 children it starts run the rest; the
    measurements are put back in task order, so the report does not
    depend on w.
    When a batch raises, its trials are re-run one at a time to find the
    first that fails, so a failing sweep raises the exception of its lowest
    failing task, the one a serial run of the trials one by one raises,
    whatever w. The trials run with NumPy's BLAS capped at one thread, in
    this process and so in every child it forks, and the caller's thread
    count is restored when the sweep returns or raises.
    """
    cfg = cfg.validate()
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}")
    spec = _SWEEPS[axis]
    n_trials = cfg.sweep.n_trials
    grid = cfg.grid.to_grid()
    points, setups = spec.plan(cfg, grid)
    tasks = [(i, t) for i in range(len(points)) for t in range(n_trials)]
    w = min(_resolve_workers(cfg, workers), len(tasks), _usable_cpus())
    with _single_blas_thread():
        measured = _run_split(functools.partial(spec.batch, cfg, points, setups), tasks, w)
    rows = [{**points[i], "trial": t, **m} for (i, t), m in zip(tasks, measured)]
    aggregates = tuple(
        {**point, **spec.stats(cfg, grid, rows[i * n_trials : (i + 1) * n_trials])}
        for i, point in enumerate(points)
    )
    return _report(
        cfg, grid, f"-{axis}", aggregates, rows, axis=axis, n_trials=n_trials,
        **spec.meta(cfg),
    )
