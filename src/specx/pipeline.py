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

import functools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from types import GenericAlias, UnionType
from typing import Any, Callable, Mapping, NamedTuple, Sequence, get_type_hints

import numpy as np

from . import engine
from .bands import RemGrid, select_bands
from .freqs import FrequencySet, GridSpec, KappaSet, SliceSupport, frozen
from .mwc import (
    SensingMatrix,
    build_sensing_matrix,
    gen_mixing_sequences,
    total_rate,
    xample,
    xample_batch,
)
from .radar import (
    DetectionList,
    MinRequirements,
    Pursuit,
    delay_to_range_m,
    doppler_focus_batch,
    focus_weights,
    focused_noise_var,
    focused_omp_batch,
    glrt_threshold,
    hit_or_miss_batch,
    make_kappa,
    min_requirements,
    partial_fourier,
    per_test_level,
    wrapped_gaps,
)
from .report import RunReport
from .rng import derive_rng
from .sensing import (
    FrameMatrix,
    build_frame_batch,
    comm_supports,
    greedy_budget,
    omp_pks_batch,
    radar_slice_support,
    recover_slices_batch,
    refine_support_by_energy,
    sense_spectrum,
    strong_rows,
)
from .signals import (
    CommTransmissionSpec,
    PulseTrainSpec,
    RadarEmission,
    RadarWaveformSpec,
    SliceSpectrum,
    check_scenes,
    comm_occupancy,
    design_radar_waveform,
    draw_radar_emission_batch,
    gen_comm_slices_batch,
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


def _at_least(lo: int, default: Any = MISSING, below: int | None = None) -> Any:
    """A config field whose value, or each entry of it, must be >= lo, and
    < below unless that is None."""
    return field(default=default, metadata={"min": lo, "below": below})


class _Plan(NamedTuple):
    fields: tuple[tuple[str, Any, Any, Any], ...]  # name, annotation, lower and upper bound
    names: frozenset[str]
    required: frozenset[str]


@functools.cache
def _field_plan(cls) -> _Plan:
    """How _typed builds a config dataclass, read off its annotations once."""
    hints = get_type_hints(cls)
    return _Plan(
        tuple(
            (f.name, hints[f.name], f.metadata.get("min"), f.metadata.get("below"))
            for f in fields(cls)
        ),
        frozenset(f.name for f in fields(cls)),
        frozenset(
            f.name for f in fields(cls)
            if f.default is MISSING and f.default_factory is MISSING
        ),
    )


_SHOWN_CHARS = 100


def _shown(value: Any) -> str:
    """repr(value) for an error line: whole up to _SHOWN_CHARS characters,
    else its two ends around "...", so a huge or deeply nested value still
    gives one short line."""
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    half = (_SHOWN_CHARS - 3) // 2
    return f"{text[:half]}...{text[-half:]}"


def _typed(cls: Any, value: Any, where: str, lo: Any = None, hi: Any = None) -> Any:
    """value checked and built as an instance of the annotation cls.

    cls is int, float, str, X | None, tuple[X, ...] or a config dataclass.
    An int holds an integer and a float a finite number (bools are
    neither); an int read as a float becomes one, so a report prints 10 as
    10.0. A list becomes a tuple entry by entry, and lo <= x < hi bounds
    the value or each entry, where the bound is not None. A dataclass is
    built from a mapping or from an instance of it, with strict keys, each
    field typed by its annotation."""
    if cls is float:
        if not _is_finite(value):
            raise ConfigError(f"{where} must be a finite number, got {_shown(value)}")
        value = float(value)
    elif cls is int:
        if not _is_int(value):
            raise ConfigError(f"{where} must be an integer, got {_shown(value)}")
    elif cls is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where} must be a string, got {_shown(value)}")
    elif isinstance(cls, GenericAlias):  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list")
        item = cls.__args__[0]
        return tuple(_typed(item, v, f"{where}[{i}]", lo, hi) for i, v in enumerate(value))
    elif isinstance(cls, UnionType):  # X | None
        return None if value is None else _typed(cls.__args__[0], value, where, lo, hi)
    else:
        return _typed_dataclass(cls, value, where)
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}")
    if hi is not None and value >= hi:
        raise ConfigError(f"{where} must be < {hi}")
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
        name: _typed(kind, value[name], prefix + name, lo, hi)
        for name, kind, lo, hi in plan.fields
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
    slices within refine_db of their peak, mirrored about 0 Hz. Both dB
    margins are >= 0: a negative one would drop even the strongest slice
    or bin.
    """

    transmissions: tuple[CommTransmissionSpec, ...]
    noise_psd: float = _at_least(0, 0.0)
    n_sig: int = 0
    prune_db: float | None = _at_least(0, None)
    refine_db: float | None = _at_least(0, None)
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
    seed: int = _at_least(0, below=2**64)  # a master seed of derive_rng
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
            # a value nested near the recursion limit can parse and still
            # overflow the stack in the repr of its error message
            return cls.from_dict(json.loads(text, object_pairs_hook=_unique_keys))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError:
            raise ConfigError("config nests too deeply") from None

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


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict; a repeated key is refused, since
    json.loads would keep only its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config repeats the key {_shown(key)} in one object")
        data[key] = value
    return data


def available_presets() -> list[str]:
    root = resources.files("specx") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(source: str | Path) -> ScenarioConfig:
    """Load a scenario from a JSON file path or a named built-in preset."""
    path = Path(source)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config '{source}' is not UTF-8 text: {exc}") from exc
        return ScenarioConfig.from_json(text)
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


def _draw_targets(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A scene's raw draw: distinct delay bins, distinct Doppler bins, phases."""
    l = cfg.scene.n_targets
    delay_bins = rng.choice(cfg.radar.n_delay_bins, size=l, replace=False)
    dopp_bins = rng.choice(cfg.radar.n_pulses, size=l, replace=False)
    return delay_bins, dopp_bins, rng.uniform(0.0, 2.0 * math.pi, size=l)


def _scenes(
    cfg: ScenarioConfig,
    delay_bins: Sequence[np.ndarray],
    dopp_bins: Sequence[np.ndarray],
    phases: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (B, L) delay, Doppler and amplitude stacks of B scenes' raw draws,
    checked as TargetScene checks each scene. Every entry is the float
    operation a lone scene's draw does on it."""
    n_bins = cfg.radar.n_delay_bins
    train = cfg.radar.train()
    delays = np.stack(delay_bins) * train.pri / n_bins
    dopplers = train.doppler_grid()[np.stack(dopp_bins)]
    amplitudes = cfg.scene.amplitude * np.exp(1j * np.stack(phases))
    check_scenes(delays, dopplers, amplitudes)
    return delays, dopplers, amplitudes


def _draw_scene(
    cfg: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One scene as (1, L) stacks: the one-scene call of _scenes."""
    return _scenes(cfg, *([draw] for draw in _draw_targets(cfg, rng)))


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


def _detections_payload(r: RadarConfig, found: Pursuit) -> list[list[float | None]]:
    dets = DetectionList.from_pursuit(found, r.n_delay_bins, r.train().doppler_grid(), r.pri)
    rows = []
    for d in dets:
        stat = float(d.statistic) if math.isfinite(d.statistic) else None
        rows.append(
            [float(d.delay), float(d.doppler), float(d.amplitude.real),
             float(d.amplitude.imag), stat]
        )
    return rows


def _rmse_range_m(d_tau: np.ndarray, counts: Sequence[int], pri: float) -> list[float | None]:
    """Per trial, the per-target nearest-detection delay error as range RMSE
    in meters, from wrapped_gaps's (B, M, L) delay stack, trial b holding
    counts[b] detections.

    Targets with no detection anywhere count at the worst wrapped distance
    pri/2 rather than being dropped. Each trial's mean is its own call.
    """
    b_count, width, l = d_tau.shape
    if l == 0:
        return [None] * b_count
    counts = np.asarray(counts)
    picked = np.arange(width)[None, :, None] < counts[:, None, None]
    errs = np.where(picked, d_tau, np.inf).min(axis=1, initial=np.inf)
    errs[counts == 0] = pri / 2.0
    means = [float(np.mean(sq)) for sq in errs**2]
    return delay_to_range_m(np.sqrt(means)).tolist()


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
    f_adj = frozen(f_kappa.conj()).T
    arrays = map(frozen, (kappa.centered(), h, *focus_weights(h, train), f_kappa))
    return _RadarFrame(f_r, waveform, kappa, *arrays, f_adj, train)


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
    cfg: ScenarioConfig, setups: Sequence[_RadarSetup],
    scenes: tuple[np.ndarray, np.ndarray, np.ndarray], seeds: Sequence[int],
) -> tuple[list[Pursuit], list[dict[str, Any]]]:
    """Radar transmit/receive/recover passes of B scenes, scene b under
    setups[b], all on one frame, given as _scenes's (B, L) delay, Doppler
    and amplitude stacks, scene b's coefficient noise drawn from seeds[b].
    The stack takes one coefficient synthesis, one Doppler focus, one
    lockstep pursuit and one scoring pass (_score) that builds no Detection;
    each scene's noise variances and GLRT threshold are its own setup's.
    Returns each scene's pursuit and its row of band measures. Each pass
    does the float operations it does alone, so its row does not depend on
    the others."""
    r = cfg.radar
    frame = setups[0].frame
    delays, dopplers, amplitudes = scenes
    psi = doppler_focus_batch(
        radar_fourier_coeffs_batch(
            delays, dopplers, amplitudes, frame.h, frame.k_c, frame.train,
            [setup.noise_var for setup in setups], seeds,
        ),
        frame.signs, frame.scale,
    )
    max_iter = r.max_detections or max(8, 2 * cfg.scene.n_targets)
    found = focused_omp_batch(
        psi, frame.f_kappa, [setup.gamma for setup in setups],
        [setup.fvar for setup in setups], max_iter, f_adj=frame.f_adj,
    )
    rows = [
        {
            "hit_rate": hit_rate,
            "n_detections": len(p.amplitudes),
            "truncated": p.truncated,
            "rmse_range_m": err,
            "kappa_size": frame.kappa.k,
        }
        for p, hit_rate, err in zip(found, *_score(r, found, delays, dopplers))
    ]
    return found, rows


def _score(
    r: RadarConfig, found: Sequence[Pursuit], delays: np.ndarray, dopplers: np.ndarray
) -> tuple[list[float], list[float | None]]:
    """Hit rates and range RMSEs of B pursuits against their scenes' (B, L)
    delay and Doppler stacks. The detections' delays and Dopplers, pri * r /
    n_delay_bins and the Doppler grid's q-th entry as in a Detection, are
    read off the picked bins, padded with bin 0 to the most detections, so
    no Detection is built; the scene-to-detection gaps are formed once for
    the stack (wrapped_gaps) and both scorers read them."""
    counts = [len(p.amplitudes) for p in found]
    width = max(counts)
    cells = [
        cell for p in found for cell in [*p.amplitudes, *[(0, 0)] * (width - len(p.amplitudes))]
    ]
    bins = np.array(cells, dtype=np.intp).reshape(len(found), width, 2)
    train = r.train()
    gaps = wrapped_gaps(
        r.pri * bins[..., 0] / r.n_delay_bins, train.doppler_grid()[bins[..., 1]],
        delays, dopplers, r.pri,
    )
    hit_rates = [rate for rate, _ in hit_or_miss_batch(*gaps, counts, r.b_h, train)]
    return hit_rates, _rmse_range_m(gaps[0], counts, r.pri)


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


def _medium(
    cfg: ScenarioConfig, grid: GridSpec, specs: Sequence[Sequence[CommTransmissionSpec]],
    noise_psd: float, prefix: str, paths: Sequence[tuple], emission: RadarEmission | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sensing passes' media as slice stacks, pass b's the comm signals
    specs[b] over ambient noise noise_psd, plus one draw of the radar
    emission unless it is None. Pass b's draws are seeded by prefix +
    "comm" and prefix + "rslice" under paths[b]. Returns (comm, x,
    occupied): the comm signals alone, comm plus radar, and the (B,
    n_slices) mask of the slices the comm signals occupy."""
    comm, occupied = gen_comm_slices_batch(
        specs, grid, noise_psd, [_child_seed(cfg.seed, prefix + "comm", *p) for p in paths]
    )
    x = comm
    if emission is not None:
        seeds = [_child_seed(cfg.seed, prefix + "rslice", *p) for p in paths]
        x = draw_radar_emission_batch(emission, seeds)
        x += comm  # the sum comm + radar, in the radar's array
    return comm, x, occupied


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

    Returns the sensing result (its comm_support pruned by comm.prune_db),
    the frequency set used for masking, its f_c or, with comm.refine_db,
    refined on its comm_support and mirrored, and the true F_C and S_C.
    """
    _, x, occupied = _medium(cfg, grid, [specs], cfg.comm.noise_psd, "", [(it,)], emission)
    f_c_true, s_c_true = comm_occupancy(specs, grid), SliceSupport(np.flatnonzero(occupied[0]))
    z = xample(SliceSpectrum(x[0], grid), a)
    result = sense_spectrum(
        z, a, grid, s_r=s_r, n_sig_cap=cfg.comm.n_sig_effective, prune_db=cfg.comm.prune_db
    )
    if cfg.comm.refine_db is None:
        f_c_op = result.f_c
    else:
        f_c = refine_support_by_energy(
            result.estimate, result.comm_support, grid, cfg.comm.refine_db
        )
        f_c_op = f_c.union(f_c.mirrored())
    return result, f_c_op, f_c_true, s_c_true


# ---------------------------------------------------------------------------
# single-shot runs


@engine.one_blas_thread
def run_specx(cfg: ScenarioConfig) -> RunReport:
    """Execute the full coexistence loop and return its report.

    Raises InfeasibleError when the configured scene cannot be recovered
    even without noise; ConfigError for inconsistent parameters. Like every
    single-shot run and sweep, it runs with NumPy's BLAS capped at one
    thread and restores the caller's count on return or raise
    (engine.one_blas_thread).
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
        result, f_c_hat, f_c_true, s_c_true = _sense_once(cfg, grid, a, active, s_r, emission, it)
        changed = f_c_prev is None or f_c_hat != f_c_prev
        row: dict[str, Any] = {
            "iteration": it,
            "phase": phase,
            "f_c_true": f_c_true.to_pairs(),
            "f_c_est": f_c_hat.to_pairs(),
            "comm_support_est": list(result.comm_support),
            "support_exact": list(result.comm_support) == list(s_c_true),
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
        seed = _child_seed(cfg.seed, "radar", it)
        (found,), (radar,) = _radar_trials(cfg, [setup], scene, [seed])
        emission = radar_emission(setup.frame.waveform, cfg.radar.carrier, grid, cfg.radar.p_t)
        s_r = radar_slice_support(f_r.shifted(cfg.radar.carrier), grid)
        kappa_size = radar["kappa_size"]
        occupancy = f_r.measure() / cfg.radar.b_h
        row.update(
            radar, detections=_detections_payload(cfg.radar, found), occupancy_ratio=occupancy
        )
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


@engine.one_blas_thread
def run_sense(cfg: ScenarioConfig) -> RunReport:
    """Single sensing pass on the phase-1 comm signal, no radar on the air,
    on one BLAS thread (engine.one_blas_thread)."""
    cfg = cfg.validate()
    grid = cfg.grid.to_grid()
    a = _sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, cfg.grid.n_channels)
    result, f_c_op, f_c_true, s_c_true = _sense_once(
        cfg, grid, a, cfg.comm.transmissions, SliceSupport(), None, 0
    )
    s_c_hat = result.comm_support
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


@engine.one_blas_thread
def run_select_bands(cfg: ScenarioConfig) -> RunReport:
    """Sense the comm support, then pick the radar bands away from it, on
    one BLAS thread (engine.one_blas_thread)."""
    cfg = cfg.validate()
    grid = cfg.grid.to_grid()
    a = _sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, cfg.grid.n_channels)
    rem = cfg.rem.to_rem()
    _, f_c_op, _, _ = _sense_once(cfg, grid, a, cfg.comm.transmissions, SliceSupport(), None, 0)
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


@engine.one_blas_thread
def run_radar(cfg: ScenarioConfig) -> RunReport:
    """Radar-only run: bands selected against the true comm support, on one
    BLAS thread (engine.one_blas_thread)."""
    cfg = cfg.validate()
    _require_feasible(cfg)
    grid = cfg.grid.to_grid()
    rem = cfg.rem.to_rem()
    f_c_true = comm_occupancy(cfg.comm.transmissions, grid)
    f_c_base = f_c_true.shifted(-cfg.radar.carrier).intersection(rem.span)
    _, f_r = select_bands(rem, f_c_base, cfg.radar.n_bands)
    scene = _draw_scene(cfg, derive_rng(cfg.seed, "scene"))
    setup = _radar_setup(cfg.radar, _radar_frame(cfg.radar, f_r), cfg.radar.noise_var)
    (found,), (radar,) = _radar_trials(cfg, [setup], scene, [_child_seed(cfg.seed, "radar", 0)])
    occupancy = f_r.measure() / cfg.radar.b_h
    rows = []
    for i, det in enumerate(_detections_payload(cfg.radar, found)):
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
        "occupancy_ratio": occupancy,
        "rmse_range_m": radar["rmse_range_m"],
    }
    columns = ("index", "delay_s", "doppler_hz", "range_m", "amp_re", "amp_im", "statistic")
    return _report(
        cfg, grid, "-radar", [agg], rows, columns, radar_occupancy_ratio=occupancy,
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
    zone = [(iv.lo, iv.hi) for iv in avoid]
    for idx, spec in enumerate(cfg.comm.transmissions):
        half = spec.bandwidth / 2.0
        lo = -(half_nyq - cfg.grid.f_p / 2.0 - half)
        hi = half_nyq - cfg.grid.f_p / 2.0 - half
        for _ in range(_MAX_CARRIER_DRAWS):
            c = float(rng.uniform(lo, hi))
            if _clear(c - half, c + half, zone):
                break
        else:
            raise InfeasibleError(
                f"comm.transmissions[{idx}]: no carrier clear of the radar band "
                f"in {_MAX_CARRIER_DRAWS} draws"
            )
        out.append(replace(spec, carrier=c))
    return tuple(out)


def _clear(lo: float, hi: float, zone: Sequence[tuple[float, float]]) -> bool:
    """Whether the band [lo, hi) and its mirror [-hi, -lo) meet no interval
    of zone in positive measure. Two half-open intervals do exactly when the
    later start lies below the earlier end."""
    return not any(
        max(b_lo, z_lo) < min(b_hi, z_hi)
        for b_lo, b_hi in ((lo, hi), (-hi, -lo))
        for z_lo, z_hi in zone
    )


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
    front end per distinct channel count, with the caches the pursuits read
    (column norms, matched filters, the QR of the radar's known columns)
    filled here, so that no child process builds them again."""
    avoid = _radar_avoid_zone(cfg.grid, cfg.radar)
    emission, s_r = _radar_emission(cfg.rem, cfg.radar, grid)
    fronts = {m: _sensing_matrix(cfg.seed, cfg.grid.n_chips, grid, m) for m in set(counts)}
    for a in fronts.values():
        a.matched_filters  # fills col_norms too
        if s_r:
            a.column_basis(s_r)
    return [_SensingSetup(grid, fronts[m], avoid, emission, s_r) for m in counts]


class _Drawn(NamedTuple):
    """A sensing-sweep batch up to its pursuits, trial by trial along axis
    0: the channel samples z and their frames, the comm slices each trial
    is scored against, and the channel noise variances."""

    z: np.ndarray
    frames: list[FrameMatrix]
    s_c_true: list[SliceSupport]
    noise_var: np.ndarray


def _draw_sensing(
    cfg: ScenarioConfig, setup: _SensingSetup, tag: str, snrs_db: Sequence[float],
    comm_snr: bool, paths: list[tuple[int, int]],
) -> _Drawn:
    """Sensing-sweep trials on one setup drawn as one stack, trial b seeded by
    tag under paths[b], its (point_idx, trial): a random comm layout clear
    of setup.avoid, the sweep's radar emission on the air (_medium), and
    channel noise snrs_db[b] below its signal power. No comm layout reaches the
    REM span (_radar_emission says why), so every trial shares the sweep's
    one radar, and a trial only draws the emission from setup.emission.

    With comm_snr (the snr axis) the signal is the comm signal alone, the
    radar emission being interference at a fixed power, and a trial is
    scored against the comm slices holding non-negligible power: the
    readout prune's relative floor with a 3 dB guard band, so knife-edge
    slices (a carrier sliver straddling a slice boundary) cannot flip the
    outcome; without a prune there is no floor. Otherwise the signal is
    comm plus radar, scored against every comm slice.

    Each trial draws from its own streams, and every stacked step does a
    lone trial's float operations on its operands, so a trial's samples,
    frame, truth and noise variance do not depend on the batch.
    """
    a = setup.a
    specs = [_random_transmissions(cfg, setup.avoid, derive_rng(cfg.seed, tag, *p)) for p in paths]
    comm, x, occupied = _medium(cfg, setup.grid, specs, 0.0, f"{tag}-", paths, setup.emission)
    p_sig = (np.abs(a.a @ (comm if comm_snr else x)) ** 2).reshape(len(x), -1).mean(axis=1)
    noise_var = p_sig * np.array([10.0 ** (-snr / 10.0) for snr in snrs_db])
    noise_seeds = [_child_seed(cfg.seed, f"{tag}-noise", *p) for p in paths]
    z = xample_batch(x, a, noise_var, noise_seeds)
    if comm_snr and cfg.comm.prune_db is not None:
        occupied = strong_rows(comm, occupied, max(cfg.comm.prune_db - 3.0, 0.0))
    s_c_true = [SliceSupport(np.flatnonzero(row)) for row in occupied]
    return _Drawn(z, build_frame_batch(z), s_c_true, noise_var)


def _read_out(
    cfg: ScenarioConfig, setup: _SensingSetup, d: _Drawn,
    pursuits: Sequence[tuple[SliceSupport, int]],
) -> list[list[SliceSupport]]:
    """The comm slices each (known support, budget) pursuit finds in each
    drawn trial: the pursuit runs once for all the trials through
    omp_pks_batch on the point's front end, its supports are refit for all
    of them through recover_slices_batch, and the refit stack is read out
    as comm slices (comm_supports, the rule sense_spectrum reads a single
    pass out by)."""
    found = [omp_pks_batch(d.frames, setup.a, s_r, k_extra) for s_r, k_extra in pursuits]
    refits = [recover_slices_batch(d.z, setup.a, sups) for sups in found]
    return [
        comm_supports(x_hat, sups, setup.s_r, cfg.comm.prune_db)
        for x_hat, sups in zip(refits, found)
    ]


def _batch_snr(
    cfg: ScenarioConfig, points: list[dict], setups: list, tasks: list[tuple]
) -> list[dict]:
    """Measurements of the given (key, point_idx, trial) tasks of an snr
    sweep, whose points all share one setup, drawn as one stack, each trial
    at its point's SNR (_draw_sensing), and read out by the radar-aware
    pursuit, then the radar-unaware one (_read_out): that receiver budgets
    sparsity for the comm signals only, so the radar emission competes for
    its greedy picks (a pursuit picks at most a.n columns, so the cap
    changes no pick). The point's columns and the trial index are sweep's
    to write. Any failure raises; the engine pins it on its task."""
    paths = [(i, t) for _, i, t in tasks]
    setup = setups[paths[0][0]]
    snrs = [points[i]["snr_db"] for i, _ in paths]
    d = _draw_sensing(cfg, setup, "snr", snrs, True, paths)
    budget = greedy_budget(cfg.comm.n_sig_effective)
    pursuits = ((setup.s_r, budget), (SliceSupport(), min(budget, setup.a.n)))
    pks, omp = _read_out(cfg, setup, d, pursuits)
    return [
        {
            "pd_omp": _index_ratio(omp_comm, truth),
            "pd_pks": _index_ratio(pks_comm, truth),
            "exact_omp": list(omp_comm) == list(truth),
            "exact_pks": list(pks_comm) == list(truth),
            "noise_var": float(noise_var),
        }
        for pks_comm, omp_comm, truth, noise_var in zip(pks, omp, d.s_c_true, d.noise_var)
    ]


def _batch_channels(
    cfg: ScenarioConfig, points: list[dict], setups: list, tasks: list[tuple]
) -> list[dict]:
    """Measurements of the given tasks of a channels sweep, all of points
    with one channel count, hence one setup, drawn as one stack
    (_draw_sensing) at sweep.channels_snr_db and read out by the
    radar-aware pursuit (_read_out); as _batch_snr otherwise."""
    paths = [(i, t) for _, i, t in tasks]
    setup = setups[paths[0][0]]
    snrs = [cfg.sweep.channels_snr_db] * len(paths)
    d = _draw_sensing(cfg, setup, "chan", snrs, False, paths)
    (pks,) = _read_out(cfg, setup, d, ((setup.s_r, greedy_budget(cfg.comm.n_sig_effective)),))
    return [
        {"pd_pks": _index_ratio(comm, truth), "exact_pks": list(comm) == list(truth)}
        for comm, truth in zip(pks, d.s_c_true)
    ]


def _draw_band(
    cfg: ScenarioConfig, point_idx: int, trial: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """A band-placement trial's raw scene draw (_draw_targets) and the seed of
    its coefficient noise."""
    rng = derive_rng(cfg.seed, "band-scene", point_idx, trial)
    return (*_draw_targets(cfg, rng), _child_seed(cfg.seed, "band-radar", point_idx, trial))


def _batch_band(
    cfg: ScenarioConfig, points: list[dict], setups: list, tasks: list[tuple]
) -> list[dict]:
    """Measurements of the given (key, point_idx, trial) tasks of a
    band-placement sweep, all of points on one band set, hence one radar
    frame, each trial under its point's radar setup.

    Each trial's raw scene draw and noise seed are drawn in task order
    (_draw_band). The batch makes them into (B, L) target stacks and checks
    those once (_scenes), and the trials run as one stack through
    _radar_trials: one coefficient synthesis, one Doppler focus, one
    pursuit whose trials take their greedy steps in lockstep, and one
    scoring pass, with no per-trial scene, detection or train object. Every
    stacked step does each trial's float operations on the operands, and
    with the strides, a lone trial has, so the measurements are those of
    the trials run one by one. Each holds the band measures of
    _radar_trials; the point's columns and the trial index are sweep's to
    write. Any failure raises; the engine pins it on its trial.
    """
    *draws, seeds = zip(*(_draw_band(cfg, i, t) for _, i, t in tasks))
    trial_setups = [setups[i] for _, i, _ in tasks]
    return _radar_trials(cfg, trial_setups, _scenes(cfg, *draws), seeds)[1]


def _mean(rows: list[dict[str, Any]], key: str) -> float:
    return float(np.mean([r[key] for r in rows]))


def _ci95(rows: list[dict[str, Any]], key: str) -> float:
    arr = np.asarray([r[key] for r in rows], dtype=float)
    if arr.size < 2:
        return 0.0
    return float(1.96 * arr.std(ddof=1) / math.sqrt(arr.size))


def _snr_plan(
    cfg: ScenarioConfig, grid: GridSpec
) -> tuple[list[dict], list[_SensingSetup], list[int]]:
    """The SNR points, which share one setup and so one batch key."""
    if not cfg.sweep.snr_db:
        raise ConfigError("sweep.snr_db must be non-empty")
    if not cfg.comm.transmissions:
        raise ConfigError("an snr sweep needs at least one comm.transmissions entry")
    _require_channels(cfg, grid, cfg.grid.n_channels, "grid.n_channels")
    n = len(cfg.sweep.snr_db)
    setups = _sensing_setups(cfg, grid, [cfg.grid.n_channels] * n)
    return [{"snr_db": snr} for snr in cfg.sweep.snr_db], setups, [0] * n


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


def _band_plan(
    cfg: ScenarioConfig, grid: GridSpec
) -> tuple[list[dict], list[_RadarSetup], list[int]]:
    """Each layout at each SNR, and each point's radar setup: the layout's
    scripted bands, with the coefficient noise snr_db below the power of a
    flat full-band emission. Every point on the same bands shares one
    frame, and its batch key is that band set's index."""
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
    keys = {f_r: k for k, f_r in enumerate(frames)}
    full_band = r.p_t / (r.b_h * r.pri**2)
    setups = [
        _radar_setup(r, frames[bands[p["band_layout"]]], full_band * 10.0 ** (-p["snr_db"] / 10.0))
        for p in points
    ]
    return points, setups, [keys[bands[p["band_layout"]]] for p in points]


def _band_stats(cfg: ScenarioConfig, grid: GridSpec, rows: list[dict]) -> dict[str, Any]:
    return {"hit_rate": _mean(rows, "hit_rate"), "ci95": _ci95(rows, "hit_rate")}


def _channel_plan(
    cfg: ScenarioConfig, grid: GridSpec
) -> tuple[list[dict], list[_SensingSetup], list[int]]:
    """The channel counts, each its own front end and so its own batch key."""
    counts = cfg.sweep.channel_counts
    if not counts:
        raise ConfigError("sweep.channel_counts must be non-empty")
    for m in counts:
        _require_channels(cfg, grid, m, "sweep.channel_counts entry")
    return [{"n_channels": m} for m in counts], _sensing_setups(cfg, grid, counts), list(counts)


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
    """One sweep axis: its plan, (cfg, grid) -> (points, setups, keys), which
    checks the points and builds one setup per point, what that point's
    trials share, before any trial runs (the points' columns lead its trial
    and aggregate rows), and gives each point a batch key, equal for points
    whose setups share what a batch builds on; its batch function, (cfg,
    points, setups, tasks) -> one measurement dict per (key, point_idx,
    trial) task, all of one key; the per-point stats that complete an
    aggregate row, and any extra report meta. sweep writes each trial row's
    point columns and "trial"."""

    plan: Callable[[ScenarioConfig, GridSpec], tuple[list[dict[str, Any]], list[Any], list[Any]]]
    batch: Callable[[ScenarioConfig, list[dict], list[Any], list[tuple]], list[dict]]
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


@engine.one_blas_thread
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
    other children get it pickled with the batch function. For snr and
    channels: the grid, with its dense frequencies, mirror positions and
    slice index map, and the REM and radar avoid zone once per sweep; the
    MWC front end, with its column norms, matched filters and the QR of the
    radar's known columns, once per sweep for snr and once per channel count
    for channels, those caches filled before any trial (_sensing_setups) so
    that no child builds them; the radar bands, waveform, emission variance
    profile and slices once per sweep, selected against an empty comm map,
    because the comm carriers are drawn clear of the radar band and the REM
    span, so a trial only draws the emission. For band_placement:
    the waveform, kappa, partial Fourier frame and what Doppler focusing
    and the pursuit take from them once per band set, so once per layout
    however many SNRs share it; the focused noise variance and GLRT
    threshold once per point.

    Each point has a batch key naming the setup its trials share: one key
    per sweep for snr, one per band set for band_placement and one per
    channel count for channels. A batch runs consecutive trials of one key,
    so it may span several points: each process runs a key's trials in the
    fewest near-equal batches of at most 32 (engine._MAX_BATCH), and every
    trial reads its own point's SNR, noise variances and GLRT threshold. An
    snr or channels batch draws its trials as one
    stack (_draw_sensing): each trial's carriers and its comm, radar and
    channel-noise draws come from its own streams, and the dense scatter,
    the slice gather, both products A x, the Gram matrices and their eigh,
    and the true comm slices run once per batch. It runs each pursuit once
    for the whole batch through omp_pks_batch, refits the supports as one
    stack and reads them out as a single-shot run does (comm_supports,
    which sense_spectrum calls on its one refit). A band_placement batch
    draws its trials' raw scenes and noise seeds in task order, makes the
    scenes into target stacks, synthesizes and focuses their coefficients
    as one stack, runs the trials' pursuits in lockstep, one stacked refit
    per support size a greedy step, and scores the picks as one padded
    stack, with no per-trial scene or detection object (_batch_band,
    _radar_trials, focused_omp_batch, _score). Every trial does
    the float operations it does on its own, on operands with the same
    strides, so the rows do not depend on the batching.

    engine.run runs the (key, point_idx, trial) tasks, point by point, on
    sweep.workers processes (workers, when given, replaces it before the
    config is checked) and returns what each batch measures in task order;
    this function writes each trial row as the point's columns, then
    "trial", then the measurements, the same layout on every axis. The
    whole sweep, its plan and report included, runs with NumPy's BLAS
    capped at one thread, as every single-shot run does, and the caller's
    count is restored on return or raise (engine.one_blas_thread).
    """
    if workers is not None:
        cfg = replace(cfg, sweep=replace(cfg.sweep, workers=workers))
    cfg = cfg.validate()
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}")
    spec = _SWEEPS[axis]
    n_trials = cfg.sweep.n_trials
    grid = cfg.grid.to_grid()
    points, setups, keys = spec.plan(cfg, grid)
    tasks = [(keys[i], i, t) for i in range(len(points)) for t in range(n_trials)]
    batch = functools.partial(spec.batch, cfg, points, setups)
    measured = engine.run(batch, tasks, cfg.sweep.workers)
    rows = [{**points[i], "trial": t, **m} for (_, i, t), m in zip(tasks, measured)]
    aggregates = tuple(
        {**point, **spec.stats(cfg, grid, rows[i * n_trials : (i + 1) * n_trials])}
        for i, point in enumerate(points)
    )
    return _report(
        cfg, grid, f"-{axis}", aggregates, rows, axis=axis, n_trials=n_trials,
        **spec.meta(cfg),
    )
