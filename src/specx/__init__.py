"""Spectral coexistence toolkit.

Simulates a shared wideband channel: communication links detected from
sub-Nyquist samples, a radar steered into the quietest leftover spectrum,
and target recovery from the radar's sparse Fourier coefficients.

The single-shot runs (run_sense, run_select_bands, run_radar, run_specx)
and sweep cap NumPy's BLAS at one thread while they run and restore the
caller's count after; a kernel called on its own, such as focused_omp or
sense_spectrum, keeps the caller's BLAS settings.
"""

from .bands import (
    BandSelectionError,
    BlockSparseVector,
    MappingMatrix,
    RemGrid,
    count_blocks,
    mask_comm,
    select_bands,
    struct_omp,
)
from .engine import WorkerDied
from .freqs import (
    FrequencyInterval,
    FrequencySet,
    GridSpec,
    KappaSet,
    SliceSupport,
    slice_count,
)
from .mwc import (
    ChannelSamples,
    MixingSequenceSet,
    RateAccounting,
    SensingMatrix,
    build_sensing_matrix,
    gen_mixing_sequences,
    total_rate,
    xample,
)
from .pipeline import (
    CommConfig,
    ConfigError,
    GridConfig,
    InfeasibleError,
    LoopConfig,
    RadarConfig,
    RemConfig,
    ScenarioConfig,
    SceneConfig,
    SweepConfig,
    available_presets,
    band_layout,
    load_config,
    run_radar,
    run_select_bands,
    run_sense,
    run_specx,
    sweep,
)
from .radar import (
    Detection,
    DetectionList,
    FocusedMatrix,
    MinRequirements,
    SPEED_OF_LIGHT,
    delay_to_range_m,
    doppler_focus,
    focused_noise_var,
    focused_omp,
    glrt_threshold,
    hit_or_miss,
    make_kappa,
    min_requirements,
    partial_fourier,
)
from .report import ReportError, RunReport, emit_report, load_report
from .rng import derive_rng
from .sensing import (
    FrameMatrix,
    SensingResult,
    SliceEstimate,
    build_frame,
    omp_pks,
    radar_slice_support,
    recover_slices,
    refine_support_by_energy,
    sense_spectrum,
    somp,
    support_to_freqs,
)
from .signals import (
    CommTransmissionSpec,
    PulseTrainSpec,
    RadarWaveformSpec,
    SliceSpectrum,
    TargetScene,
    design_radar_waveform,
    gen_comm_slices,
    radar_fourier_coeffs,
    radar_slices,
)

__version__ = "0.1.0"
