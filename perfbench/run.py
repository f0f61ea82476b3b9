"""Layered benchmark for specx.

    python3 perfbench/run.py --workload desk-snr --seed 1 --seconds 30 --trace 0

Workloads (METRICS.md says why each was chosen):
  desk-snr   sweep(desk, "snr") in seeded rounds, serially and at workers=2
  desk-band  sweep(desk, "band_placement") in seeded rounds, serially and at workers=2
  cli-cold   sense, select-bands, radar and specx on desk and paper_sw, each
             command in a fresh interpreter, by one client and then by two

--trace 0 measures the end-to-end metrics with no instrumentation, in
reference seconds (see RefClock). --trace 1 runs the same workload plus a
serial pass with the layers' public functions wrapped in timing spans
(tracer.py) and prints the per-layer metrics. Every run checks the
program's outputs. The last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}. The lines before it give the environment
and every metric with its unit and sample count; failed checks go to
stderr. specx is imported from src/ beside this directory; nothing is
installed, and BLAS threading is left as the environment sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORK_DIR = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

PRESET = "desk"
# trials per sweep point in one timed round: about 130 trials a round on either axis
ROUND_TRIALS = {"snr": 20, "band_placement": 8}
MIN_ROUNDS = 3
REF_TRIALS = 10  # trials per sweep point in the reference sweep
CLI_SWEEP_SAMPLES = 5
IMPORT_SAMPLES = 3
INPROC_PASSES = 3
CHILD_TIMEOUT_S = 60
LOOP_ITERS = 100_000  # the reference loop
PROBE_PROCS = 2  # cpu_probe's children: one per CPU
REF_CPU_S = 0.025  # cpu_probe's time at the reference speed
REF_COLD_S = {1: 0.1, 2: 0.13}  # cold_probe's time at the reference speed, by procs
PROBE_REUSE_S = 1.0  # a probe older than this is not used as a sample's "before"
COMMANDS = tuple(
    (cmd, preset)
    for preset in ("desk", "paper_sw")
    for cmd in ("sense", "select-bands", "radar", "specx")
)
AXES = {"desk-snr": "snr", "desk-band": "band_placement"}

END_TO_END = {
    "setup_s": "s",
    "trials_per_s.w1": "trials/s",
    "trials_per_s.w2": "trials/s",
    "cli_s.p50": "s",
    "peak_rss_mb": "MB",
}
_SPAN_MS = (
    "mwc.xample", "sensing.build_frame", "sensing.somp", "sensing.omp_pks",
    "sensing.recover_slices", "bands.select_bands", "signals.gen_comm_slices",
    "signals.radar_slices", "signals.design_radar_waveform", "signals.radar_fourier_coeffs",
    "radar.partial_fourier", "radar.focused_omp", "radar.doppler_focus", "radar.make_kappa",
    "radar.focused_noise_var", "radar.glrt_threshold", "rng.derive_rng",
)
_SPAN_CALLS = ("mwc.gen_mixing_sequences", "mwc.build_sensing_matrix", "mwc.xample")
_LSTSQ_LAYERS = ("sensing", "bands", "radar")
# fixed per sweep point, so a per-point cache would take them out of the trial
_INVARIANT = (
    "radar.make_kappa", "radar.partial_fourier", "radar.focused_noise_var",
    "radar.glrt_threshold", "signals.design_radar_waveform",
)
PER_LAYER = {
    "pipeline.self_ms_per_trial": "ms",
    "pipeline.cpu_per_wall.w1": "cpu-s/s",
    "pipeline.cpu_ms_per_trial.w2": "ms",
    "pipeline.ctx_switches_per_trial.w2": "switches/trial",
    **{f"{s}.calls_per_trial": "calls/trial" for s in _SPAN_CALLS},
    **{f"{s}.ms_per_trial": "ms" for s in _SPAN_MS},
    **{f"{layer}.lstsq.calls_per_trial": "calls/trial" for layer in _LSTSQ_LAYERS},
    "sensing.somp.picks_mean": "picks",
    "sensing.omp_pks.picks_mean": "picks",
    "radar.invariant_calls_per_trial": "calls/trial",
    "radar.focused_omp.detections_mean": "detections",
    "freqs.FrequencySet.constructions_per_trial": "objects/trial",
    "report.emit_report.ms": "ms",
    "report.bytes_written": "bytes",
    "cli.import_s": "s",
    "cli.import.scipy_stats_s": "s",
    "cli.main_s": "s",
    "trace.overhead_ratio": "ratio",
}

# A cold CLI command: what `python -m specx <argv>` runs, with the child's own
# set-up (`import specx` plus `load_config`) timed on the way in.
CLI_CODE = """
import sys, time
t0 = time.perf_counter()
import specx
specx.load_config(sys.argv[1])
setup = time.perf_counter() - t0
import specx.cli
code = specx.cli.main(sys.argv[2:])
print(f"perfbench setup_s={setup!r}", file=sys.stderr)
sys.exit(code)
"""
IMPORT_CLI_CODE = """
import time
t0 = time.perf_counter()
import specx.cli
print(time.perf_counter() - t0)
"""


class Run:
    """Operations, checks and metrics of one benchmark run."""

    def __init__(self, args: argparse.Namespace, work: Path):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.round_trials = args.trials
        self.reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.notes: dict[str, object] = {}
        self.samples: dict[str, list] = {}  # timed samples as [trials, wall_s, ref_s]
        self._dirs = 0
        self._lock = threading.Lock()  # cli-cold's two clients share the counters
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def ops(self, n: int, failed: int = 0, why: str = "") -> None:
        with self._lock:
            self.attempted += n
            if failed:
                self.failed += failed
                self.failures.append(why)
                print(f"failed: {why}", file=sys.stderr)

    def check(self, name: str, problem: str | None) -> None:
        """Count one correctness check; problem is None when it passed."""
        self.ops(1, failed=1 if problem else 0, why=f"{name}: {problem}")

    def metric(self, name: str, value: float, n: int) -> None:
        unit = END_TO_END.get(name) or PER_LAYER[name]
        self.metrics[name] = {"value": float(value), "unit": unit, "n": n}

    def fresh_dir(self, label: str) -> Path:
        with self._lock:
            self._dirs += 1
            path = self.work / f"{self._dirs:05d}-{label}"
        path.mkdir()
        return path

    def python(self, *args: str) -> subprocess.CompletedProcess:
        """Run a fresh interpreter to completion in the work directory, with
        src/ on its path; a child that times out is killed and reaped."""
        argv = [sys.executable, *args]
        try:
            return subprocess.run(
                argv, cwd=self.work, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            return subprocess.CompletedProcess(argv, -1, "", f"timed out after {exc.timeout} s")


# ---------------------------------------------------------------------------
# environment


def _blas_threads() -> int | None:
    """Thread count from the BLAS library numpy loaded, via its own getter."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "start_method": multiprocessing.get_context().get_start_method(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SPECX_WORKERS")
            if k in os.environ
        },
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dont_write_bytecode": sys.dont_write_bytecode,
    }


# ---------------------------------------------------------------------------
# reference clock


def loop_probe() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for n in range(LOOP_ITERS):
            x += n * n % 7
        best = min(best, time.perf_counter() - t0)
    return best


def cpu_probe() -> float:
    """Wall seconds for two forked children to run loop_probe side by side,
    one per CPU of a 2-CPU machine."""
    t0 = time.perf_counter()
    pids = []
    for _ in range(PROBE_PROCS):
        pid = os.fork()
        if pid == 0:  # the child runs the loop and leaves without any cleanup
            try:
                loop_probe()
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - t0


def cold_probe(run: "Run", procs: int) -> float:
    """Wall seconds for procs fresh interpreters, started together, to import numpy."""
    t0 = time.perf_counter()
    children = []
    try:
        for _ in range(procs):
            children.append(subprocess.Popen(
                [sys.executable, "-c", "import numpy"], cwd=run.work, env=run.env,
                stdout=subprocess.DEVNULL,
            ))
        codes = [child.wait(timeout=CHILD_TIMEOUT_S) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"reference interpreter exited with {codes}")
    return time.perf_counter() - t0


@dataclass
class Timing:
    wall_s: float
    ref_s: float  # wall_s at the reference CPU speed
    cpu_s: float  # this process, all threads
    child_cpu_s: float  # children reaped during the sample
    child_ivcsw: int  # their involuntary context switches


class RefClock:
    """Times samples in reference seconds.

    On a 2-vCPU virtual machine with a shared host, speed drifted by up to
    1.7x over tens of seconds. So each sample's wall time is also scaled by
    ref_s over the probe's time, averaged over the probe run just before and
    just after the sample, while nothing else of the benchmark runs. The probe matches the sample's kind of work: cpu_probe
    for in-process sweeps, cold_probe for fresh interpreters. METRICS.md
    gives the spreads each probe removed. Reported times and rates use the
    scaled seconds; the records keep the wall seconds too.
    """

    def __init__(self, probe, ref_s: float):
        self._probe = probe
        self._ref_s = ref_s
        self._before = probe()
        self._at = time.perf_counter()

    def measure(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); return its result and a Timing."""
        if time.perf_counter() - self._at > PROBE_REUSE_S:
            self._before = self._probe()
        c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        p0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - p0
            c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            after = self._probe()
            self._at = time.perf_counter()
            scale = self._ref_s / ((self._before + after) / 2.0)
            self._before = after
        timing = Timing(
            wall, wall * scale, cpu,
            (c1.ru_utime + c1.ru_stime) - (c0.ru_utime + c0.ru_stime),
            c1.ru_nivcsw - c0.ru_nivcsw,
        )
        return out, timing


# ---------------------------------------------------------------------------
# shared measurements


def cold_cli(run: Run, argv: list[str], out: Path, clock: RefClock | None = None):
    """One CLI command in a fresh interpreter; returns (exit code, Timing, setup_s).

    Without a clock the command is not timed, and Timing and setup_s are
    None. setup_s is the child's own `import specx` plus `load_config`,
    scaled like the command's wall time.
    """
    argv_all = ["-c", CLI_CODE, PRESET, *argv, "--out", str(out)]
    if clock is None:
        proc, timing = run.python(*argv_all), None
    else:
        proc, timing = clock.measure(run.python, *argv_all)
    run.ops(1, failed=proc.returncode != 0,
            why=f"cold {' '.join(argv)}: exit {proc.returncode}: {proc.stderr[-300:]}")
    setup = None
    for line in proc.stderr.splitlines():
        if timing and line.startswith("perfbench setup_s="):
            setup = float(line.split("=", 1)[1]) * timing.ref_s / timing.wall_s
    return proc.returncode, timing, setup


def measure_cli_import(run: Run) -> None:
    """cli.import_s and cli.import.scipy_stats_s, each a median of fresh interpreters."""
    run.python("-c", IMPORT_CLI_CODE)  # untimed warm-up
    totals, stats = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = run.python("-c", IMPORT_CLI_CODE)
        run.ops(1, failed=proc.returncode != 0, why=f"import child: {proc.stderr[-300:]}")
        if proc.returncode == 0:
            totals.append(float(proc.stdout.split()[-1]))
        proc = run.python("-X", "importtime", "-c", "import specx.cli")
        run.ops(1, failed=proc.returncode != 0, why="importtime child")
        if proc.returncode == 0:
            stats.append(_import_cumulative_s(proc.stderr, "scipy.stats"))
    if totals:
        run.metric("cli.import_s", statistics.median(totals), len(totals))
    if stats:
        run.metric("cli.import.scipy_stats_s", statistics.median(stats), len(stats))


def _import_cumulative_s(importtime: str, package: str) -> float:
    """Cumulative import time of package from -X importtime output; 0 if never imported.

    A package imported lazily (scipy imports `stats` through importlib on
    first attribute access) gets no line of its own, so its time is the sum
    over its shallowest submodule lines.
    """
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2]
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    subs = [r for r in rows if r[1] == package or r[1].startswith(package + ".")]
    if not subs:
        return 0.0
    top = min(r[0] for r in subs)
    return sum(r[2] for r in subs if r[0] == top) / 1e6


def peak_rss(run: Run) -> None:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    run.metric("peak_rss_mb", kb / 1024.0, 1)


def cli_main(argv: list[str]) -> int:
    """specx.cli.main in this process, its summary printout discarded."""
    import specx.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return specx.cli.main(argv)


def reference_argv(key: str) -> list[str]:
    """CLI arguments of one reference run, at the preset's own seed."""
    cmd, _, rest = key.partition(":")
    if cmd == "sweep":
        return ["sweep", "--config", PRESET, "--axis", rest, "--trials", str(REF_TRIALS),
                "--workers", "1"]
    return [cmd, "--config", rest]


def reference_keys() -> list[str]:
    return [f"sweep:{axis}" for axis in AXES.values()] + [f"{c}:{p}" for c, p in COMMANDS]


def run_id_in(out_dir: Path) -> str:
    (trials,) = out_dir.glob("*-trials.json")
    return trials.name[: -len("-trials.json")]


def check_reference(run: Run, key: str, out_dir: Path) -> None:
    try:
        got = checks.outcomes(out_dir, run_id_in(out_dir))
    except (OSError, ValueError, KeyError) as exc:
        run.check(f"reference {key}", f"unreadable report: {exc!r}")
        return
    run.check(f"reference {key}", checks.mismatch(got, run.reference[key], key))


def record_reference(path: Path, work: Path) -> None:
    doc = {}
    for key in reference_keys():
        out = work / key.replace(":", "-")
        if cli_main(reference_argv(key) + ["--format", "json", "--out", str(out)]) != 0:
            raise SystemExit(f"reference run {key} failed")
        doc[key] = checks.outcomes(out, run_id_in(out))
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


# ---------------------------------------------------------------------------
# sweep workloads


def _round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


def _sweep_trials(cfg, axis: str) -> int:
    s = cfg.sweep
    points = len(s.snr_db) if axis == "snr" else len(s.band_layouts) * len(s.band_snr_db or s.snr_db)
    return points * s.n_trials


@dataclass
class SweepSample:
    trials: int
    timing: Timing
    section_s: float  # wall time of the sweep call plus writing its report


def _timed_sweep(run: Run, clock: RefClock, cfg, axis: str, workers: int, out_dir: Path,
                 tracer: Tracer | None = None):
    """One sweep, then its report files; (report, SweepSample), or None if it raised."""
    import specx.pipeline
    import specx.report

    with tracer.installed() if tracer else contextlib.nullcontext():
        try:
            rep, timing = clock.measure(specx.pipeline.sweep, cfg, axis, workers=workers)
        except Exception:  # a failed sweep is counted, and the run goes on
            n = _sweep_trials(cfg, axis)
            run.ops(n, failed=n, why=f"sweep {axis} workers={workers}: {traceback.format_exc()}")
            return None
        t0 = time.perf_counter()
        specx.report.emit_report(rep, out_dir)
        section = timing.wall_s + time.perf_counter() - t0
    run.ops(len(rep.trials))
    return rep, SweepSample(len(rep.trials), timing, section)


def _rate(samples: list[SweepSample]) -> float:
    return sum(s.trials for s in samples) / sum(s.timing.ref_s for s in samples)


def sweep_workload(run: Run) -> None:
    import specx

    axis = AXES[run.workload]
    order = checks.snr_ordering if axis == "snr" else checks.band_ordering
    base = specx.load_config(PRESET)
    # warm-up: first-call costs in numpy and specx stay out of the timed rounds
    specx.sweep(replace(base, sweep=replace(base.sweep, n_trials=1)), axis, workers=1)

    clock = RefClock(cpu_probe, REF_CPU_S)
    tracer = Tracer() if run.trace else None
    sides = ("w1", "traced", "w2") if run.trace else ("w1", "w2")
    samples: dict[str, list[SweepSample]] = {side: [] for side in sides}
    key = f"sweep:{axis}"
    cli_tries, cli_times, setups = 0, [], []

    def cli_sample() -> None:
        """The reference sweep as a cold CLI command: a cli_s.p50 and a setup_s
        sample, and a reference check."""
        nonlocal cli_tries
        cli_tries += 1
        out = run.fresh_dir("cli-sweep")
        code, timing, setup = cold_cli(run, reference_argv(key), out, cold_clock)
        if code == 0:
            cli_times.append(timing.ref_s)
            setups.append(setup)
            check_reference(run, key, out)

    if not run.trace:  # untimed: writes bytecode, warms the file cache
        cold_cli(run, reference_argv(key), run.fresh_dir("warm-up"))
        cold_clock = RefClock(lambda: cold_probe(run, 1), REF_COLD_S[1])
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or time.perf_counter() < start + run.seconds:
        cfg = replace(
            base, seed=_round_seed(run.seed, r),
            sweep=replace(base.sweep, n_trials=run.round_trials or ROUND_TRIALS[axis]),
        )
        reports, files = {}, {}
        for side in sides:
            out = run.fresh_dir(f"{side}-r{r}")
            got = _timed_sweep(
                run, clock, cfg, axis, 2 if side == "w2" else 1, out,
                tracer if side == "traced" else None,
            )
            if got is not None:
                reports[side], sample = got
                samples[side].append(sample)
                files[side] = checks.read_files(out)
            shutil.rmtree(out)
        if "w1" in files:
            run.check(f"ordering round {r}", order(reports["w1"]))
            for side in files.keys() - {"w1"}:
                run.check(f"{side} report equals w1 round {r}",
                          checks.same_files(files[side], files["w1"]))
        r += 1
        # cold CLI samples spread over the timed phase, so they see the same
        # machine as the sweeps
        due = CLI_SWEEP_SAMPLES * (time.perf_counter() - start) / run.seconds
        if not run.trace and cli_tries < min(due, CLI_SWEEP_SAMPLES):
            cli_sample()
    while not run.trace and cli_tries < CLI_SWEEP_SAMPLES:
        cli_sample()
    run.notes["rounds"] = r
    run.notes["trials_per_round"] = _sweep_trials(cfg, axis)
    for side, done in samples.items():
        run.samples[side] = [[s.trials, s.timing.wall_s, s.timing.ref_s] for s in done]
    for side, done in samples.items():
        if done:
            run.notes[f"wall_trials_per_s.{side}"] = sum(s.trials for s in done) / sum(
                s.timing.wall_s for s in done)

    if not run.trace:
        for side in ("w1", "w2"):
            if samples[side]:
                run.metric(f"trials_per_s.{side}", _rate(samples[side]), len(samples[side]))
        if cli_times:
            run.metric("cli_s.p50", statistics.median(cli_times), len(cli_times))
            run.metric("setup_s", statistics.median(setups), len(setups))
        return

    w1, w2, traced = samples["w1"], samples["w2"], samples["traced"]
    if w1:
        run.metric("pipeline.cpu_per_wall.w1",
                   sum(s.timing.cpu_s for s in w1) / sum(s.timing.wall_s for s in w1), len(w1))
    if w2:
        n2 = sum(s.trials for s in w2)
        run.metric("pipeline.cpu_ms_per_trial.w2",
                   1e3 * sum(s.timing.child_cpu_s for s in w2) / n2, len(w2))
        run.metric("pipeline.ctx_switches_per_trial.w2",
                   sum(s.timing.child_ivcsw for s in w2) / n2, len(w2))
    if traced and w1:
        layer_metrics(
            run, tracer, sum(s.trials for s in traced), sum(s.section_s for s in traced),
            _rate(w1) / _rate(traced) - 1.0, len(traced),
        )
    measure_cli_import(run)
    out = run.fresh_dir("cli-main")
    t0 = time.perf_counter()
    code = cli_main(reference_argv(key) + ["--out", str(out)])
    run.metric("cli.main_s", time.perf_counter() - t0, 1)
    run.ops(1, failed=code != 0, why=f"cli.main {key} exit {code}")
    check_reference(run, key, out)


# ---------------------------------------------------------------------------
# cli-cold workload


def _cold_argv(run: Run, cmd: str, preset: str) -> list[str]:
    return [cmd, "--config", preset, "--seed", str(run.seed)]


def cli_workload(run: Run) -> None:
    # in-process runs: the expected report files at this seed, and the
    # reference outcomes at each preset's own seed
    expected = {}
    for cmd, preset in COMMANDS:
        out = run.fresh_dir(f"expected-{cmd}-{preset}")
        code = cli_main(_cold_argv(run, cmd, preset) + ["--out", str(out)])
        run.ops(1, failed=code != 0, why=f"in-process {cmd} {preset} exit {code}")
        expected[(cmd, preset)] = checks.read_files(out)
        key = f"{cmd}:{preset}"
        ref_out = run.fresh_dir(f"reference-{cmd}-{preset}")
        code = cli_main(reference_argv(key) + ["--out", str(ref_out)])
        run.ops(1, failed=code != 0, why=f"reference {key} exit {code}")
        check_reference(run, key, ref_out)

    def command(clock: RefClock | None, i: int):
        """Command i % 8 cold, checked against the in-process files."""
        cmd, preset = COMMANDS[i % len(COMMANDS)]
        out = run.fresh_dir(f"cold-{cmd}-{preset}")
        # no clock inside a multi-client pass, which is timed as a whole
        code, timing, setup = cold_cli(run, _cold_argv(run, cmd, preset), out, clock)
        if code == 0:
            run.check(f"cold {cmd} {preset} files",
                      checks.same_files(checks.read_files(out), expected[(cmd, preset)]))
        shutil.rmtree(out)
        return code, timing, setup

    command(None, 0)  # untimed: writes bytecode, warms the file cache
    clock = RefClock(lambda: cold_probe(run, 1), REF_COLD_S[1])
    share = run.seconds / (3.0 if run.trace else 2.0)

    # one client: commands back to back, in whole passes over COMMANDS
    one: list[tuple[Timing, float]] = []
    passes = 0
    deadline = time.perf_counter() + share
    while passes == 0 or time.perf_counter() < deadline:
        passes += 1
        for i in range(len(COMMANDS)):
            code, timing, setup = command(clock, i)
            if code == 0:
                one.append((timing, setup))

    # two clients: each pass runs COMMANDS on a pool of two, timed as a whole
    two: list[Timing] = []
    clock2 = RefClock(lambda: cold_probe(run, 2), REF_COLD_S[2])
    deadline = time.perf_counter() + share
    with ThreadPoolExecutor(max_workers=2) as pool:
        while not two or time.perf_counter() < deadline:
            _, timing = clock2.measure(lambda: list(pool.map(lambda i: command(None, i),
                                                             range(len(COMMANDS)))))
            two.append(timing)
    n2 = len(two) * len(COMMANDS)
    run.samples["w1"] = [[1, t.wall_s, t.ref_s] for t, _ in one]
    run.samples["w2"] = [[len(COMMANDS), t.wall_s, t.ref_s] for t in two]

    if not run.trace:
        if one:
            run.metric("trials_per_s.w1", len(one) / sum(t.ref_s for t, _ in one), len(one))
            run.metric("cli_s.p50", statistics.median(t.ref_s for t, _ in one), len(one))
            run.metric("setup_s", statistics.median(s for _, s in one), len(one))
        run.metric("trials_per_s.w2", n2 / sum(t.ref_s for t in two), n2)
        run.notes["wall_cli_s.p50"] = statistics.median(t.wall_s for t, _ in one) if one else None
        return

    if one:
        run.metric("pipeline.cpu_per_wall.w1",
                   sum(t.child_cpu_s for t, _ in one) / sum(t.wall_s for t, _ in one), len(one))
    run.metric("pipeline.cpu_ms_per_trial.w2", 1e3 * sum(t.child_cpu_s for t in two) / n2, n2)
    run.metric("pipeline.ctx_switches_per_trial.w2", sum(t.child_ivcsw for t in two) / n2, n2)
    measure_cli_import(run)

    def in_process(tracer: Tracer | None = None) -> float:
        """One pass of in-process commands; returns its wall seconds."""
        wall = 0.0
        for cmd, preset in COMMANDS:
            out = run.fresh_dir(f"inproc-{cmd}-{preset}")
            argv = _cold_argv(run, cmd, preset) + ["--out", str(out)]
            t0 = time.perf_counter()
            code = tracer.span("cli.main", cli_main, argv) if tracer else cli_main(argv)
            wall += time.perf_counter() - t0
            run.ops(1, failed=code != 0, why=f"in-process {cmd} {preset} exit {code}")
            run.check(f"in-process {cmd} {preset} files",
                      checks.same_files(checks.read_files(out), expected[(cmd, preset)]))
            shutil.rmtree(out)
        return wall

    untraced = [in_process() for _ in range(INPROC_PASSES)]
    tracer = Tracer()
    with tracer.installed():
        traced = [in_process(tracer) for _ in range(INPROC_PASSES)]
    n = INPROC_PASSES * len(COMMANDS)
    run.metric("cli.main_s", sum(untraced) / n, n)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    layer_metrics(run, tracer, n, sum(traced), overhead, n)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass


def layer_metrics(run: Run, tracer: Tracer, n: int, wall: float, overhead: float, samples: int) -> None:
    """Per-layer metrics over n traced trials (sweep trials or CLI commands)."""
    totals = tracer.totals()

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def incl_ms(name: str) -> float:
        return 1e3 * totals.get(name, {}).get("incl_s", 0.0)

    def mean(values: list[int]) -> float:
        return statistics.fmean(values) if values else 0.0

    pipeline_self = sum(t["self_s"] for k, t in totals.items() if k.startswith("pipeline."))
    run.metric("pipeline.self_ms_per_trial", 1e3 * pipeline_self / n, samples)
    for name in _SPAN_CALLS:
        run.metric(f"{name}.calls_per_trial", calls(name) / n, samples)
    for name in _SPAN_MS:
        run.metric(f"{name}.ms_per_trial", incl_ms(name) / n, samples)
    for layer in _LSTSQ_LAYERS:
        run.metric(f"{layer}.lstsq.calls_per_trial", tracer.lstsq_calls.get(layer, 0) / n, samples)
    sizes = tracer.result_sizes
    run.metric("sensing.somp.picks_mean", mean(sizes["sensing.somp"]), len(sizes["sensing.somp"]))
    run.metric("sensing.omp_pks.picks_mean", mean(sizes["sensing.omp_pks"]), len(sizes["sensing.omp_pks"]))
    run.metric("radar.focused_omp.detections_mean", mean(sizes["radar.focused_omp"]),
               len(sizes["radar.focused_omp"]))
    run.metric("radar.invariant_calls_per_trial", sum(calls(s) for s in _INVARIANT) / n, samples)
    run.metric("freqs.FrequencySet.constructions_per_trial", tracer.freqset_constructions / n, samples)
    emits = calls("report.emit_report")
    run.metric("report.emit_report.ms", incl_ms("report.emit_report") / emits if emits else 0.0, emits)
    run.metric("report.bytes_written", mean(sizes["report.emit_report"]), emits)
    run.metric("trace.overhead_ratio", overhead, samples)

    top = tracer.top_level_s()
    run.notes["traced_wall_s"] = wall
    run.notes["traced_top_level_span_s"] = top
    run.notes["top_level_coverage"] = top / wall if wall else 0.0
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{run.workload}-seed{run.seed}-spans.json.gz"
    tracer.write(spans, {"workload": run.workload, "seed": run.seed, "trials": n})
    run.notes["spans_file"] = str(spans.relative_to(ROOT))


# ---------------------------------------------------------------------------
# entry point


WORKLOADS = {"desk-snr": sweep_workload, "desk-band": sweep_workload, "cli-cold": cli_workload}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed phases")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="trials per sweep point in one timed round (default: ROUND_TRIALS)")
    p.add_argument("--reference", default=str(REFERENCE), help="reference outcomes file")
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite the reference outcomes from the current source and exit")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_reference:
        p.error("--workload is required")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "specx" / "__init__.py").is_file():
        print(f"perfbench: no specx source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specx

    if Path(specx.__file__).resolve().parent != (SRC / "specx").resolve():
        print(f"perfbench: imported specx from {specx.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        if args.record_reference:
            record_reference(Path(args.reference), work)
            return 0
        run = Run(args, work)
        env = environment()
        WORKLOADS[args.workload](run)
        if not run.trace:
            peak_rss(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = PER_LAYER if run.trace else END_TO_END
    missing = sorted(set(wanted) - set(run.metrics))
    if missing:
        print(f"perfbench: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    failed_frac = run.failed / run.attempted
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in run.notes.items():
        print(f"note {key} = {value}")
    for name, m in run.metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    print(f"metric failed_frac = {failed_frac:.6g} ratio (n={run.attempted})")
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.trace),
        "env": env, "notes": run.notes, "metrics": run.metrics, "samples": run.samples,
        "attempted": run.attempted,
        "failed": run.failed, "failed_frac": failed_frac, "failures": run.failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8"
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": run.metrics[k]["value"], "unit": run.metrics[k]["unit"]} for k in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
