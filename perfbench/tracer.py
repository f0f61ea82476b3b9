"""Span recorder that times specx's layers from outside the package.

Inside Tracer.installed(), each public function in LAYERS is replaced by a
timing wrapper, on its defining module and on every specx module that
imported the name (pipeline looks up `somp` in its own namespace,
sense_spectrum looks up `build_frame` in specx.sensing). It also wraps
numpy.linalg.lstsq, counting each call against the innermost enclosing specx
span, and counts FrequencySet constructions. Leaving the block puts every
original back.

Spans are (name, start_ns, end_ns, parent index) tuples kept in memory;
write() saves them when the run ends. A span's self time is its duration minus the
part its child spans cover. Spans recorded in forked sweep workers are lost,
so only serial runs are traced.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# layer -> public functions timed as spans. Beyond the kernels and stages the
# benchmark reports, this covers every other function the pipeline calls in
# another layer, so that a pipeline span's self time is pipeline code only.
LAYERS = {
    "pipeline": ("sweep", "run_sense", "run_select_bands", "run_radar", "run_specx"),
    "mwc": ("gen_mixing_sequences", "build_sensing_matrix", "xample"),
    "sensing": (
        "build_frame", "somp", "omp_pks", "recover_slices", "sense_spectrum",
        "radar_slice_support", "support_to_freqs",
    ),
    "bands": ("select_bands",),
    "signals": (
        "gen_comm_slices", "radar_slices", "design_radar_waveform", "radar_fourier_coeffs",
    ),
    "radar": (
        "make_kappa", "partial_fourier", "doppler_focus", "focused_noise_var",
        "glrt_threshold", "focused_omp", "hit_or_miss",
    ),
    "rng": ("derive_rng",),
    "report": ("emit_report",),
}

# sizes the benchmark reports from a call's result: greedy picks beyond the
# known support, detections, report bytes
_RESULT_SIZE = {
    "sensing.somp": lambda args, kwargs, out: len(out),
    "sensing.omp_pks": lambda args, kwargs, out: len(out) - len(
        args[2] if len(args) > 2 else kwargs["s_r"]
    ),
    "radar.focused_omp": lambda args, kwargs, out: len(out),
    "report.emit_report": lambda args, kwargs, out: sum(p.stat().st_size for p in out),
}

ROOT = -1


class Tracer:
    """In-memory span recorder with call counters; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int]] = []
        self._stack: list[int] = []
        self.lstsq_calls: dict[str, int] = defaultdict(int)
        self.result_sizes: dict[str, list[int]] = defaultdict(list)
        self.freqset_constructions = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else ROOT
        self.spans.append((self._name(name), 0, 0, parent))
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self.spans[idx][0], start, end, parent)
        size = _RESULT_SIZE.get(name)
        if size is not None:
            self.result_sizes[name].append(size(args, kwargs, out))
        return out

    def _enclosing_layer(self) -> str:
        if not self._stack:
            return "none"
        return self.names[self.spans[self._stack[-1]][0]].split(".", 1)[0]

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every function in LAYERS, lstsq and FrequencySet.__init__."""
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "specx" or n.startswith("specx.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"specx.{layer}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrapper(f"{layer}.{func}", original)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        self._patch(mod, func, wrapper)

        lstsq = np.linalg.lstsq

        def counted_lstsq(*args, **kwargs):
            self.lstsq_calls[self._enclosing_layer()] += 1
            return lstsq(*args, **kwargs)

        self._patch(np.linalg, "lstsq", counted_lstsq)

        freqset = sys.modules["specx.freqs"].FrequencySet
        init = freqset.__init__

        def counted_init(obj, *args, **kwargs):
            self.freqset_constructions += 1
            init(obj, *args, **kwargs)

        self._patch(freqset, "__init__", counted_init)

    def _wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- analysis ----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent != ROOT:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(self.names[name], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["incl_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def top_level_s(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent == ROOT) / 1e9

    def write(self, path, meta: dict) -> None:
        """Save every span as gzipped JSON: names plus [name, start, end, parent] rows."""
        doc = {"meta": meta, "names": self.names, "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
