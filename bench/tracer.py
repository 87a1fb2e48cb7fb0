"""Outside-in tracer for the gnlab benchmark.

The tracer replaces selected public functions of the gnlab modules, and
numpy's n-dimensional FFTs, with wrappers that record one span per call: name,
start, end and the id of the enclosing span.  A function is replaced under
every name that refers to it in every loaded gnlab module, so calls through
`from .spectral import symbol_values` are traced as well as calls through
the defining module.  Spans stay in memory until `write` at the end of a run.

Only the traced benchmark run imports this module.  The library itself is
not changed: in-program counters are a separate concern.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

# (span name, module, attribute).  Several attributes may share a span name.
# The real transforms are listed although the library does not use them yet,
# so that a switch to them stays counted.  A target the library no longer
# has is skipped and reads as zero calls.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("spectral.fft", "numpy.fft", "fftn"),
    ("spectral.fft", "numpy.fft", "ifftn"),
    ("spectral.fft", "numpy.fft", "rfftn"),
    ("spectral.fft", "numpy.fft", "irfftn"),
    ("spectral.transform", "gnlab.spectral", "transform"),
    ("spectral.shell_multiplier", "gnlab.spectral", "shell_multiplier"),
    ("spectral.symbol_values", "gnlab.spectral", "symbol_values"),
    ("norms.besov_norm", "gnlab.norms", "besov_norm"),
    ("norms.triebel_norm", "gnlab.norms", "triebel_norm"),
    ("norms.sobolev_norm", "gnlab.norms", "sobolev_norm"),
    ("norms.lp_norm", "gnlab.norms", "lp_norm"),
    ("testfuncs.random_band_limited", "gnlab.testfuncs", "random_band_limited"),
    ("testfuncs.build_family", "gnlab.testfuncs", "build_family"),
    ("testfuncs.positive_random_field", "gnlab.testfuncs", "positive_random_field"),
    ("harness.gn_ratio", "gnlab.harness", "gn_ratio"),
    ("harness.growth_experiment", "gnlab.harness", "growth_experiment"),
    ("checker", "gnlab.checker", "auto_check"),
    ("checker", "gnlab.checker", "check_by_rule"),
    ("variational.energy", "gnlab.variational", "energy"),
    ("variational.energy_gradient", "gnlab.variational", "energy_gradient"),
    ("variational.project_spheres", "gnlab.variational", "project_spheres"),
    ("variational.schwarz_rearrange", "gnlab.variational", "schwarz_rearrange"),
    ("variational.minimize", "gnlab.variational", "minimize"),
    ("variational.estimate_cstar", "gnlab.variational", "estimate_cstar"),
    ("variational.scaling_profile", "gnlab.variational", "scaling_profile"),
    ("cli.main", "gnlab.cli", "main"),
)

# Spans whose argument tuple is recorded, for the distinct-key fraction.
KEYED = ("spectral.shell_multiplier", "spectral.symbol_values")
FFT = "spectral.fft"
MINIMIZE = "variational.minimize"

# Every per-layer metric, in output order, with its unit.
_TIMED = list(dict.fromkeys(t[0] for t in TARGETS))
PER_LAYER_UNITS: Dict[str, str] = {}
for _name in _TIMED:
    PER_LAYER_UNITS[f"{_name}.calls"] = "count"
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s"
PER_LAYER_UNITS[f"{FFT}.bytes_computed"] = "bytes"
for _name in KEYED:
    PER_LAYER_UNITS[f"{_name}.distinct_frac"] = "frac"
PER_LAYER_UNITS.update({
    "harness.gn_ratio.p50_ms": "ms",
    "harness.gn_ratio.tail_ms": "ms",
    "harness.gn_ratio.tail_pct": "%",
    "harness.gn_ratio.samples": "count",
    "variational.minimize.ffts_per_iter": "count",
    "variational.minimize.energy_evals_per_iter": "count",
    "trace.overhead_frac": "frac",
    "error_rate": "frac",
})

# Counts that must repeat exactly from pass to pass of one run.
EXACT = tuple(
    k for k in PER_LAYER_UNITS
    if k.endswith((".calls", ".bytes_computed", ".distinct_frac", "_per_iter"))
)


class Tracer:
    """Span recorder.  `install` swaps the wrappers in, `uninstall` restores."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent id]
        self.extra: Dict[int, object] = {}  # span id -> FFT bytes, key or iterations
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, self.extra
        clock = time.perf_counter
        sig = inspect.signature(fn) if name in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == FFT:
                extra[sid] = np.asarray(args[0]).nbytes + out.nbytes
            elif sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra[sid] = tuple(bound.arguments.values())
            elif name == MINIMIZE:
                extra[sid] = out.iterations
            return out

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        gnlab_modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "gnlab" or k.startswith("gnlab."))
        ]
        for name, modname, attr in TARGETS:
            home = importlib.import_module(modname)
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig)
            for mod in {id(m): m for m in [home, *gnlab_modules]}.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()

    def mark(self) -> int:
        """Span index at a pass boundary (no span may be open)."""
        if self._stack:
            raise RuntimeError("pass boundary inside an open span")
        return len(self.spans)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def pass_stats(tracer: Tracer, lo: int, hi: int) -> Dict[str, float]:
    """Per-layer counts and self times of the spans in [lo, hi)."""
    spans, extra = tracer.spans, tracer.extra
    calls: Counter = Counter()
    total: Dict[str, float] = defaultdict(float)
    child: Dict[int, float] = defaultdict(float)
    for i in range(lo, hi):
        name, t0, t1, parent = spans[i]
        calls[name] += 1
        if parent >= 0:
            child[parent] += t1 - t0
    under_min = {}
    fft_bytes = 0
    keys: Dict[str, set] = defaultdict(set)
    min_ffts = min_energy = iters = 0
    for i in range(lo, hi):
        name, t0, t1, parent = spans[i]
        total[name] += (t1 - t0) - child.get(i, 0.0)
        inside = parent >= 0 and (spans[parent][0] == MINIMIZE or under_min.get(parent, False))
        under_min[i] = inside
        if name == FFT:
            fft_bytes += extra[i]
            min_ffts += inside
        elif name in KEYED:
            keys[name].add(extra[i])
        elif name == MINIMIZE:
            iters += extra.get(i, 0)  # a minimize that raised has no count
        elif name == "variational.energy":
            min_energy += inside
    out: Dict[str, float] = {}
    for name in _TIMED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = total[name]
    out[f"{FFT}.bytes_computed"] = fft_bytes
    for name in KEYED:
        out[f"{name}.distinct_frac"] = len(keys[name]) / calls[name] if calls[name] else 0.0
    out["variational.minimize.ffts_per_iter"] = min_ffts / iters if iters else 0.0
    out["variational.minimize.energy_evals_per_iter"] = min_energy / iters if iters else 0.0
    return out


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): p90 when at least ten samples lie above it,
    otherwise the highest percentile on a 5-point step that has ten above
    it (p50 when there are fewer than twenty samples)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    pct = 90
    while pct > 50 and n - math.ceil(n * pct / 100) < 10:
        pct -= 5
    return float(pct), _percentile(xs, pct)


def _percentile(xs: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    rank = max(1, math.ceil(len(xs) * pct / 100))
    return xs[rank - 1]


def durations(tracer: Tracer, name: str, lo: int, hi: int) -> List[float]:
    return [s[2] - s[1] for s in tracer.spans[lo:hi] if s[0] == name]
