"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package: each public function named in
``TRACED`` is replaced, in its defining module and in every ``biflow`` module
that imported it by name, with a wrapper that records a span (name, start,
end, parent, run id).  The ``numpy.fft`` entry points are wrapped to count
transforms, credited to the layer of the innermost open span.  Spans are kept
in memory; ``write`` dumps them once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

TRACED = {
    "kernel": ("certify_bound", "gradient_magnitude", "kernel_mass"),
    "manifold": ("dpi", "project", "rho"),
    "fields": ("gradient", "hessian", "laplacian", "ball_convolve"),
    "norms": ("x_norm", "y1_norm", "y2_norm", "bmo_seminorm", "carleson_functional"),
    "semigroup": ("apply_G", "apply_G_trajectory", "apply_S_trajectory",
                  "apply_S_div_trajectory", "operator_bound_experiment"),
    "flow": ("picard_solve", "constraint_diagnostics"),
    "harness": ("run_suite",),
}

# Layers whose transform counts are reported; a transform called outside any
# traced span is credited to "untraced".
FFT_LAYERS = ("fields", "semigroup", "norms", "flow")
FFT_FORWARD = ("fft", "fftn", "fft2", "rfft", "rfftn", "rfft2", "hfft")
FFT_INVERSE = ("ifft", "ifftn", "ifft2", "irfft", "irfftn", "irfft2", "ihfft")


def _lattice_points(target, y, *args, **kwargs):
    y = np.asarray(y)
    return y.size // y.shape[-1]


def _profile_points(profile, xi, *args, **kwargs):
    return np.size(xi) // profile.dim


# Work counted per call, as points evaluated.
POINTS = {"manifold.dpi": _lattice_points, "kernel.gradient_magnitude": _profile_points}


class Tracer:
    """Records spans and transform counts while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.points: Counter = Counter()
        self.fft: Counter = Counter()
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one task."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                           self.run_id])
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap_span(self, name: str, fn):
        points = POINTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if points is not None:
                self.points[name] += points(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _wrap_fft(self, direction: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            layer = self.spans[self.stack[-1]][0].split(".")[0] if self.stack else "untraced"
            self.fft[f"{layer}.{direction}"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a biflow module holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "biflow" or n.startswith("biflow."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"biflow.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap_span(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        for direction, names in (("fft_forward", FFT_FORWARD), ("fft_inverse", FFT_INVERSE)):
            for fname in names:
                self._patch(np.fft, fname, self._wrap_fft(direction, getattr(np.fft, fname)))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name; self = duration - children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def layer_metrics(self) -> dict:
        """Per-layer metric values (without units) for every traced name."""
        calls, self_s = self.self_times()
        out = {}
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = self_s[name]
        for name in POINTS:
            out[f"{name}.points"] = self.points[name]
        for layer in FFT_LAYERS:
            for direction in ("fft_forward", "fft_inverse"):
                out[f"{layer}.{direction}.calls"] = self.fft[f"{layer}.{direction}"]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        payload = {"fields": ["name", "start", "end", "parent", "run_id"],
                   "spans": self.spans}
        path.write_text(json.dumps(payload))
