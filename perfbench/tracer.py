"""Span tracing around calls into ambo's layers, installed from outside.

Each traced function is replaced by a wrapper that records a span
(name, parent span, start, end) in memory.  The wrapper is bound
wherever the original was: on its defining module, on every ``ambo``
module that imported it with ``from ... import``, and for methods on
the class.  Nothing in ``src/ambo`` changes.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time

# (layer name, owner module, attribute); "Class.method" wraps on the class.
FUNCTIONS = (
    ("kernel.scale_kernel", "ambo.kernel", "scale_kernel"),
    ("kernel.scale_kernel_gradient", "ambo.kernel", "scale_kernel_gradient"),
    ("kernel.convolve", "ambo.kernel", "SampledKernel.convolve"),
    ("fft", "numpy.fft", "rfftn"),
    ("fft", "numpy.fft", "irfftn"),
    ("fft", "scipy.fft", "rfftn"),
    ("fft", "scipy.fft", "irfftn"),
    ("scheme.step", "ambo.scheme", "step"),
    ("scheme.comparison_field", "ambo.scheme", "comparison_field"),
    ("scheme.measure_contact_angle", "ambo.scheme", "measure_contact_angle"),
    ("energy.approx_energy", "ambo.energy", "approx_energy"),
    ("energy.indicator_defect", "ambo.energy", "indicator_defect"),
    ("energy.interface_cell_count", "ambo.energy", "PhaseField.interface_cell_count"),
    ("energy.shift_weighted_sum", "ambo.energy", "shift_weighted_sum"),
    ("energy.monotonicity_check", "ambo.energy", "monotonicity_check"),
    ("energy.inequality_suite", "ambo.energy", "inequality_suite"),
    ("energy.sharp_energy", "ambo.energy", "sharp_energy"),
    ("tensions.laplace_solve", "ambo.tensions", "laplace_solve"),
    ("harness.prepare", "ambo.harness", "prepare"),
    ("io.write", "ambo.io", "write_field"),
    ("io.write", "ambo.io", "write_pgm"),
    ("io.write", "ambo.io", "write_csv"),
    ("io.write", "ambo.io", "write_summary"),
)

# Per-layer metric -> (unit, better).  BENCHMARK.json lists the same names.
METRICS = {
    "kernel.scale_kernel.calls": ("count", "lower"),
    "kernel.scale_kernel.s": ("s", "lower"),
    "kernel.scale_kernel.distinct_frac": ("ratio", "higher"),
    "kernel.scale_kernel_gradient.s": ("s", "lower"),
    "kernel.convolve.calls": ("count", "lower"),
    "kernel.convolve.ms": ("ms", "lower"),
    "fft.calls": ("count", "lower"),
    "fft.s": ("s", "lower"),
    "scheme.step.calls": ("count", "lower"),
    "scheme.step.ms": ("ms", "lower"),
    "scheme.step.self_ms": ("ms", "lower"),
    "scheme.comparison_field.ms": ("ms", "lower"),
    "scheme.measure_contact_angle.s": ("s", "lower"),
    "energy.approx_energy.calls": ("count", "lower"),
    "energy.approx_energy.ms": ("ms", "lower"),
    "energy.indicator_defect.ms": ("ms", "lower"),
    "energy.interface_cell_count.ms": ("ms", "lower"),
    "energy.shift_weighted_sum.calls": ("count", "lower"),
    "energy.shift_weighted_sum.s": ("s", "lower"),
    "energy.monotonicity_check.s": ("s", "lower"),
    "energy.inequality_suite.s": ("s", "lower"),
    "energy.sharp_energy.s": ("s", "lower"),
    "tensions.laplace_solve.calls": ("count", "lower"),
    "tensions.laplace_solve.s": ("s", "lower"),
    "harness.prepare.s": ("s", "lower"),
    "io.write.s": ("s", "lower"),
    "io.bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory span recorder; spans are [name, parent, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.kernel_keys: set = set()
        self.bytes_written = 0

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid][2] = start
                spans[sid][3] = end
            if after is not None:
                # Arguments in signature order, however the caller passed them.
                after(list(signature.bind(*args, **kwargs).arguments.values()))
            return result

        return traced

    def _after_scale_kernel(self, args) -> None:
        kernel, grid, h = args[:3]
        self.kernel_keys.add((repr(kernel), repr(grid), float(h)))

    def _after_write(self, args) -> None:
        self.bytes_written += os.stat(args[0]).st_size

    def install(self) -> list:
        """Replace every traced callable wherever ambo can reach it.

        Returns the targets that no longer exist; their metrics read 0.
        """
        hooks = {
            "kernel.scale_kernel": self._after_scale_kernel,
            "io.write": self._after_write,
        }
        missing = []
        for name, owner_name, path in FUNCTIONS:
            owner = importlib.import_module(owner_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{owner_name}.{path}")
                continue
            wrapped = self.wrap(name, original, hooks.get(name))
            setattr(owner, attr, wrapped)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ambo" or mod_name.startswith("ambo.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return missing

    def layer_metrics(self) -> dict:
        """Per-layer metrics; a layer that never ran reports zeros."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list] = {}
        selfs: dict[str, list] = {}
        for sid, (name, _, start, end) in enumerate(self.spans):
            durations.setdefault(name, []).append(end - start)
            selfs.setdefault(name, []).append(end - start - child_time[sid])
        out = {}
        for metric in METRICS:
            layer, stat = metric.rsplit(".", 1)
            dur = durations.get(layer, [])
            own = selfs.get(layer, [])
            if stat == "calls":
                value = len(dur)
            elif stat == "s":
                value = sum(own)
            elif stat == "ms":
                value = 1e3 * statistics.median(dur) if dur else 0.0
            elif stat == "self_ms":
                value = 1e3 * statistics.median(own) if own else 0.0
            elif stat == "distinct_frac":
                value = len(self.kernel_keys) / len(dur) if dur else 0.0
            else:  # io.bytes and trace.overhead_s are filled in by the caller
                continue
            out[metric] = value
        out["io.bytes"] = self.bytes_written
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as dst:
            dst.write("id,parent,name,start_s,end_s\n")
            for sid, (name, parent, start, end) in enumerate(self.spans):
                dst.write(f"{sid},{parent},{name},{start!r},{end!r}\n")
