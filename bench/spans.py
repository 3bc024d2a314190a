"""Span tracing of mhd2tor from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers.  Several
modules bind ``ifft_samples``/``fft_coeffs`` (and the driver binds the
checkpoint and initial-data functions) when they are imported, so each
module's own binding is wrapped, not only the defining one.  Spans are kept
in memory as ``[name, start, end, parent, nbytes, transforms]`` and written
out once at the end; a layer's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import time

# (module, attribute, span name).  A missing attribute stops the traced run:
# after a refactor this list must follow the code, or the layers it drops
# would read 0.
TARGETS = [
    ("stepping", "step_ifrk4", "step"),
    ("stepping", "cfl_dt", "cfl"),
    ("stepping", "_rhs_arrays", "rhs"),
    ("stepping", "_rhs_total_arrays", "rhs"),
    ("stepping", "symmetry_defect", "defect"),
    ("diagnostics", "symmetry_defect", "defect"),
    ("diagnostics", "instantaneous", "instantaneous"),
    ("driver", "write_checkpoint", "ckpt_write"),
    ("driver", "read_checkpoint", "ckpt_read"),
    ("driver", "make_initial_data", "initial_data"),
] + [
    (mod, fn, "fft")
    for mod, fns in (
        ("spectral", ("fft_coeffs", "ifft_samples")),
        ("stepping", ("ifft_samples",)),
        ("dynamics", ("fft_coeffs", "ifft_samples")),
        ("symmetry", ("ifft_samples",)),
        ("checkpoint", ("fft_coeffs", "ifft_samples")),
    )
    for fn in fns
]

# Units of the per-layer metrics that are not times in seconds.
UNITS = {
    "stepping.steps": "count", "stepping.cfl_calls": "count",
    "stepping.heat_misses": "count", "stepping.step_ms_p50": "ms",
    "dynamics.rhs_calls": "count", "spectral.transforms": "count",
    "spectral.transforms_per_step": "count", "spectral.fft_mb_computed": "MiB",
    "symmetry.defect_calls": "count", "diagnostics.instantaneous_calls": "count",
    "checkpoint.writes": "count", "checkpoint.write_mb": "MiB",
    "checkpoint.reads": "count", "checkpoint.read_mb": "MiB",
    "driver.csv_rows": "count",
}

NAME, START, END, PARENT, NBYTES, TRANSFORMS = range(6)
FIELDS = ["name", "start", "end", "parent", "nbytes", "transforms"]


def _fft_sizes(args, out):
    """(bytes in + bytes out, number of n x n transforms) of one FFT call."""
    arr = args[1]
    return arr.nbytes + out.nbytes, arr.size // (arr.shape[-1] * arr.shape[-2])


_SIZES = {
    "fft": _fft_sizes,
    "ckpt_write": lambda args, out: (os.path.getsize(args[1]), 0),
    "ckpt_read": lambda args, out: (os.path.getsize(args[0]), 0),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        sizes = _SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if sizes is not None:
                rec[NBYTES], rec[TRANSFORMS] = sizes(args, out)
            return out

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every target attribute of ``modules`` (name -> module)."""
        for mod_name, attr, span_name in TARGETS:
            fn = getattr(modules[mod_name], attr)
            setattr(modules[mod_name], attr, self._wrap(fn, span_name))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)

    def layer_metrics(self, heat_misses: int, csv_rows: int) -> dict:
        """Per-layer metrics of every span recorded so far."""
        spans = self.spans
        dur = [r[END] - r[START] for r in spans]
        child = [0.0] * len(spans)
        for i, r in enumerate(spans):
            if r[PARENT] >= 0:
                child[r[PARENT]] += dur[i]
        by_name: dict[str, list[int]] = {}
        for i, r in enumerate(spans):
            by_name.setdefault(r[NAME], []).append(i)

        def of(name):
            return by_name.get(name, [])

        def total(name):
            return sum(dur[i] for i in of(name))

        def self_time(name):
            return sum(dur[i] - child[i] for i in of(name))

        def mb(name):
            return sum(spans[i][NBYTES] for i in of(name)) / 2**20

        def while_stepping(i):
            p = spans[i][PARENT]
            while p >= 0:
                if spans[p][NAME] in ("step", "cfl"):
                    return True
                p = spans[p][PARENT]
            return False

        steps = len(of("step"))
        step_transforms = sum(spans[i][TRANSFORMS] for i in of("fft") if while_stepping(i))
        return {
            "stepping.steps": steps,
            "stepping.step_s": total("step"),
            "stepping.step_self_s": self_time("step"),
            "stepping.step_ms_p50": (
                1e3 * statistics.median(dur[i] for i in of("step")) if steps else 0.0
            ),
            "stepping.cfl_calls": len(of("cfl")),
            "stepping.cfl_s": total("cfl"),
            "stepping.heat_misses": heat_misses,
            "dynamics.rhs_calls": len(of("rhs")),
            "dynamics.rhs_s": total("rhs"),
            "dynamics.rhs_self_s": self_time("rhs"),
            "spectral.transforms": sum(spans[i][TRANSFORMS] for i in of("fft")),
            "spectral.transforms_per_step": step_transforms / steps if steps else 0.0,
            "spectral.fft_s": total("fft"),
            "spectral.fft_mb_computed": mb("fft"),
            "symmetry.defect_calls": len(of("defect")),
            "symmetry.defect_s": total("defect"),
            "symmetry.initial_data_s": total("initial_data"),
            "diagnostics.instantaneous_calls": len(of("instantaneous")),
            "diagnostics.instantaneous_s": total("instantaneous"),
            "diagnostics.instantaneous_self_s": self_time("instantaneous"),
            "checkpoint.writes": len(of("ckpt_write")),
            "checkpoint.write_s": total("ckpt_write"),
            "checkpoint.write_mb": mb("ckpt_write"),
            "checkpoint.reads": len(of("ckpt_read")),
            "checkpoint.read_s": total("ckpt_read"),
            "checkpoint.read_mb": mb("ckpt_read"),
            "driver.self_s": self_time("op"),
            "driver.csv_rows": csv_rows,
        }
