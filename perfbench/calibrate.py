"""Calibrated timing for the udaselect benchmark on a shared, drifting host.

The host this benchmark was tuned on gives it two vCPUs of a shared
machine whose speed drifts by 15-35% over seconds: identical 100-step
trainings take anywhere from 0.18 to 0.35 s, and neighbouring ones are
alike (lag-one correlation 0.75).  Raw wall times of runs made minutes
apart therefore spread more than any useful bound.

A ``Calibrator`` measures the machine's current speed with a fixed
reference loop (``reference``: a forward and backward pass of a tiny
MLP with small numpy arrays held in Python objects, the same
dispatch-bound profile as the package's training step).  It runs that
loop as a probe between slices of the operation: at the start and end
of every timed segment and, while the segment runs with the hooks
installed, at the first call of a hooked function after each
``PROBE_EVERY_S`` of work.  The hooks (``HOOKS``) are functions the
package calls per training step, per feature file and batch, and per
scored and decided row, wrapped on their modules as the span tracer
does; a wrapper costs about 0.2 us a call, under 1% of each workload.
Probe time is excluded from the segment's time, and the segment is
reported in reference seconds:

    calibrated = seconds * REF_S / mean(probe times in the segment)

that is, the time the operation would take on a machine where one probe
takes ``REF_S``.  The reference loop never calls into ``udaselect``, so
a change to the package moves the calibrated time as it moves the raw
time at a fixed machine speed.

The mean, not the median, because the operation's own time is the
integral of the machine's slowness over the segment.  On the tuning
host this left 6-s stretches of 50-step trainings spreading 5%
(inter-quartile range over median) where the raw times spread 16%, and
it tracked better than a pure-numpy or a pure-Python loop.

Import time is bound by loading files and shared libraries, which the
reference loop does not track.  ``import_seconds`` scales it instead by
a fresh interpreter's time to import udaselect's dependencies
(``IMPORT_REFERENCE``), measured right before; on the tuning host that
cut the spread of 9-import medians from 10% to 7% and their range from
27% to 10%.
"""

from __future__ import annotations

import importlib
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: typical time of one probe on the tuning host (2 vCPU Xeon at 2.0 GHz,
#: OpenBLAS on one thread); calibrated seconds are seconds at that speed
REF_S = 0.010
REF_ITERATIONS = 200
#: work between two probes inside a segment
PROBE_EVERY_S = 0.1

#: the third-party and standard modules udaselect imports, not udaselect
IMPORT_REFERENCE = "import argparse, dataclasses, json, math, pathlib, typing, warnings, numpy"
#: typical time of ``IMPORT_REFERENCE`` in a fresh interpreter on the tuning host
IMPORT_REF_S = 0.12
_TIMED_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); {}; print(time.perf_counter() - t)")

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 8))
_W1 = _rng.standard_normal((8, 32))
_W2 = _rng.standard_normal((32, 10))
_ROWS = np.arange(64)


class _Value:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value, self.parents = value, parents


def reference(iterations: int = REF_ITERATIONS) -> float:
    """A fixed forward/backward loop of a 8-32-10 MLP on a 64-row batch."""
    acc = 0.0
    for i in range(iterations):
        x, w = _Value(_X), _Value(_W1)
        h = _Value(np.tanh(x.value @ w.value), (x, w))
        z = _Value(h.value @ _W2, (h,))
        e = np.exp(z.value - z.value.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        g[_ROWS, i % 10] -= 1.0
        grad_w = x.value.T @ ((g @ _W2.T) * (1.0 - h.value ** 2))
        tape = {"w": grad_w, "h": h, "z": z}
        acc += float(grad_w[0, 0]) + len(tape)
    return acc


def _timed_import(statement: str, path: str) -> float:
    done = subprocess.run([sys.executable, "-c", _TIMED_IMPORT.format(statement), path],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def import_seconds(module: str, path: str) -> float:
    """Time to import ``module`` from ``path`` in a fresh interpreter, in
    reference seconds: scaled by the reference import run just before."""
    ref = _timed_import(IMPORT_REFERENCE, path)
    return _timed_import(f"import {module}", path) * IMPORT_REF_S / ref


@dataclass
class Segment:
    """One timed segment: raw seconds without probes, and its speed factor."""

    seconds: float = 0.0
    factor: float = 1.0
    probes: int = 0

    @property
    def calibrated(self) -> float:
        return self.seconds * self.factor


class Calibrator:
    """Interleaves reference probes with the operation and times both apart."""

    #: (module, function) pairs after whose calls a probe may run
    HOOKS = (("udaselect.trainer", "sample_batch"),
             ("udaselect.data", "load_features"),
             ("udaselect.scoring", "score_batch"),
             ("udaselect.scoring", "score_for_scheme"),
             ("udaselect.evaluation", "decide"))

    def __init__(self):
        self.probe_times: list[float] = []
        self.paused = 0.0
        self.last_probe = 0.0
        self.inside = 0

    def clock(self) -> float:
        """``perf_counter`` that stands still while a probe runs."""
        return perf_counter() - self.paused

    def probe(self) -> None:
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.probe_times.append(t1 - t0)
        self.paused += t1 - t0
        self.last_probe = t1

    def _wrap(self, fn):
        def wrapper(*args, **kwargs):
            if self.inside and perf_counter() - self.last_probe >= PROBE_EVERY_S:
                self.probe()
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the probe points on their modules; restore them on exit."""
        patched = []
        try:
            for mod_name, attr in self.HOOKS:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                patched.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    @contextmanager
    def segment(self):
        """Time the block; probes at both ends and, where hooked, inside it."""
        seg = Segment()
        first = len(self.probe_times)
        self.probe()
        self.inside += 1
        start = self.clock()
        try:
            yield seg
        finally:
            seg.seconds = self.clock() - start
            self.inside -= 1
            self.probe()
            times = self.probe_times[first:]
            seg.probes = len(times)
            seg.factor = REF_S / statistics.fmean(times)
