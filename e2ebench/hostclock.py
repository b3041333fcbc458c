"""A matcher clock normalised to a reference host speed.

On a shared virtual machine the same code runs in fast and slow phases up
to 1.8x apart, each lasting from a few seconds to many minutes (neighbours
on the host compete for cores, caches and memory bandwidth).  No amount of
repetition inside one run averages a phase away, so the benchmark measures
host speed next to the program instead: a fixed calibration kernel, which
uses no code of the package under test, is timed at the start of every run
and every simulated day, and :class:`HostClock` scales the elapsed
``perf_counter`` seconds by ``REFERENCE_S / kernel seconds``.  Times read
from it are seconds on a host where the kernel takes :data:`REFERENCE_S`.

A change to the program moves the clock's readings exactly as it moves
wall time; a change of host phase moves the kernel as well and largely
cancels (on long-horizon, per-day matcher seconds and the kernel seconds
around the day correlate at 0.78 in log space across phases).
The kernel mixes the three kinds of work an episode does: interpreter work
on small objects and dicts, numpy calls on small arrays (per-call
overhead), and vectorised work on arrays larger than the caches.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from repro.engine.hooks import RunHook

#: Seconds the calibration kernel takes on the reference host: its median
#: between the days of benchmark episodes on a 2-vCPU Intel Xeon KVM guest,
#: so reference-host seconds read close to wall seconds there.
REFERENCE_S = 0.0125
#: Seconds :func:`start_seconds` takes on the reference host.
REFERENCE_START_S = 0.13
#: Calibration samples the current speed factor is the median of.
WINDOW = 3

_RNG = np.random.default_rng(20230101)
_SMALL = _RNG.random((30, 30))
_VECTOR = _RNG.random(2000)
_INDEX = _RNG.integers(0, 2000, 300)
_LARGE = _RNG.random((360, 360))
_SORT = _RNG.random(200_000)


class _Record:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


_RECORDS = [_Record(i, i * 0.5) for i in range(4000)]


def _interpreter() -> float:
    # Allocates one dict and no per-record objects, so it never triggers a
    # garbage collection (whose cost follows the run's heap, not the host).
    totals: dict[int, float] = dict.fromkeys(range(257), 0.0)
    acc = 0.0
    for _ in range(8):
        for record in _RECORDS:
            slot = record.key % 257
            totals[slot] = totals[slot] + record.value
            acc += record.value * 1.0001
    return acc + totals[0]


def _small_arrays() -> float:
    acc = 0.0
    for i in range(250):
        picked = _VECTOR[_INDEX]
        order = np.argsort(picked, kind="stable")
        column = _SMALL @ _SMALL[:, i % 30]
        acc += float(picked[order[0]]) + float(column.max()) + float(np.maximum(picked, 0.5).sum())
    return acc


def _large_arrays() -> float:
    product = _LARGE @ _LARGE
    return float(product[0, 0]) + float(np.sort(_SORT)[0])


def kernel_seconds() -> float:
    """Time one pass of the calibration kernel."""
    tick = perf_counter()
    _interpreter()
    _small_arrays()
    _large_arrays()
    return perf_counter() - tick


class HostClock(RunHook):
    """Monotonic clock in reference-host seconds, recalibrated every day.

    Pass it as an engine's ``clock`` and among its hooks: it recalibrates at
    the start of the run and at the start and end of every day.  Time spent
    calibrating does not advance the clock.  One instance serves a whole
    benchmark run, so the factor's median window spans episodes.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.factor = 1.0
        self._base = 0.0
        self._anchor = perf_counter()
        self.recalibrate()

    def __call__(self) -> float:
        return self._base + (perf_counter() - self._anchor) * self.factor

    def recalibrate(self) -> None:
        self._base = self()
        self.samples.append(kernel_seconds())
        self.factor = REFERENCE_S / statistics.median(self.samples[-WINDOW:])
        self._anchor = perf_counter()

    def on_run_start(self, context) -> None:
        self.recalibrate()

    def on_day_start(self, event) -> None:
        self.recalibrate()

    def on_day_end(self, event) -> None:
        self.recalibrate()



def start_seconds(cwd: str) -> float:
    """Time a fresh interpreter starting and importing numpy (no package code).

    Set-up is interpreter start, module loading and instance building, whose
    speed follows the host differently from the kernel's: across host
    phases the set-up time correlates at 0.73 with this, against 0.48 with
    the kernel, so set-up samples are scaled by it instead.
    """
    tick = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60, cwd=cwd
    )
    return perf_counter() - tick
