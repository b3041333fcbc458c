"""Parallel sweep executor: fan run specs out over a process pool.

:func:`run_many` executes a list of :class:`~repro.engine.spec.RunSpec`
either serially (``jobs=1``) or on a ``concurrent.futures`` process pool
(``jobs>1``).  Results always come back in spec order, and — because every
spec reconstructs its instance from seeds — a parallel run is bit-identical
to the serial one, so ``jobs`` is purely a wall-clock knob.

Telemetry never crosses the process boundary: when the parent has
:mod:`repro.obs` telemetry active (or passes one explicitly), every spec —
serial or pooled — runs against its *own* fresh
:class:`~repro.obs.telemetry.Telemetry` that streams metrics, spans,
alerts and decision audit records to a per-spec segment under the
parent's ``stream_dir`` (:mod:`repro.obs.stream`).  Segment names sort in
spec order and counter and distribution merges are exact, so the
stream-merged metrics of a ``jobs=2`` run equal the ``jobs=1`` run
bit-for-bit, and each segment gets its own Chrome-trace lane.

Each process keeps a one-slot platform cache keyed by the platform spec:
sweep grids group many matchers onto the same instance, and rebuilding a
city per run would otherwise dominate small sweeps.
"""

from __future__ import annotations

import concurrent.futures
import os
from typing import Iterable, Sequence

from repro.engine.hooks import RunResult
from repro.engine.spec import PlatformSpec, RunSpec
from repro.obs.stream import segment_name
from repro.obs.telemetry import Telemetry, current as current_telemetry, use as use_telemetry

#: Process-local platform cache: (cache key, platform) of the most recent
#: instance.  One slot keeps memory bounded while serving the common
#: grid pattern of consecutive specs sharing a platform.
_PLATFORM_CACHE: list[tuple[tuple, object]] = []


def warm_platform_cache(spec: PlatformSpec, platform) -> None:
    """Seed this process's platform cache with an already-built instance.

    Callers that hold a live platform matching ``spec`` (e.g. the real-city
    evaluation, which needs the platform for metrics anyway) can donate it
    so a serial :func:`run_many` does not rebuild the same city.
    """
    _PLATFORM_CACHE[:] = [(spec.cache_key(), platform)]


def _cached_platform(spec: RunSpec):
    key = spec.platform.cache_key()
    if _PLATFORM_CACHE and _PLATFORM_CACHE[0][0] == key:
        return _PLATFORM_CACHE[0][1]
    platform = spec.platform.build()
    _PLATFORM_CACHE[:] = [(key, platform)]
    return platform


def execute_spec(spec: RunSpec) -> RunResult:
    """Execute one run spec, reusing the process-local platform cache."""
    return spec.run(platform=_cached_platform(spec))


def execute_spec_observed(
    spec: RunSpec, stream_dir: str, segment: str | None = None, audit=None
) -> RunResult:
    """Execute one spec under a fresh telemetry that streams to its own segment.

    The run's metrics, spans, alerts and (with ``audit``) decision audit
    records land only in ``<stream_dir>/<segment>.jsonl`` (see
    :mod:`repro.obs.stream`), so progress is observable — and recoverable —
    even if this worker dies mid-run, and nothing but the result crosses
    the process boundary.

    Args:
        stream_dir: the stream directory the segment is written under.
        segment: segment stem; defaults to the spec's run id.
        audit: the :class:`~repro.obs.audit.AuditConfig`, or ``None`` (off).
    """
    from repro.obs.stream import TelemetryStreamWriter

    telemetry = Telemetry()
    telemetry.stream = TelemetryStreamWriter(stream_dir, segment=segment or spec.run_id())
    telemetry.audit = audit
    with use_telemetry(telemetry):
        return spec.run(platform=_cached_platform(spec))


def _execute_observed_task(task: tuple) -> RunResult:
    """Pool-picklable wrapper: one (spec, …) task → observed run."""
    return execute_spec_observed(*task)


def run_many(
    specs: Sequence[RunSpec] | Iterable[RunSpec],
    jobs: int = 1,
    telemetry: Telemetry | None = None,
) -> list[RunResult]:
    """Execute run specs, serially or over a process pool.

    Args:
        specs: the runs to execute.
        jobs: worker processes; ``1`` (the default) runs serially in this
            process, ``0`` or negative means one worker per CPU.
        telemetry: stream every run into a segment under this telemetry's
            ``stream_dir`` (auditing too when its ``audit`` is set).
            Defaults to the process's active telemetry (so a CLI
            ``--telemetry`` run observes sweeps with no extra plumbing);
            pass nothing and keep telemetry disabled to skip collection.

    Returns:
        One :class:`~repro.engine.hooks.RunResult` per spec, in spec order
        regardless of which worker finished first.

    Raises:
        ValueError: when telemetry is on but has no ``stream_dir`` — the
            stream is the only place a run's telemetry is kept.
    """
    specs = list(specs)
    if telemetry is None:
        telemetry = current_telemetry()
    if telemetry is not None and telemetry.stream_dir is None:
        raise ValueError(
            "run_many under telemetry needs telemetry.stream_dir: every run "
            "streams its metrics, spans and audit to its own segment there"
        )
    if jobs <= 0:
        jobs = os.cpu_count() or 1

    if telemetry is None:
        run, tasks = execute_spec, specs
    else:
        # Per-spec segments: the zero-padded index prefix makes segment
        # name order equal spec order, which is the merge order readers use.
        run = _execute_observed_task
        tasks = [
            (spec, telemetry.stream_dir,
             segment_name(index, spec.run_id(), total=len(specs)), telemetry.audit)
            for index, spec in enumerate(specs)
        ]
    if jobs == 1 or len(specs) <= 1:
        return [run(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        # Executor.map preserves input order, giving deterministic results.
        return list(pool.map(run, tasks))
