"""Parallel sweep executor: fan run specs out over a process pool.

:func:`run_many` executes a list of :class:`~repro.engine.spec.RunSpec`
either serially (``jobs=1``) or on a ``concurrent.futures`` process pool
(``jobs>1``).  Results always come back in spec order, and — because every
spec reconstructs its instance from seeds — a parallel run is bit-identical
to the serial one, so ``jobs`` is purely a wall-clock knob.

Telemetry crosses the process boundary the same way: when the parent has
:mod:`repro.obs` telemetry active (or passes one explicitly), every spec —
serial or pooled — runs against its *own* fresh
:class:`~repro.obs.telemetry.Telemetry`, and the serialized payloads
(registry dump + span records) are merged into the parent's telemetry in
spec order.  Counter and distribution merges are exact, so the merged metrics
of a ``jobs=2`` run equal the ``jobs=1`` run bit-for-bit; worker spans land
in their own Chrome-trace lane.

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
    spec: RunSpec,
    stream_dir: str | None = None,
    segment: str | None = None,
    audit_dir: str | None = None,
    audit=None,
) -> tuple[RunResult, dict]:
    """Execute one spec under a fresh telemetry; return (result, payload).

    The payload (:meth:`~repro.obs.telemetry.Telemetry.payload`) is plain
    data, safe to ship from a pool worker back to the parent for merging.
    Running each spec against its own registry — even serially — is what
    makes the parent's merge order identical under any ``jobs`` value.

    Args:
        stream_dir: when set, the run streams live telemetry into its own
            segment file under this directory (see :mod:`repro.obs.stream`),
            so progress is observable — and recoverable — even if this
            worker dies mid-run.
        segment: segment stem; defaults to the spec's run id.
        audit_dir: when set (with ``audit``), the run writes decision
            provenance into its own segment of this directory
            (:mod:`repro.obs.audit`) — same naming as stream segments, so
            segment order is spec order under any ``jobs`` value.
        audit: the :class:`~repro.obs.audit.AuditConfig`, or ``None`` (off).
    """
    telemetry = Telemetry()
    if stream_dir is not None:
        from repro.obs.stream import TelemetryStreamWriter

        telemetry.stream = TelemetryStreamWriter(
            stream_dir, segment=segment or spec.run_id()
        )
    if audit is not None and audit_dir is not None:
        telemetry.audit = audit
        telemetry.audit_dir = audit_dir
        telemetry.audit_segment = segment or spec.run_id()
    with use_telemetry(telemetry):
        result = spec.run(platform=_cached_platform(spec))
    return result, telemetry.payload()


def _execute_observed_task(task: tuple) -> tuple[RunResult, dict]:
    """Pool-picklable wrapper: one (spec, …) task → observed run."""
    spec, stream_dir, segment, audit_dir, audit = task
    return execute_spec_observed(
        spec, stream_dir=stream_dir, segment=segment, audit_dir=audit_dir, audit=audit
    )


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
        telemetry: merge every run's metrics and spans into this telemetry
            object.  Defaults to the process's active telemetry (so a CLI
            ``--telemetry`` run observes sweeps with no extra plumbing);
            pass nothing and keep telemetry disabled to skip collection.

    Returns:
        One :class:`~repro.engine.hooks.RunResult` per spec, in spec order
        regardless of which worker finished first.
    """
    specs = list(specs)
    if telemetry is None:
        telemetry = current_telemetry()
    if jobs <= 0:
        jobs = os.cpu_count() or 1

    # Per-spec stream/audit segments: the zero-padded index prefix makes
    # segment name order equal spec order, which is the merge order readers
    # use.
    stream_dir = telemetry.stream_dir if telemetry is not None else None
    audit_dir = telemetry.audit_dir if telemetry is not None else None
    audit = telemetry.audit if telemetry is not None else None
    tasks = [
        (spec, stream_dir, segment_name(index, spec.run_id(), total=len(specs)), audit_dir, audit)
        for index, spec in enumerate(specs)
    ]

    if jobs == 1 or len(specs) <= 1:
        if telemetry is None:
            return [execute_spec(spec) for spec in specs]
        observed = [_execute_observed_task(task) for task in tasks]
    else:
        workers = min(jobs, len(specs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves input order, giving deterministic results.
            if telemetry is None:
                return list(pool.map(execute_spec, specs))
            observed = list(pool.map(_execute_observed_task, tasks))

    # Merge in spec order: counter/distribution folds are exact, so the merged
    # registry is bit-identical for any jobs value.
    for _result, payload in observed:
        telemetry.merge_payload(payload)
    return [result for result, _payload in observed]
