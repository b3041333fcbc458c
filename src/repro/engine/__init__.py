"""Run-orchestration engine: the day loop as a composable subsystem.

Four layers, each usable on its own:

- :mod:`~repro.engine.loop` — :class:`DayLoopEngine`, the single
  authoritative driver of the platform↔matcher protocol, emitting
  lifecycle events (run/day/batch start and end) with engine-measured
  matcher seconds;
- :mod:`~repro.engine.hooks` — the :class:`RunHook` observer protocol and
  built-ins (:class:`MetricsCollector`, :class:`DecisionTimer`);
- :mod:`~repro.engine.spec` — picklable :class:`PlatformSpec` /
  :class:`MatcherSpec` / :class:`RunSpec` dataclasses reconstructing
  environments and algorithms from plain data, seed-for-seed;
- :mod:`~repro.engine.executor` — :func:`run_many`, fanning specs over a
  process pool with deterministic result ordering.

The classic entry points (``run_algorithm``, ``compare_algorithms``,
``sweep``, ``evaluate_city``) are thin shims over these layers.
"""

from repro.engine.executor import execute_spec, run_many, warm_platform_cache
from repro.engine.hooks import (
    DecisionTimer,
    MetricsCollector,
    RunHook,
    RunResult,
)
from repro.engine.loop import (
    BatchAssignedEvent,
    DayEndEvent,
    DayLoopEngine,
    DayStartEvent,
    RunContext,
)
from repro.engine.spec import MatcherSpec, PlatformSpec, RunSpec

__all__ = [
    "BatchAssignedEvent",
    "DayEndEvent",
    "DayLoopEngine",
    "DayStartEvent",
    "DecisionTimer",
    "MatcherSpec",
    "MetricsCollector",
    "PlatformSpec",
    "RunContext",
    "RunHook",
    "RunResult",
    "RunSpec",
    "execute_spec",
    "run_many",
    "warm_platform_cache",
]
