"""Phase profiler: deterministic wall/CPU attribution over the span stream.

Every span the tracer (:mod:`repro.obs.tracing`) records is live: it is
appended when its context manager exits, so the single-threaded tracer
appends in strict post-order — a record at depth ``d`` is the parent of
the immediately preceding unclaimed records at depth ``d + 1``.  The
engine phases (``engine.begin_day`` / ``assign_batch`` / ``end_day``) are
such spans, opened around each matcher call, so the matcher's interior
spans are their children and spans other hooks record between matcher
calls (checkpoint writes, invariant checks) are roots of their own.

Append order, not timestamps, drives the reconstruction; the stream keeps
spans in append order.

Per-day attribution comes from :attr:`SpanRecord.day`, stamped by the day
loop, and per-algorithm attribution from the span's ``algorithm`` attr,
stamped by the telemetry layer — so every table here is a pure function
of the recorded spans: byte-identical spans give byte-identical profiles.
CPU seconds are measured on the engine phases only; other spans record
wall time and report CPU as unknown.

Outputs:

- :func:`phase_stats` — per-phase calls / wall / CPU (day-filterable);
- :func:`day_rows` — per-algorithm × per-day × per-phase attribution;
- :func:`hotspots` — per algorithm, top-N phases by *self* wall time
  (tree-based);
- :func:`collapsed_stacks` / :func:`write_collapsed` — the
  ``flamegraph.pl`` / speedscope collapsed-stack format, one
  ``root;child;leaf <microseconds>`` line per stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from typing import Iterable, Sequence

from repro.obs.tracing import SpanRecord

#: The engine's phase spans: their totals sum to ``RunResult.decision_time``.
ENGINE_PHASES = ("engine.begin_day", "engine.assign_batch", "engine.end_day")


@dataclass
class ProfileNode:
    """One span with its reconstructed children."""

    record: SpanRecord
    children: list[ProfileNode] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        """Wall time not covered by children (clamped at zero: children
        are timed by separate clock reads, so their sum can round above
        the parent's duration)."""
        return max(0.0, self.record.duration - sum(c.record.duration for c in self.children))


def build_forest(records: Iterable[SpanRecord]) -> list[ProfileNode]:
    """Reconstruct span trees from append-ordered records, per pid lane."""
    by_pid: dict[int, list[SpanRecord]] = {}
    for record in records:
        by_pid.setdefault(record.pid, []).append(record)
    forest: list[ProfileNode] = []
    for pid in sorted(by_pid):
        forest.extend(_build_lane(by_pid[pid]))
    return forest


def _build_lane(records: Sequence[SpanRecord]) -> list[ProfileNode]:
    # pending[d]: completed, not-yet-claimed nodes at depth d, in order.
    # What is left unclaimed are the roots (and, in a stream cut short,
    # the children of spans that never closed), shallowest first.
    pending: dict[int, list[ProfileNode]] = {}
    for record in records:
        children = pending.pop(record.depth + 1, [])
        pending.setdefault(record.depth, []).append(ProfileNode(record, children))
    return [node for depth in sorted(pending) for node in pending[depth]]


def _walk(forest: Iterable[ProfileNode]):
    stack = list(forest)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


# ----------------------------------------------------------------------
# Flat attribution (by name, by day) — no tree needed.
# ----------------------------------------------------------------------
def phase_stats(
    records: Iterable[SpanRecord], day: int | None = None
) -> list[tuple[str, int, float, float]]:
    """Per-phase ``(name, calls, wall s, cpu s)``, wall-descending.

    CPU sums only measured spans (``cpu >= 0``); a phase with no measured
    span reports ``-1.0`` (unknown) rather than a misleading zero.
    """
    stats: dict[str, list[float]] = {}
    for record in records:
        if day is not None and record.day != day:
            continue
        entry = stats.setdefault(record.name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += record.duration
        if record.cpu >= 0:
            entry[2] += record.cpu
            entry[3] += 1
    rows = [
        (name, int(calls), wall, cpu if measured else -1.0)
        for name, (calls, wall, cpu, measured) in stats.items()
    ]
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def day_rows(
    records: Iterable[SpanRecord], phases: Sequence[str] | None = None
) -> list[tuple[str, int, str, int, float, float]]:
    """Per-algorithm × per-day × per-phase ``(algorithm, day, name, calls,
    wall s, cpu s)`` rows.

    Algorithms sort by name; days ascending within one (day ``-1`` —
    outside any day — last); phases wall-descending within a day.
    ``phases`` restricts to the named phases (default: all).
    """
    wanted = set(phases) if phases is not None else None
    groups: dict[tuple[str, int], list[SpanRecord]] = {}
    for record in records:
        if wanted is not None and record.name not in wanted:
            continue
        key = (record.attrs.get("algorithm", ""), record.day)
        groups.setdefault(key, []).append(record)
    rows: list[tuple[str, int, str, int, float, float]] = []
    for algorithm, day in sorted(groups, key=lambda key: (key[0], key[1] < 0, key[1])):
        for name, calls, wall, cpu in phase_stats(groups[algorithm, day]):
            rows.append((algorithm, day, name, calls, wall, cpu))
    return rows


# ----------------------------------------------------------------------
# Tree-based attribution: self time and collapsed stacks.
# ----------------------------------------------------------------------
def hotspots(
    records: Iterable[SpanRecord], top: int = 10
) -> list[tuple[str, str, int, float, float, float]]:
    """Top phases by self time, per algorithm:
    ``(algorithm, name, calls, wall, self, cpu)``.

    Self time is wall time minus reconstructed children — the honest
    "where is time actually spent" number: a phase that merely wraps an
    expensive callee ranks below the callee itself.  Algorithms sort by
    name; ``top`` (0 = all) applies within each algorithm.
    """
    stats: dict[tuple[str, str], list[float]] = {}
    for node in _walk(build_forest(records)):
        record = node.record
        key = (record.attrs.get("algorithm", ""), record.name)
        entry = stats.setdefault(key, [0, 0.0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += record.duration
        entry[2] += node.self_seconds
        if record.cpu >= 0:
            entry[3] += record.cpu
            entry[4] += 1
    rows = [
        (algorithm, name, int(calls), wall, self_s, cpu if measured else -1.0)
        for (algorithm, name), (calls, wall, self_s, cpu, measured) in stats.items()
    ]
    rows.sort(key=lambda row: (row[0], -row[4], row[1]))
    return [
        row
        for _, group in groupby(rows, key=lambda row: row[0])
        for row in islice(group, top or None)
    ]


def collapsed_stacks(records: Iterable[SpanRecord]) -> dict[str, int]:
    """Aggregate self time per stack path, in integer microseconds.

    Keys are ``;``-joined span names from root to leaf — the
    ``flamegraph.pl`` collapsed format.  Values are self-time
    microseconds (the weight of the frame itself, with children drawn
    on top by the renderer).  Zero-weight frames are kept when they have
    children (pure wrappers still shape the graph) and dropped when
    childless.
    """
    weights: dict[str, int] = {}

    def visit(node: ProfileNode, prefix: str) -> None:
        stack = f"{prefix};{node.record.name}" if prefix else node.record.name
        micros = int(round(node.self_seconds * 1e6))
        if micros > 0 or node.children:
            weights[stack] = weights.get(stack, 0) + micros
        for child in node.children:
            visit(child, stack)

    for root in build_forest(records):
        visit(root, "")
    return weights


def write_collapsed(path, records: Iterable[SpanRecord]) -> str:
    """Write collapsed stacks (sorted, atomic); returns the path.

    The output loads directly in ``flamegraph.pl``, speedscope
    (https://speedscope.app) or ``inferno-flamegraph``.
    """
    import os

    from repro.state.io import atomic_open

    weights = collapsed_stacks(records)
    with atomic_open(path, "w") as handle:
        for stack in sorted(weights):
            handle.write(f"{stack} {weights[stack]}\n")
    return os.fspath(path)
