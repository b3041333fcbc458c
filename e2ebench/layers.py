"""Per-layer tracing of one episode, from outside the program.

The tracer replaces each layer's public entry points (listed in
:data:`TARGETS`) with thin wrappers for the length of one episode, keeps
every span in flat in-memory arrays, and afterwards reports per layer:

- ``calls`` — spans opened;
- ``self_s`` — the layer's span durations minus the part of each span that
  its wrapped children (and garbage-collection pauses) cover;
- counters measured where the work happens (matrix cells, brokers scored,
  candidates kept, micro-batch sizes, queue waits).

Garbage collection is observed through :data:`gc.callbacks`.  A pause is a
child of the span it interrupted: it is charged to ``runtime.gc`` and taken
out of that span's self time, and it is attributed back to the interrupted
layer so tail-latency movement can be explained.  The episode itself is the
root span; what no wrapped layer covers is ``engine.unattributed``.  By
construction the self times then sum to the root's duration; the tracer
checks that against a clock read outside the root (``accounting_error``).
What would break the attribution itself is counted as ``violations``: a
span left open, a span or pause reaching outside its parent, or a span
whose children cover more than its duration (negative self time).

Nothing here touches the package while no episode is being traced:
:func:`installed_wrappers` lists any wrapper left behind, and the benchmark
asserts it is empty before every untraced episode.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT_LAYER = "engine.unattributed"
GC_LAYER = "runtime.gc"
#: The entry point whose interior is decision time: a pause under it
#: delays a solver call.
SOLVER_POINT = "algorithms.assign_batch"
#: Rounding slack of a span's self time (its children's durations are
#: differences of the same clock readings).
SELF_TOLERANCE_S = 1e-9
#: Marker attribute a wrapper carries (the wrapped original).
_ORIGINAL = "_e2ebench_original"

_PLATFORM = "repro.simulation.platform:RealEstatePlatform"
_VALUE_FUNCTION = "repro.core.value_function:CapacityAwareValueFunction"
_VFGA = "repro.core.vfga:ValueFunctionGuidedAssigner"
_LACB = "repro.algorithms.lacb:LACBMatcher"


def _count_cells(weights_arg: int):
    def count(tracer, args, result, layer):
        rows, cols = np.shape(args[weights_arg])
        tracer.counts[f"{layer}.cells"] += rows * cols

    return count


def _count_utilities(tracer, args, result, layer):
    tracer.counts[f"{layer}.cells"] += result.size


def _count_brokers(tracer, args, result, layer):
    tracer.counts[f"{layer}.brokers"] += len(result)


def _count_selection(tracer, args, result, layer):
    tracer.counts[f"{layer}.kept"] += result.size
    tracer.counts[f"{layer}.available"] += np.shape(args[0])[1]


def _count_split(tracer, args, result, layer):
    tracer.counts[f"{layer}.microbatches"] += len(result)
    tracer.counts[f"{layer}.requests"] += len(args[1])


def _count_admit(tracer, args, result, layer):
    start, completion = result
    tracer.queue_waits.append(start - float(args[1]))
    tracer.counts[f"{layer}.busy_s"] += float(args[2])
    tracer.counts[f"{layer}.makespan"] = completion


#: ``(layer, "module:Owner" or "module", attribute, counter)``.  Module
#: attributes are wrapped where the caller looks them up (``repro.core.vfga``
#: imports ``select_candidate_brokers`` and ``solve_assignment`` by name).
TARGETS = (
    ("simulation.utilities", _PLATFORM, "predicted_utilities", _count_utilities),
    ("simulation.submit", _PLATFORM, "submit_assignment", None),
    ("simulation.day", _PLATFORM, "start_day", None),
    ("simulation.day", _PLATFORM, "batch_requests", None),
    ("simulation.day", _PLATFORM, "finish_day", None),
    ("bandits.estimate", "repro.bandits.base:CapacityEstimator", "estimate_batch", _count_brokers),
    ("bandits.update", "repro.bandits.neural_ucb:NNUCBBandit", "update", None),
    (
        "bandits.update",
        "repro.bandits.personalization:PersonalizedCapacityEstimator",
        "update",
        None,
    ),
    ("core.selection", "repro.core.vfga", "select_candidate_brokers", _count_selection),
    ("core.value_function.refine", _VALUE_FUNCTION, "refinement_batch", None),
    ("core.value_function.td", _VALUE_FUNCTION, "td_update", None),
    ("core.value_function.td", _VALUE_FUNCTION, "expire_day_end", None),
    ("matching.km", "repro.core.vfga", "solve_assignment", _count_cells(0)),
    ("matching.km", "repro.matching.incremental:IncrementalKMSolver", "solve", _count_cells(1)),
    ("core.vfga", _VFGA, "begin_day", None),
    ("core.vfga", _VFGA, "assign_batch", None),
    ("core.vfga", _VFGA, "end_day", None),
    ("algorithms", _LACB, "begin_day", None),
    ("algorithms", _LACB, "assign_batch", None),
    ("algorithms", _LACB, "end_day", None),
    ("serving.batching", "repro.serving.microbatch:MicroBatchPolicy", "split", _count_split),
    ("serving.queue", "repro.serving.microbatch:LoadLevelingQueue", "admit", _count_admit),
)

#: Every reported layer, in reporting order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS)) + (GC_LAYER, ROOT_LAYER)


def _resolve(target: str):
    module, _, owner = target.partition(":")
    resolved = importlib.import_module(module)
    return getattr(resolved, owner) if owner else resolved


def installed_wrappers() -> list[str]:
    """Every tracing wrapper or GC callback currently installed."""
    found = [
        f"{target}.{attr}"
        for _layer, target, attr, _counter in TARGETS
        if hasattr(_resolve(target).__dict__.get(attr), _ORIGINAL)
    ]
    found += [
        "gc.callbacks"
        for callback in gc.callbacks
        if isinstance(getattr(callback, "__self__", None), Tracer)
    ]
    return found


class Tracer:
    """Spans and counters of one traced episode (see the module docstring)."""

    def __init__(self) -> None:
        self.points: list[tuple[str, str]] = [("engine.run", ROOT_LAYER)]
        self.sp_point = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack = [-1]
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.gc_gen = array("i")
        self.gc_span = array("i")
        self._gc_open = (0.0, -1)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.queue_waits = array("d")
        self.outer_wall = 0.0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def enter(self, point: int) -> int:
        index = len(self.sp_point)
        self.sp_point.append(point)
        self.sp_parent.append(self.stack[-1])
        self.sp_end.append(0.0)
        self.stack.append(index)
        self.sp_start.append(perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.sp_end[index] = perf_counter()
        self.stack.pop()

    def _on_gc(self, phase: str, info: dict) -> None:
        now = perf_counter()
        if phase == "start":
            self._gc_open = (now, self.stack[-1])
            return
        started, span = self._gc_open
        self.gc_start.append(started)
        self.gc_end.append(now)
        self.gc_gen.append(info["generation"])
        self.gc_span.append(span)

    @contextmanager
    def tracing(self):
        """Install the wrappers and open the root span around one episode."""
        with self.installed(), self.root():
            yield self

    @contextmanager
    def root(self):
        """The episode's root span, timed again from outside."""
        tick = perf_counter()
        index = self.enter(0)
        try:
            yield self
        finally:
            self.exit(index)
            self.outer_wall = perf_counter() - tick

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap every target and observe GC; always restores the originals."""
        try:
            for layer, target, attr, counter in TARGETS:
                owner = _resolve(target)
                original = owner.__dict__[attr]
                if not inspect.isfunction(original) or hasattr(original, _ORIGINAL):
                    raise RuntimeError(f"cannot wrap {target}.{attr}: {original!r}")
                self.points.append((f"{layer}.{attr}", layer))
                wrapper = self._wrap(original, len(self.points) - 1, layer, counter)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _wrap(self, fn, point: int, layer: str, counter):
        enter, leave = self.enter, self.exit

        if counter is None:

            def traced(*args, **kwargs):
                index = enter(point)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(index)

        else:

            def traced(*args, **kwargs):
                index = enter(point)
                try:
                    result = fn(*args, **kwargs)
                    counter(self, args, result, layer)
                    return result
                finally:
                    leave(index)

        functools.update_wrapper(traced, fn)
        setattr(traced, _ORIGINAL, fn)
        return traced

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer calls, self seconds and counters of the episode."""
        point = np.asarray(self.sp_point, dtype=int)
        parent = np.asarray(self.sp_parent, dtype=int)
        start, end = np.asarray(self.sp_start), np.asarray(self.sp_end)
        duration = end - start
        covered = np.zeros(point.size)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])

        gc_span = np.asarray(self.gc_span, dtype=int)
        in_root = gc_span >= 0
        gc_span = gc_span[in_root]
        gc_start, gc_end = np.asarray(self.gc_start)[in_root], np.asarray(self.gc_end)[in_root]
        pauses = gc_end - gc_start
        generations = np.asarray(self.gc_gen, dtype=int)[in_root]
        np.add.at(covered, gc_span, pauses)

        outer = parent[nested]
        violations = {
            "unclosed": int((end < start).sum()),
            "outside_parent": int(
                ((start[nested] < start[outer]) | (end[nested] > end[outer])).sum()
            ),
            "pause_outside_span": int(
                ((gc_start < start[gc_span]) | (gc_end > end[gc_span])).sum()
            ),
            "negative_self": int((duration - covered < -SELF_TOLERANCE_S).sum()),
        }

        layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        layer_of_point = np.array([layer_index[layer] for _name, layer in self.points])
        span_layer = layer_of_point[point]
        self_s = np.bincount(span_layer, weights=duration - covered, minlength=len(LAYERS))
        calls = np.bincount(span_layer, minlength=len(LAYERS)).astype(float)
        self_s[layer_index[GC_LAYER]] = pauses.sum()
        calls[layer_index[GC_LAYER]] = pauses.size

        solver_point = next(
            (i for i, (name, _layer) in enumerate(self.points) if name == SOLVER_POINT), -1
        )
        in_solver = 0.0
        by_layer: defaultdict[str, float] = defaultdict(float)
        for span, pause in zip(gc_span, pauses):
            by_layer[LAYERS[span_layer[span]]] += pause
            ancestor = span
            while ancestor >= 0:
                if point[ancestor] == solver_point:
                    in_solver += pause
                    break
                ancestor = parent[ancestor]

        wall = float(duration[0])
        return {
            "wall_s": wall,
            "self_s": dict(zip(LAYERS, self_s.tolist())),
            "calls": dict(zip(LAYERS, calls.tolist())),
            "counts": dict(self.counts),
            "queue_waits": np.asarray(self.queue_waits),
            "gc": {
                "gen2_count": int((generations == 2).sum()),
                "gen2_pause_s": float(pauses[generations == 2].sum()),
                "pause_in_solver_s": in_solver,
                "pause_by_layer": dict(by_layer),
            },
            "accounting_error": abs(float(self_s.sum()) - self.outer_wall) / self.outer_wall,
            "violations": {kind: n for kind, n in violations.items() if n},
        }
