"""Metric declarations and the arithmetic that turns episodes into them.

The declarations here are the single source of ``BENCHMARK.json``'s metric
lists (``run.py --write-spec`` regenerates the file from them).
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from layers import GC_LAYER, LAYERS, ROOT_LAYER

#: ``(name, unit, better, bound)``: measured on untraced episodes.  A bound
#: is the share of the parent's median a metric may worsen by.
END_TO_END = (
    ("requests_per_s", "req/s", "higher", 0.25),
    ("day_s", "s", "lower", 0.25),
    ("decision_p50_ms", "ms", "lower", 0.25),
    ("decision_p99_ms", "ms", "lower", 0.25),
    ("serve_latency_p50_ms", "ms", "lower", 0.25),
    ("serve_latency_p99_ms", "ms", "lower", 0.25),
    ("serve_capacity_rps", "req/s", "higher", 0.25),
    ("utility_total", "utility", "higher", 0.2),
    ("assigned_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Counters some layers report beyond calls / self_s / share.
_LAYER_EXTRAS = {
    "simulation.utilities": (("cells", "count", "lower"),),
    "bandits.estimate": (("brokers", "count", "lower"), ("us_per_broker", "us", "lower")),
    "core.selection": (("kept_ratio", "ratio", "lower"),),
    "matching.km": (("cells", "count", "lower"),),
    "serving.batching": (("microbatches", "count", "lower"), ("mean_size", "requests", "higher")),
    "serving.queue": (("wait_p99_ms", "ms", "lower"), ("utilisation", "ratio", "lower")),
    GC_LAYER: (
        ("gen2_count", "count", "lower"),
        ("gen2_pause_s", "s", "lower"),
        ("pause_in_solver_s", "s", "lower"),
    ),
}


def _per_layer() -> tuple:
    declared = []
    for layer in LAYERS:
        if layer != ROOT_LAYER:
            declared.append((f"{layer}.calls", "count", "lower"))
        declared.append((f"{layer}.self_s", "s", "lower"))
        declared.append((f"{layer}.share", "ratio", "lower"))
        for extra, unit, better in _LAYER_EXTRAS.get(layer, ()):
            declared.append((f"{layer}.{extra}", unit, better))
    declared += [
        ("setup.import_s", "s", "lower"),
        ("setup.build_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.accounting_error", "ratio", "lower"),
    ]
    return tuple(declared)


#: ``(name, unit, better)``: measured on traced episodes.
PER_LAYER = _per_layer()

#: Largest tolerated ``trace.accounting_error`` (self times + unattributed
#: against the root span timed from outside).
ACCOUNTING_TOLERANCE = 0.005


def end_to_end(episodes, checked, setup, num_days: int) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts.

    Rates and per-day times are totals over the whole run and latency
    percentiles pool every request of the run.  Every episode of a run
    makes the same ``assign_batch`` calls in the same order, so
    ``decision_*`` takes each call's median over the episodes first: the
    percentiles then describe what the calls cost, with one-off stalls (a
    host hiccup, a collection landing in one episode only) filtered out;
    they stay in ``serve_latency_*``, which users see.

    Args:
        episodes: the timed (untraced) episodes of the run, timed in
            reference-host seconds (:mod:`hostclock`).
        checked: the checked reference episode; every timed episode
            reproduced its decisions, so quality comes from it.
        setup: ``[(import_s, build_s), ...]`` fresh-process set-up samples.
        num_days: simulated days per episode.
    """
    decision = np.concatenate([e.decision_s for e in episodes])
    per_call = np.median(np.stack([e.decision_s for e in episodes]), axis=0)
    latency = np.concatenate([e.latency_s for e in episodes])
    values = {
        "requests_per_s": sum(e.assigned for e in episodes) / sum(e.matcher_s for e in episodes),
        "day_s": sum(e.wall_s for e in episodes) / (num_days * len(episodes)),
        "decision_p50_ms": 1e3 * float(np.quantile(per_call, 0.5)),
        "decision_p99_ms": 1e3 * float(np.quantile(per_call, 0.99)),
        "serve_latency_p50_ms": 1e3 * float(np.quantile(latency, 0.5)),
        "serve_latency_p99_ms": 1e3 * float(np.quantile(latency, 0.99)),
        "serve_capacity_rps": sum(e.requests for e in episodes) / float(decision.sum()),
        "utility_total": checked.utility_total,
        "assigned_ratio": checked.assigned / checked.requests,
        "setup_s": statistics.median(i + b for i, b in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    runs = len(episodes)
    samples = {
        "requests_per_s": f"{runs} episodes",
        "day_s": f"{runs * num_days} days",
        "decision_p50_ms": f"{per_call.size} calls x {runs} episodes",
        "decision_p99_ms": f"{per_call.size} calls x {runs} episodes",
        "serve_latency_p50_ms": f"{latency.size} requests",
        "serve_latency_p99_ms": f"{latency.size} requests",
        "serve_capacity_rps": f"{decision.size} calls",
        "utility_total": "1 episode",
        "assigned_ratio": "1 episode",
        "setup_s": f"{len(setup)} set-ups",
        "peak_rss_mb": "1 process",
    }
    return values, samples


def per_layer(summaries, overheads, setup) -> tuple[dict, dict]:
    """Per-layer metric values (medians over traced episodes) and counts.

    Args:
        summaries: :meth:`layers.Tracer.summary` of each traced episode.
        overheads: traced-over-untraced wall ratio minus one, per pair.
        setup: fresh-process set-up samples, as for :func:`end_to_end`.
    """

    def median(read):
        return statistics.median(read(s) for s in summaries)

    def count(s, name):
        return s["counts"].get(name, 0.0)

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = median(lambda s: s["calls"][layer])
        values[f"{layer}.self_s"] = median(lambda s: s["self_s"][layer])
        values[f"{layer}.share"] = median(lambda s: s["self_s"][layer] / s["wall_s"])
    del values[f"{ROOT_LAYER}.calls"]

    values["simulation.utilities.cells"] = median(
        lambda s: count(s, "simulation.utilities.cells")
    )
    values["bandits.estimate.brokers"] = median(lambda s: count(s, "bandits.estimate.brokers"))
    values["bandits.estimate.us_per_broker"] = median(
        lambda s: 1e6 * s["self_s"]["bandits.estimate"] / max(count(s, "bandits.estimate.brokers"), 1)
    )
    values["core.selection.kept_ratio"] = median(
        lambda s: count(s, "core.selection.kept") / max(count(s, "core.selection.available"), 1)
    )
    values["matching.km.cells"] = median(lambda s: count(s, "matching.km.cells"))
    values["serving.batching.microbatches"] = median(
        lambda s: count(s, "serving.batching.microbatches")
    )
    values["serving.batching.mean_size"] = median(
        lambda s: count(s, "serving.batching.requests")
        / max(count(s, "serving.batching.microbatches"), 1)
    )
    values["serving.queue.wait_p99_ms"] = median(
        lambda s: 1e3 * float(np.quantile(s["queue_waits"], 0.99)) if s["queue_waits"].size else 0.0
    )
    values["serving.queue.utilisation"] = median(
        lambda s: count(s, "serving.queue.busy_s") / count(s, "serving.queue.makespan")
        if count(s, "serving.queue.makespan") > 0
        else 0.0
    )
    for name in ("gen2_count", "gen2_pause_s", "pause_in_solver_s"):
        values[f"{GC_LAYER}.{name}"] = median(lambda s: s["gc"][name])
    values["setup.import_s"] = statistics.median(i for i, _b in setup)
    values["setup.build_s"] = statistics.median(b for _i, b in setup)
    values["trace.overhead_ratio"] = statistics.median(overheads)
    values["trace.accounting_error"] = max(s["accounting_error"] for s in summaries)
    samples = {name: f"{len(summaries)} traced episodes" for name in values}
    samples["setup.import_s"] = samples["setup.build_s"] = f"{len(setup)} set-ups"
    samples["trace.overhead_ratio"] = f"{len(overheads)} episode pairs"
    return values, samples
