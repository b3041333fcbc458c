"""Metrics primitives: counters, gauges, distributions, registry merge."""

import json
import os

import pytest

from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.quantiles import MAX_TRACKABLE, MIN_TRACKABLE, QuantileSketch


# ----------------------------------------------------------------------
# Counter / Gauge / duration distributions
# ----------------------------------------------------------------------
def test_counter_accumulates_and_rejects_negative():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_merge_is_last_write_wins():
    a, b = Gauge(), Gauge()
    a.set(1.0)
    b.set(7.0)
    a.merge(b)
    assert a.value == 7.0
    # An untouched gauge must not clobber a written one.
    a.merge(Gauge())
    assert a.value == 7.0


def test_timer_tracks_count_total_min_max_mean():
    """A duration series (formerly a Timer) is a plain distribution."""
    timer = MetricsRegistry().distribution("solve")
    for value in (0.2, 0.1, 0.4):
        timer.observe(value)
    assert timer.count == 3
    assert timer.sum == pytest.approx(0.7)
    assert timer.min == pytest.approx(0.1)
    assert timer.max == pytest.approx(0.4)
    assert timer.sum / timer.count == pytest.approx(0.7 / 3)


# ----------------------------------------------------------------------
# Distribution buckets: (gamma^(i-1), gamma^i], fixed by alpha
# ----------------------------------------------------------------------
def test_histogram_below_first_boundary_and_overflow():
    """Below MIN_TRACKABLE is the zero bucket; above MAX_TRACKABLE clamps
    to the outermost bucket while sum and max keep the true values."""
    distribution = MetricsRegistry().distribution("h")
    distribution.observe(0.0)
    distribution.observe(MIN_TRACKABLE / 2)
    distribution.observe(MAX_TRACKABLE * 100)
    distribution.observe(MAX_TRACKABLE * 10)
    assert distribution.zero == 2
    assert list(distribution.pos.values()) == [2]
    assert distribution.count == 4
    assert distribution.sum == pytest.approx(MAX_TRACKABLE * 110)
    assert distribution.max == MAX_TRACKABLE * 100


def test_histogram_merge_of_empty_histograms():
    a = QuantileSketch()
    a.merge(QuantileSketch())
    assert a.count == 0
    assert a.sum == 0.0
    assert a.state() == QuantileSketch().state()
    # Empty-into-populated leaves the populated side unchanged.
    b = QuantileSketch()
    b.observe(1.5)
    before = b.state()
    b.merge(QuantileSketch())
    assert b.state() == before


def test_histogram_merge_requires_identical_boundaries():
    """Bucket edges are gamma^i with gamma set by alpha: alphas must match."""
    registry = MetricsRegistry()
    registry.distribution("h").observe(1.0)
    other = {"metrics": [{"name": "h", "labels": {}, "kind": "distribution",
                          "state": QuantileSketch(alpha=0.02).state()}]}
    with pytest.raises(ValueError, match="alpha"):
        registry.merge(other)


def test_histogram_rejects_non_increasing_boundaries():
    """alpha outside (0, 1) would make gamma <= 1: non-increasing edges."""
    for alpha in (0.0, -0.1, 1.0):
        with pytest.raises(ValueError, match="alpha"):
            QuantileSketch(alpha=alpha)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_is_idempotent_per_label_set():
    registry = MetricsRegistry()
    a = registry.counter("requests", algorithm="LACB")
    b = registry.counter("requests", algorithm="LACB")
    c = registry.counter("requests", algorithm="AN")
    assert a is b
    assert a is not c


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        registry.gauge("x")
    registry.distribution("d")
    with pytest.raises(ValueError, match="already registered as distribution"):
        registry.counter("d")


def test_registry_roundtrip_through_dict():
    registry = MetricsRegistry()
    registry.counter("runs", algorithm="AN").inc(3)
    registry.gauge("ratio").set(0.25)
    registry.distribution("sizes").observe(1.5)
    registry.distribution("solve").observe(0.01)

    clone = MetricsRegistry.from_dict(registry.to_dict())
    assert clone.to_dict() == registry.to_dict()


def test_registry_merge_is_exact_and_order_independent_for_counters():
    def build(values):
        registry = MetricsRegistry()
        for value in values:
            registry.counter("n").inc(value)
            registry.distribution("h").observe(value)
        return registry

    merged_ab = build([1.0, 2.0])
    merged_ab.merge(build([0.5]))
    merged_ba = build([0.5])
    merged_ba.merge(build([1.0, 2.0]))
    assert merged_ab.counter("n").value == merged_ba.counter("n").value == 3.5
    assert merged_ab.distribution("h").pos == merged_ba.distribution("h").pos
    assert merged_ab.distribution("h").count == merged_ba.distribution("h").count == 3


def test_registry_merge_accepts_serialized_payload():
    a = MetricsRegistry()
    a.counter("n").inc()
    b = MetricsRegistry()
    b.counter("n").inc(2)
    b.counter("only_b", algorithm="AN").inc(5)
    a.merge(b.to_dict())
    assert a.counter("n").value == 3.0
    assert a.counter("only_b", algorithm="AN").value == 5.0


def test_merge_adopts_a_copy_of_new_series():
    source = MetricsRegistry()
    source.distribution("d").observe(2.0)
    target = MetricsRegistry()
    target.merge(source)
    target.distribution("d").observe(3.0)
    assert source.distribution("d").count == 1
    assert target.distribution("d").count == 2


def test_prometheus_text_exposition():
    registry = MetricsRegistry()
    registry.counter("engine.runs", algorithm="LACB-Opt").inc(2)
    registry.distribution("batch.sizes").observe(1.5)
    text = registry.prometheus_text(prefix="repro")
    assert 'repro_engine_runs{algorithm="LACB-Opt"} 2' in text
    assert "# TYPE repro_engine_runs counter" in text
    assert "# TYPE repro_batch_sizes summary" in text
    assert 'repro_batch_sizes{quantile="0.5"} 1.5' in text
    assert "repro_batch_sizes_sum 1.5" in text
    assert "repro_batch_sizes_count 1" in text
    assert "_bucket" not in text


# ----------------------------------------------------------------------
# Payloads written before distributions replaced histograms and timers
# ----------------------------------------------------------------------
LEGACY_DIR = os.path.join(os.path.dirname(__file__), "data", "legacy_telemetry")


def _legacy_payload():
    with open(os.path.join(LEGACY_DIR, "metrics.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_legacy_histograms_and_timers_load_as_their_sketches():
    payload = _legacy_payload()
    registry = MetricsRegistry.from_dict(payload)
    kinds = {entry["kind"] for entry in payload["metrics"]}
    assert {"histogram", "timer"} <= kinds
    assert len(registry) == len(payload["metrics"])
    for entry in payload["metrics"]:
        [metric] = [
            m for labels, m in registry.find(entry["name"]) if labels == entry["labels"]
        ]
        if entry["kind"] in ("histogram", "timer"):
            assert metric.kind == "distribution"
            assert metric.state() == entry["state"]["sketch"]
        else:
            assert metric.kind == entry["kind"]
            assert metric.state() == entry["state"]
    # A timer's count and total are its sketch's count and sum, exactly.
    for entry in payload["metrics"]:
        if entry["kind"] == "timer":
            [metric] = [
                m for labels, m in registry.find(entry["name"]) if labels == entry["labels"]
            ]
            assert metric.count == entry["state"]["count"]
            assert float.hex(metric.sum) == float.hex(entry["state"]["total"])


def test_legacy_payload_merges_into_a_current_registry():
    """Stream reconstruction merges old snapshots into fresh registries."""
    merged = MetricsRegistry()
    merged.merge(_legacy_payload())
    merged.merge(_legacy_payload())
    single = MetricsRegistry.from_dict(_legacy_payload())
    for name, labels, metric in single.items():
        [twice] = [m for found, m in merged.find(name) if found == labels]
        if metric.kind == "distribution":
            assert twice.count == 2 * metric.count


def test_legacy_sketchless_entries_load_empty():
    payload = {"metrics": [
        {"name": "old", "labels": {}, "kind": "timer",
         "state": {"count": 1, "total": 0.5, "min": 0.5, "max": 0.5}},
    ]}
    [(_name, _labels, metric)] = MetricsRegistry.from_dict(payload).items()
    assert metric.kind == "distribution"
    assert metric.count == 0
