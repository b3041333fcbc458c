"""Prometheus text exposition: edge cases a scraper must survive.

The exporter output is consumed verbatim by Prometheus' text parser, so
these tests pin the format corners: empty registries, label values with
quotes/backslashes/newlines, non-finite observations, zero-count
distributions and summary quantiles.
"""

import json
import math
import os

from repro.obs.metrics import MetricsRegistry, _prom_labels
from repro.obs.quantiles import REPORT_QUANTILES

LEGACY_METRICS = os.path.join(
    os.path.dirname(__file__), "data", "legacy_telemetry", "metrics.json"
)


def test_empty_registry_renders_empty_string():
    assert MetricsRegistry().prometheus_text() == ""


def test_label_values_escaped():
    registry = MetricsRegistry()
    registry.counter(
        "events", path='C:\\runs\\x', note='say "hi"\nbye'
    ).inc()
    text = registry.prometheus_text()
    assert r'path="C:\\runs\\x"' in text
    assert r'note="say \"hi\"\nbye"' in text
    # The escaped line must stay a single physical line.
    [line] = [l for l in text.splitlines() if l.startswith("repro_events{")]
    assert line.endswith(" 1")


def test_non_finite_values_render_prometheus_spellings():
    registry = MetricsRegistry()
    registry.gauge("pos").set(math.inf)
    registry.gauge("neg").set(-math.inf)
    registry.gauge("nan").set(math.nan)
    text = registry.prometheus_text()
    assert "repro_pos +Inf" in text
    assert "repro_neg -Inf" in text
    assert "repro_nan NaN" in text


def test_zero_count_histogram_exports_complete_series():
    """An empty distribution is a summary with zero sum and count."""
    registry = MetricsRegistry()
    registry.distribution("empty")
    text = registry.prometheus_text()
    assert text == (
        "# TYPE repro_empty summary\n"
        "repro_empty_sum 0\n"
        "repro_empty_count 0\n"
    )


def test_zero_count_timer_has_no_quantile_lines():
    registry = MetricsRegistry()
    registry.distribution("idle")
    text = registry.prometheus_text()
    assert "quantile=" not in text
    assert "repro_idle_count 0" in text


def test_timer_summary_quantiles_present_and_ordered():
    registry = MetricsRegistry()
    timer = registry.distribution("solve", algorithm="LACB-Opt")
    for value in (0.001, 0.002, 0.010, 0.100):
        timer.observe(value)
    text = registry.prometheus_text()
    for q in REPORT_QUANTILES:
        assert f'repro_solve{{algorithm="LACB-Opt",quantile="{q}"}}' in text
    # Quantile values are monotone in q for this sample.
    values = []
    for line in text.splitlines():
        if "quantile=" in line:
            values.append(float(line.rsplit(" ", 1)[1]))
    assert values == sorted(values)


def test_non_finite_histogram_observation_keeps_export_parseable():
    registry = MetricsRegistry()
    distribution = registry.distribution("weird")
    distribution.observe(math.inf)
    distribution.observe(math.nan)
    text = registry.prometheus_text()
    # NaN is counted but kept out of the sum (and the quantiles); every
    # line still renders in Prometheus spelling and count is exact.
    assert "repro_weird_sum +Inf" in text
    assert "repro_weird_count 2" in text
    assert 'repro_weird{quantile="0.5"} +Inf' in text


def test_every_series_is_a_counter_gauge_or_complete_summary():
    """Exactly three exposition types, and every summary series carries
    its quantile lines (unless empty), ``_sum`` and ``_count``."""
    with open(LEGACY_METRICS, encoding="utf-8") as handle:
        registry = MetricsRegistry.from_dict(json.load(handle))
    registry.distribution("empty_series")
    registry.distribution("nan_only").observe(math.nan)
    text = registry.prometheus_text()
    types = dict(
        line.split()[2:4] for line in text.splitlines() if line.startswith("# TYPE")
    )
    assert set(types.values()) == {"counter", "gauge", "summary"}
    samples = [line for line in text.splitlines() if not line.startswith("#")]
    for name, labels, metric in registry.items():
        base = "repro_" + "".join(c if c.isalnum() else "_" for c in name)
        kind = types[base]
        assert kind == {"counter": "counter", "gauge": "gauge", "distribution": "summary"}[
            metric.kind
        ]
        series = _prom_labels(tuple(sorted(labels.items())))
        if kind != "summary":
            assert sum(line.startswith(f"{base}{series} ") for line in samples) == 1
            continue
        assert f"{base}_count{series} {metric.count}" in samples
        assert sum(line.startswith(f"{base}_sum{series} ") for line in samples) == 1
        inner = series[1:-1] + "," if series else ""
        quantile = f'{base}{{{inner}quantile="'
        quantile_lines = [line for line in samples if line.startswith(quantile)]
        assert len(quantile_lines) == (len(REPORT_QUANTILES) if metric.count else 0)
    assert "_bucket" not in text and "_seconds" not in text
