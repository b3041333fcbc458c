"""Zero-dependency metrics primitives: counters, gauges, distributions.

The registry is the process-local half of the observability story: every
worker process accumulates into its own :class:`MetricsRegistry`, the
registry serializes to plain data (:meth:`MetricsRegistry.to_dict`), and
the parent folds worker payloads back in with :meth:`MetricsRegistry.merge`.
Merging is exact (integer bucket counts, float sums folded in spec order),
which is what makes a ``jobs=2`` sweep's merged metrics bit-for-bit equal
to the ``jobs=1`` run's.

There is one distribution type, the
:class:`~repro.obs.quantiles.QuantileSketch` (``kind = "distribution"``).
Durations (the ``engine.*`` phases and ``span.*`` series), sizes,
workloads and ratios all use it, so no call site picks bucket boundaries,
and every distribution is exported as a Prometheus ``summary``.
"""

from __future__ import annotations

from typing import Mapping

from repro.obs.quantiles import REPORT_QUANTILES, QuantileSketch

#: Labels are stored canonically as a sorted tuple of (key, value) pairs.
LabelItems = tuple[tuple[str, str], ...]


class Counter:
    """Monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters only go up)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount

    def merge(self, other: Counter) -> None:
        self.value += other.value

    def state(self) -> dict:
        return {"value": self.value}

    def load(self, state: Mapping) -> None:
        self.value = float(state["value"])


class Gauge:
    """Last-written value (plus an update count so merges know freshness)."""

    kind = "gauge"
    __slots__ = ("value", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def merge(self, other: Gauge) -> None:
        # Last-write-wins in merge order; an untouched gauge never clobbers.
        if other.updates > 0:
            self.value = other.value
        self.updates += other.updates

    def state(self) -> dict:
        return {"value": self.value, "updates": self.updates}

    def load(self, state: Mapping) -> None:
        self.value = float(state["value"])
        self.updates = int(state["updates"])


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, QuantileSketch)}

#: Kinds written before distributions replaced them; loaded as distributions.
_LEGACY_DISTRIBUTIONS = ("histogram", "timer")

Metric = Counter | Gauge | QuantileSketch


def _canonical_labels(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create store of labeled metrics with exact merge semantics.

    Metric identity is ``(name, labels)``; requesting an existing metric
    with a conflicting kind raises rather than silently forking the series.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], Metric] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def _get(self, kind: type, name: str, labels: Mapping[str, object]) -> Metric:
        key = (name, _canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind()
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r}{dict(key[1])} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def distribution(self, name: str, **labels) -> QuantileSketch:
        return self._get(QuantileSketch, name, labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def items(self) -> list[tuple[str, dict[str, str], Metric]]:
        """``(name, labels, metric)`` triples in deterministic order."""
        return [
            (name, dict(labels), metric)
            for (name, labels), metric in sorted(self._metrics.items())
        ]

    def find(self, name: str) -> list[tuple[dict[str, str], Metric]]:
        """Every labeled series of one metric name."""
        return [(dict(labels), m) for (n, labels), m in sorted(self._metrics.items()) if n == name]

    # ------------------------------------------------------------------
    # Serialization and merge
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data dump, safe to pickle/JSON across process boundaries."""
        return {
            "metrics": [
                {"name": name, "labels": dict(labels), "kind": metric.kind,
                 "state": metric.state()}
                for (name, labels), metric in sorted(self._metrics.items())
            ]
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> MetricsRegistry:
        """Rebuild a registry from :meth:`to_dict` output.

        Older payloads still load: a legacy ``"histogram"`` or ``"timer"``
        entry becomes a distribution holding its embedded ``"sketch"``
        state (empty if the entry predates sketches), which carries the
        count, sum, extremes and quantiles those types reported.
        """
        registry = cls()
        for entry in payload["metrics"]:
            kind, state = entry["kind"], entry["state"]
            if kind in _LEGACY_DISTRIBUTIONS:
                kind, state = "distribution", state.get("sketch")
            metric = _KINDS[kind]()
            if state is not None:
                metric.load(state)
            registry._metrics[(entry["name"], _canonical_labels(entry["labels"]))] = metric
        return registry

    def merge(self, other: MetricsRegistry | Mapping) -> None:
        """Fold another registry (or its :meth:`to_dict` payload) into this one.

        Counter and distribution merges are exact (sums of integers plus
        float additions applied in caller-controlled order), so merging
        worker payloads in spec order reproduces the serial run bit-for-bit.
        """
        if not isinstance(other, MetricsRegistry):
            other = MetricsRegistry.from_dict(other)
        for (name, labels), metric in sorted(other._metrics.items()):
            existing = self._metrics.get((name, labels))
            if existing is None:
                # Adopt a copy so the source registry stays intact.
                clone = type(metric)()
                clone.load(metric.state())
                self._metrics[(name, labels)] = clone
            elif existing.kind != metric.kind:
                raise ValueError(
                    f"cannot merge {metric.kind} into {existing.kind} for metric {name!r}"
                )
            else:
                existing.merge(metric)

    # ------------------------------------------------------------------
    # Prometheus exposition
    # ------------------------------------------------------------------
    def prometheus_text(self, prefix: str = "repro") -> str:
        """Render every metric in the Prometheus text exposition format.

        Counters and gauges are one sample each.  A distribution is a
        ``summary`` under its registered name: ``quantile="0.5|0.95|0.99"``
        samples (omitted while it is empty), then ``_sum`` and ``_count``.
        """
        lines: list[str] = []
        seen_types: set[str] = set()
        for (name, labels), metric in sorted(self._metrics.items()):
            base = _prom_name(prefix, name)
            _prom_type(lines, seen_types, base, _PROM_TYPES[metric.kind])
            if not isinstance(metric, QuantileSketch):
                lines.append(f"{base}{_prom_labels(labels)} {_prom_value(metric.value)}")
                continue
            if metric.count:
                for q in REPORT_QUANTILES:
                    lines.append(
                        f"{base}{_prom_labels(labels, quantile=_prom_value(q))} "
                        f"{_prom_value(metric.quantile(q))}"
                    )
            lines.append(f"{base}_sum{_prom_labels(labels)} {_prom_value(metric.sum)}")
            lines.append(f"{base}_count{_prom_labels(labels)} {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")


#: Prometheus metric type of each registry kind.
_PROM_TYPES = {"counter": "counter", "gauge": "gauge", "distribution": "summary"}


def _prom_name(prefix: str, name: str) -> str:
    cleaned = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{cleaned}"


def _prom_type(lines: list[str], seen: set[str], base: str, kind: str) -> None:
    if base not in seen:
        lines.append(f"# TYPE {base} {kind}")
        seen.add(base)


def _prom_escape(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, ``\\n``."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: LabelItems, **extra: str) -> str:
    parts = [f'{k}="{_prom_escape(v)}"' for k, v in labels] + [
        f'{k}="{_prom_escape(v)}"' for k, v in extra.items()
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_value(value: float) -> str:
    value = float(value)
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    rendered = repr(value)
    return rendered[:-2] if rendered.endswith(".0") else rendered
