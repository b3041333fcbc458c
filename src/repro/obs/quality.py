"""Online assignment-quality telemetry: is the run matching *well*?

PR 7's telemetry answers "how fast"; this module answers "how good", live,
at every day boundary:

- **capacity-estimation error** — MAE and signed bias of the matcher's
  installed capacities against the simulator's effective (ground-truth)
  capacities of the same day;
- **overload rate** — fraction of brokers whose realized workload exceeds
  their true effective capacity (the failure mode LACB exists to prevent);
- **workload Gini** — concentration of the day's workload distribution
  (the Matthew-effect axis of Figs. 3/10);
- **regret proxy** — realized matched utility vs a sampled unconstrained
  Kuhn-Munkres oracle on the same predicted-utility matrices, reusing the
  SciPy oracle of :mod:`repro.check.invariants`.  The oracle ignores
  capacity constraints, so the gap prices what capacity-awareness costs in
  raw match utility per batch.

All computations run inside :class:`~repro.obs.hook.TelemetryHook` —
outside the engine's decision-time seam, so they never distort latency
metrics — consume no randomness, and sample deterministically by global
batch index, keeping checked/unchecked/audited runs bit-identical.
Regret accumulates in *counters* (exact cross-process merge) so a
``jobs=N`` sweep reports the same regret as the serial run, bit for bit.
"""

from __future__ import annotations

import numpy as np

#: Every Nth batch (by global index) gets an oracle solve.  Dense enough
#: to track drift at paper scale, sparse enough to stay inside the 5%
#: telemetry overhead budget (each solve is one small SciPy LSA).
REGRET_SAMPLE_EVERY = 8


# ----------------------------------------------------------------------
# Pure quality measures
# ----------------------------------------------------------------------
def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative distribution.

    Same estimator as :func:`repro.experiments.metrics.gini`, restated
    here because :mod:`repro.obs` sits *below* :mod:`repro.experiments`
    in the layering (the experiments layer imports obs, not vice versa).
    Empty input returns 0 — a day with no brokers has no concentration.
    """
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return 0.0
    total = values.sum()
    if total <= 0:
        return 0.0
    ranks = np.arange(1, values.size + 1)
    return float(
        (2.0 * np.sum(ranks * values) / (values.size * total))
        - (values.size + 1) / values.size
    )


def capacity_mae(estimated: np.ndarray, true: np.ndarray) -> float:
    """Mean absolute error of estimated vs true per-broker capacities."""
    estimated = np.asarray(estimated, dtype=float)
    true = np.asarray(true, dtype=float)
    if estimated.size == 0:
        return 0.0
    return float(np.abs(estimated - true).mean())


def capacity_bias(estimated: np.ndarray, true: np.ndarray) -> float:
    """Signed mean error (positive = systematic over-estimation)."""
    estimated = np.asarray(estimated, dtype=float)
    true = np.asarray(true, dtype=float)
    if estimated.size == 0:
        return 0.0
    return float((estimated - true).mean())


def overload_rate(workloads: np.ndarray, capacities: np.ndarray) -> float:
    """Fraction of brokers whose workload exceeds their true capacity."""
    workloads = np.asarray(workloads, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if workloads.size == 0:
        return 0.0
    return float((workloads > capacities).mean())


def batch_regret(utilities: np.ndarray, assignment) -> tuple[float, float]:
    """(matched, oracle) utility of one batch.

    ``matched`` sums the realized pairs' raw predicted utilities;
    ``oracle`` is the optimal *unconstrained* partial matching on the full
    ``(|R_batch|, |B|)`` matrix via the SciPy oracle — no availability
    filtering, no Eq. 15 refinement — so ``oracle - matched >= 0`` is the
    batch's capacity-awareness price in predicted-utility units.
    """
    from repro.check.invariants import oracle_optimum

    matched = float(sum(pair.utility for pair in assignment.pairs))
    oracle = oracle_optimum(np.asarray(utilities, dtype=float))
    return matched, oracle


def estimated_capacities_of(matcher) -> np.ndarray | None:
    """The capacities a matcher installed for the current day, if any.

    Duck-typed: LACB-family matchers expose ``estimated_capacities``;
    anything driving a :class:`~repro.core.vfga.ValueFunctionGuidedAssigner`
    exposes ``assigner.capacities``; pure rankers (Top-K, RR) have no
    capacity model and report nothing.
    """
    estimated = getattr(matcher, "estimated_capacities", None)
    if estimated is not None:
        return np.asarray(estimated, dtype=float)
    assigner = getattr(matcher, "assigner", None)
    if assigner is not None:
        return np.asarray(assigner.capacities, dtype=float)
    return None


# ----------------------------------------------------------------------
# The per-run monitor driven by TelemetryHook
# ----------------------------------------------------------------------
class QualityMonitor:
    """Accumulate quality gauges and distributions for one engine run.

    Metrics are resolved once at construction (the same reasoning as
    :class:`~repro.obs.hook.TelemetryHook`'s per-event metrics).  Day-level
    distributions get one observation per day, so a killed-and-resumed
    run's merged sketches equal the straight-through run's exactly.
    """

    def __init__(self, telemetry, context) -> None:
        self._telemetry = telemetry
        self._platform = context.platform
        self._matcher = context.matcher
        self._batches_per_day = max(int(context.batches_per_day), 1)
        self._oracle_available = True
        registry, labels = telemetry.registry, telemetry.labels()
        self._matched = registry.counter("quality.regret_matched_utility", **labels)
        self._oracle = registry.counter("quality.regret_oracle_utility", **labels)
        self._regret_batches = registry.counter("quality.regret_batches", **labels)
        self._gini_days = registry.distribution("quality.workload_gini_days", **labels)
        self._overload_days = registry.distribution("quality.overload_rate_days", **labels)
        self._mae_days = registry.distribution("quality.capacity_mae_days", **labels)

    def on_batch(self, event) -> None:
        """Sampled regret accounting for one assigned batch."""
        if not self._oracle_available or event.request_ids.size == 0:
            return
        index = event.day * self._batches_per_day + event.batch
        if index % REGRET_SAMPLE_EVERY:
            return
        try:
            matched, oracle = batch_regret(event.utilities, event.assignment)
        except ImportError:
            # No SciPy in this environment: regret is the one quality
            # signal that needs it, so it degrades to absent — the other
            # gauges keep flowing.
            self._oracle_available = False
            return
        self._matched.inc(matched)
        self._oracle.inc(oracle)
        self._regret_batches.inc()

    def on_day_end(self, event) -> dict:
        """Book the day's quality gauges; returns the progress fields.

        Fields are *omitted* — never zero-filled — when their inputs are
        unavailable (a matcher without a capacity model, no oracle), so
        downstream renderers can distinguish "absent" from a real 0.0.
        """
        telemetry = self._telemetry
        workloads = np.asarray(event.outcome.workloads, dtype=float)
        fields: dict = {}

        value = gini(workloads)
        telemetry.set_gauge("quality.workload_gini", value)
        self._gini_days.observe(value)
        fields["workload_gini"] = value

        true_capacity = getattr(self._platform, "today_capacity", None)
        if true_capacity is not None:
            rate = overload_rate(workloads, true_capacity)
            telemetry.set_gauge("quality.overload_rate", rate)
            self._overload_days.observe(rate)
            fields["overload_rate"] = rate

            estimated = estimated_capacities_of(self._matcher)
            if estimated is not None and estimated.shape == np.shape(true_capacity):
                mae = capacity_mae(estimated, true_capacity)
                bias = capacity_bias(estimated, true_capacity)
                telemetry.set_gauge("quality.capacity_mae", mae)
                telemetry.set_gauge("quality.capacity_bias", bias)
                self._mae_days.observe(mae)
                fields["capacity_mae"] = mae
                fields["capacity_bias"] = bias

        if self._oracle.value > 0:
            ratio = max(1.0 - self._matched.value / self._oracle.value, 0.0)
            telemetry.set_gauge("quality.regret_ratio", ratio)
            fields["regret_ratio"] = ratio
        return fields
