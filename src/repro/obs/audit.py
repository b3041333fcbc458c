"""Decision provenance: why did request ``r`` go to broker ``b``?

The quality gauges of :mod:`repro.obs.quality` say *how well* a run is
matching; this module records *why each individual match happened*.  While
an audit session is active, the instrumentation points capture, per day:

- the bandit side (Alg. 1): every broker's chosen capacity arm together
  with the selection rule that picked it (``coverage`` / ``epsilon`` /
  ``ucb`` / the personalized variants) and — when the arm came from a UCB
  argmax — the predicted mean and exploration bonus behind the score;
- the assignment side (Alg. 2/3), for sampled batches: the available set
  ``B+``, how many brokers CBS kept and the prune ratio, and per realized
  KM edge the raw utility, the Eq. 15 value-refined utility (their delta
  is the refinement term), the broker's residual quota at match time, and
  the top runner-up candidates by refined score.

One compact record per day rides in that day's stream record
(:mod:`repro.obs.stream`) as its ``audit`` field, so it shares the
stream's crash safety (fsync'd appends, torn-tail-tolerant reads) and its
segment order: ``run_many`` runs write per-spec segments, segment name
order is spec order, and a ``jobs=N`` run records the same audit as the
serial one.

Sampling is **index-based** — a batch is audited iff its global batch
index ``day * batches_per_day + batch`` is a multiple of ``sample_every``
— so a killed-and-resumed run audits exactly the batches the
straight-through run would, and no RNG is ever consumed: audited runs are
bit-identical to unaudited ones.

``repro-lacb explain RUN_DIR`` reconstructs and pretty-prints the decision
paths (see :func:`repro.obs.report.render_explain`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs import telemetry as obs_telemetry


#: Decimal digits kept on every recorded float: audit records are written
#: once per day but hold per-assignment detail, so compactness matters
#: more than the 5th decimal of a utility.
ROUND_DIGITS = 4


def _round(value) -> float | None:
    return None if value is None else round(float(value), ROUND_DIGITS)


@dataclass(frozen=True)
class AuditConfig:
    """Provenance knobs (picklable — ships to ``run_many`` workers).

    Attributes:
        sample_every: audit every Nth batch by global batch index
            (``1`` = every batch; raise it at scale to bound record size).
        top_alternatives: runner-up candidates kept per realized edge.
    """

    sample_every: int = 1
    top_alternatives: int = 3

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.top_alternatives < 0:
            raise ValueError(
                f"top_alternatives must be >= 0, got {self.top_alternatives}"
            )


class BatchTrail:
    """Scratch collector for one sampled batch (filled by VFGA)."""

    __slots__ = ("day", "batch", "requests", "available", "kept", "pruned_ratio", "decisions")

    def __init__(self, day: int, batch: int) -> None:
        self.day = day
        self.batch = batch
        self.requests = 0
        self.available: int | None = None
        self.kept: int | None = None
        self.pruned_ratio: float | None = None
        self.decisions: list[tuple] = []

    def add_decision(
        self,
        request_id: int,
        broker_id: int,
        raw: float,
        refined: float,
        residual: float,
        capacity: float,
        workload: int,
        alternatives: list[tuple[int, float, float]] = (),
    ) -> None:
        """One realized KM edge with its refinement terms and runners-up.

        Hot path: appends one plain tuple.  Rounding and dict packaging
        happen in :meth:`to_dict` at the day-boundary flush, off the
        decision-time path the audit benchmark budgets.
        """
        self.decisions.append(
            (request_id, broker_id, raw, refined, residual, capacity, workload,
             alternatives)
        )

    def to_dict(self) -> dict:
        return {
            "batch": int(self.batch),
            "requests": int(self.requests),
            "available": None if self.available is None else int(self.available),
            "kept": None if self.kept is None else int(self.kept),
            "pruned_ratio": _round(self.pruned_ratio),
            "decisions": [
                {
                    "request": int(request),
                    "broker": int(broker),
                    "raw": _round(raw),
                    "refined": _round(refined),
                    "delta": _round(refined - raw),
                    "residual": _round(residual),
                    "capacity": _round(capacity),
                    "workload": int(workload),
                    "alternatives": [
                        [int(b), _round(r), _round(u)] for b, r, u in alternatives
                    ],
                }
                for request, broker, raw, refined, residual, capacity, workload,
                    alternatives in self.decisions
            ],
        }


class DecisionAudit:
    """Per-run provenance collector.

    Instrumentation points (bandits, VFGA) write into the active session
    via :func:`current`; :class:`~repro.obs.hook.TelemetryHook` packages
    the buffered day into one record at each day boundary, hands it to
    the day's stream flush and clears the buffer.  The collector itself
    never does I/O and consumes no randomness.
    """

    def __init__(self, config: AuditConfig, batches_per_day: int, algorithm: str) -> None:
        self.config = config
        self.batches_per_day = max(int(batches_per_day), 1)
        self.algorithm = algorithm
        self._capacity_notes: list[tuple[int, float, str, float | None, float | None]] = []
        self._batches: list[BatchTrail] = []

    # ------------------------------------------------------------------
    # Capacity estimation (Alg. 1) notes
    # ------------------------------------------------------------------
    def note_capacity(
        self,
        broker_id: int,
        capacity: float,
        rule: str,
        mean: float | None = None,
        bonus: float | None = None,
    ) -> None:
        """One broker's chosen capacity arm and the rule that picked it."""
        self._capacity_notes.append((int(broker_id), float(capacity), rule, mean, bonus))

    # ------------------------------------------------------------------
    # Assignment (Alg. 2/3) trails
    # ------------------------------------------------------------------
    def begin_batch(self, day: int, batch: int) -> BatchTrail | None:
        """A trail for this batch, or ``None`` when the batch is not sampled."""
        index = day * self.batches_per_day + batch
        if index % self.config.sample_every:
            return None
        return BatchTrail(day, batch)

    def commit_batch(self, trail: BatchTrail) -> None:
        """Buffer a completed trail for the day-boundary flush."""
        self._batches.append(trail)

    # ------------------------------------------------------------------
    # Day flush
    # ------------------------------------------------------------------
    def day_record(self, day: int) -> dict | None:
        """Package (and clear) the buffered day; ``None`` if nothing audited."""
        notes, self._capacity_notes = self._capacity_notes, []
        batches, self._batches = self._batches, []
        if not notes and not batches:
            return None
        record: dict = {"day": int(day), "algorithm": self.algorithm}
        if notes:
            record["capacity"] = {
                "broker": [n[0] for n in notes],
                "capacity": [_round(n[1]) for n in notes],
                "rule": [n[2] for n in notes],
                "mean": [_round(n[3]) for n in notes],
                "bonus": [_round(n[4]) for n in notes],
            }
        record["batches"] = [trail.to_dict() for trail in batches]
        return record


def current() -> DecisionAudit | None:
    """The active run's audit session, or ``None`` (the usual fast path).

    The session rides on the active :class:`~repro.obs.telemetry.Telemetry`
    rather than its own module global, so ``run_many``'s per-spec telemetry
    scoping isolates audit sessions for free, and a run that dies mid-day
    cannot leak a live session into the next run's records.
    """
    telemetry = obs_telemetry.current()
    return telemetry.audit_session if telemetry is not None else None


@dataclass
class AuditView:
    """Every audited day record of a telemetry directory.

    Attributes:
        directory: the telemetry directory the records were read from.
        records: day records in segment-name (= spec) order, then day order.
    """

    directory: str
    records: list[dict] = field(default_factory=list)

    def decisions(
        self,
        day: int | None = None,
        request: int | None = None,
        broker: int | None = None,
    ) -> Iterator[tuple[dict, dict, dict]]:
        """Iterate ``(day record, batch entry, decision)`` matching filters."""
        for record in self.records:
            if day is not None and record.get("day") != day:
                continue
            for batch in record.get("batches", ()):
                for decision in batch.get("decisions", ()):
                    if request is not None and decision.get("request") != request:
                        continue
                    if broker is not None and decision.get("broker") != broker:
                        continue
                    yield record, batch, decision


def read_audit(directory) -> AuditView:
    """The audit day records a telemetry directory's stream carries.

    A directory with nothing streamed (or nothing audited) yields an empty
    view — "nothing audited" is a state the explain command renders, not
    an error.
    """
    from repro.obs.stream import read_stream, stream_dir_for

    view = read_stream(stream_dir_for(directory))
    return AuditView(
        directory=os.fspath(directory),
        records=[record for segment in view.segments for record in segment.audit],
    )
