"""Typed entities shared across the library.

Definitions follow Sec. III of the paper: a broker is the triple
``(x_b, w_b, s_b)`` (Def. 1), requests arrive in per-interval batches, and
an assignment ``M^(i)`` matches requests of interval ``i`` to brokers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Broker:
    """A broker as in Def. 1: attributes, daily workload, daily sign-up rate.

    Attributes:
        broker_id: stable integer identifier (index into utility matrices).
        features: the working-status context vector ``x_b`` (Table II
            attributes, vectorized).  Refreshed each day by the platform.
        workload: number of requests served so far *today* (``w_b``).
        signup_rate: most recent observed daily sign-up rate (``s_b``).
    """

    broker_id: int
    features: np.ndarray
    workload: int = 0
    signup_rate: float = 0.0


@dataclass(frozen=True)
class Request:
    """A client request to be served by exactly one broker.

    Attributes:
        request_id: stable integer identifier.
        features: client/house feature vector used by the utility model.
        day: day index on which the request appears.
        batch: batch (time interval ``i``) index within the day.
    """

    request_id: int
    features: np.ndarray
    day: int
    batch: int


@dataclass(frozen=True)
class TrialTriple:
    """One bandit observation ``(x, w, s)`` (Sec. V-B).

    The broker's realized workload ``w`` (which may be below the chosen
    capacity) together with the realized sign-up rate ``s`` under working
    status ``x`` is what updates the reward mapping function.
    """

    context: np.ndarray
    workload: int
    reward: float


def triples_to_state(triples: list[TrialTriple]) -> dict:
    """Encode a trial-triple list as three parallel arrays (snapshot form).

    Columnar encoding keeps a bandit's replay history compact in a
    checkpoint blob: one ``(n, d)`` context matrix instead of ``n`` tiny
    arrays.  An empty list encodes as a ``(0, 0)`` context matrix.
    """
    if not triples:
        contexts = np.zeros((0, 0))
    else:
        contexts = np.stack([np.asarray(t.context, dtype=float) for t in triples])
    return {
        "contexts": contexts,
        "workloads": np.array([t.workload for t in triples], dtype=int),
        "rewards": np.array([t.reward for t in triples], dtype=float),
    }


def triples_from_state(state: dict) -> list[TrialTriple]:
    """Inverse of :func:`triples_to_state`."""
    contexts = np.asarray(state["contexts"], dtype=float)
    workloads = np.asarray(state["workloads"], dtype=int)
    rewards = np.asarray(state["rewards"], dtype=float)
    return [
        TrialTriple(contexts[i].copy(), int(workloads[i]), float(rewards[i]))
        for i in range(workloads.size)
    ]


@dataclass(frozen=True)
class AssignedPair:
    """One matched (request, broker) edge with its predicted utility."""

    request_id: int
    broker_id: int
    utility: float


@dataclass
class Assignment:
    """The matching ``M^(i)`` produced for one batch.

    Attributes:
        day: day index.
        batch: batch index within the day.
        pairs: matched request-broker pairs.
    """

    day: int
    batch: int
    pairs: list[AssignedPair] = field(default_factory=list)

    @property
    def predicted_utility(self) -> float:
        """Sum of input utilities over matched pairs (the reward of Eq. 1)."""
        return sum(pair.utility for pair in self.pairs)

    def broker_load(self) -> dict[int, int]:
        """Requests assigned per broker in this batch."""
        load: dict[int, int] = {}
        for pair in self.pairs:
            load[pair.broker_id] = load.get(pair.broker_id, 0) + 1
        return load

    def __len__(self) -> int:
        return len(self.pairs)

    def to_state(self) -> dict:
        """Columnar snapshot form (see :func:`triples_to_state` rationale)."""
        return {
            "day": int(self.day),
            "batch": int(self.batch),
            "request_ids": np.array([p.request_id for p in self.pairs], dtype=int),
            "broker_ids": np.array([p.broker_id for p in self.pairs], dtype=int),
            "utilities": np.array([p.utility for p in self.pairs], dtype=float),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Assignment":
        request_ids = np.asarray(state["request_ids"], dtype=int)
        broker_ids = np.asarray(state["broker_ids"], dtype=int)
        utilities = np.asarray(state["utilities"], dtype=float)
        pairs = [
            AssignedPair(int(request_ids[i]), int(broker_ids[i]), float(utilities[i]))
            for i in range(request_ids.size)
        ]
        return cls(day=int(state["day"]), batch=int(state["batch"]), pairs=pairs)


@dataclass
class DayOutcome:
    """Realized end-of-day feedback revealed by the platform.

    Attributes:
        day: day index.
        workloads: ``(|B|,)`` requests served per broker today.
        signup_rates: ``(|B|,)`` realized daily sign-up rate per broker
            (zero for brokers who served nothing).
        realized_utility: ``(|B|,)`` realized (workload-degraded) utility
            accrued by each broker today.
    """

    day: int
    workloads: np.ndarray
    signup_rates: np.ndarray
    realized_utility: np.ndarray

    @property
    def total_realized_utility(self) -> float:
        """Total realized utility of the day across all brokers."""
        return float(np.sum(self.realized_utility))

    def to_state(self) -> dict:
        """Snapshot form: the day index plus deep copies of the arrays."""
        return {
            "day": int(self.day),
            "workloads": np.array(self.workloads),
            "signup_rates": np.array(self.signup_rates),
            "realized_utility": np.array(self.realized_utility),
        }

    @classmethod
    def from_state(cls, state: dict) -> "DayOutcome":
        return cls(
            day=int(state["day"]),
            workloads=np.array(state["workloads"]),
            signup_rates=np.array(state["signup_rates"]),
            realized_utility=np.array(state["realized_utility"]),
        )
