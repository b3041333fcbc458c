"""Seeded workloads and the episode runner of the end-to-end benchmark.

A workload is a fixed instance shape (``|B|``, ``|R|``, days, sigma), an
algorithm and a driving mode.  Everything random in it derives from one
``--seed``: the city (population and request stream), the matcher's private
generator and the arrival schedule.  The program under test only ever sees
the generated platform.

An *episode* drives a freshly built matcher over the whole horizon of one
instance.  Repeated episodes on the same instance face bit-identical inputs,
so every episode of a run must reproduce the same decisions; the benchmark
uses that as its correctness gate (see :func:`Episode.signature`).

This module imports the package under test at the top on purpose: the
set-up probe times ``import workloads`` as the import half of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.algorithms import make_matcher
from repro.engine.hooks import MetricsCollector, RunHook
from repro.serving import MicroBatchPolicy, ServingEngine
from repro.serving.arrivals import derive_arrivals
from repro.simulation import SyntheticConfig, generate_city

#: Virtual length of one platform window.  Fixed-window workloads close one
#: batch per window (:meth:`MicroBatchPolicy.boundary`, the paper's
#: batching), so their ``serve_latency_*`` is the wait a request sees there:
#: time to the window close, then the queue and the solve.
WINDOW_SECONDS = 0.01


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name / why: identifier and the reason it is in the benchmark.
        algorithm: the compared algorithm (paper name).
        num_brokers / num_requests / num_days / imbalance: the Table III
            factors of the synthetic city.
        profile: arrival profile of the schedule (``uniform``/``bursty``).
        max_wait / max_size: micro-batch policy of the open-loop serving
            mode; ``None`` closes one batch per window instead (closed
            loop: decisions bit-identical to the day loop's).
        dominant: the layers predicted to take most of an episode; the
            traced run reports whether they do.
    """

    name: str
    why: str
    algorithm: str
    num_brokers: int
    num_requests: int
    num_days: int
    imbalance: float
    profile: str = "uniform"
    max_wait: float | None = None
    max_size: int | None = None
    dominant: tuple[str, ...] = ()

    @property
    def open_loop(self) -> bool:
        return self.max_wait is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="day-dense",
            why=(
                "closed loop, LACB-Opt at paper-default |B|=2000, sigma=0.015, 4 days: "
                "the full matching path (KM, CBS, Eq. 15 refinement, TD) at paper scale"
            ),
            algorithm="LACB-Opt",
            num_brokers=2000,
            num_requests=20_000,
            num_days=4,
            imbalance=0.015,
            dominant=(
                "matching.km",
                "core.selection",
                "core.value_function.refine",
                "core.value_function.td",
            ),
        ),
        Workload(
            name="long-horizon",
            why=(
                "closed loop, personalized LACB over 14 days: bandit estimate/update "
                "dominate and KM is small, so bandit gains show here and matching gains barely do"
            ),
            algorithm="LACB",
            num_brokers=500,
            num_requests=8000,
            num_days=14,
            imbalance=0.02,
            dominant=("bandits.estimate", "bandits.update"),
        ),
        Workload(
            name="serve-bursty",
            why=(
                "open loop, bursty arrivals micro-batched (0.5 ms wait, 8 max) into "
                "~4000 small solves: fixed per-call costs and the queue set latency"
            ),
            algorithm="LACB-Opt",
            num_brokers=1000,
            num_requests=8000,
            num_days=4,
            imbalance=0.02,
            profile="bursty",
            max_wait=0.0005,
            max_size=8,
            dominant=("algorithms", "core.vfga", "core.selection", "matching.km"),
        ),
    )
}

#: The seed a bare run uses, and a seed kept out of tuning so a claimed
#: gain can be confirmed on inputs nobody looked at while writing it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def derive_seeds(seed: int) -> dict[str, int]:
    """The per-component seeds one ``--seed`` expands to."""
    city, matcher, arrivals = np.random.SeedSequence(seed).generate_state(3)
    return {"city": int(city), "matcher": int(matcher), "arrivals": int(arrivals)}


@dataclass
class Instance:
    """A built workload: the platform plus everything an episode needs."""

    workload: Workload
    seeds: dict
    platform: object
    schedule: object

    def new_matcher(self):
        return make_matcher(
            self.workload.algorithm, self.platform, seed=self.seeds["matcher"]
        )

    def input_digest(self) -> str:
        """Hash of the generated inputs: brokers, request stream, arrivals."""
        population = self.platform.population
        arrays = [
            value
            for value in vars(self.platform.stream).values()
            if isinstance(value, np.ndarray)
        ]
        arrays += [population.static_context, population.latent_capacity]
        arrays.append(self.schedule.offsets)
        digest = hashlib.sha256()
        for array in arrays:
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()


def build_instance(workload: Workload, seed: int, **overrides) -> Instance:
    """Generate the workload's city and arrival schedule from ``seed``.

    ``overrides`` replace instance-size fields (the self-test builds tiny
    instances that take the same code paths).
    """
    if overrides:
        workload = Workload(**{**vars(workload), **overrides})
    seeds = derive_seeds(seed)
    platform = generate_city(
        SyntheticConfig(
            num_brokers=workload.num_brokers,
            num_requests=workload.num_requests,
            num_days=workload.num_days,
            imbalance=workload.imbalance,
            seed=seeds["city"],
        )
    )
    schedule = derive_arrivals(
        platform.stream,
        window_seconds=WINDOW_SECONDS,
        profile=workload.profile,
        seed=seeds["arrivals"],
    )
    return Instance(workload, seeds, platform, schedule)


class EpisodeRecorder(RunHook):
    """Collects the engine's own matcher timing and every decision."""

    def __init__(self) -> None:
        self.matcher_s = 0.0
        self.decision_s: list[float] = []
        self.requests = 0
        self.pairs: list[int] = []

    def on_day_start(self, event) -> None:
        self.matcher_s += event.matcher_seconds

    def on_batch_assigned(self, event) -> None:
        self.matcher_s += event.matcher_seconds
        self.decision_s.append(event.matcher_seconds)
        self.requests += event.request_ids.size
        for pair in event.assignment.pairs:
            self.pairs.append(pair.request_id)
            self.pairs.append(pair.broker_id)

    def on_day_end(self, event) -> None:
        self.matcher_s += event.matcher_seconds


@dataclass
class Episode:
    """What one episode measured and decided.

    Attributes:
        wall_s: seconds of the whole engine run, platform work included.
            All times are on the episode's clock (see :func:`run_episode`).
        matcher_s: seconds on the engine's matcher clock (``begin_day`` +
            ``assign_batch`` + ``end_day``, the paper's running-time axis).
        decision_s: engine-timed seconds of each ``assign_batch`` call.
        latency_s: per-request seconds from due arrival to completion.
        requests / assigned / utility_total: work offered and its outcome.
        decisions_sha: hash of every (request, broker) decision in order.
    """

    wall_s: float
    matcher_s: float
    decision_s: np.ndarray
    latency_s: np.ndarray
    requests: int
    assigned: int
    utility_total: float
    decisions_sha: str

    def signature(self) -> tuple:
        """The decision fingerprint every episode of a run must repeat."""
        return (self.decisions_sha, self.assigned, self.utility_total)


def run_episode(instance: Instance, around=None, clock=None) -> Episode:
    """Drive a fresh matcher over the instance's whole horizon.

    Args:
        instance: the built workload.
        around: optional context manager entered just around the engine
            call (the tracer's root span); the episode wall clock is the
            same interval.
        clock: a :class:`hostclock.HostClock` that times the episode and
            the matcher calls in reference-host seconds (and recalibrates
            as a hook); ``None`` uses plain ``perf_counter`` seconds.
    """
    matcher = instance.new_matcher()
    recorder = EpisodeRecorder()
    collector = MetricsCollector()
    hooks = (recorder, collector)
    if clock is None:
        clock = time.perf_counter
    else:
        hooks += (clock,)
    workload = instance.workload
    if workload.open_loop:
        policy = MicroBatchPolicy(max_wait=workload.max_wait, max_size=workload.max_size)
    else:
        policy = MicroBatchPolicy.boundary(WINDOW_SECONDS)
    engine = ServingEngine(policy=policy, schedule=instance.schedule, clock=clock)
    with around if around is not None else nullcontext():
        tick = clock()
        report = engine.run(instance.platform, matcher, hooks=hooks)
        wall = clock() - tick
    result = collector.result
    return Episode(
        wall_s=wall,
        matcher_s=recorder.matcher_s,
        decision_s=np.asarray(recorder.decision_s),
        latency_s=report.latencies,
        requests=recorder.requests,
        assigned=int(result.num_assigned),
        utility_total=float(result.total_realized_utility),
        decisions_sha=hashlib.sha256(
            np.asarray(recorder.pairs, dtype=np.int64).tobytes()
        ).hexdigest(),
    )
