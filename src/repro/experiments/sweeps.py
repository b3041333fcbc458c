"""Fig. 8 parameter sweeps on the Table III synthetic grid.

Each sweep varies one factor (number of brokers, number of requests,
covering days, degree of imbalance) and reports, per algorithm, the total
realized utility of a full run and the decision time.

Running time is reproduced at two granularities:

- the *full-run* decision time inside each sweep (all algorithms on the
  efficient rectangular matcher — identical matchings, feasible wall
  clock), and
- :func:`matching_time_profile`, a per-batch microbenchmark where the
  KM-based algorithms solve the square-padded ``|B| x |B|`` instance the
  paper describes while LACB-Opt prunes with CBS first — this is what
  regenerates the paper's 16.4x-1091.9x speedup factors without running
  cubic solves for an entire horizon.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.selection import select_candidate_brokers
from repro.engine import MatcherSpec, PlatformSpec, RunSpec, run_many
from repro.matching import solve_assignment
from repro.simulation.datasets import SyntheticConfig

#: Factor names accepted by :func:`sweep` (the four Fig. 8 columns).
SWEEP_FACTORS = ("num_brokers", "num_requests", "num_days", "imbalance")

#: Default algorithm set of the Fig. 8 comparison.
DEFAULT_ALGORITHMS = ("Top-1", "Top-3", "RR", "KM", "CTop-1", "CTop-3", "AN", "LACB", "LACB-Opt")


@dataclass
class SweepResult:
    """One Fig. 8 column: a factor swept over several values.

    Attributes:
        factor: the swept factor name.
        values: the factor values.
        utilities: per algorithm, total realized utility at each value.
        times: per algorithm, full-run decision seconds at each value.
    """

    factor: str
    values: list[float]
    utilities: dict[str, list[float]] = field(default_factory=dict)
    times: dict[str, list[float]] = field(default_factory=dict)


def sweep_specs(
    factor: str,
    values: list,
    base_config: SyntheticConfig,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    seed: int = 7,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> list[RunSpec]:
    """Build the declarative run grid of one Fig. 8 column.

    Specs are ordered value-major (all algorithms on one instance before
    the next value), so consecutive specs share a platform and the
    executor's per-process instance cache stays hot.

    Args:
        checkpoint_dir: when set, every spec checkpoints its day-boundary
            state under its own ``checkpoint_dir/<run_id>`` store (the
            per-spec ``run_id`` keeps grid cells from colliding, also
            under ``jobs > 1``).
        resume: continue each spec from its latest checkpoint, if any.
    """
    if factor not in SWEEP_FACTORS:
        raise ValueError(f"unknown factor {factor!r}; choose from {SWEEP_FACTORS}")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires a checkpoint_dir")
    specs: list[RunSpec] = []
    for value in values:
        config = replace(base_config, **{factor: value})
        platform_spec = PlatformSpec.synthetic(config)
        for name in algorithms:
            specs.append(
                RunSpec(
                    platform=platform_spec,
                    matcher=MatcherSpec(name, seed=seed),
                    tag=f"{factor}={value}",
                    checkpoint_dir=checkpoint_dir,
                    resume_from=checkpoint_dir if resume else None,
                )
            )
    return specs


def sweep(
    factor: str,
    values: list,
    base_config: SyntheticConfig,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    seed: int = 7,
    jobs: int = 1,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> SweepResult:
    """Run one Fig. 8 column.

    Args:
        factor: one of :data:`SWEEP_FACTORS`.
        values: factor values (Table III rows).
        base_config: the synthetic city config to perturb.
        algorithms: algorithm names to compare.
        seed: matcher seed (instance seeds come from the config).
        jobs: worker processes for the run grid (1 = serial; results are
            bit-identical either way, see :func:`repro.engine.run_many`).
        checkpoint_dir / resume: durable day-boundary state per grid cell;
            see :func:`sweep_specs`.
    """
    specs = sweep_specs(
        factor,
        values,
        base_config,
        algorithms=algorithms,
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    runs = run_many(specs, jobs=jobs)
    result = SweepResult(factor=factor, values=[float(v) for v in values])
    for name in algorithms:
        result.utilities[name] = []
        result.times[name] = []
    for index, run in enumerate(runs):
        name = algorithms[index % len(algorithms)]
        result.utilities[name].append(run.total_realized_utility)
        result.times[name].append(run.decision_time)
    return result


@dataclass
class MatchingTimeProfile:
    """Per-batch matching cost of the paper's implementations.

    Attributes:
        num_brokers: broker-side size ``|B|``.
        batch_size: request-side size ``|R|`` of the batch.
        km_square_seconds: one KM solve on the square-padded graph (the
            KM / AN / LACB implementation of Sec. VI-B).
        cbs_km_seconds: CBS pruning plus KM on the reduced graph (the
            LACB-Opt implementation of Sec. VI-C).
        speedup: their ratio — the paper's headline acceleration.
    """

    num_brokers: int
    batch_size: int
    km_square_seconds: float
    cbs_km_seconds: float

    @property
    def speedup(self) -> float:
        """KM-square time over CBS+KM time."""
        if self.cbs_km_seconds <= 0:
            return float("inf")
        return self.km_square_seconds / self.cbs_km_seconds


def matching_time_profile(
    num_brokers: int,
    batch_size: int,
    seed: int = 0,
    repeats: int = 3,
) -> MatchingTimeProfile:
    """Measure one batch's matching cost under both implementations."""
    rng = np.random.default_rng(seed)
    utilities = rng.uniform(0.0, 1.0, size=(batch_size, num_brokers))

    square_times = []
    for _ in range(repeats):
        tick = time.perf_counter()
        solve_assignment(utilities, pad_square=True)
        square_times.append(time.perf_counter() - tick)

    cbs_times = []
    for _ in range(repeats):
        tick = time.perf_counter()
        chosen = select_candidate_brokers(utilities, batch_size)
        solve_assignment(utilities[:, chosen])
        cbs_times.append(time.perf_counter() - tick)

    return MatchingTimeProfile(
        num_brokers=num_brokers,
        batch_size=batch_size,
        km_square_seconds=float(np.median(square_times)),
        cbs_km_seconds=float(np.median(cbs_times)),
    )
