"""Shared instances and cached runs for the benchmark suite.

Figures 9, 10 and 11 all read the same per-city algorithm runs, and the
four Fig. 8 columns share a base configuration — caching here keeps the
whole suite regenerable in minutes.

Scale note: paper-scale instances (|B| up to 10 000, |R| up to 200 000)
are expressible through the same configs, but the benches run scaled-down
instances (documented per bench and in EXPERIMENTS.md).  The *shape* of
each figure — orderings, trends, speedup factors — is what the suite
checks and prints; absolute numbers differ from the paper's testbed.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from repro.experiments import CityEvaluation, evaluate_city
from repro.simulation import SyntheticConfig

#: Real-like city scale used by the Fig. 9-11 benches (the smallest scale
#: at which the Table IV demand concentration makes capacities bind in
#: all three cities).
CITY_SCALE = 0.05

#: Algorithms of the city comparison, in the paper's reporting order.
CITY_ALGORITHMS = ("Top-1", "Top-3", "RR", "KM", "CTop-1", "CTop-3", "AN", "LACB", "LACB-Opt")

#: Reduced Table III default used as the Fig. 8 sweep base.
SWEEP_BASE = SyntheticConfig(
    num_brokers=150,
    num_requests=4500,
    num_days=10,
    imbalance=0.015,
    seed=1,
)

#: Algorithms included in the Fig. 8 sweeps.
SWEEP_ALGORITHMS = ("Top-3", "RR", "KM", "CTop-3", "AN", "LACB", "LACB-Opt")

#: Synthetic config used for the motivation benches (Figs. 2-4).
MOTIVATION_CONFIG = SyntheticConfig(
    num_brokers=300,
    num_requests=12_000,
    num_days=12,
    imbalance=0.015,
    seed=2,
)


@lru_cache(maxsize=None)
def city_runs(city: str) -> CityEvaluation:
    """One full Fig. 9-11 evaluation per city, cached across benches."""
    return evaluate_city(city, scale=CITY_SCALE, seed=7, algorithms=CITY_ALGORITHMS)


#: CI smoke mode (tiny instances, relaxed gates), shared by every
#: benchmark that has one.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def write_artifact(path, payload: dict) -> None:
    """Write a ``BENCH_*.json`` artifact — or, in smoke mode, print it.

    The committed artifacts hold full-size figures that ``repro-lacb
    baseline --check`` compares against; a smoke run's tiny-instance
    numbers must never replace them, so smoke payloads go to stdout only.
    """
    text = json.dumps(payload, indent=2)
    if SMOKE:
        print(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
