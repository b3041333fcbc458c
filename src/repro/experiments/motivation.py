"""The Sec. II measurement study, reproduced on simulated traces.

The paper motivates capacity-aware assignment with three measurements on
Beike data, all taken *under the incumbent top-k recommendation*:

- Fig. 2 — city-level average sign-up rate vs. daily workload, dropping
  sharply past ~40 requests/day (Welch's t-test, p < 0.0001);
- Fig. 3 — per-broker sign-up curves of the most-loaded brokers:
  non-linear, broker-specific, best inside an accustomed workload area;
- Fig. 4 — the workload distribution of the top brokers vs. the city
  average (top-1 at 12.03x the average in City A).

We regenerate all three by running Top-K recommendation on a simulated
city and observing the same statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms import make_matcher
from repro.experiments.runner import run_algorithm
from repro.simulation.platform import RealEstatePlatform


@dataclass
class SignupWorkloadStudy:
    """Fig. 2 data: binned sign-up rate vs. daily workload for one city.

    Attributes:
        bin_centers: workload bin centers (requests/day).
        mean_signup: average observed daily sign-up rate per bin.
        count: broker-day observations per bin.
        low_band / high_band: (min, max) of binned rates below / at-or-above
            the overload threshold — the paper's "14.3~27.5%" vs
            "2.5~17.8%" bands.
        welch_p_value: Welch's t-test p-value between the below- and
            above-threshold observations.
    """

    bin_centers: np.ndarray
    mean_signup: np.ndarray
    count: np.ndarray
    low_band: tuple[float, float]
    high_band: tuple[float, float]
    welch_p_value: float


def signup_vs_workload(
    platform: RealEstatePlatform,
    seed: int = 0,
    bin_width: int = 5,
    overload_threshold: float = 40.0,
    algorithm: str = "Top-3",
) -> SignupWorkloadStudy:
    """Reproduce Fig. 2 for one city under top-k recommendation.

    Args:
        platform: the city environment.
        seed: matcher seed.
        bin_width: workload bin width (requests/day).
        overload_threshold: the workload the paper flags as overload onset.
        algorithm: incumbent mechanism generating the trace.
    """
    matcher = make_matcher(algorithm, platform, seed=seed)
    result = run_algorithm(platform, matcher, store_outcomes=True)
    workloads: list[float] = []
    signups: list[float] = []
    for outcome in result.outcomes:
        served = outcome.workloads > 0
        workloads.extend(outcome.workloads[served].tolist())
        signups.extend(outcome.signup_rates[served].tolist())
    workloads_arr = np.asarray(workloads, dtype=float)
    signups_arr = np.asarray(signups, dtype=float)

    max_bin = int(np.ceil(workloads_arr.max() / bin_width)) if workloads_arr.size else 1
    centers, means, counts = [], [], []
    for index in range(max_bin):
        low, high = index * bin_width, (index + 1) * bin_width
        mask = (workloads_arr >= low) & (workloads_arr < high)
        if not mask.any():
            continue
        centers.append((low + high) / 2.0)
        means.append(float(signups_arr[mask].mean()))
        counts.append(int(mask.sum()))
    centers_arr = np.asarray(centers)
    means_arr = np.asarray(means)

    below = signups_arr[workloads_arr < overload_threshold]
    above = signups_arr[workloads_arr >= overload_threshold]
    if below.size > 1 and above.size > 1:
        from scipy import stats  # imported here so ``import repro`` stays SciPy-free

        welch = float(stats.ttest_ind(below, above, equal_var=False).pvalue)
    else:
        welch = float("nan")
    low_mask = centers_arr < overload_threshold
    low_rates = means_arr[low_mask]
    high_rates = means_arr[~low_mask]
    return SignupWorkloadStudy(
        bin_centers=centers_arr,
        mean_signup=means_arr,
        count=np.asarray(counts),
        low_band=(float(low_rates.min()), float(low_rates.max())) if low_rates.size else (0.0, 0.0),
        high_band=(float(high_rates.min()), float(high_rates.max())) if high_rates.size else (0.0, 0.0),
        welch_p_value=welch,
    )


@dataclass
class BrokerCurve:
    """Fig. 3 data: one top broker's workload-response relationship.

    Attributes:
        broker_id: the broker.
        workload_grid: probe workloads.
        expected_signup: ground-truth expected sign-up rate per workload.
        observed_workloads / observed_signups: the broker's actual
            broker-day observations under the incumbent mechanism.
        accustomed_workload: the curve's peak (the "light area" of Fig. 3).
    """

    broker_id: int
    workload_grid: np.ndarray
    expected_signup: np.ndarray
    observed_workloads: np.ndarray
    observed_signups: np.ndarray
    accustomed_workload: float


def top_broker_curves(
    platform: RealEstatePlatform,
    seed: int = 0,
    top_n: int = 21,
    algorithm: str = "Top-3",
) -> list[BrokerCurve]:
    """Reproduce Fig. 3: per-broker curves of the most-loaded brokers."""
    matcher = make_matcher(algorithm, platform, seed=seed)
    result = run_algorithm(platform, matcher, store_outcomes=True)
    busiest = np.argsort(result.broker_workload)[::-1][:top_n]
    grid = np.arange(1, 81)
    curves = []
    for broker_id in busiest:
        broker_id = int(broker_id)
        observed_w, observed_s = [], []
        for outcome in result.outcomes:
            if outcome.workloads[broker_id] > 0:
                observed_w.append(float(outcome.workloads[broker_id]))
                observed_s.append(float(outcome.signup_rates[broker_id]))
        expected = platform.signup_rate_curve(broker_id, grid)
        curves.append(
            BrokerCurve(
                broker_id=broker_id,
                workload_grid=grid,
                expected_signup=expected,
                observed_workloads=np.asarray(observed_w),
                observed_signups=np.asarray(observed_s),
                accustomed_workload=float(grid[int(np.argmax(expected))]),
            )
        )
    return curves


@dataclass
class WorkloadConcentration:
    """Fig. 4 data: top-broker workload concentration under top-k.

    Attributes:
        top_workloads: mean daily workloads of the top brokers, descending.
        city_average: mean daily workload over active brokers.
        top1_ratio: top-1 broker's workload over the city average (the
            paper reports 12.03x in City A).
        above_sweet_spot: how many of the top brokers exceed the
            population's typical accustomed workload (the black box of
            Fig. 4).
    """

    top_workloads: np.ndarray
    city_average: float
    top1_ratio: float
    above_sweet_spot: int


def workload_concentration(
    platform: RealEstatePlatform,
    seed: int = 0,
    top_n: int = 200,
    algorithm: str = "Top-3",
) -> WorkloadConcentration:
    """Reproduce Fig. 4: the unbalanced workload distribution of top-k."""
    matcher = make_matcher(algorithm, platform, seed=seed)
    result = run_algorithm(platform, matcher)
    ordered = np.sort(result.broker_workload)[::-1]
    active = result.broker_workload[result.broker_workload > 0]
    city_average = float(active.mean()) if active.size else 0.0
    top = ordered[: min(top_n, ordered.size)]
    sweet_spot = float(np.median(platform.latent_capacities))
    return WorkloadConcentration(
        top_workloads=top,
        city_average=city_average,
        top1_ratio=float(top[0] / city_average) if city_average > 0 else 0.0,
        above_sweet_spot=int(np.sum(top > sweet_spot)),
    )
