"""Multi-seed comparison utilities with significance testing.

Single runs of learned matchers carry ±5-8% noise; honest comparisons need
seed repetition.  This module runs an algorithm over several matcher seeds
on the identical instance and compares two algorithms with Welch's t-test
— the same test the paper uses for its Sec. II measurement claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms import make_matcher
from repro.experiments.runner import run_algorithm
from repro.simulation.platform import RealEstatePlatform


@dataclass(frozen=True)
class SeededUtilities:
    """Total realized utilities of one algorithm over several seeds."""

    algorithm: str
    utilities: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Sample mean over seeds."""
        return float(np.mean(self.utilities))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single seed)."""
        if len(self.utilities) < 2:
            return 0.0
        return float(np.std(self.utilities, ddof=1))


@dataclass(frozen=True)
class Comparison:
    """Welch's t-test between two seeded utility samples.

    Attributes:
        first / second: the compared samples.
        difference: ``first.mean - second.mean``.
        p_value: two-sided Welch p-value (NaN when either sample has fewer
            than two seeds).
    """

    first: SeededUtilities
    second: SeededUtilities
    difference: float
    p_value: float

    def significant(self, level: float = 0.05) -> bool:
        """Whether the difference clears the given significance level."""
        return bool(np.isfinite(self.p_value) and self.p_value < level)


def seeded_utilities(
    platform: RealEstatePlatform,
    algorithm: str,
    seeds: tuple[int, ...] = (7, 17, 27),
    **matcher_kwargs,
) -> SeededUtilities:
    """Run one algorithm across matcher seeds on the identical instance."""
    if not seeds:
        raise ValueError("at least one seed is required")
    utilities = tuple(
        run_algorithm(
            platform, make_matcher(algorithm, platform, seed=seed, **matcher_kwargs)
        ).total_realized_utility
        for seed in seeds
    )
    return SeededUtilities(algorithm=algorithm, utilities=utilities)


def compare(first: SeededUtilities, second: SeededUtilities) -> Comparison:
    """Welch's t-test between two seeded samples."""
    if len(first.utilities) >= 2 and len(second.utilities) >= 2:
        from scipy import stats  # imported here so ``import repro`` stays SciPy-free

        p_value = float(
            stats.ttest_ind(first.utilities, second.utilities, equal_var=False).pvalue
        )
    else:
        p_value = float("nan")
    return Comparison(
        first=first,
        second=second,
        difference=first.mean - second.mean,
        p_value=p_value,
    )
