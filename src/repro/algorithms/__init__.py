"""The compared algorithms of Sec. VII-A behind one ``Matcher`` interface.

Category 1 — no explicit broker capacity:

- :class:`~repro.algorithms.topk.TopKRecommender` — the status-quo top-K
  recommendation (Top-1 and Top-3);
- :class:`~repro.algorithms.random_rec.RandomizedRecommender` — RR, sampling
  brokers with service quality as the fairness weight;
- :class:`~repro.algorithms.km_batch.BatchKMMatcher` — per-batch
  Kuhn-Munkres with no capacity awareness.

Category 2 — capacity first, then assignment:

- :class:`~repro.algorithms.ctopk.ConstrainedTopKRecommender` — CTop-K with
  a single empirically chosen city-level capacity;
- :class:`~repro.algorithms.lacb.LACBMatcher` — the paper's LACB (and
  LACB-Opt via CBS), and AN: the same matcher with personalization and
  the value function off, i.e. capacities from one shared NeuralUCB
  bandit + per-batch KM.

Use :func:`~repro.algorithms.registry.make_matcher` to build any of them by
name with paper-default settings.
"""

from repro.algorithms.base import Matcher
from repro.algorithms.ctopk import ConstrainedTopKRecommender
from repro.algorithms.greedy_batch import GreedyBatchMatcher
from repro.algorithms.km_batch import BatchKMMatcher
from repro.algorithms.lacb import LACBMatcher
from repro.algorithms.random_rec import RandomizedRecommender
from repro.algorithms.registry import ALGORITHM_NAMES, make_matcher
from repro.algorithms.topk import TopKRecommender

__all__ = [
    "ALGORITHM_NAMES",
    "BatchKMMatcher",
    "ConstrainedTopKRecommender",
    "GreedyBatchMatcher",
    "LACBMatcher",
    "Matcher",
    "RandomizedRecommender",
    "TopKRecommender",
    "make_matcher",
]
