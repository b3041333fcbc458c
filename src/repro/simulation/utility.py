"""Request-broker matching utility.

The paper treats the matching utility ``u_{r,b}`` as an input "learned from
historical assignments using models such as XGBoost" (Def. 2), and its
simulator "takes the same utility function deployed" to score
request-broker pairs.  This module provides both halves:

- :func:`ground_truth_affinity` — the latent conversion propensity of a
  pair, combining the broker's base quality with district / house-type /
  price / area preference fit and responsiveness.  Realized outcomes are
  this affinity degraded by the broker's workload-response curve.
- :func:`predicted_utility` — the *deployed model's* estimate: the affinity
  disturbed by deterministic low-rank model noise.  Algorithms only ever
  see this prediction.  (``repro.boosting.UtilityModel`` offers the
  alternative of actually learning the predictor from historical outcomes
  with gradient-boosted trees.)
"""

from __future__ import annotations

import numpy as np

from repro.simulation.brokers import MATCH_WEIGHTS, BrokerPopulation
from repro.simulation.requests import RequestStream

#: Floor of the quality multiplier: even a poorly fitting pair converts at
#: a fraction of the broker's base quality.  A high floor means broker
#: quality dominates preference fit in the rankings — which is what makes
#: the same few stars appear in almost every request's top-k and produces
#: the demand concentration of Sec. II-B.
MATCH_FLOOR = 0.45

#: Scale of the deployed model's deterministic prediction noise.
PREDICTION_NOISE_SCALE = 0.08


def match_score(
    population: BrokerPopulation,
    stream: RequestStream,
    request_indices: np.ndarray,
    broker_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Preference-fit score in [0, 1] for every (request, broker) pair.

    District and house-type fit are row gathers from the population's
    weight-scaled tables (each broker's preference normalized by its max,
    so a broker's favourite district scores 1); price and area fit are
    computed per pair.

    Args:
        broker_indices: when given, score only the pairs
            ``(request_indices[i], broker_indices[i])``.

    Returns:
        ``(n_requests, |B|)`` matrix, or ``(n_requests,)`` pair scores.
    """
    request_indices = np.asarray(request_indices, dtype=int)
    price = stream.price[request_indices]
    area = stream.area[request_indices]
    if broker_indices is None:
        brokers = slice(None)
        price, area = price[:, None], area[:, None]
    else:
        brokers = np.asarray(broker_indices, dtype=int)
    # The grid is accumulated in place: a fresh batch-sized temporary per
    # term costs more than the arithmetic (in place halves the time of a
    # 30 x 2000 utility grid).  Every step is the same IEEE op on the same
    # operands, in the same order, as
    # ``district + type + w_p * (1 - |dp|) + w_a * (1 - |da|) + response``.
    fit = population.district_fit[stream.district[request_indices], brokers]
    fit += population.type_fit[stream.house_type[request_indices], brokers]
    gap = np.subtract(price, population.price_pref[brokers])
    fit += _weighted_closeness(gap, MATCH_WEIGHTS["price"])
    np.subtract(area, population.area_pref[brokers], out=gap)
    fit += _weighted_closeness(gap, MATCH_WEIGHTS["area"])
    fit += population.response_fit[brokers]
    return fit


def _weighted_closeness(gap: np.ndarray, weight: float) -> np.ndarray:
    """``weight * (1 - |gap|)``, computed in ``gap``'s buffer."""
    np.abs(gap, out=gap)
    np.subtract(1.0, gap, out=gap)
    gap *= weight
    return gap


def ground_truth_affinity(
    population: BrokerPopulation,
    stream: RequestStream,
    request_indices: np.ndarray,
    broker_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Latent conversion propensity of every (request, broker) pair.

    ``affinity = value_mult_r * base_quality_b * (floor + (1 - floor) *
    match_score)`` — a broker's best-case sign-up probability on that
    request (scaled by the request's intra-day value multiplier), before
    any workload degradation.  With ``broker_indices`` only the pairs
    ``(request_indices[i], broker_indices[i])`` are scored, as a vector.
    """
    request_indices = np.asarray(request_indices, dtype=int)
    value = stream.value_multiplier[request_indices]
    if broker_indices is None:
        quality, value = population.base_quality, value[:, None]
    else:
        quality = population.base_quality[broker_indices]
    affinity = match_score(population, stream, request_indices, broker_indices)
    affinity *= 1.0 - MATCH_FLOOR
    affinity += MATCH_FLOOR
    affinity *= quality
    affinity *= value
    return affinity


def predicted_utility(
    population: BrokerPopulation,
    stream: RequestStream,
    request_indices: np.ndarray,
) -> np.ndarray:
    """The deployed utility model's estimate ``u_{r,b}``.

    Deterministic given the generated city: the noise is the inner product
    of fixed per-request and per-broker embeddings, so every algorithm sees
    the exact same utility inputs (a fairness requirement when comparing
    matchers on identical instances).  The result is
    ``clip(affinity * (1 + scale * noise), 1e-6, 1)``, computed in place;
    ``np.minimum(np.maximum(...))`` is ``np.clip``'s arithmetic, NaN
    included, without its per-call dispatch overhead.
    """
    request_indices = np.asarray(request_indices, dtype=int)
    utility = ground_truth_affinity(population, stream, request_indices)
    noise = stream.noise_embedding[request_indices] @ population.noise_embedding.T
    noise *= PREDICTION_NOISE_SCALE
    noise += 1.0
    utility *= noise
    np.maximum(utility, 1e-6, out=utility)
    return np.minimum(utility, 1.0, out=utility)
