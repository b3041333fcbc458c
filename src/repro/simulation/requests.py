"""Client request streams.

Requests arrive in fixed-time-window batches (Sec. III): the platform
presets the interval length and assigns brokers to all requests that
appeared in it.  A stream pre-generates every request of the horizon so
that all algorithms face the *identical* demand sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.attributes import HOUSE_TYPES


@dataclass
class RequestStream:
    """All requests of one experiment horizon.

    Request features are ``[district one-hot | type one-hot | price | area |
    urgency]``.  District popularity is Zipf-like, which concentrates demand
    on the brokers covering hot districts — the precondition for the
    overloaded-top-brokers phenomenon.

    Attributes:
        district: ``(|R|,)`` district index per request.
        house_type: ``(|R|,)`` house-type index per request.
        price: ``(|R|,)`` normalized price point.
        area: ``(|R|,)`` normalized house area.
        urgency: ``(|R|,)`` client urgency in [0, 1].
        day_of: ``(|R|,)`` day index per request.
        batch_of: ``(|R|,)`` batch index (within the day) per request.
        num_days: horizon length in days.
        batches_per_day: number of fixed time windows per day.
        num_districts: city district count.
        noise_embedding: ``(|R|, k)`` fixed embedding generating the
            deterministic prediction noise of the deployed utility model.
    """

    district: np.ndarray
    house_type: np.ndarray
    price: np.ndarray
    area: np.ndarray
    urgency: np.ndarray
    day_of: np.ndarray
    batch_of: np.ndarray
    num_days: int
    batches_per_day: int
    num_districts: int
    noise_embedding: np.ndarray
    offsets: np.ndarray
    value_multiplier: np.ndarray

    def __len__(self) -> int:
        return self.district.shape[0]

    @property
    def num_requests(self) -> int:
        """Total number of requests ``|R|``."""
        return len(self)

    def batch_indices(self, day: int, batch: int) -> np.ndarray:
        """Indices of the requests arriving in ``(day, batch)``.

        Requests are stored in interval order, so each batch is a contiguous
        index range delimited by ``offsets``.
        """
        if not (0 <= day < self.num_days and 0 <= batch < self.batches_per_day):
            raise IndexError(f"no batch ({day}, {batch}) in this stream")
        flat = day * self.batches_per_day + batch
        return np.arange(self.offsets[flat], self.offsets[flat + 1])


def generate_stream(
    num_requests: int,
    num_days: int,
    batches_per_day: int,
    num_districts: int,
    rng: np.random.Generator,
    noise_dim: int = 8,
    intraday_value_amplitude: float = 0.6,
) -> RequestStream:
    """Generate a request stream with Zipf-like district popularity.

    Requests are spread (almost) evenly over ``num_days * batches_per_day``
    intervals; the remainder goes to the earliest batches, so batch sizes
    differ by at most one.

    ``intraday_value_amplitude`` shapes the within-day *value profile*:
    requests arriving later in the day carry proportionally higher
    conversion value (evening clients are the serious ones — a common
    pattern in consumer real-estate demand).  With amplitude ``a`` the
    multiplier ramps linearly from ``1 - a/2`` in the first batch to
    ``1 + a/2`` in the last.  This temporal structure is what makes
    capacity *reservation* (the MDP view of Sec. VI-A) matter: spending a
    top broker on a cheap morning request forfeits a valuable evening one.
    """
    if not 0.0 <= intraday_value_amplitude < 2.0:
        raise ValueError(
            f"intraday_value_amplitude must be in [0, 2), got {intraday_value_amplitude}"
        )
    if min(num_requests, num_days, batches_per_day) <= 0:
        raise ValueError("num_requests, num_days and batches_per_day must be positive")
    ranks = np.arange(1, num_districts + 1, dtype=float)
    district_popularity = (1.0 / ranks) / np.sum(1.0 / ranks)

    num_batches = num_days * batches_per_day
    base, remainder = divmod(num_requests, num_batches)
    sizes = np.full(num_batches, base, dtype=int)
    sizes[:remainder] += 1
    day_of = np.repeat(np.arange(num_batches) // batches_per_day, sizes)
    batch_of = np.repeat(np.arange(num_batches) % batches_per_day, sizes)
    if batches_per_day > 1:
        position = batch_of / (batches_per_day - 1)
    else:
        position = np.full(num_requests, 0.5)
    value_multiplier = 1.0 + intraday_value_amplitude * (position - 0.5)

    return RequestStream(
        district=rng.choice(num_districts, size=num_requests, p=district_popularity),
        house_type=rng.choice(len(HOUSE_TYPES), size=num_requests),
        price=rng.beta(2.0, 2.0, size=num_requests),
        area=rng.beta(2.0, 2.0, size=num_requests),
        urgency=rng.uniform(0.0, 1.0, size=num_requests),
        day_of=day_of,
        batch_of=batch_of,
        num_days=num_days,
        batches_per_day=batches_per_day,
        num_districts=num_districts,
        noise_embedding=rng.normal(0.0, 1.0 / np.sqrt(noise_dim), size=(num_requests, noise_dim)),
        offsets=np.concatenate([[0], np.cumsum(sizes)]),
        value_multiplier=value_multiplier,
    )


__all__ = ["RequestStream", "generate_stream"]
