"""Broker population generation.

Builds a city's broker pool: per-broker Table II profiles, a latent skill
level driving both service quality and workload capacity, and the hidden
capacity-response curve the contextual bandit must discover online.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simulation.attributes import HOUSE_TYPES, BrokerProfile, generate_profile
from repro.simulation.response import ResponseCurve, sample_response_curve

#: Relative weights of the preference-fit components of the matching
#: utility (:func:`repro.simulation.utility.match_score`).  They live here
#: because the population pre-scales its preference tables by them.
MATCH_WEIGHTS = {
    "district": 0.35,
    "type": 0.15,
    "price": 0.25,
    "area": 0.15,
    "response": 0.10,
}


@dataclass
class BrokerPopulation:
    """A generated pool of brokers with their latent ground truth.

    Attributes:
        profiles: per-broker static profiles (Table II).
        curves: per-broker latent capacity-response curves.
        skill: ``(B,)`` latent skill in [0, 1] (long-tailed; few stars).
        base_quality: ``(B,)`` current peak sign-up probability per broker;
            the population mean sits near 20%, matching Fig. 2's 14.3-27.5%
            plateau band.  Mutable when learning-by-doing dynamics are on.
        potential_quality: ``(B,)`` the quality ceiling a broker can reach
            with enough practice (the Matthew-effect study measures how
            matching policy decides who gets to close the gap).
        experience: ``(B,)`` seniority in [0, 1]; inexperienced brokers
            start below their potential.
        static_context: ``(B, d)`` vectorized static profiles.
        district_pref: ``(B, D)`` district preference rows.
        type_pref: ``(B, 3)`` house-type preference rows.
        price_pref / area_pref: ``(B,)`` preferred normalized price / area.
        response_rate: ``(B,)`` one-minute response rates.
        noise_embedding: ``(B, k)`` fixed embedding generating deterministic
            model noise in the deployed utility predictor.
        district_fit: ``(D, B)`` weight-scaled district fit: each broker's
            preference row divided by its max, times
            ``MATCH_WEIGHTS["district"]``, stored broker-minor so a request
            gathers one contiguous row.
        type_fit: ``(3, B)`` the same for house types.
        response_fit: ``(B,)`` ``MATCH_WEIGHTS["response"] * response_rate``.

    The three fit tables are derived once, here, from the preference
    arrays; tables and sources are read-only, also in deep copies and
    unpickled copies, so no later write can leave them stale.
    ``base_quality`` is not part of them: skill growth moves it, so the
    utility reads it per call.
    """

    profiles: list[BrokerProfile]
    curves: list[ResponseCurve]
    skill: np.ndarray
    base_quality: np.ndarray
    potential_quality: np.ndarray
    experience: np.ndarray
    static_context: np.ndarray
    district_pref: np.ndarray
    type_pref: np.ndarray
    price_pref: np.ndarray
    area_pref: np.ndarray
    response_rate: np.ndarray
    noise_embedding: np.ndarray
    latent_capacity: np.ndarray = field(init=False)
    district_fit: np.ndarray = field(init=False, repr=False)
    type_fit: np.ndarray = field(init=False, repr=False)
    response_fit: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.latent_capacity = np.array([curve.capacity for curve in self.curves])
        self.district_fit = _weighted_fit(self.district_pref, MATCH_WEIGHTS["district"])
        self.type_fit = _weighted_fit(self.type_pref, MATCH_WEIGHTS["type"])
        self.response_fit = MATCH_WEIGHTS["response"] * self.response_rate
        self._freeze()

    def __setstate__(self, state: dict) -> None:
        # deepcopy and unpickling rebuild every array writeable.
        self.__dict__.update(state)
        self._freeze()

    def _freeze(self) -> None:
        for array in (
            self.district_pref,
            self.type_pref,
            self.response_rate,
            self.district_fit,
            self.type_fit,
            self.response_fit,
        ):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def num_brokers(self) -> int:
        """Size of the broker pool ``|B|``."""
        return len(self.profiles)

    @property
    def context_dim(self) -> int:
        """Dimension of the static part of the working-status context."""
        return self.static_context.shape[1]


def _weighted_fit(preference: np.ndarray, weight: float) -> np.ndarray:
    """``(K, B)`` table ``weight * preference[b, k] / max_k preference[b]``."""
    scale = np.maximum(preference.max(axis=1), 1e-12)
    return np.ascontiguousarray((weight * (preference / scale[:, None])).T)


def generate_population(
    num_brokers: int,
    num_districts: int,
    rng: np.random.Generator,
    capacity_scale: float = 1.0,
    noise_dim: int = 8,
) -> BrokerPopulation:
    """Generate a broker population for one city.

    Skill is Beta(2, 5)-distributed — most brokers are average and a thin
    top tail produces the "top brokers" whose overloading the paper studies.

    Args:
        num_brokers: pool size ``|B|``.
        num_districts: number of city districts (request/broker preference
            dimension).
        rng: source of randomness.
        capacity_scale: global multiplier on latent capacities (city norm).
        noise_dim: embedding width for deterministic utility-model noise.
    """
    if num_brokers <= 0:
        raise ValueError(f"num_brokers must be positive, got {num_brokers}")
    skill = rng.beta(2.0, 5.0, size=num_brokers)
    profiles = [generate_profile(rng, float(s), num_districts) for s in skill]
    curves = [sample_response_curve(rng, float(s), capacity_scale) for s in skill]
    potential_quality = np.clip(
        0.08 + 0.35 * skill + rng.normal(0.0, 0.03, size=num_brokers), 0.02, 0.5
    )
    # Seniority: how much of the potential is already realized.  Rookies
    # (low working years) start below their ceiling; practice closes the
    # gap when learning-by-doing dynamics are enabled on the platform.
    experience = np.clip(
        np.array([profile.working_years for profile in profiles]) / 8.0, 0.0, 1.0
    )
    base_quality = potential_quality * (0.55 + 0.45 * experience)
    static_context = np.stack([profile.to_vector() for profile in profiles])
    return BrokerPopulation(
        profiles=profiles,
        curves=curves,
        skill=skill,
        base_quality=base_quality,
        potential_quality=potential_quality,
        experience=experience,
        static_context=static_context,
        district_pref=np.array([profile.district_preference for profile in profiles]),
        type_pref=np.array([profile.type_preference for profile in profiles]),
        price_pref=np.array([profile.price_preference for profile in profiles]),
        area_pref=np.array([profile.area_preference for profile in profiles]),
        response_rate=np.array([profile.response_rate for profile in profiles]),
        noise_embedding=rng.normal(0.0, 1.0 / np.sqrt(noise_dim), size=(num_brokers, noise_dim)),
    )


__all__ = ["BrokerPopulation", "MATCH_WEIGHTS", "generate_population", "HOUSE_TYPES"]
