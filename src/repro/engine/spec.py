"""Declarative, picklable run specifications.

A :class:`RunSpec` is plain data — a platform recipe plus a matcher recipe
— from which a worker process can reconstruct the exact environment and
algorithm and execute one run.  Because instances are fully determined by
their configuration seeds (see ``docs/architecture.md``), a spec executed
anywhere yields bit-identical results, which is what lets the
:mod:`~repro.engine.executor` fan sweeps out over a process pool without
shipping live platform objects around.  An optional serving recipe
(:class:`~repro.serving.ServingSpec`) turns the same run into a serving
run; nothing else about execution changes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from repro.simulation.datasets import (
    REAL_CITY_SPECS,
    SyntheticConfig,
    generate_city,
    real_like_city,
)

if TYPE_CHECKING:  # repro.serving imports the engine; typing only
    from repro.serving import ServingSpec


@dataclass(frozen=True)
class PlatformSpec:
    """Recipe for reconstructing a platform environment from plain data.

    Use the :meth:`synthetic` / :meth:`real_city` constructors rather than
    filling fields by hand.

    Attributes:
        kind: ``"synthetic"`` (Table III grid) or ``"real_city"`` (Table IV).
        config: the synthetic city configuration (``kind="synthetic"``).
        city: city name ``"A"`` / ``"B"`` / ``"C"`` (``kind="real_city"``).
        scale: proportional shrink factor on Table IV sizes.
        seed: master seed of the real-like city.
        appeal_rate: client-appeal probability scale of the real-like city.
    """

    kind: str = "synthetic"
    config: SyntheticConfig | None = None
    city: str | None = None
    scale: float = 0.05
    seed: int = 0
    appeal_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "real_city"):
            raise ValueError(f"unknown platform kind {self.kind!r}")
        if self.kind == "synthetic" and self.config is None:
            raise ValueError("synthetic platform specs require a SyntheticConfig")
        if self.kind == "real_city" and self.city not in REAL_CITY_SPECS:
            raise ValueError(
                f"real_city platform specs require a city in {sorted(REAL_CITY_SPECS)}"
            )

    @classmethod
    def synthetic(cls, config: SyntheticConfig) -> PlatformSpec:
        """Spec for a Table III synthetic city."""
        return cls(kind="synthetic", config=config)

    @classmethod
    def real_city(
        cls, city: str, scale: float = 0.05, seed: int = 7, appeal_rate: float = 0.0
    ) -> PlatformSpec:
        """Spec for a Table IV-like city (``"A"`` / ``"B"`` / ``"C"``)."""
        return cls(kind="real_city", city=city, scale=scale, seed=seed, appeal_rate=appeal_rate)

    def build(self):
        """Materialize the platform this spec describes."""
        if self.kind == "synthetic":
            return generate_city(self.config)
        platform, _spec, _config = real_like_city(
            self.city, scale=self.scale, seed=self.seed, appeal_rate=self.appeal_rate
        )
        return platform

    def cache_key(self) -> tuple:
        """Hashable identity, used by the executor's platform cache."""
        config_key = None
        if self.config is not None:
            config_key = tuple(getattr(self.config, f.name) for f in fields(self.config))
        return (self.kind, config_key, self.city, self.scale, self.seed, self.appeal_rate)


@dataclass(frozen=True)
class MatcherSpec:
    """Recipe for reconstructing a matcher via the algorithm registry.

    Attributes:
        name: one of :data:`repro.algorithms.ALGORITHM_NAMES`.
        seed: matcher-private randomness seed.
        empirical_capacity: CTop-K's city-level capacity (Table IV values).
    """

    name: str
    seed: int = 0
    empirical_capacity: float | None = None

    def build(self, platform):
        """Materialize the matcher against a concrete platform."""
        from repro.algorithms import make_matcher

        return make_matcher(
            self.name,
            platform,
            seed=self.seed,
            empirical_capacity=self.empirical_capacity,
        )


@dataclass(frozen=True)
class RunSpec:
    """One (platform × matcher) run as plain, picklable data.

    Attributes:
        platform: the environment recipe.
        matcher: the algorithm recipe.
        store_outcomes: keep raw day outcomes on the result.
        store_assignments: keep the per-batch assignment log on the result.
        tag: free-form label threaded through to grid bookkeeping (e.g. the
            swept factor value); ignored by execution.
        checkpoint_dir: when set, a :class:`repro.state.CheckpointHook`
            writes a durable snapshot of platform, matcher and metrics
            state into ``checkpoint_dir/<run_id>`` at day boundaries.
        checkpoint_every: write every N-th day boundary (the final day is
            always written).
        resume_from: when set, the run restores the latest checkpoint
            found under ``resume_from/<run_id>`` and continues from the
            following day; an empty or missing store silently starts from
            day 0, so ``--resume`` is safe on a first run.
        serving: when set, the run is served as arrival events by the
            :class:`~repro.serving.ServingEngine` this recipe builds, and
            its report lands on ``RunResult.serving``; ``None`` (the
            default) runs the batch day loop.
    """

    platform: PlatformSpec
    matcher: MatcherSpec
    store_outcomes: bool = False
    store_assignments: bool = False
    tag: str | None = None
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    resume_from: str | None = None
    serving: ServingSpec | None = None

    def run_id(self) -> str:
        """Stable per-spec identity naming this run's checkpoint store.

        Combines a readable matcher slug with a digest over everything that
        determines the trajectory (platform recipe, matcher recipe, the
        sweep tag and any serving recipe), so two specs share a store
        directory iff they would produce bit-identical runs.  Batch specs
        keep the identity they had before serving recipes existed.
        """
        matcher = tuple(repr(getattr(self.matcher, f.name)) for f in fields(self.matcher))
        # Three retired slots (solver choice, two config overrides) digest as
        # the constant reprs every spec held, so run ids stay byte-identical.
        matcher += ("'repro'", "None", "None")
        identity = (self.platform.cache_key(), matcher, self.tag)
        if self.serving is not None:
            identity += (repr(self.serving),)
        digest = hashlib.sha256(repr(identity).encode("utf-8")).hexdigest()[:10]
        slug = self.matcher.name.lower().replace(" ", "-").replace("/", "-")
        return f"{slug}-s{self.matcher.seed}-{digest}"

    def run_directory(self, root: str) -> str:
        """This spec's store directory under a checkpoint root."""
        return os.path.join(root, self.run_id())

    def _restore_latest(self, platform, matcher, components: dict):
        """Restore the newest checkpoint under ``resume_from``, if any.

        Returns:
            ``(start_day, parent)`` where ``start_day`` is the first day
            still to execute (0 when the store is empty) and ``parent`` is
            the :class:`~repro.state.CheckpointRecord` resumed from, or
            ``None`` on a fresh start.
        """
        from repro.state import CheckpointStore

        store = CheckpointStore(self.run_directory(self.resume_from))
        record = store.latest(run_id=self.run_id())
        if record is None:
            return 0, None
        state = store.load(record)
        platform.restore(state["platform"])
        matcher.restore(state["matcher"])
        for name, component in components.items():
            component.restore(state["hooks"][name])
        return record.day + 1, record

    def run(self, platform=None):
        """Execute this spec and return its :class:`~repro.engine.hooks.RunResult`.

        Args:
            platform: an already-built platform matching ``self.platform``
                (the engine resets it on a fresh start); built from the
                spec when omitted.
        """
        from repro.engine.hooks import MetricsCollector
        from repro.engine.loop import DayLoopEngine

        if platform is None:
            platform = self.platform.build()
        matcher = self.matcher.build(platform)
        collector = MetricsCollector(
            store_outcomes=self.store_outcomes, store_assignments=self.store_assignments
        )
        # The durable hook state: a serving engine checkpoints its report
        # so far, so a resumed serving run reports the whole horizon.
        components: dict = {"collector": collector}
        if self.serving is None:
            engine = DayLoopEngine()
        else:
            engine = components["serving"] = self.serving.build(platform)
        start_day = 0
        parent = None
        if self.resume_from is not None:
            start_day, parent = self._restore_latest(platform, matcher, components)
        hooks: tuple = (collector,)
        if self.checkpoint_dir is not None:
            from repro.state import CheckpointHook, CheckpointStore

            store = CheckpointStore(self.run_directory(self.checkpoint_dir))
            hooks += (
                CheckpointHook(
                    store,
                    run_id=self.run_id(),
                    every=self.checkpoint_every,
                    components=components,
                    parent_run_id=None if parent is None else parent.run_id,
                    resumed_from_day=None if parent is None else parent.day,
                ),
            )
        report = engine.run(platform, matcher, hooks=hooks, start_day=start_day)
        result = collector.result
        if self.serving is not None:
            result.serving = report
        return result
