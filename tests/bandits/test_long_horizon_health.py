"""Long-horizon numerical health of the bandit state (a simulated year).

A tiny city runs 365 days under LACB on the default diagonal NeuralUCB.
After every day the state that compounds over a run must stay healthy:

- the diagonal covariance ``D`` is finite and never decreases from its
  ``lambda`` start (every commit adds a square);
- the Eq. 5 bonuses of every broker's arms are finite and non-negative;
- the MLP parameters are finite;
- the TD table stays within ``[0, u_max / (1 - gamma)]`` (rewards are
  utilities in ``(0, 1]``, and the table starts at zero).
"""

from __future__ import annotations

import numpy as np

from repro.engine.hooks import RunHook
from repro.engine.loop import DayLoopEngine
from repro.engine.spec import MatcherSpec
from repro.simulation import SyntheticConfig, generate_city

DAYS = 365


class HealthProbe(RunHook):
    """Checks the matcher's bandit and TD state at every day's end."""

    def __init__(self, matcher) -> None:
        self.matcher = matcher
        self.base = matcher.estimator.base
        self.previous_d = self.base._d_diag.copy()
        self.days = 0
        self.max_bonus = 0.0

    def on_day_end(self, event) -> None:
        base = self.base
        d_diag = base._d_diag
        assert np.all(np.isfinite(d_diag)), f"D is not finite on day {event.day}"
        assert np.all(d_diag >= self.previous_d), f"D decreased on day {event.day}"
        self.previous_d = d_diag.copy()
        assert np.all(np.isfinite(base.network.param_vector())), (
            f"MLP parameters are not finite on day {event.day}"
        )
        for context in event.contexts:
            _, inputs, signals = base.arm_parts(context)
            bonuses = base.arm_bonuses(inputs, signals)
            assert np.all(np.isfinite(bonuses)) and np.all(bonuses >= 0.0), (
                f"bonus out of range on day {event.day}: {bonuses}"
            )
            self.max_bonus = max(self.max_bonus, float(bonuses.max()))
        value_function = self.matcher.assigner.value_function
        bound = 1.0 / (1.0 - value_function.discount)
        table = value_function.table()
        assert np.all(np.isfinite(table))
        assert np.all(table >= 0.0) and np.all(table <= bound), (
            f"TD table leaves [0, {bound}] on day {event.day}: "
            f"[{table.min()}, {table.max()}]"
        )
        self.days += 1


def test_a_simulated_year_keeps_the_bandit_state_healthy():
    platform = generate_city(
        SyntheticConfig(
            num_brokers=4, num_requests=6 * DAYS, num_days=DAYS, imbalance=0.5, seed=17
        )
    )
    matcher = MatcherSpec("LACB", seed=3).build(platform)
    lam = matcher.estimator.base.config.lam
    assert matcher.estimator.base.config.covariance == "diagonal"
    probe = HealthProbe(matcher)
    DayLoopEngine().run(platform, matcher, hooks=(probe,))
    assert probe.days == DAYS
    base = matcher.estimator.base
    assert np.all(base._d_diag >= lam)
    assert base.num_train_steps > 0 and probe.max_bonus > 0.0
