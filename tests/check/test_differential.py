"""Differential property suites: backends, padding, CBS, top-k selection.

These are the acceptance-criteria suites: the KM solver is
cross-validated against the SciPy oracle (and the auction / min-cost-flow
oracles where applicable) on >= 200 randomized rectangular instances per run,
including ties, exact zeros, negatives and degenerate 0-row/0-col shapes.
"""

import importlib

import numpy as np
import pytest

from repro.check import differential, property as prop
from repro.check.property import run_property

NUM_CASES = 200


def test_backends_agree_on_randomized_instances():
    count = run_property(
        differential.assert_backends_agree,
        prop.random_utilities,
        num_cases=NUM_CASES,
        seed=101,
        shrink=prop.shrink_matrix,
        name="backends_agree",
    )
    assert count == NUM_CASES


def test_pad_square_agrees_on_randomized_instances():
    count = run_property(
        differential.assert_pad_square_agrees,
        lambda rng: prop.random_utilities(rng, allow_negative=False),
        num_cases=NUM_CASES,
        seed=102,
        shrink=prop.shrink_matrix,
        name="pad_square_agrees",
    )
    assert count == NUM_CASES


def test_cbs_preservation_on_randomized_instances():
    count = run_property(
        differential.assert_cbs_preserves,
        lambda rng: prop.random_utilities(rng, allow_negative=False),
        num_cases=NUM_CASES,
        seed=103,
        shrink=prop.shrink_matrix,
        name="cbs_preserves",
    )
    assert count == NUM_CASES


def test_topk_matches_bruteforce_on_randomized_rows():
    count = run_property(
        lambda case: differential.assert_topk_matches_bruteforce(*case),
        lambda rng: (prop.random_utility_row(rng), int(rng.integers(0, 12))),
        num_cases=NUM_CASES,
        seed=104,
        name="topk_bruteforce",
    )
    assert count == NUM_CASES


# ----------------------------------------------------------------------
# Deterministic edge cases the random suites may not pin down
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "weights",
    [
        np.zeros((3, 3)),
        np.zeros((0, 5)),
        np.zeros((4, 0)),
        np.ones((2, 6)),
        np.array([[0.0, 2.0], [2.0, 0.0]]),
        np.array([[5.0]]),
    ],
)
def test_backends_agree_on_edge_cases(weights):
    differential.assert_backends_agree(weights)


def test_backends_agree_with_negative_entries():
    differential.assert_backends_agree(np.array([[-1.0, 2.0], [3.0, -4.0]]))


def test_assert_backends_agree_catches_disagreement(monkeypatch):
    # Sanity: the assertion actually fires when the KM solve is wrong.
    # (importlib, because the package re-exports a same-named function
    # that shadows the module on attribute access)
    hungarian = importlib.import_module("repro.matching.hungarian")
    real = hungarian._solve_assignment

    def broken(weights, pad_square):
        result = real(weights, pad_square)
        if result.pairs:
            result.pairs.pop()
            result.total_weight -= 1.0
        return result

    monkeypatch.setattr(hungarian, "_solve_assignment", broken)
    with pytest.raises(AssertionError):
        differential.assert_backends_agree(np.array([[4.0, 1.0], [1.0, 3.0]]))


def test_topk_detects_wrong_selection(monkeypatch):
    monkeypatch.setattr(
        differential,
        "candidate_broker_selection",
        lambda utilities, k, rng: np.arange(min(max(k, 0), utilities.size)),
    )
    with pytest.raises(AssertionError):
        differential.assert_topk_matches_bruteforce(np.array([0.0, 5.0, 1.0]), 1)


def test_small_km_matches_on_randomized_instances():
    count = run_property(
        differential.assert_small_km_matches,
        prop.random_km_case,
        num_cases=NUM_CASES,
        seed=106,
        shrink=prop.shrink_matrix,
        name="km_small_path_matches",
    )
    assert count == NUM_CASES


def test_random_km_case_straddles_the_list_limit():
    from repro.matching.hungarian import SMALL_KM_COLS

    columns = []
    for index in range(NUM_CASES):
        weights = prop.random_km_case(prop.case_rng(106, index))
        rows, cols = sorted(weights.shape)
        columns.append(cols + rows)  # the padded maximization cost
    on_lists = np.mean(np.array(columns) <= SMALL_KM_COLS)
    assert 0.25 < on_lists < 0.75


def test_assert_small_km_matches_catches_divergence(monkeypatch):
    real = differential._hungarian_lists
    # A list path that breaks ties toward the last column instead of the
    # first: still optimal, but not the array path's matching.
    monkeypatch.setattr(
        differential, "_hungarian_lists", lambda cost: cost.shape[1] - 1 - real(cost[:, ::-1])
    )
    with pytest.raises(AssertionError, match="list KM"):
        differential.assert_small_km_matches(np.ones((2, 3)))


def test_assert_small_km_matches_catches_a_diverging_oracle(monkeypatch):
    real = differential.reference_hungarian
    # An oracle that breaks ties toward the last column: still optimal,
    # but not the matching both production paths return.
    monkeypatch.setattr(
        differential, "reference_hungarian", lambda cost: cost.shape[1] - 1 - real(cost[:, ::-1])
    )
    with pytest.raises(AssertionError, match="oracle KM"):
        differential.assert_small_km_matches(np.ones((2, 3)))


def test_assert_small_km_matches_catches_a_one_ulp_potential(monkeypatch):
    real = differential._km_insert_row

    def drifting(cost, u, v, row_of_col, way, row):
        real(cost, u, v, row_of_col, way, row)
        v[-1] = np.nextafter(v[-1], np.inf)  # the matching does not move

    monkeypatch.setattr(differential, "_km_insert_row", drifting)
    with pytest.raises(AssertionError, match="array KM v after row 1"):
        differential.assert_small_km_matches(np.ones((2, 3)))


def test_random_km_case_runs_multi_step_insertions_on_wide_shapes():
    """Both wide shapes reach the array path's general loop, not only its
    step-one exit: some row's first-choice column is already taken."""
    from repro.matching.hungarian import SMALL_KM_COLS, _km_insert_row, _padded_cost

    multi_step = {"day-dense": 0, "long-horizon": 0}
    for index in range(NUM_CASES):
        weights = prop.random_km_case(prop.case_rng(106, index))
        if weights.shape[0] > weights.shape[1]:
            weights = weights.T
        cost = _padded_cost(weights, pad_square=False)
        n_rows, n_cols = cost.shape
        if n_cols <= SMALL_KM_COLS or not (n_rows >= 20 or n_cols >= 400):
            continue
        shape = "day-dense" if n_rows >= 20 else "long-horizon"
        u, v = np.zeros(n_rows + 1), np.zeros(n_cols + 1)
        row_of_col, way = np.zeros(n_cols + 1, dtype=int), np.zeros(n_cols + 1, dtype=int)
        for row in range(1, n_rows + 1):
            first_choice = int(np.argmin(cost[row - 1] - u[row] - v[1:])) + 1
            multi_step[shape] += bool(row_of_col[first_choice])
            _km_insert_row(cost, u, v, row_of_col, way, row)
    assert min(multi_step.values()) > 0, multi_step


def test_fast_topk_matches_quickselect_on_randomized_instances():
    count = run_property(
        lambda case: differential.assert_fast_topk_matches_quickselect(*case),
        prop.random_topk_case,
        num_cases=NUM_CASES,
        seed=105,
        name="fast_topk_matches_quickselect",
    )
    assert count == NUM_CASES


def test_batched_scoring_matches_on_randomized_networks():
    count = run_property(
        differential.assert_batched_scoring_matches,
        prop.random_mlp_case,
        num_cases=NUM_CASES,
        seed=106,
        name="batched_scoring_matches",
    )
    assert count == NUM_CASES


def test_train_step_matches_reference_on_randomized_networks():
    count = run_property(
        differential.assert_train_step_matches,
        prop.random_train_case,
        num_cases=NUM_CASES,
        seed=107,
        name="train_step_matches",
    )
    assert count == NUM_CASES


def test_train_step_cases_cover_short_minibatches_and_both_lams():
    cases = [prop.random_train_case(prop.case_rng(107, i)) for i in range(NUM_CASES)]
    assert {lam > 0.0 for *_, lam, _, _ in cases} == {False, True}
    short = [
        case for case in cases if case[1].shape[0] < case[5] * case[6] and case[6] > 1
    ]
    assert short
    assert {case[6] for case in cases} == set(range(1, 7))


def test_train_step_assert_catches_a_reassociated_update(monkeypatch):
    """Sanity: ``(lr * m) / bias1`` rounds differently from ``lr * (m / bias1)``."""
    from repro.nn import Adam

    real = Adam.step

    def reassociated(self, model):
        before = model.theta.copy()
        real(self, model)
        model.theta[:] = before - (
            (self.learning_rate * self._first) / (1.0 - self.beta1**self._step_count)
        ) / (np.sqrt(self._second / (1.0 - self.beta2**self._step_count)) + self.eps)

    monkeypatch.setattr(Adam, "step", reassociated)
    with pytest.raises(AssertionError, match="theta"):
        run_property(
            differential.assert_train_step_matches,
            prop.random_train_case,
            num_cases=NUM_CASES,
            seed=107,
            shrink=None,
            name="train_step_matches",
        )


def test_fast_topk_assert_catches_wrong_tie_rule(monkeypatch):
    """Sanity: the oracle fires if the fast kernel breaks ties differently."""
    from repro.core import selection

    def highest_index_ties(utilities, k):
        # Same boundary rule but ties resolved to the *highest* index.
        mask = selection.topk_selection_mask(utilities[:, ::-1], k)[:, ::-1]
        return mask

    monkeypatch.setattr(differential, "topk_selection_mask", highest_index_ties)
    with pytest.raises(AssertionError):
        differential.assert_fast_topk_matches_quickselect(
            np.array([[1.0, 1.0, 1.0, 2.0]]), 2
        )


def test_batched_scoring_assert_catches_broken_batch_path(monkeypatch):
    from repro.nn import MLP

    real = MLP.forward_backward

    def broken(self, x):
        outputs, inputs, signals = real(self, x)
        return outputs, inputs, [signal * 1.01 for signal in signals]

    monkeypatch.setattr(MLP, "forward_backward", broken)
    case = ((4, 8, 1), np.random.default_rng(0).normal(size=(3, 4)), 7)
    with pytest.raises(AssertionError):
        differential.assert_batched_scoring_matches(case)


# ----------------------------------------------------------------------
# Day-batched capacity estimate vs the per-broker loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", prop.ESTIMATOR_KINDS)
@pytest.mark.parametrize("audit", [False, True])
def test_batched_estimate_matches_loop_past_one_block(kind, audit):
    from repro.bandits.neural_ucb import SCORING_BLOCK

    for seed in range(3):
        differential.assert_batched_estimate_matches(
            (kind, SCORING_BLOCK + 1, audit, seed, 0)
        )


def test_batched_estimate_property_covers_block_edges():
    assert (
        run_property(
            differential.assert_batched_estimate_matches,
            prop.random_estimate_case,
            num_cases=60,
            seed=11,
        )
        == 60
    )


def test_batched_estimate_assert_catches_misaligned_block(monkeypatch):
    from repro.bandits import neural_ucb

    real = neural_ucb.ArmBlocks.__call__

    def shifted(self, row):
        means, inputs, signals = real(self, row)
        return means[::-1], inputs, signals

    monkeypatch.setattr(neural_ucb.ArmBlocks, "__call__", shifted)
    with pytest.raises(AssertionError):
        for seed in range(5):
            differential.assert_batched_estimate_matches(("nnucb", 65, False, seed, 0))


# ----------------------------------------------------------------------
# Platform utilities vs the full-grid oracles
# ----------------------------------------------------------------------
def test_platform_utilities_match_on_randomized_cities():
    assert (
        run_property(
            differential.assert_platform_utilities_match,
            prop.random_platform_case,
            num_cases=40,
            seed=5,
        )
        == 40
    )


def test_platform_utilities_match_with_appeals_and_skill_growth():
    config = {
        "num_brokers": 12, "num_requests": 120, "num_days": 4, "imbalance": 0.3,
        "appeal_rate": 0.8, "skill_growth": 0.2, "seed": 3,
    }
    differential.assert_platform_utilities_match((config, 0))


@pytest.mark.parametrize("pairs_only", [False, True])
def test_platform_utilities_assert_catches_one_ulp(monkeypatch, pairs_only):
    """A one-ulp drift in the shipped fit, grid or pairs, is caught."""
    from repro.simulation import utility

    real = utility.match_score

    def drifted(population, stream, request_indices, broker_indices=None):
        fit = real(population, stream, request_indices, broker_indices)
        if (broker_indices is not None) == pairs_only:
            fit = np.nextafter(fit, np.inf)
        return fit

    monkeypatch.setattr(utility, "match_score", drifted)
    config = {"num_brokers": 6, "num_requests": 20, "num_days": 2, "seed": 1}
    with pytest.raises(AssertionError, match="not bitwise equal"):
        differential.assert_platform_utilities_match((config, 0))
