"""Differential property suites: backends, padding, CBS, top-k selection.

These are the acceptance-criteria suites: the ``repro`` backend is
cross-validated against the SciPy oracle (and the auction / min-cost-flow
oracles where applicable) on >= 200 randomized rectangular instances per run,
including ties, exact zeros, negatives and degenerate 0-row/0-col shapes.
"""

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
    # Sanity: the assertion actually fires when a backend is wrong.
    # (importlib, because the package re-exports a same-named function
    # that shadows the module on attribute access)
    import importlib

    hungarian = importlib.import_module("repro.matching.hungarian")
    real = hungarian._solve_assignment

    def broken(weights, maximize, backend, pad_square):
        result = real(weights, maximize, backend, pad_square)
        if backend == "repro" and result.pairs:
            result.pairs.pop()
            result.total_weight -= 1.0
        return result

    monkeypatch.setattr(hungarian, "_solve_assignment", broken)
    with pytest.raises(AssertionError):
        differential.assert_backends_agree(np.array([[4.0, 1.0], [1.0, 3.0]]))


def test_topk_detects_wrong_selection(monkeypatch):
    from repro.core import selection

    monkeypatch.setattr(
        selection,
        "candidate_broker_selection",
        lambda utilities, k, rng: np.arange(min(k, utilities.size)),
    )
    # differential imported the symbol directly; patch it there too.
    monkeypatch.setattr(
        differential,
        "candidate_broker_selection",
        lambda utilities, k, rng: np.arange(min(max(k, 0), utilities.size)),
    )
    with pytest.raises(AssertionError):
        differential.assert_topk_matches_bruteforce(np.array([0.0, 5.0, 1.0]), 1)


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
            (kind, SCORING_BLOCK + 1, audit, seed)
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
            differential.assert_batched_estimate_matches(("nnucb", 65, False, seed))
