"""Serving is a run mode: a batch spec ≡ its boundary-flush serving twin.

With the degenerate policy (``max_wait = window_seconds``, unbounded size)
every window closes as one micro-batch at its boundary, so the serving
twin of a batch :class:`RunSpec` must be bit-identical to it: same
assignments, daily utilities and outcomes, and the same final matcher
and platform state (read from each run's final checkpoint).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.resume import _compare_results, _compare_states
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.serving import PROFILES, ServingSpec
from repro.simulation import SyntheticConfig
from repro.state import CheckpointStore

#: The algorithms whose boundary twins are proved equal on every profile.
SUITE_ALGORITHMS = ("AN", "LACB", "LACB-Opt")

#: Twelve requests per window (imbalance 1.0).  At the default imbalance
#: this city has about one request per window, where row order inside a
#: window cannot matter and the equivalence would prove little.
PLATFORM = PlatformSpec.synthetic(
    SyntheticConfig(num_brokers=12, num_requests=90, num_days=4, imbalance=1.0, seed=1)
)


def _run(spec: RunSpec, root: str):
    """The run's result and its final (matcher, platform) snapshots."""
    result = spec.run()
    state = CheckpointStore(spec.run_directory(root)).load()
    return result, (state["matcher"], state["platform"])


def _twin_violations(algorithm: str, profile: str, root: str) -> list:
    """Run a batch spec and its boundary-policy serving twin; diff them."""
    batch = RunSpec(
        platform=PLATFORM,
        matcher=MatcherSpec(algorithm, seed=7),
        store_outcomes=True,
        store_assignments=True,
        checkpoint_dir=root,
    )
    # max_wait defaults to the window length: the boundary policy.
    twin = dataclasses.replace(batch, serving=ServingSpec(profile=profile))
    assert twin.serving.policy.max_wait == twin.serving.window_seconds
    assert twin.serving.policy.max_size is None

    batch_result, batch_state = _run(batch, root)
    served, served_state = _run(twin, root)
    report = served.serving
    assert batch_result.serving is None
    # One boundary-closed micro-batch per non-empty window (the batch run
    # logs one assignment per non-empty window), as in Alg. 2.
    assert report.micro_batches == len(batch_result.assignments)
    assert report.flush_reasons == {"max_size": 0, "max_wait": 0, "boundary": report.micro_batches}
    assert report.requests == PLATFORM.config.num_requests

    sides = dict(prefix="serving", labels=("batch", "serving"))
    served_as_batch = dataclasses.replace(served, serving=None)
    return _compare_results(batch_result, served_as_batch, algorithm, **sides) + _compare_states(
        batch_state, served_state, algorithm, **sides
    )


@pytest.mark.parametrize("algorithm", SUITE_ALGORITHMS)
def test_serving_equivalence_per_algorithm(algorithm, tmp_path):
    assert _twin_violations(algorithm, "uniform", str(tmp_path)) == []


def test_serving_equivalence_holds_on_bursty_arrivals(tmp_path):
    # Boundary flushing erases intra-window timing, so the profile must
    # not matter — if it does, arrivals leaked into batch composition.
    for algorithm in SUITE_ALGORITHMS:
        assert _twin_violations(algorithm, "bursty", str(tmp_path / algorithm)) == []


def test_serving_suite_covers_algorithm_profile_grid(tmp_path):
    assert set(PROFILES) == {"uniform", "bursty"}
    cases = [(a, p) for a in ("LACB", "Top-3") for p in PROFILES]
    violations = [
        v for i, (a, p) in enumerate(cases) for v in _twin_violations(a, p, str(tmp_path / str(i)))
    ]
    assert len(cases) == 4
    assert violations == []


def test_lazy_exports_resolve():
    import repro.check as check
    from repro.check.resume import check_resume_equivalence, run_resume_suite

    assert check.check_resume_equivalence is check_resume_equivalence
    assert check.run_resume_suite is run_resume_suite
    # The serving check module and its exports are gone: serving is a
    # RunSpec property, proved above through the generic comparators.
    assert "check_serving_equivalence" not in check.__all__
    with pytest.raises(AttributeError):
        check.run_serving_suite


def test_comparator_flags_a_diverging_serving_report():
    spec = RunSpec(
        platform=PLATFORM,
        matcher=MatcherSpec("Top-3", seed=7),
        serving=ServingSpec(profile="bursty", max_wait=5.0, max_size=4),
    )
    result = spec.run()
    other = dataclasses.replace(spec, serving=dataclasses.replace(spec.serving, max_size=1)).run()
    # Measured fields never count: a report differing only there is equal.
    timing_only = dataclasses.replace(
        result,
        serving=dataclasses.replace(
            result.serving,
            latencies=result.serving.latencies + 1.0,
            service_seconds=result.serving.service_seconds * 2.0,
            makespan=result.serving.makespan + 1.0,
        ),
    )
    assert _compare_results(result, timing_only, "Top-3") == []
    diverging = {
        v.message.split(":")[0]
        for v in _compare_results(result, other, "Top-3")
        if v.invariant == "resume.result_diverges"
    }
    assert {"RunResult.serving.policy", "RunResult.serving.flush_reasons"} <= diverging
