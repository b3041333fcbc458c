"""Smoke benchmark runs never overwrite the committed full-size artifacts.

``repro-lacb baseline --check`` compares fresh artifacts against the
committed ``BENCH_*.json`` files, which hold full-size figures.  Running a
CI smoke step (``REPRO_BENCH_SMOKE=1``) in a working tree must leave those
files byte-for-byte as committed: smoke payloads are printed instead.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Smoke-run benchmarks and the committed artifact each one emits.
SMOKE_BENCHES = (
    ("test_hotpath", "BENCH_hotpath.json"),
    ("test_serving", "BENCH_serving.json"),
    ("test_decision_audit", "BENCH_decision_audit.json"),
    ("test_checkpoint_overhead", "BENCH_checkpoint.json"),
    ("test_incremental", "BENCH_incremental.json"),
)


@pytest.mark.parametrize("bench, artifact", SMOKE_BENCHES)
def test_smoke_run_leaves_committed_artifact_unchanged(bench, artifact):
    path = os.path.join(ROOT, artifact)
    with open(path, "rb") as handle:
        committed = handle.read()
    env = dict(os.environ, REPRO_BENCH_SMOKE="1", PYTHONPATH=os.path.join(ROOT, "src"))
    try:
        completed = subprocess.run(
            [sys.executable, "-m", "pytest", f"benchmarks/{bench}.py", "--benchmark-only",
             "-q", "-s", "-p", "no:cacheprovider"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        )
        # The smoke payload reached stdout (the run got as far as emitting
        # it; timing gates after that point are the benchmark's business).
        assert '"smoke": true' in completed.stdout, completed.stdout[-2000:]
    finally:
        with open(path, "rb") as handle:
            written = handle.read()
        if written != committed:  # put the committed bytes back, then fail
            with open(path, "wb") as handle:
                handle.write(committed)
    assert written == committed
