"""The shipped kernels are the only production kernels.

Two inner loops dominate a day-loop run at city scale: NN-UCB capacity
scoring (every candidate capacity of every broker, every day,
:mod:`repro.bandits.neural_ucb`) and Candidate Broker Selection (one
top-``k`` set per request row per batch, :mod:`repro.core.selection`).
Production runs one implementation of each:

* the day-batched scorer: one blocked :meth:`repro.nn.MLP.forward_backward`
  pass per block of brokers, and a gradient-free diagonal bonus reduced per
  broker from the pass's ``(delta, a)`` parts against the current
  covariance (:func:`repro.nn.mlp.weighted_gradient_norms`);
* the ``argpartition`` top-``k`` mask
  (:func:`repro.core.selection.topk_selection_mask`).

The scalar reference kernels they replaced — the per-arm
``param_gradient`` bonus loop, the per-context estimate loop and the
per-row quickselect union — live in :mod:`repro.check.differential` as
oracles.  The differential suites, the run-level equivalence tests and
``benchmarks/test_hotpath.py`` install or call them to prove the shipped
kernels bit-identical (CBS sets, decisions, bandit state) and to gate the
speedups.
"""

from __future__ import annotations


def fast_kernels_enabled() -> bool:
    """Always ``True``: there is no other production kernel mode.

    Kept as a stable guard for callers that assert they measure the
    shipped program (``e2ebench/run.py``).
    """
    return True
