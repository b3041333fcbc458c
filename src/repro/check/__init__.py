"""repro.check — opt-in runtime invariants and differential testing.

Layers (each usable on its own):

* :mod:`repro.check.runtime` — the process-wide switchboard
  (:func:`enable` / :func:`disable` / ``REPRO_CHECK=1``), violation types
  and the :class:`CheckState` policy object.
* :mod:`repro.check.invariants` — pure invariant functions over batch
  assignments, capacity state, day accounting and solver results, plus
  :func:`oracle_assignment`, the SciPy optimality oracle.
* :mod:`repro.check.hook` — the engine-attached :class:`CheckHook`
  (auto-wired by :class:`~repro.engine.loop.DayLoopEngine` while checks
  are enabled).
* :mod:`repro.check.property` — the zero-dependency property-testing
  harness (seeded generators + greedy shrinking).
* :mod:`repro.check.differential` — cross-implementation oracles
  (KM vs SciPy/auction/flow, CBS vs brute force, padding) and the
  scalar reference kernels the production hot paths replaced.
* :mod:`repro.check.auction` / :mod:`repro.check.flow` — the Bertsekas
  auction and min-cost-flow solvers, independent optimality oracles.
* :mod:`repro.check.selfcheck` — the ``repro check`` CLI diagnostic.

``CheckHook``, ``oracle_assignment`` and the selfcheck entry points are
exported lazily: :mod:`repro.check.hook` imports the engine and
:mod:`repro.check.invariants` the core types, so eager re-export would
make ``import repro.check`` (which :mod:`repro.core.vfga` performs)
circular.
"""

from repro.check.runtime import (
    ENV_FLAG,
    CheckState,
    InvariantViolationError,
    Violation,
    current,
    disable,
    enable,
    enabled,
    use,
)

__all__ = [
    "ENV_FLAG",
    "CheckState",
    "InvariantViolationError",
    "Violation",
    "current",
    "disable",
    "enable",
    "enabled",
    "use",
    "CheckHook",
    "oracle_assignment",
    "SelfCheckReport",
    "run_self_check",
    "check_resume_equivalence",
    "run_resume_suite",
]

_LAZY = {
    "CheckHook": ("repro.check.hook", "CheckHook"),
    "oracle_assignment": ("repro.check.invariants", "oracle_assignment"),
    "SelfCheckReport": ("repro.check.selfcheck", "SelfCheckReport"),
    "run_self_check": ("repro.check.selfcheck", "run_self_check"),
    "check_resume_equivalence": ("repro.check.resume", "check_resume_equivalence"),
    "run_resume_suite": ("repro.check.resume", "run_resume_suite"),
}


def __getattr__(name: str):
    """PEP 562 lazy exports for the engine-dependent pieces."""
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
