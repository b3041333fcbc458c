"""The process-wide switchboard for runtime invariant checks.

Checks are **off by default**, exactly like :mod:`repro.obs.telemetry`:
every instrumentation point (the engine's :class:`~repro.check.hook.CheckHook`
attachment, the sampled solver-oracle checks inside
:class:`~repro.core.vfga.ValueFunctionGuidedAssigner`) goes through
:func:`current`, whose disabled fast path is a single global read.

This switch is the one way to turn checks on: :func:`enable` /
:func:`disable`, scoped with :func:`use`, from the CLI with ``--check``,
or for a whole process tree with ``REPRO_CHECK=1`` in the environment
(worker processes inherit the variable, so ``--jobs N`` runs are covered
too).  No component carries a check switch of its own.

A :class:`CheckState` carries the policy (``raise`` immediately or
``collect`` for reporting, plus the solver-oracle sampling rate) and the
results (violations found, check counters).  Violations are additionally
booked as ``check.violations`` counters on the active
:mod:`repro.obs` telemetry, so ``--check --telemetry DIR`` runs export
them with everything else.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

from repro.obs import telemetry as obs

#: Environment variable enabling checks for a whole process (tree).
ENV_FLAG = "REPRO_CHECK"

_MODES = ("raise", "collect")


@dataclass(frozen=True)
class Violation:
    """One failed invariant, with enough context to reproduce it.

    Attributes:
        invariant: dotted invariant name, e.g. ``"batch.duplicate_broker"``.
        message: human-readable description of what failed.
        algorithm: display name of the matcher under check, when known.
        day / batch: interval coordinates, when the violation is localized.
    """

    invariant: str
    message: str
    algorithm: str | None = None
    day: int | None = None
    batch: int | None = None

    def __str__(self) -> str:
        where = []
        if self.algorithm is not None:
            where.append(self.algorithm)
        if self.day is not None:
            where.append(f"day {self.day}")
        if self.batch is not None:
            where.append(f"batch {self.batch}")
        prefix = f" [{', '.join(where)}]" if where else ""
        return f"{self.invariant}{prefix}: {self.message}"

    def to_dict(self) -> dict:
        """Plain-data form for JSON violation reports."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "algorithm": self.algorithm,
            "day": self.day,
            "batch": self.batch,
        }


class InvariantViolationError(AssertionError):
    """An enabled runtime invariant failed.

    Subclasses :class:`AssertionError` so the property harness and pytest
    both treat it as a check failure rather than an infrastructure error.
    """

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class CheckState:
    """Policy and results of one checking session.

    Args:
        mode: ``"raise"`` aborts on the first violation (the ``--check``
            behaviour); ``"collect"`` accumulates violations for reporting
            (the ``repro check`` self-diagnostic).
        solver_sample_every: run the expensive solver-oracle checks
            (KM optimality vs SciPy, CBS preservation) on every N-th solve;
            the first solve is always checked.  Cheap structural invariants
            are never sampled.
    """

    def __init__(self, mode: str = "raise", solver_sample_every: int = 16) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if solver_sample_every < 1:
            raise ValueError(
                f"solver_sample_every must be >= 1, got {solver_sample_every}"
            )
        self.mode = mode
        self.solver_sample_every = solver_sample_every
        self.violations: list[Violation] = []
        self.invariants_checked = 0
        self.solver_checks = 0
        self._solves_seen = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, violation: Violation) -> None:
        """Book one violation: count it, collect it, raise if configured."""
        self.violations.append(violation)
        obs.add("check.violations", invariant=violation.invariant)
        if self.mode == "raise":
            raise InvariantViolationError(violation)

    def record_all(self, violations: list[Violation]) -> None:
        """Book a batch of violations (first one raises in raise mode)."""
        for violation in violations:
            self.record(violation)

    def count(self, checks: int = 1) -> None:
        """Account for ``checks`` structural invariant evaluations."""
        self.invariants_checked += checks

    # ------------------------------------------------------------------
    # Solver-oracle sampling
    # ------------------------------------------------------------------
    def sample_solver(self) -> bool:
        """Whether this solve should get the expensive oracle treatment.

        Deterministic counter-based sampling — never consumes any random
        state, so enabling checks cannot perturb a run's results.
        """
        self._solves_seen += 1
        if (self._solves_seen - 1) % self.solver_sample_every != 0:
            return False
        self.solver_checks += 1
        return True

    @property
    def ok(self) -> bool:
        """Whether no violation has been recorded."""
        return not self.violations


def _env_enabled() -> bool:
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


#: The active check state of this process (None = disabled, the default).
#: Processes started with REPRO_CHECK=1 come up enabled, which is how the
#: flag reaches ``--jobs N`` worker processes.
_ACTIVE: CheckState | None = CheckState() if _env_enabled() else None


def current() -> CheckState | None:
    """The active :class:`CheckState`, or ``None`` while checks are off."""
    return _ACTIVE


def enabled() -> bool:
    """Whether runtime checks are currently on."""
    return _ACTIVE is not None


def enable(state: CheckState | None = None) -> CheckState:
    """Install (and return) the process-wide check state."""
    global _ACTIVE
    _ACTIVE = state if state is not None else CheckState()
    return _ACTIVE


def disable() -> None:
    """Turn runtime checks off (instrumentation reverts to no-ops)."""
    global _ACTIVE
    _ACTIVE = None


@contextlib.contextmanager
def use(state: CheckState):
    """Scoped activation, restoring whatever was active before."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = state
    try:
        yield state
    finally:
        _ACTIVE = previous
