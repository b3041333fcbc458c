"""Event-driven serving mode over the batch simulation.

``repro.serving`` replays a :class:`~repro.simulation.requests.
RequestStream` as a continuous arrival process, closes micro-batches with
an adaptive max-wait/max-size policy, and drives the unchanged
``Matcher``/``Platform`` protocol per micro-batch — so the paper's
algorithms serve request *events* instead of preset windows, with
per-request queueing and end-to-end latency measured along the way.

Modules:

- :mod:`repro.serving.arrivals` — deterministic arrival timestamps
  (uniform and bursty intra-day profiles);
- :mod:`repro.serving.microbatch` — the micro-batch policy and the
  load-leveling queue in front of the solver;
- :mod:`repro.serving.engine` — the :class:`ServingEngine` (the day
  loop with windows split into micro-batches), its
  :class:`ServingReport`, and the :class:`ServingSpec` recipe that makes
  serving a property of a :class:`~repro.engine.spec.RunSpec`.

The degenerate policy (``MicroBatchPolicy.boundary(window_seconds)``)
reproduces the batch day loop bit for bit;
``tests/serving/test_equivalence.py`` proves it on batch specs and their
serving twins.
"""

from repro.serving.arrivals import (
    DEFAULT_BURST_AMPLITUDE,
    DEFAULT_WINDOW_SECONDS,
    PROFILES,
    ArrivalSchedule,
    derive_arrivals,
)
from repro.serving.engine import REPORT_QUANTILES, ServingEngine, ServingReport, ServingSpec
from repro.serving.microbatch import (
    FLUSH_REASONS,
    LoadLevelingQueue,
    MicroBatch,
    MicroBatchPolicy,
)

__all__ = [
    "ArrivalSchedule",
    "DEFAULT_BURST_AMPLITUDE",
    "DEFAULT_WINDOW_SECONDS",
    "FLUSH_REASONS",
    "LoadLevelingQueue",
    "MicroBatch",
    "MicroBatchPolicy",
    "PROFILES",
    "REPORT_QUANTILES",
    "ServingEngine",
    "ServingReport",
    "ServingSpec",
    "derive_arrivals",
]
