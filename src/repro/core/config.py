"""Configuration dataclasses mirroring the paper's reported settings.

Defaults reproduce Sec. VII-A: a 3-layer MLP reward model, ``alpha = 0.001``,
``batchSize = 16``, ``lambda = 0.001`` for the bandit (Alg. 1), and
``beta = 0.25``, ``gamma = 0.9``, ``delta = 0.8`` for the assignment module
(Alg. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _default_capacity_grid() -> np.ndarray:
    """Candidate capacities C (Sec. V-B).

    The paper determines the candidate range empirically from the Sec. II
    measurements "and do[es] not explore the workload capacity with a
    prominent low sign-up rate" — the grid spans the population's observed
    accustomed-workload band (sweet spots of ~6-45 requests/day in the
    simulated cities).
    """
    return np.arange(4, 48, 4, dtype=float)


@dataclass
class BanditConfig:
    """Hyper-parameters of the NN-enhanced UCB capacity estimator (Alg. 1).

    Attributes:
        candidate_capacities: the arm set ``C``.
        hidden_sizes: hidden-layer widths of the reward MLP (Eq. 4);
            ``(64, 16)`` with the input layer gives the paper's 3-layer net.
        alpha: upper-confidence-bound coefficient of Eq. 5.
        lam: regularization parameter ``lambda`` (covariance prior ``D = lam I``
            and the ridge term of Eq. 6).
        batch_size: observation-buffer size triggering a parameter update
            (``batchSize``, preset to 16 in the paper).
        learning_rate: step size for the reward-model update.
        train_epochs: gradient steps per buffer flush (the paper's Alg. 1
            takes one; a few more stabilize the small-net fit).
        covariance: ``"diagonal"`` (scalable NeuralUCB-style approximation)
            or ``"full"`` (exact ``D`` with Sherman-Morrison inverse updates;
            only practical for small reward models).
        min_arm_pulls: forced-coverage floor — every candidate capacity is
            pulled globally at least this often before pure UCB argmax takes
            over (cold-start safeguard; see ``NNUCBBandit.select_arm``).
        epsilon: probability of pulling a uniformly random arm instead of
            the UCB argmax.  Capacity choices gate which workloads can ever
            be *observed* (a capacity of 5 guarantees no data beyond
            workload 5), so without an exploration floor the estimator
            self-reinforces whatever region it starts in.
        train_on: which input the reward model is fit against —
            ``"workload"`` follows Eq. 6 / Alg. 2 line 17 (``S(x_o, w_o)``:
            the realized workload, denser information per day), while
            ``"capacity"`` follows Alg. 1 line 16 (``S(x_o, c_o)``: the
            chosen arm, free of demand confounding).  The paper's text
            contains both; ``"workload"`` measures slightly better
            end-to-end and is the default, with the difference quantified
            by an ablation bench.
        replay_size: capped FIFO of past trials the reward model retrains
            on.  Alg. 1 clears the 16-sample buffer after each update;
            fitting only those 16 freshest samples forgets everything
            earlier, so (as in standard NeuralUCB practice) each flush
            trains on a sample of the full history instead.
        replay_sample: rows sampled from the replay per training flush.
        minibatch: SGD minibatch size within a training flush.
        tie_tolerance: relative score band within which the *smallest*
            capacity is preferred — conservative behaviour for brokers whose
            reward is flat in their own capacity (demand-limited brokers).
    """

    candidate_capacities: np.ndarray = field(default_factory=_default_capacity_grid)
    hidden_sizes: tuple[int, ...] = (64, 16)
    alpha: float = 0.05
    lam: float = 0.001
    batch_size: int = 16
    learning_rate: float = 0.01
    train_epochs: int = 5
    covariance: str = "diagonal"
    min_arm_pulls: int = 3
    epsilon: float = 0.08
    tie_tolerance: float = 0.05
    train_on: str = "workload"
    replay_size: int = 4096
    replay_sample: int = 1024
    minibatch: int = 64

    def __post_init__(self) -> None:
        self.candidate_capacities = np.asarray(self.candidate_capacities, dtype=float)
        if self.candidate_capacities.size == 0:
            raise ValueError("candidate capacity set must be non-empty")
        if self.covariance not in ("diagonal", "full"):
            raise ValueError(f"covariance must be 'diagonal' or 'full', got {self.covariance!r}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.train_on not in ("capacity", "workload"):
            raise ValueError(f"train_on must be 'capacity' or 'workload', got {self.train_on!r}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")


@dataclass
class AssignmentConfig:
    """Hyper-parameters of the capacity-based assignment module (Alg. 2).

    Attributes:
        learning_rate: TD learning rate ``beta`` (paper: 0.25).
        discount: TD discount factor ``gamma`` (paper: 0.9).
        threshold: ``delta`` — value-function refinement only applies to
            brokers whose frequency of reaching capacity exceeds it
            (paper: 0.8).
        use_value_function: ablation switch; ``False`` reduces Alg. 2 to
            capacity-capped per-batch KM.
        use_cbs: enable Candidate Broker Selection (Alg. 3) — the LACB-Opt
            variant.
        matching_backend: ``"repro"`` (from-scratch KM) or ``"scipy"``.
            Every batch is one fresh solve over that batch's requests
            (Alg. 2 line 7); no solver state carries across batches.
        matching_pad_square: run KM on the full square |B| x |B| graph as
            Sec. VI-B describes (the O(|B|^3) baseline behaviour); off by
            default — the rectangular solver finds the identical matching
            faster, and the square mode exists for the paper's running-time
            comparisons.
        check: enable this assigner's runtime solver checks (sampled KM
            optimality vs the SciPy oracle, CBS preservation per Theorem 2)
            even when process-wide checking (:mod:`repro.check.runtime`) is
            off.  Violations raise :class:`repro.check.InvariantViolationError`.
            Checks observe only — they never change assignment results.
    """

    learning_rate: float = 0.25
    discount: float = 0.9
    threshold: float = 0.8
    use_value_function: bool = True
    use_cbs: bool = False
    matching_backend: str = "repro"
    matching_pad_square: bool = False
    check: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError(f"discount must be in [0, 1], got {self.discount}")


@dataclass
class LACBConfig:
    """Full LACB configuration: estimation plus assignment (Fig. 5).

    Attributes:
        bandit: capacity-estimation settings (Alg. 1).
        assignment: capacity-based assignment settings (Alg. 2/3).
        personalize: fine-tune a per-broker reward head by layer transfer
            (Sec. V-D); disabling it degrades LACB towards the AN baseline.
        warmup_days: days served before per-broker fine-tuning begins
            (personalization needs some broker-specific triples first).
    """

    bandit: BanditConfig = field(default_factory=BanditConfig)
    assignment: AssignmentConfig = field(default_factory=AssignmentConfig)
    personalize: bool = True
    warmup_days: int = 2
