"""A zero-dependency property-testing mini-harness.

``hypothesis``-flavoured but self-contained: :func:`run_property` drives a
seeded generator through ``num_cases`` random cases, runs the check on
each, and on the first failure greedily *shrinks* the counterexample (via
a caller-supplied candidate generator) before reporting it — so failures
come back as the smallest instance the shrinker could reach, with the
exact seed and case index needed to replay them.

Everything is built on ``numpy.random.Generator`` with per-case seeds
derived from one base seed, so a failing case replays bit-for-bit from the
``(seed, index)`` pair alone.  The generators in this module produce the
adversarial utility-matrix regimes the assignment solvers must agree on:
ties, exact zeros, negatives, constants, and degenerate 0-row/0-column
shapes.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

import numpy as np

from repro.matching.hungarian import SMALL_KM_COLS

Case = TypeVar("Case")

#: Default number of random cases per property (the differential suites
#: run at least this many instances per solver pair).
DEFAULT_NUM_CASES = 200

#: Cap on shrink attempts, across all candidates tried.
DEFAULT_MAX_SHRINK_STEPS = 500


class PropertyFailure(AssertionError):
    """A property failed; carries the (shrunk) counterexample and replay info.

    Attributes:
        name: the property's display name.
        counterexample: the smallest failing case the shrinker reached.
        seed / index: replay coordinates — regenerate the *original* failing
            case with ``case_rng(seed, index)``.
        shrink_steps: how many successful shrink steps were applied.
        cause: the check's original failure on the shrunk case.
    """

    def __init__(
        self,
        name: str,
        counterexample,
        seed: int,
        index: int,
        shrink_steps: int,
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"property {name!r} failed on case {index} (seed {seed}, "
            f"{shrink_steps} shrink steps): {cause}\n"
            f"counterexample: {counterexample!r}"
        )
        self.name = name
        self.counterexample = counterexample
        self.seed = seed
        self.index = index
        self.shrink_steps = shrink_steps
        self.cause = cause


def case_rng(seed: int, index: int) -> np.random.Generator:
    """The deterministic per-case generator for ``(seed, index)``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def run_property(
    check: Callable[[Case], None],
    generate: Callable[[np.random.Generator], Case],
    *,
    num_cases: int = DEFAULT_NUM_CASES,
    seed: int = 0,
    shrink: Callable[[Case], Iterable[Case]] | None = None,
    max_shrink_steps: int = DEFAULT_MAX_SHRINK_STEPS,
    name: str | None = None,
) -> int:
    """Check a property over ``num_cases`` random cases, shrinking failures.

    Args:
        check: raises ``AssertionError`` (or any exception) on a bad case.
        generate: draws one case from a per-case ``Generator``.
        num_cases: how many cases to run.
        seed: base seed; case ``i`` uses ``case_rng(seed, i)``.
        shrink: yields *candidate* smaller cases for a failing case; the
            first candidate that still fails is adopted and shrinking
            restarts from it (greedy descent).  ``None`` disables shrinking.
        max_shrink_steps: total candidate evaluations allowed.
        name: display name in the failure report.

    Returns:
        The number of cases checked (== ``num_cases``) on success.

    Raises:
        PropertyFailure: with the shrunk counterexample on first failure.
    """
    display = name or getattr(check, "__name__", "property")
    for index in range(num_cases):
        case = generate(case_rng(seed, index))
        failure = _fails(check, case)
        if failure is None:
            continue
        if shrink is not None:
            case, failure, steps = _shrink(
                check, case, failure, shrink, max_shrink_steps
            )
        else:
            steps = 0
        raise PropertyFailure(display, case, seed, index, steps, failure)
    return num_cases


def _fails(check: Callable[[Case], None], case: Case) -> BaseException | None:
    """The exception a check raises on a case, or None if it passes."""
    try:
        check(case)
    except BaseException as exc:  # noqa: BLE001 — any escape is a failure
        return exc
    return None


def _shrink(
    check: Callable[[Case], None],
    case: Case,
    failure: BaseException,
    shrink: Callable[[Case], Iterable[Case]],
    max_steps: int,
) -> tuple[Case, BaseException, int]:
    """Greedy descent: adopt the first still-failing candidate, repeat."""
    steps = 0
    budget = max_steps
    improved = True
    while improved and budget > 0:
        improved = False
        for candidate in shrink(case):
            budget -= 1
            candidate_failure = _fails(check, candidate)
            if candidate_failure is not None:
                case, failure = candidate, candidate_failure
                steps += 1
                improved = True
                break
            if budget <= 0:
                break
    return case, failure, steps


# ----------------------------------------------------------------------
# Generators over rectangular utility matrices
# ----------------------------------------------------------------------
def random_shape(
    rng: np.random.Generator,
    max_rows: int = 8,
    max_cols: int = 12,
    degenerate_probability: float = 0.08,
) -> tuple[int, int]:
    """A random (possibly degenerate) matrix shape.

    With probability ``degenerate_probability`` one side is zero — the
    0-row / 0-column edge cases every solver must survive.
    """
    if rng.random() < degenerate_probability:
        if rng.random() < 0.5:
            return 0, int(rng.integers(0, max_cols + 1))
        return int(rng.integers(0, max_rows + 1)), 0
    return int(rng.integers(1, max_rows + 1)), int(rng.integers(1, max_cols + 1))


def random_utilities(
    rng: np.random.Generator,
    shape: tuple[int, int] | None = None,
    allow_negative: bool = True,
) -> np.ndarray:
    """A random utility matrix from one of several adversarial regimes.

    Regimes: smooth uniform values, coarsely quantized values (many exact
    ties), zero-masked values (genuine zero-utility edges), negated values
    (when ``allow_negative``), and constant matrices (everything tied).
    """
    if shape is None:
        shape = random_shape(rng)
    n_rows, n_cols = shape
    regimes = ["uniform", "ties", "zeros", "constant"]
    if allow_negative:
        regimes.append("negative")
    regime = regimes[int(rng.integers(len(regimes)))]
    if regime == "uniform":
        values = rng.uniform(0.0, 10.0, size=shape)
    elif regime == "ties":
        values = rng.integers(0, 4, size=shape).astype(float)
    elif regime == "zeros":
        values = rng.uniform(0.0, 10.0, size=shape)
        values[rng.random(shape) < 0.4] = 0.0
    elif regime == "constant":
        values = np.full(shape, float(rng.integers(0, 3)))
    else:  # negative
        values = rng.uniform(-5.0, 10.0, size=shape)
    return values


#: Utility shapes of the benchmark's wide KM solves, as ranges of
#: (rows, real columns): a day-dense batch after CBS (cost ~30x190) and an
#: uncut long-horizon batch (cost ~10x510).
WIDE_KM_SHAPES = (((20, 30), (120, 240)), ((5, 10), (400, 500)))


def random_km_case(rng: np.random.Generator, max_rows: int = 12) -> np.ndarray:
    """A utility matrix whose KM solve lands on either side of
    :data:`~repro.matching.hungarian.SMALL_KM_COLS`, up to the widest
    solves the benchmark runs.

    A maximizing solve adds a private zero column per row, so its cost has
    ``n_cols + n_rows`` columns (rows and columns swap first when rows are
    the larger side).  Three cases in four have up to ``max_rows`` rows and
    real columns drawn up to twice the limit, so roughly half of them take
    each path; the fourth has one of :data:`WIDE_KM_SHAPES`.  One case in
    three is :func:`contested_utilities`, whose row insertions grow
    multi-step trees; the others come from every :func:`random_utilities`
    regime.
    """
    draw = int(rng.integers(8))
    if draw < 6:
        shape = (int(rng.integers(1, max_rows + 1)), int(rng.integers(1, 2 * SMALL_KM_COLS + 1)))
    else:
        (row_low, row_high), (col_low, col_high) = WIDE_KM_SHAPES[draw - 6]
        shape = (
            int(rng.integers(row_low, row_high + 1)),
            int(rng.integers(col_low, col_high + 1)),
        )
    if rng.random() < 1 / 3:
        return contested_utilities(rng, shape)
    return random_utilities(rng, shape=shape)


def contested_utilities(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Utilities where every row's best columns are the same one to three.

    Quarter-step background values (many ties) plus a whole-number bonus
    of 2 or 3 on a few shared hot columns: once the hot columns are taken,
    each inserted row's first choice is occupied, so KM's row insertion
    runs past its first step and displaces earlier rows.
    """
    n_rows, n_cols = shape
    values = rng.integers(0, 4, size=shape) / 4.0
    hot = rng.choice(n_cols, size=min(n_cols, int(rng.integers(1, 4))), replace=False)
    values[:, hot] += rng.integers(2, 4, size=(n_rows, hot.size))
    return values


def random_utility_row(
    rng: np.random.Generator, max_size: int = 40
) -> np.ndarray:
    """A random 1-D utility row (for top-k selection properties)."""
    size = int(rng.integers(0, max_size + 1))
    return random_utilities(rng, shape=(1, size))[0]


def random_topk_case(
    rng: np.random.Generator, max_rows: int = 6, max_cols: int = 24
) -> tuple[np.ndarray, int]:
    """A ``(matrix, k)`` pair for the fast-vs-quickselect top-k property.

    ``k`` ranges past the column count so the all-columns and empty edges
    are exercised; the matrix regimes include heavy ties (the case where
    an arbitrary-tie-break ``argpartition`` would diverge from the
    reference).
    """
    n_rows = int(rng.integers(0, max_rows + 1))
    n_cols = int(rng.integers(0, max_cols + 1))
    weights = random_utilities(rng, shape=(n_rows, n_cols))
    k = int(rng.integers(0, n_cols + 3))
    return weights, k


def random_mlp_case(
    rng: np.random.Generator,
    max_hidden_layers: int = 3,
    max_width: int = 24,
    max_batch: int = 12,
) -> tuple[tuple[int, ...], np.ndarray, int]:
    """A ``(layer_sizes, inputs, net_seed)`` batched-scoring case.

    Scalar-output MLPs of varying depth/width with inputs spanning
    magnitudes (so dead-ReLU rows and large activations both occur).
    """
    input_dim = int(rng.integers(1, 12))
    hidden = tuple(
        int(rng.integers(1, max_width + 1))
        for _ in range(int(rng.integers(1, max_hidden_layers + 1)))
    )
    layer_sizes = (input_dim, *hidden, 1)
    batch = int(rng.integers(1, max_batch + 1))
    scale = 10.0 ** rng.integers(-2, 3)
    inputs = rng.normal(0.0, scale, size=(batch, input_dim))
    return layer_sizes, inputs, int(rng.integers(0, 2**31))


def random_train_case(
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, int, float, int, int]:
    """A ``(layer_sizes, inputs, targets, net_seed, lam, minibatch, steps)``
    training-step case.

    Shapes and the network seed come from :func:`random_mlp_case`; one to
    six minibatch steps run over ``inputs``, the last of which is short
    whenever its drawn row count falls below ``minibatch``.  ``lam`` is
    zero (no L2 pass) or positive.
    """
    layer_sizes, _, net_seed = random_mlp_case(rng)
    steps = int(rng.integers(1, 7))
    minibatch = int(rng.integers(1, 9))
    rows = (steps - 1) * minibatch + int(rng.integers(1, minibatch + 1))
    scale = 10.0 ** rng.integers(-2, 3)
    inputs = rng.normal(0.0, scale, size=(rows, layer_sizes[0]))
    targets = rng.uniform(0.0, 1.0, size=rows)
    lam = float(rng.choice([0.0, 1e-3, 0.5]))
    return layer_sizes, inputs, targets, net_seed, lam, minibatch, steps


#: Estimator kinds the batched-estimate property draws from.
ESTIMATOR_KINDS = ("nnucb", "residual", "linear", "thompson", "full")


def random_estimate_case(rng: np.random.Generator) -> tuple[str, int, bool, int, int]:
    """A ``(kind, num_brokers, audit, seed, explore_run)`` batched-estimate case.

    Batch sizes sit on the scoring-block edges — 0, 1, ``SCORING_BLOCK``
    minus one, exactly one block and one past it — where an off-by-one in
    the blocked passes would show.  The batch opens with a run of
    never-seen brokers whose commits queue without scoring; run lengths
    sit on the commit-queue and scoring-block edges, so a bonus that reads
    ``D`` before the queue is flushed would show.  The seed builds the
    estimator and its warm-up history
    (:func:`repro.check.differential.assert_batched_estimate_matches`).
    """
    from repro.bandits.neural_ucb import COMMIT_BLOCK, SCORING_BLOCK

    kind = ESTIMATOR_KINDS[int(rng.integers(len(ESTIMATOR_KINDS)))]
    sizes = (0, 1, SCORING_BLOCK - 1, SCORING_BLOCK, SCORING_BLOCK + 1)
    num_brokers = sizes[int(rng.integers(len(sizes)))]
    runs = (
        0,
        1,
        COMMIT_BLOCK - 1,
        COMMIT_BLOCK,
        COMMIT_BLOCK + 1,
        SCORING_BLOCK - 1,
        SCORING_BLOCK,
        SCORING_BLOCK + 1,
        2 * SCORING_BLOCK + 1,
    )
    explore_run = runs[int(rng.integers(len(runs)))]
    return (
        kind,
        num_brokers,
        bool(rng.integers(2)),
        int(rng.integers(0, 2**31)),
        explore_run,
    )


def random_platform_case(rng: np.random.Generator) -> tuple[dict, int]:
    """A ``(config_kwargs, seed)`` small-city case for the platform property.

    Pools of 1-30 brokers over 1-8 districts and 2-4 days; appeals and
    skill growth are each on in roughly two cases of three, so blocked
    pairs, re-queues and a moving ``base_quality`` all occur (see
    :func:`repro.check.differential.assert_platform_utilities_match`).
    """
    config = {
        "num_brokers": int(rng.integers(1, 31)),
        "num_requests": int(rng.integers(1, 121)),
        "num_days": int(rng.integers(2, 5)),
        "imbalance": float(rng.uniform(0.02, 0.6)),
        "num_districts": int(rng.integers(1, 9)),
        "appeal_rate": float(rng.choice([0.0, rng.uniform(0.05, 0.95)], p=[1 / 3, 2 / 3])),
        "skill_growth": float(rng.choice([0.0, rng.uniform(0.01, 0.3)], p=[1 / 3, 2 / 3])),
        "seed": int(rng.integers(0, 2**31)),
    }
    return config, int(rng.integers(0, 2**31))


def random_perturbation_sequence(
    rng: np.random.Generator,
    max_rows: int = 8,
    max_cols: int = 12,
    max_steps: int = 6,
) -> list[np.ndarray]:
    """A sequence of related utility matrices for warm-start properties.

    Models the batch-to-batch evolution an incremental solver faces: the
    first matrix is arbitrary, and each later step applies one mutation —
    ``k``-row deltas (random rows or the trailing block the value
    refinement typically touches), identical repeats, full redraws, broker
    columns added or removed, tie storms (coarse quantization creating
    mass ties), and occasional full reshapes including degenerate 0-row /
    0-column shapes.
    """
    n_rows = int(rng.integers(1, max_rows + 1))
    n_cols = int(rng.integers(1, max_cols + 1))
    current = random_utilities(rng, shape=(n_rows, n_cols))
    sequence = [current]
    mutations = (
        "delta_rows",
        "delta_tail",
        "repeat",
        "redraw",
        "add_broker",
        "drop_broker",
        "tie_storm",
        "reshape",
    )
    for _ in range(int(rng.integers(1, max_steps + 1))):
        n_rows, n_cols = current.shape
        mutation = mutations[int(rng.integers(len(mutations)))]
        if mutation in ("delta_rows", "delta_tail") and n_rows == 0:
            mutation = "repeat"
        if mutation == "drop_broker" and n_cols <= 1:
            mutation = "add_broker"
        if mutation == "delta_rows":
            k = int(rng.integers(1, n_rows + 1))
            rows = rng.choice(n_rows, size=k, replace=False)
            current = current.copy()
            current[rows] = random_utilities(rng, shape=(k, n_cols))
        elif mutation == "delta_tail":
            k = int(rng.integers(1, n_rows + 1))
            current = current.copy()
            current[n_rows - k:] = random_utilities(rng, shape=(k, n_cols))
        elif mutation == "repeat":
            current = current.copy()
        elif mutation == "redraw":
            current = random_utilities(rng, shape=(n_rows, n_cols))
        elif mutation == "add_broker":
            column = random_utilities(rng, shape=(n_rows, 1))
            current = np.hstack([current, column])
        elif mutation == "drop_broker":
            column = int(rng.integers(n_cols))
            current = np.delete(current, column, axis=1)
        elif mutation == "tie_storm":
            current = np.round(current)
        else:  # reshape
            current = random_utilities(rng, shape=random_shape(rng))
        sequence.append(current)
    return sequence


def shrink_sequence(sequence: list[np.ndarray]):
    """Shrink candidates for a failing perturbation sequence.

    Yields tail truncations first (warm-start failures usually need only
    the last few steps), then each single-step drop, then per-matrix
    simplifications of the final step via :func:`shrink_matrix`.
    """
    if len(sequence) > 2:
        yield sequence[-2:]
    for index in range(len(sequence)):
        if len(sequence) > 1:
            yield sequence[:index] + sequence[index + 1:]
    if sequence and sequence[-1].size:
        for candidate in shrink_matrix(sequence[-1]):
            yield sequence[:-1] + [candidate]


def shrink_matrix(weights: np.ndarray):
    """Shrink candidates for a failing matrix: fewer rows/cols, simpler values.

    Yields, in order of aggressiveness: each single-row drop, each
    single-column drop, zeroing each nonzero entry, and rounding every
    entry to one decimal (one global candidate).
    """
    weights = np.asarray(weights, dtype=float)
    n_rows, n_cols = weights.shape
    for row in range(n_rows):
        yield np.delete(weights, row, axis=0)
    for col in range(n_cols):
        yield np.delete(weights, col, axis=1)
    for row in range(n_rows):
        for col in range(n_cols):
            if weights[row, col] != 0.0:
                candidate = weights.copy()
                candidate[row, col] = 0.0
                yield candidate
    rounded = np.round(weights, 1)
    if not np.array_equal(rounded, weights):
        yield rounded
