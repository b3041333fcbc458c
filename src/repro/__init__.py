"""Reproduction of "Towards Capacity-Aware Broker Matching: From
Recommendation to Assignment" (Wei et al., ICDE 2023).

The package implements LACB — capacity estimation with NN-enhanced UCB
contextual bandits (personalized by layer transfer) plus Value Function
Guided Assignment with Candidate Broker Selection — together with every
substrate the paper's evaluation needs: a real-estate platform simulator,
a from-scratch Hungarian matcher, gradient-boosted utility learning, the
full baseline roster and the experiment harness regenerating each figure.

Quickstart::

    from repro import SyntheticConfig, generate_city, make_matcher, run_algorithm

    platform = generate_city(SyntheticConfig(num_brokers=200, num_requests=8000,
                                             num_days=14, seed=1))
    lacb = make_matcher("LACB-Opt", platform, seed=7)
    result = run_algorithm(platform, lacb)
    print(result.total_realized_utility)
"""

from repro.algorithms import (
    ALGORITHM_NAMES,
    BatchKMMatcher,
    ConstrainedTopKRecommender,
    LACBMatcher,
    Matcher,
    RandomizedRecommender,
    TopKRecommender,
    make_matcher,
)
from repro.bandits import (
    LinUCBBandit,
    NNUCBBandit,
    PersonalizedCapacityEstimator,
    RegretTracker,
    theorem1_bound,
)
from repro.core import (
    AssignmentConfig,
    BanditConfig,
    CapacityAwareValueFunction,
    LACBConfig,
    ValueFunctionGuidedAssigner,
    select_candidate_brokers,
)
from repro.engine import (
    DayLoopEngine,
    DecisionTimer,
    MatcherSpec,
    MetricsCollector,
    PlatformSpec,
    RunHook,
    RunSpec,
    run_many,
)
from repro.experiments import (
    RunResult,
    compare_algorithms,
    evaluate_city,
    run_algorithm,
    sweep,
)
from repro.matching import greedy_assignment, hungarian, solve_assignment
from repro.simulation import (
    REAL_CITY_SPECS,
    RealEstatePlatform,
    SyntheticConfig,
    generate_city,
    real_like_city,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHM_NAMES",
    "AssignmentConfig",
    "BanditConfig",
    "BatchKMMatcher",
    "CapacityAwareValueFunction",
    "ConstrainedTopKRecommender",
    "DayLoopEngine",
    "DecisionTimer",
    "LACBConfig",
    "LACBMatcher",
    "LinUCBBandit",
    "Matcher",
    "MatcherSpec",
    "MetricsCollector",
    "NNUCBBandit",
    "PersonalizedCapacityEstimator",
    "PlatformSpec",
    "REAL_CITY_SPECS",
    "RandomizedRecommender",
    "RealEstatePlatform",
    "RegretTracker",
    "RunHook",
    "RunResult",
    "RunSpec",
    "SyntheticConfig",
    "TopKRecommender",
    "ValueFunctionGuidedAssigner",
    "compare_algorithms",
    "evaluate_city",
    "generate_city",
    "greedy_assignment",
    "hungarian",
    "make_matcher",
    "real_like_city",
    "run_algorithm",
    "run_many",
    "select_candidate_brokers",
    "solve_assignment",
    "sweep",
    "theorem1_bound",
    "__version__",
]
