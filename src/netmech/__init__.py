"""Optimal incentive mechanism for a sponsored-content market on a graph."""

from .distributions import (
    RegularityReport,
    SupportError,
    TruncatedExponential,
    TruncatedNormal,
    TypeDistribution,
    Uniform,
    validate_regularity,
)
from .config import distribution_from_config
from .market import (
    Assumption2Report,
    InvalidScenarioError,
    MarketParams,
    Network,
    Scenario,
    cp_ex_post_utility,
    validate_assumption2,
)
from .mechanism import (
    EngineError,
    InterimCurves,
    MonteCarloEngine,
    NegativeRewardWarning,
    QuadratureEngine,
    RewardSchedule,
    SolverError,
    demand_solve,
    export_interim_csv,
    foc_residual,
    interim_curves,
    make_engine,
    reward_schedule,
    system_matrix,
    truthful_interim_utility,
)
from .verification import (
    ImpactRow,
    VerificationReport,
    interim_utility,
    untruthful_impact,
    verify_all,
    verify_ic,
    verify_ir,
    verify_monotonicity,
)

__version__ = "0.1.0"
