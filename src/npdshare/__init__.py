"""Toolkit for repeated information-sharing games with noisy monitoring.

Stage game: N firms simultaneously disclose or conceal security information;
disclosure benefits the others and costs the discloser, so concealing is
dominant in one shot.  The package checks when repeated play can sustain
disclosure (signal-rank and identifiability conditions), solves for the
continuation rewards that enforce it (half-space decomposition), bounds the
attainable equilibrium payoff set, and simulates the repeated game under
public or private monitoring with a counter-based RNG for exact
reproducibility.
"""

from .conditions import (
    ConditionReport,
    check_c1,
    check_c2,
    check_c3,
    individual_full_rank,
    pairwise_full_rank,
    theorem_preconditions,
)
from .decompose import (
    DecompositionCheck,
    EnforceabilityResult,
    KStarResult,
    PayoffSetApprox,
    PromiseDecomposition,
    k_star,
    k_star_formula_linear_n2,
    kappa,
    ppe_payoff_set,
    solve_enforceability,
    table2_gamma_bar,
    verify_decomposition,
)
from .engine import (
    AlwaysConceal,
    AlwaysDisclose,
    CountAutomaton,
    CountTable,
    EpisodeTrace,
    MonteCarloResult,
    PromiseAutomaton,
    SignalTrigger,
    Strategy,
    monte_carlo,
    monte_carlo_promise,
    read_trace_csv,
    run_episode,
    write_trace_csv,
)
from .errors import (
    CapacityError,
    ConditionInapplicableError,
    DiscountTooSmallError,
    DomainError,
    NpdShareError,
    ProtocolError,
)
from .game import (
    AssumptionReport,
    ConcaveGain,
    GameSpec,
    LinearGain,
    MinmaxResult,
    all_profiles,
    check_assumptions,
    extreme_profiles,
    feasible_hull,
    minmax,
    profile_payoff,
)
from .monitoring import (
    FactoredBernoulli,
    SignalDistribution,
    cross_observation_reduction,
    marginal_excluding,
    private_joint_distribution,
    public_signal_distribution,
)
from .specfile import LoadedSpec, load_game_spec, parse_game_spec

__version__ = "0.1.0"

__all__ = [
    "AlwaysConceal",
    "AlwaysDisclose",
    "AssumptionReport",
    "CapacityError",
    "ConcaveGain",
    "ConditionInapplicableError",
    "ConditionReport",
    "CountAutomaton",
    "CountTable",
    "DecompositionCheck",
    "DiscountTooSmallError",
    "DomainError",
    "EnforceabilityResult",
    "EpisodeTrace",
    "FactoredBernoulli",
    "GameSpec",
    "KStarResult",
    "LinearGain",
    "LoadedSpec",
    "MinmaxResult",
    "MonteCarloResult",
    "NpdShareError",
    "PayoffSetApprox",
    "PromiseAutomaton",
    "PromiseDecomposition",
    "ProtocolError",
    "SignalDistribution",
    "SignalTrigger",
    "Strategy",
    "all_profiles",
    "check_assumptions",
    "check_c1",
    "check_c2",
    "check_c3",
    "cross_observation_reduction",
    "extreme_profiles",
    "feasible_hull",
    "individual_full_rank",
    "k_star",
    "k_star_formula_linear_n2",
    "kappa",
    "load_game_spec",
    "marginal_excluding",
    "minmax",
    "monte_carlo",
    "monte_carlo_promise",
    "pairwise_full_rank",
    "parse_game_spec",
    "ppe_payoff_set",
    "private_joint_distribution",
    "profile_payoff",
    "public_signal_distribution",
    "read_trace_csv",
    "run_episode",
    "solve_enforceability",
    "table2_gamma_bar",
    "theorem_preconditions",
    "verify_decomposition",
    "write_trace_csv",
]
