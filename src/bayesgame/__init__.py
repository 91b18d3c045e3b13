"""Solvers and benchmarks for two-player Bayesian regression games."""

__version__ = "0.1.0"

from .game import (
    ActionSet,
    FinitePrior,
    GameSpec,
    GammaPrior,
    GaussianPrior,
    LogNormalPrior,
    LossKind,
    Prior,
    StrategyProfile,
    adversary_cost,
    discretize_prior,
    grad_adversary_X,
    grad_learner_w,
    learner_cost,
    project,
    sample_prior,
)
from .solvers import (
    AssumptionDiagnostics,
    SolverConfig,
    SolverTrace,
    assumption_probe,
    epsilon_distance,
    equilibrium_residual,
    extragradient,
    extragradient_reference,
    pg_rbc,
    prg_ie,
    stacked_map,
)
from .quadratic import (
    AdamConfig,
    bayes_adam,
    bayes_fp,
    best_response,
    nash_strategy,
    stochastic_gradient,
    stochastic_objective,
)
from .experiments import (
    BenchmarkConfig,
    Dataset,
    ZRule,
    evaluate,
    load_spambase,
    ridge_fit,
    run_benchmark,
    split,
)
