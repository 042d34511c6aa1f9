"""erwalk: the unidirectional elephant random walk with power-law memory.

A computational-probability toolkit: exact moment theory, simulators that
draw each replicate's next up-step by thinning or step every replicate
through every time, branching-process and uniform-memory couplings, and a
verification harness reproducing the model's phase diagram at desk scale.
"""

__version__ = "0.1.0"

from .analysis import (
    EnsembleReport,
    ExponentFit,
    GateResult,
    PhaseLabel,
    Regime,
    build_report,
    classify_phase,
    compare_mc_exact,
    fit_exponent,
    mean_gate,
    stagnation_profile,
)
from .branching import (
    BranchingEnsemble,
    BranchingParams,
    BranchingResult,
    Population,
    offspring_cutoff,
    offspring_partial_sum,
    offspring_rate,
    sample_offspring,
    simulate,
    simulate_ensemble,
    simulate_modified_walk,
)
from .exact import (
    ExactLaw,
    L2Diagnostic,
    MomentTable,
    ProductBound,
    asymptotic_constant,
    enumerate_law,
    exact_mean_xi,
    l2_diagnostic,
    limit_mean_xi,
    lower_bound_prob_one,
    propagate_moments,
)
from .gammaratio import (
    c_values,
    gamma_ratio_sum,
    log_poch,
    log_poch_ratio,
    poch_ratio,
    poch_ratio_sum,
)
from .memory import MemoryLaw
from .streams import replicate_stream
from .walkers import (
    EnsembleResult,
    ModelParams,
    Trajectory,
    geometric_checkpoints,
    run_ensemble,
    run_walk,
)

__all__ = [
    "__version__",
    # gamma kernel
    "c_values",
    "poch_ratio",
    "log_poch",
    "log_poch_ratio",
    "gamma_ratio_sum",
    "poch_ratio_sum",
    # memory law
    "MemoryLaw",
    # walkers
    "ModelParams",
    "geometric_checkpoints",
    "Trajectory",
    "run_walk",
    "EnsembleResult",
    "run_ensemble",
    "replicate_stream",
    # exact engine
    "exact_mean_xi",
    "limit_mean_xi",
    "asymptotic_constant",
    "propagate_moments",
    "MomentTable",
    "ExactLaw",
    "enumerate_law",
    "L2Diagnostic",
    "l2_diagnostic",
    "ProductBound",
    "lower_bound_prob_one",
    # branching
    "BranchingParams",
    "Population",
    "BranchingResult",
    "offspring_rate",
    "offspring_partial_sum",
    "offspring_cutoff",
    "sample_offspring",
    "simulate",
    "BranchingEnsemble",
    "simulate_ensemble",
    "simulate_modified_walk",
    # analysis
    "Regime",
    "PhaseLabel",
    "classify_phase",
    "ExponentFit",
    "fit_exponent",
    "GateResult",
    "mean_gate",
    "compare_mc_exact",
    "stagnation_profile",
    "EnsembleReport",
    "build_report",
]
