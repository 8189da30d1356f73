"""Optimal liquidation under S-shaped market impact.

Closed-form strategies where they exist, a monotone finite-difference solver
for the reduced value PDE where they do not, and a Monte Carlo simulator of
the controlled execution dynamics for cross-validation.
"""

from .closed_form import (
    ExtremeComparison,
    MarketParams,
    MixedPowerSolution,
    QuasiBlock,
    Schedule,
    TwapSolution,
    extreme_comparison,
    incomplete_beta,
    linear_quasi_block,
    mixed_power_solution,
    proceeds_factor,
    twap_rate,
    twap_solution,
)
from .config import impact_from_config
from .errors import ConfigError, HypothesisViolation, NumericalFailure
from .hamiltonian import (
    Gradient,
    hamiltonian,
    optimal_speed,
)
from .hjb import (
    ValueSurface,
    extract_policy,
    hjb_residual,
    optimize_deterministic_schedule,
    solve_reduced_hjb,
)
from .impact import (
    ImpactModel,
    LevyEffectiveImpact,
    MixedPowerImpact,
    QuadraticImpact,
    ShiftedConvexImpact,
)
from .simulate import (
    DeterministicStrategy,
    FeedbackStrategy,
    SimResult,
    StrategyComparison,
    compare_strategies,
    simulate,
    simulate_unimpacted,
)

__version__ = "0.1.0"
