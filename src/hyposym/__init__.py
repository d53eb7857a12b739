"""Numerical toolkit for first-order hyperbolic systems with multiplicities.

The package turns an m x m first-order symbol A(t, xi) with polynomial time
coefficients into its m^2 x m^2 block-Sylvester form, builds and verifies the
quasi-symmetriser of the companion blocks, evaluates eigenvalue-separation and
Levi-type conditions on sampling grids, and integrates the reduced system per
frequency to measure energy growth and frequency bounds.
"""

from hyposym.errors import (
    CapabilityError,
    ConsistencyError,
    DomainError,
    NumericError,
)
from hyposym.symbols import (
    CharCoeffs,
    Spectrum,
    SystemSymbol,
    cayley_hamilton_residual,
    char_coeffs,
    eval_symbol,
    time_derivative,
)
from hyposym.reduction import reduction_residual
from hyposym.quasisym import (
    QuasiSymmetriser,
    build_Q_eps,
    build_W,
    near_diagonal_constant,
    sylvester_companion,
    verify_properties,
)
from hyposym.conditions import (
    ConditionReport,
    SamplingGrid,
    ks_constant,
    levi_ratios,
    run_conditions,
    sandwich_constant,
    thm2_ratios,
)
from hyposym.energy import (
    EnergyTrace,
    SolverConfig,
    direct_integrate,
    energy_inequality_check,
    frequency_sweep,
    growth_fit,
    integral_K_sweep,
    reduced_integrate,
    solve_cauchy_1d,
)
from hyposym.examples import builtin_system, BUILTIN_SYSTEMS

__all__ = [
    "BUILTIN_SYSTEMS",
    "CapabilityError",
    "CharCoeffs",
    "ConditionReport",
    "ConsistencyError",
    "DomainError",
    "EnergyTrace",
    "NumericError",
    "QuasiSymmetriser",
    "SamplingGrid",
    "SolverConfig",
    "Spectrum",
    "SystemSymbol",
    "build_Q_eps",
    "build_W",
    "builtin_system",
    "cayley_hamilton_residual",
    "char_coeffs",
    "direct_integrate",
    "energy_inequality_check",
    "eval_symbol",
    "frequency_sweep",
    "growth_fit",
    "integral_K_sweep",
    "ks_constant",
    "levi_ratios",
    "near_diagonal_constant",
    "reduced_integrate",
    "reduction_residual",
    "run_conditions",
    "sandwich_constant",
    "solve_cauchy_1d",
    "sylvester_companion",
    "thm2_ratios",
    "time_derivative",
    "verify_properties",
]

__version__ = "0.1.0"
