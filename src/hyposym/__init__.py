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
    Spectrum,
    SystemSymbol,
    eval_symbol,
    time_derivative,
)
from hyposym.reduction import reduction_residual
from hyposym.quasisym import (
    sylvester_companion,
    verify_properties,
)
from hyposym.conditions import (
    ConditionReport,
    SamplingGrid,
    run_conditions,
    sandwich_constant,
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
    "ConditionReport",
    "ConsistencyError",
    "DomainError",
    "EnergyTrace",
    "NumericError",
    "SamplingGrid",
    "SolverConfig",
    "Spectrum",
    "SystemSymbol",
    "builtin_system",
    "direct_integrate",
    "energy_inequality_check",
    "eval_symbol",
    "frequency_sweep",
    "growth_fit",
    "integral_K_sweep",
    "reduced_integrate",
    "reduction_residual",
    "run_conditions",
    "sandwich_constant",
    "solve_cauchy_1d",
    "sylvester_companion",
    "time_derivative",
    "verify_properties",
]

__version__ = "0.1.0"
