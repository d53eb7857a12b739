"""Numerical toolkit for first-order hyperbolic systems with multiplicities.

The package turns an m x m first-order symbol A(t, xi) with polynomial time
coefficients into its m^2 x m^2 block-Sylvester form, builds and verifies the
quasi-symmetriser of the companion blocks, evaluates eigenvalue-separation and
Levi-type conditions on sampling grids, and integrates the reduced system per
frequency to measure energy growth and frequency bounds.
"""

import os

# One BLAS thread.  Most products here are small matrix stacks, of order m <= 6
# or m^2 = 36 (term3's), and numpy's bundled OpenBLAS would otherwise start a
# worker at import that busy-waits for about 0.13 s of CPU in every process; the
# constant-coefficient solve runs no BLAS product.  SeparablePath's last rows,
# (m, m^3) @ (m^3, 2q) for q Fourier modes, are not small, but gain no wall
# time from a second thread either: an m = 6 solve at grid 1,024 took 48.6 s
# wall and 96.3 s CPU with OpenBLAS's pool up, against 47.4 s wall and 47.4 s
# CPU with the product split into 128-mode column blocks on one thread.  This
# must run before numpy is imported; a value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hyposym.errors import (
    CapabilityError,
    ConsistencyError,
    DomainError,
    NumericError,
)
from hyposym.symbols import (
    Spectrum,
    SystemSymbol,
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
