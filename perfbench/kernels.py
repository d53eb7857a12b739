"""Fixed-seed kernel table: per-call cost of the hot kernels of each layer.

Reproduces the layer table of ROADMAP.md with one command.  Inputs come from
a fixed seed, independent of the workload seed, so the table compares across
commits.  Each entry is the median, over BATCHES batches, of the batch time
divided by the work in the batch.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from hyposym.conditions import sandwich_constant
from hyposym.energy import SolverConfig, reduced_integrate
from hyposym.examples import builtin_system
from hyposym.quasisym import build_Q_eps
from hyposym.reduction import assemble_path
from hyposym.symbols import SystemSymbol, companion_roots

KERNEL_SEED = 0
BATCHES = 5
# Calls per batch of build_Q_eps at m = 2..6 (the m! permutation sum).
Q_EPS_CALLS = {2: 200, 3: 100, 4: 20, 5: 4, 6: 1}


def _per_unit(fn, units: int) -> float:
    """Median over BATCHES of the seconds per unit of work of fn()."""
    fn()  # warm-up: first-call allocations and lazy imports
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / units)
    return statistics.median(times)


def _distinct_lambdas(rng, m: int, count: int) -> list:
    return [np.sort(rng.uniform(-1.0, 1.0, m)) for _ in range(count)]


def _constant_system(rng, m: int) -> SystemSymbol:
    """Constant coefficients, upper triangular with distinct real diagonal."""
    a = np.triu(rng.uniform(-0.5, 0.5, (m, m)), 1) + np.diag(np.linspace(-1.0, 1.0, m))
    return SystemSymbol(coeffs=a[None, :, :, None], horizon=1.0)


def kernel_table() -> dict:
    rng = np.random.default_rng(KERNEL_SEED)
    table = {}

    for m, calls in Q_EPS_CALLS.items():
        lams = _distinct_lambdas(rng, m, calls)
        table[f"quasisym.build_Q_eps.m{m}.us_per_call"] = _per_unit(
            lambda: [build_Q_eps(lam, 0.1) for lam in lams], calls)

    coeffs = [np.poly(lam) for lam in _distinct_lambdas(rng, 3, 500)]
    table["symbols.companion_roots.m3.us_per_call"] = _per_unit(
        lambda: [companion_roots(c) for c in coeffs], len(coeffs))

    m3 = builtin_system("m3-tracezero")
    points = [(t, np.array([xi])) for t in np.linspace(0.05, 1.0, 10) for xi in (1.0, 10.0, 100.0)]
    table["conditions.sandwich_constant.m3.us_per_call"] = _per_unit(
        lambda: [sandwich_constant(m3, t, xi) for t, xi in points], len(points))

    ts = np.linspace(0.0, 1.0, 2001)
    table["reduction.assemble_path.m3.us_per_sample"] = _per_unit(
        lambda: assemble_path(m3, np.array([10.0]), ts), ts.size)

    # Constant coefficients make assembly one point, so the time is RK4 steps.
    config = SolverConfig(cfl_safety=0.05)
    xi = np.array([100.0])
    steps, _ = config.steps_for(_constant_system(rng, 2), xi)
    for m in (2, 4, 6):
        symbol = _constant_system(rng, m)
        V0 = np.ones(m * m, dtype=complex)
        table[f"energy.reduced_integrate.n{m * m}.us_per_step"] = _per_unit(
            lambda: reduced_integrate(symbol, xi, V0, config, collect_energy=False), steps)

    return {name: seconds * 1e6 for name, seconds in table.items()}
