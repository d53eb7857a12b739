"""Per-frequency integration of the reduced system and energy diagnostics.

The Fourier-transformed reduced system D_t V = (calA + calB) V is integrated
with fixed-step RK4 (d/dt V = i (calA + calB) V).  Along the trajectory the
module measures the quasi-symmetriser energy E = (Q_lift V | V), the three
summands of its growth inequality, frequency-growth exponents over xi sweeps,
and solves the original 1-d Cauchy problem end to end through the reduction.

Per-frequency runs are independent; aggregations iterate sweeps in a fixed
order so reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import ceil, log, sqrt
from typing import Callable

import numpy as np

from hyposym.errors import DomainError, NumericError
from hyposym.pencils import hermitian_part
from hyposym.quasisym import q_eps, q_eps_parts, sum_parts
from hyposym.reduction import (
    PathAssembler,
    SeparablePath,
    initial_states,
    lower_order_matrix,
)
from hyposym.symbols import (
    SystemSymbol,
    bracket,
    brackets,
    eval_symbol_path,
    rescaled_spectra,
)

ENERGY_FLOOR = 1e-280
RENORM_THRESHOLD = 1e120
INEQUALITY_SLACK = 0.05   # relative slack of energy_inequality_check's bound


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integration settings.

    ``t_step=None`` chooses the step per frequency as cfl_safety / <xi>
    (rounded so the horizon is an integer number of steps).  An explicit step
    must satisfy the same stiffness guard for the largest frequency it is
    used with.  ``eps_policy`` maps a frequency to the quasi-symmetriser
    parameter: ("fixed", value), ("inverse",) for <xi>^-1, or
    ("balanced", k) for <xi>^(-k / (2(m-1)+k)).
    """

    t_step: float | None = None
    cfl_safety: float = 0.05
    eps_policy: tuple = ("balanced", 2)
    xi_grid: tuple = ()

    def __post_init__(self):
        if self.cfl_safety <= 0:
            raise DomainError("cfl_safety must be positive")
        if self.t_step is not None and self.t_step <= 0:
            raise DomainError("t_step must be positive")
        kind = self.eps_policy[0]
        if kind == "fixed":
            v = float(self.eps_policy[1])
            if not 0.0 < v <= 1.0:
                raise DomainError(f"fixed eps must lie in (0, 1], got {v}")
        elif kind == "inverse":
            pass
        elif kind == "balanced":
            if float(self.eps_policy[1]) < 1:
                raise DomainError("regularity parameter k must be >= 1")
        else:
            raise DomainError(f"unknown eps policy {kind!r}")

    def eps_for(self, m: int, xi) -> float:
        bxi = bracket(xi)
        kind = self.eps_policy[0]
        if kind == "fixed":
            return float(self.eps_policy[1])
        if kind == "inverse":
            return min(1.0, 1.0 / bxi)
        k = float(self.eps_policy[1])
        return min(1.0, bxi ** (-k / (2.0 * (m - 1) + k)))

    def step_count(self, symbol: SystemSymbol, xi):
        """N of :meth:`steps_for` without its stiffness guard; inf where T / h is not finite."""
        with np.errstate(over="ignore"):
            h = self.t_step if self.t_step is not None else self.cfl_safety / bracket(xi)
        steps = symbol.horizon / h if h > 0.0 else float("inf")
        return max(1, ceil(steps - 1e-12)) if steps < float("inf") else steps

    def steps_for(self, symbol: SystemSymbol, xi) -> tuple:
        """(N, h) with N h = T; enforces the stiffness guard h <= cfl/<xi>."""
        limit = self.cfl_safety / bracket(xi)
        if self.t_step is not None and self.t_step > limit * (1.0 + 1e-12):
            raise DomainError(
                f"step {self.t_step} violates the stiffness guard {limit:.3e} at xi={xi}"
            )
        N = self.step_count(symbol, xi)
        if N == float("inf"):
            raise DomainError(f"the step underflows: T / h is not finite at xi={xi}")
        return N, symbol.horizon / N


@dataclass
class EnergyTrace:
    """Per-frequency time series of the reduced state and energy terms.

    ``V`` stores the (possibly renormalised) state; the true state is
    V * exp(log_scale[:, None]).  ``K`` is |(dQ/dt V|V)| / (Q V|V); ``term2``
    and ``term3`` are the commutator summands of the growth inequality;
    ``dtE`` is the centred difference of E.  All energy diagnostics refer to
    the stored state, so across a renormalisation step dtE carries a negative
    spike; ratios like K and term/E are scale-free.
    """

    ts: np.ndarray
    V: np.ndarray
    log_scale: np.ndarray
    xi: np.ndarray
    eps: float
    m: int
    E: np.ndarray | None = None
    K: np.ndarray | None = None
    term2: np.ndarray | None = None
    term3: np.ndarray | None = None
    dtE: np.ndarray | None = None
    coercivity_sup: float = float("nan")
    nonhyperbolic_points: int = 0
    inequality_residual: np.ndarray | None = field(default=None, repr=False)

    @property
    def growth_log(self) -> float:
        """sup_t log(|V(t)| / |V(0)|), renormalisation folded back in."""
        norms = np.linalg.norm(self.V, axis=1)
        base = log(max(norms[0], 1e-300)) + self.log_scale[0]
        with np.errstate(divide="ignore"):
            vals = np.where(norms > 0, np.log(np.maximum(norms, 1e-300)), -np.inf)
        return float((vals + self.log_scale).max() - base)


# Bytes of right-hand-side data held per window of the lockstep RK4: dense
# step matrices (4 steps of 128 modes at m = 2) or the t-only rows of a
# separable solve.  A window's assembly temporaries take several times this,
# and longer windows raise the peak RSS of a solve.
_WINDOW_BYTES = 1 << 18


@dataclass(frozen=True)
class _RHS:
    """d/dt Y for a lockstep run, one window of ``width`` steps at a time.

    ``window(k0, k1)`` returns f(j, Y): the right-hand side at half-step j
    (0 <= j <= 2 (k1 - k0)) of steps k0..k1, for the whole state stack Y
    (q, d).  ``after(k0, k1, out)``, if set, runs once the window's states
    are checked finite, ``out`` holding the states recorded so far.
    """

    window: Callable
    width: int
    after: Callable | None = None


def _matrix_rhs(step_matrices, q: int, d: int, N: int) -> _RHS:
    """Dense matrices as a right-hand side, each product ``np.matvec``.

    ``step_matrices`` is one constant matrix per row (q, d, d), or a function
    ``window(k0, k1)`` returning the matrices on the half-step grid of steps
    k0..k1, shape (2 (k1 - k0) + 1, q, d, d).  ``np.matvec`` is bitwise the
    row's own ``M @ y``.
    """
    if not callable(step_matrices):
        return _RHS(lambda k0, k1: lambda j, Y: np.matvec(step_matrices, Y), N)

    def window(k0, k1):
        M = step_matrices(k0, k1)
        return lambda j, Y: np.matvec(M[j], Y)

    return _RHS(window, max(1, _WINDOW_BYTES // (q * 2 * d * d * 16)))


def _separable_rhs(path: SeparablePath, ts_half: np.ndarray) -> _RHS:
    """:class:`SeparablePath` as a right-hand side, its t-only rows built per window."""
    row_bytes = path.m ** 4 * 16

    def window(k0, k1):
        L = path.last_rows(ts_half[2 * k0 : 2 * k1 + 1])
        return lambda j, Y: path.apply(L[j], Y)

    return _RHS(window, max(1, _WINDOW_BYTES // (2 * row_bytes)))


def _lockstep_rk4(rhs, Y0, N: int, h: float, record, renormalize: bool = False):
    """RK4 on a stack of q states in lockstep, d/dt y_r = f_r(t, y_r).

    ``Y0`` has shape (q, d).  ``rhs`` is an :class:`_RHS` or the dense
    matrices that :func:`_matrix_rhs` takes; with matrices every row is
    bitwise its solo run.  Returns the states and accumulated log scales at
    the sorted step indices ``record``, shapes (len(record), q, d) and
    (len(record), q).  Renormalisation keeps each row's |y| <=
    RENORM_THRESHOLD on its own, so exponentially growing rows never
    overflow.
    """
    Y = np.array(Y0, dtype=complex)
    q, d = Y.shape
    record = [int(k) for k in record]
    out = np.empty((len(record), q, d), dtype=complex)
    logs = np.zeros((len(record), q))
    acc = np.zeros(q)
    slot = 0
    if record and record[0] == 0:
        out[0] = Y
        slot = 1
    if not isinstance(rhs, _RHS):
        rhs = _matrix_rhs(rhs, q, d, N)
    # overflow surfaces through the isfinite guard, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, N, rhs.width):
            k1 = min(k0 + rhs.width, N)
            f = rhs.window(k0, k1)
            for k in range(k0, k1):
                j = 2 * (k - k0)
                s1 = f(j, Y)
                s2 = f(j + 1, Y + (0.5 * h) * s1)
                s3 = f(j + 1, Y + (0.5 * h) * s2)
                s4 = f(j + 2, Y + h * s3)
                Y = Y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                if renormalize:
                    _renormalize_rows(Y, acc)
                if slot < len(record) and record[slot] == k + 1:
                    out[slot] = Y
                    logs[slot] = acc
                    slot += 1
            # A non-finite entry stays non-finite, so one check per window
            # catches it.
            if not np.isfinite(Y).all():
                raise NumericError(f"non-finite state by step {k1} of {N}")
            if rhs.after is not None:
                rhs.after(k0, k1, out)
    return out, logs


def _rk4_propagate(M: np.ndarray, Y0, N: int, h: float, record):
    """:func:`_lockstep_rk4` for constant matrices M (q, d, d), by propagator powers.

    On a constant matrix one RK4 step is multiplication by its stability
    polynomial R(hM) = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, so the state
    at step k is R(hM)^k y0.  R is formed once per row and the state jumps
    from one recorded step to the next by R^delta (binary powering), then on
    to step N so that a run fails where the stepped run would.  Not
    bitwise the stepped run: the powers round differently from four stages
    per step.  Returns the same (states, logs) as the stepped run, logs all
    zero.
    """
    Y = np.array(Y0, dtype=complex)
    eye = np.eye(M.shape[-1])
    # A zero row stays zero, as in the stepped run, even where R^delta overflows.
    live = Y.any(axis=1, keepdims=True)
    at, done = {0: Y}, 0
    # overflow surfaces through the isfinite guard, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        Z = h * M
        R = eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)
        for k in sorted(set(int(k) for k in record) | {N}):
            if k > done:
                Y = np.where(live, np.matvec(np.linalg.matrix_power(R, k - done), Y), 0)
                if not np.isfinite(Y).all():
                    raise NumericError(f"non-finite state by step {k} of {N}")
                at[k], done = Y, k
    out = np.array([at[int(k)] for k in record]).reshape((len(record),) + Y.shape)
    return out, np.zeros(out.shape[:2])


def _renormalize_rows(Y: np.ndarray, acc: np.ndarray) -> None:
    """Scale each row of Y with |y| > RENORM_THRESHOLD to unit norm, in place.

    A row whose real and imaginary parts all lie within RENORM_THRESHOLD /
    sqrt(2 d) has a norm below the threshold, so most steps end after one
    max.  Otherwise the stacked norm only picks candidates: it may differ
    from the 1-d norm of the row in the last bits, and the 1-d norm decides,
    as in a solo run.
    """
    if np.abs(Y.view(np.float64)).max() <= (
            RENORM_THRESHOLD / sqrt(2 * Y.shape[1]) * (1.0 - 1e-12)):
        return
    rough = np.linalg.norm(Y, axis=1)
    for r in np.flatnonzero(rough > RENORM_THRESHOLD * (1.0 - 1e-12)):
        nrm = float(np.linalg.norm(Y[r]))
        if nrm > RENORM_THRESHOLD:
            Y[r] = Y[r] / nrm
            acc[r] += log(nrm)


def _step_matrices(symbol: SystemSymbol, xi, ts_half, bxi=None, terms=None):
    """i (calA + calB) for the frequency stack xi (q, n), as _lockstep_rk4 takes it.

    A constant symbol gives one matrix per frequency; otherwise a window
    function over the half-step grid ``ts_half``, assembled on demand.
    ``bxi`` is ``brackets(xi)`` if the caller has it.  With ``terms``, the
    :class:`_EnergyTerms` of a single frequency, the result is an
    :class:`_RHS` that hands ``terms`` each window's assembly at its integer
    steps (the even half-steps; a constant symbol's one assembly) together
    with the states recorded there.
    """
    assembler = PathAssembler(symbol, xi, bxi)
    constant = symbol.is_constant()
    held = []

    def matrices(ts):
        calA, b = assembler.reduce(ts)[:2]
        held[:] = (calA, b) if constant else (calA[::2], b[::2])
        return 1j * (calA + lower_order_matrix(b))

    if constant:
        step_matrices = matrices(ts_half[:1])[0]
    else:
        def step_matrices(k0, k1):
            return matrices(ts_half[2 * k0 : 2 * k1 + 1])
    if terms is None:
        return step_matrices
    N = (ts_half.size - 1) // 2
    return replace(_matrix_rhs(step_matrices, 1, symbol.m ** 2, N),
                   after=lambda k0, k1, out: terms.add(k0, k1 + (k1 == N), *held, out[:, 0]))


def direct_integrate(symbol: SystemSymbol, xi, u0hat, config: SolverConfig):
    """Oracle for the original system: integrates d/dt u-hat = i A(t, xi) u-hat.

    Returns (ts, trajectory) with trajectory shape (N + 1, m).
    """
    N, h = config.steps_for(symbol, xi)
    ts_half = np.linspace(0.0, symbol.horizon, 2 * N + 1)
    u0 = np.asarray(u0hat, dtype=complex).ravel()
    if u0.size != symbol.m:
        raise DomainError(f"initial data must have {symbol.m} components")

    def window(k0, k1):
        return (1j * eval_symbol_path(symbol, ts_half[2 * k0 : 2 * k1 + 1], xi))[:, None]

    traj, _ = _lockstep_rk4(window, u0[None], N, h, range(N + 1))
    return ts_half[::2], traj[:, 0]


# Time samples per block of the term3 products: the lifted (m^2 x m^2)
# complex stacks of 256 samples take 5.3 MB each at m = 6.
_TERM3_BLOCK = 256


def _band_form(mats: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Sum over bands of v* (mat v), with per-time m x m matrices and band blocks."""
    prod = np.einsum("kab,kib->kia", mats, blocks)
    return np.einsum("kia,kia->k", np.conj(blocks), prod)


def _lifted_commutator(Q: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q_lift B - B* Q_lift, (k, m^2, m^2), for real Q (k, m, m) and calB
    entries b (k, m-1, m, m) (see :func:`hyposym.reduction.lower_order_matrix`).

    calB has one nonzero row per band, so every entry of Q_lift B and of
    B* Q_lift is a single product of a Q entry and a calB entry; formed one
    by one, they are bitwise the dense products up to the sign of zeros.
    """
    k, m = Q.shape[0], Q.shape[-1]
    bt = np.moveaxis(b, 1, -1)                      # bt[s, i, j, l] = b[s, l, i, j]
    P = np.zeros((k, m, m, m, m), dtype=complex)    # [sample, band, row, band, column]
    # (Q_lift B)[i m + a, j m + l] = Q[a, m-1] b[l, i, j]
    P[..., : m - 1] = Q[:, None, :, m - 1, None, None] * bt[:, :, None]
    # (B* Q_lift)[j m + l, i m + c] = conj(b[l, i, j]) Q[m-1, c]
    P[:, :, : m - 1] -= np.conj(bt).transpose(0, 2, 3, 1)[..., None] * Q[:, None, None, None, m - 1]
    return P.reshape(k, m * m, m * m)


def _energy_and_K(Q: np.ndarray, blocks: np.ndarray, h: float) -> tuple:
    """E = (Q_lift V | V) and K = |(dQ/dt V | V)| / E along a trajectory."""
    dQ = np.gradient(Q, h, axis=0)
    E = _band_form(Q, blocks).real
    K_num = np.abs(_band_form(dQ, blocks))
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(E > ENERGY_FLOOR, K_num / np.maximum(E, ENERGY_FLOOR), 0.0)
    return E, K


class _EnergyTerms:
    """E, K, term2, term3, dtE and the coercivity constant of one trajectory.

    Q (the spectra and q_eps) depends only on (ts, xi, eps), so it is built
    before the states exist.  term2 reads the first m x m block of calA and
    term3 reads calB, at each sample: :meth:`add` takes them from an
    assembly that the caller already holds (the integration's own windows),
    so nothing is assembled here.  dQ/dt is taken by centred finite
    differences of the quasi-symmetriser entries (one-sided at the ends):
    the entries are polynomial in the eigenvalues and stay smooth through
    multiplicity crossings even when the individual eigenvalue branches do
    not.  Every quantity is computed on stacks over the time samples; each
    sample's value is bitwise that of the same operations on the sample
    alone.
    """

    def __init__(self, symbol: SystemSymbol, ts, xi, eps: float):
        m = symbol.m
        spec = rescaled_spectra(symbol, ts, xi)
        self.Q = q_eps(spec.lambdas, eps)
        self.nonhyperbolic_points = int(np.count_nonzero(~spec.hyperbolic))
        self.bxi = bracket(xi)
        self.A0_blocks = np.empty((ts.size, m, m))   # every band shares it
        self.term3 = np.empty(ts.size)

    def add(self, k0: int, k1: int, calA, b, V) -> None:
        """term2's calA block and term3 at samples k0..k1-1.

        ``calA`` and ``b`` are :meth:`PathAssembler.reduce` output for one
        frequency, from sample k0 on, or one sample that holds for all
        (a constant symbol); ``V`` holds the states of every sample so far.
        term3 = |(Q_lift B - B* Q_lift) V | V| goes in blocks of at most
        _TERM3_BLOCK samples to bound the lifted stacks.
        """
        m = self.Q.shape[-1]
        self.A0_blocks[k0:k1] = calA[: k1 - k0, 0, :m, :m] / self.bxi
        for s0 in range(k0, k1, _TERM3_BLOCK):
            sl = slice(s0, min(s0 + _TERM3_BLOCK, k1))
            M3 = _lifted_commutator(self.Q[sl], b[s0 - k0 : sl.stop - k0, 0] if len(b) > 1
                                    else b[:, 0])
            self.term3[sl] = np.abs(np.vecdot(V[sl], (M3 @ V[sl, :, None])[..., 0]))

    def finish(self, trace: EnergyTrace) -> None:
        """Fill the trace's diagnostics once :meth:`add` has covered every sample."""
        ts, V, m, eps, Q = trace.ts, trace.V, trace.m, trace.eps, self.Q
        h = ts[1] - ts[0]
        blocks = V.reshape(ts.size, m, m)   # blocks[k, i] = band i of V(t_k)
        trace.E, trace.K = _energy_and_K(Q, blocks, h)

        A0 = self.A0_blocks
        comm2 = np.einsum("kab,kbc->kac", Q, A0) - np.einsum(
            "kab,kbc->kac", np.conj(np.swapaxes(A0, 1, 2)), Q
        )
        trace.term2 = np.abs(self.bxi * _band_form(comm2, blocks))
        trace.term3 = self.term3

        eigs = np.linalg.eigvalsh(hermitian_part(Q))
        lo, hi = eigs[:, 0], eigs[:, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            floor_ratio = eps ** (2 * (m - 1)) / lo
        cm = np.where(lo <= 0, hi, np.where(floor_ratio > hi, floor_ratio, hi))
        trace.coercivity_sup = float(np.max(cm, where=cm > 0.0, initial=0.0))
        trace.dtE = np.gradient(trace.E, h)
        trace.nonhyperbolic_points = self.nonhyperbolic_points


def reduced_integrate(symbol: SystemSymbol, xi, V0, config: SolverConfig,
                      collect_energy: bool = True) -> EnergyTrace:
    """Integrate d/dt V = i (calA + calB) V and record energy diagnostics.

    ``V0`` is any complex vector of length m^2 (usually a row of
    :func:`hyposym.reduction.initial_states`).  The state is rescaled
    whenever it grows past RENORM_THRESHOLD, so growing modes never overflow;
    the accumulated log-scale is stored on the trace.  The diagnostics take
    calA and calB from the integration's own assembly, one window at a time.
    """
    m = symbol.m
    V0 = np.asarray(V0, dtype=complex).ravel()
    if V0.size != m * m:
        raise DomainError(f"reduced state must have {m * m} components")
    N, h = config.steps_for(symbol, xi)
    ts_half = np.linspace(0.0, symbol.horizon, 2 * N + 1)
    ts = ts_half[::2]
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eps_val = config.eps_for(m, xi)
    terms = _EnergyTerms(symbol, ts, xi, eps_val) if collect_energy else None
    try:
        V, logs = _lockstep_rk4(_step_matrices(symbol, xi[None], ts_half, terms=terms),
                                V0[None], N, h, range(N + 1), renormalize=True)
    except NumericError as exc:
        raise NumericError(f"{exc} (xi={xi})") from exc
    trace = EnergyTrace(ts=ts, V=V[:, 0], log_scale=logs[:, 0], xi=xi, eps=eps_val, m=m)
    if terms is not None:
        terms.finish(trace)
    return trace


def check_sweep_span(xis, name: str = "frequency grid") -> None:
    """Raise DomainError unless there are three frequencies ``xis`` or more
    and their norms |xi| span two decades, as :func:`growth_fit` needs."""
    # the norm of a frequency beyond 1.3e154 overflows to inf, and one as
    # small as 1e-300 underflows to 0, so the check takes no quotient
    with np.errstate(over="ignore"):
        norms = np.array([np.linalg.norm(xi) for xi in xis])
    if norms.size < 3:
        raise DomainError(f"{name} must hold at least three frequencies")
    if norms.max() < 99.0 * norms.min():
        raise DomainError(f"{name} must span at least two decades")


def frequency_sweep(symbol: SystemSymbol, config: SolverConfig,
                    collect_energy: bool = True) -> list:
    """One :func:`reduced_integrate` trace per frequency x of ``config.xi_grid``.

    x is integrated at xi = (x, 0, ..., 0) from u-hat = ones / sqrt(m); growth
    fits, energy checks and eps sweeps analyse these traces.
    """
    xis = np.zeros((len(config.xi_grid), symbol.n))
    xis[:, 0] = config.xi_grid
    u0hat = np.ones(symbol.m, dtype=complex) / np.sqrt(symbol.m)
    V0s = initial_states(symbol, np.broadcast_to(u0hat, (len(xis), symbol.m)), xis)
    return [reduced_integrate(symbol, xi, V0, config, collect_energy=collect_energy)
            for xi, V0 in zip(xis, V0s)]


# ---------------------------------------------------------------------------
# energy inequality


@dataclass(frozen=True)
class InequalityReport:
    """Fitted growth constants and pointwise slack margins per trace."""

    C2: float
    C3: float
    margins: tuple          # per trace: max of dtE/E - K - 1.05 (C2 e<xi> + C3)
    K_integrals: tuple
    passed: bool
    witnesses: tuple


def _valid_mask(trace: EnergyTrace) -> np.ndarray:
    scale = float(trace.E.max(initial=0.0))
    return trace.E > max(ENERGY_FLOOR, 1e-13 * scale)


def energy_inequality_check(traces) -> InequalityReport:
    """Fit (C2, C3) and verify the pointwise growth inequality with slack.

    The constants are frequency-independent in the theory, so they are fitted
    by nonnegative least squares on the per-trace maxima of dtE/E - K against
    eps * <xi> using every trace except the highest frequency, then asserted
    pointwise on all traces with INEQUALITY_SLACK.  A system whose constants
    grow with frequency fails at the top frequency.
    """
    traces = list(traces)
    if not traces:
        raise DomainError("need at least one trace")
    xs, ms = [], []
    for tr in traces:
        if tr.E is None:
            raise DomainError("traces must carry energy diagnostics")
        mask = _valid_mask(tr)
        alpha = np.zeros_like(tr.E)
        alpha[mask] = tr.dtE[mask] / tr.E[mask] - tr.K[mask]
        xs.append(tr.eps * bracket(tr.xi))
        ms.append(float(alpha.max(initial=0.0)))
    xs = np.asarray(xs)
    ms = np.asarray(ms)

    order = np.argsort([bracket(tr.xi) for tr in traces])
    fit_idx = order[:-1] if len(traces) >= 3 else order
    X = np.stack([xs[fit_idx], np.ones(fit_idx.size)], axis=1)
    sol, *_ = np.linalg.lstsq(X, ms[fit_idx], rcond=None)
    C2, C3 = float(sol[0]), float(sol[1])
    if C2 < 0.0:
        C2 = 0.0
        C3 = float(ms[fit_idx].max(initial=0.0))
    if C3 < 0.0:
        C3 = 0.0
        C2 = float(np.dot(xs[fit_idx], ms[fit_idx]) / np.dot(xs[fit_idx], xs[fit_idx]))

    margins, witnesses, k_ints = [], [], []
    for tr, x in zip(traces, xs):
        mask = _valid_mask(tr)
        bound = tr.K + (1.0 + INEQUALITY_SLACK) * (C2 * x + C3)
        resid = np.where(mask, tr.dtE - bound * tr.E, -np.inf)
        rel = np.where(mask, resid / np.maximum(tr.E, ENERGY_FLOOR), -np.inf)
        tr.inequality_residual = np.where(mask, resid, 0.0)
        worst = int(np.argmax(rel))
        margins.append(float(rel[worst]) if mask.any() else 0.0)
        witnesses.append({"t": float(tr.ts[worst]), "xi": tr.xi.tolist(),
                          "margin": float(rel[worst])})
        k_ints.append(float(np.trapezoid(tr.K, tr.ts)))
    passed = all(mg <= 0.0 for mg in margins)
    return InequalityReport(C2=C2, C3=C3, margins=tuple(margins),
                            K_integrals=tuple(k_ints), passed=passed,
                            witnesses=tuple(witnesses))


@dataclass(frozen=True)
class KSweepReport:
    """Scaling of the integrated first energy term across an eps sweep."""

    eps_values: tuple
    K_integrals: tuple
    fitted_exponent: float
    theoretical_exponent: float
    C1_values: tuple        # integral * eps^{-theoretical exponent}


def integral_K_sweep(trace: EnergyTrace, symbol: SystemSymbol, eps_values,
                     k_regularity: float = 2.0) -> KSweepReport:
    """Measure int_0^T K_eps dt along one trajectory across the eps sweep.

    Fits the exponent p in int K ~ C eps^p by least squares on the log-log
    pairs and reports the theoretical bound exponent -2(m-1)/k next to it.
    An integral that is not positive has no logarithm, so then p is not
    measured and reads nan (a constant symbol has dQ/dt = 0 and K = 0).
    """
    m = symbol.m
    # Only the eps-weighted sum of the quasi-symmetriser parts depends on eps.
    ts = trace.ts
    parts = q_eps_parts(rescaled_spectra(symbol, ts, trace.xi).lambdas)
    blocks = trace.V.reshape(ts.size, m, m)
    integrals = []
    for eps in eps_values:
        _, K = _energy_and_K(sum_parts(parts, float(eps)), blocks, ts[1] - ts[0])
        integrals.append(float(np.trapezoid(K, ts)))
    eps_arr = np.asarray(eps_values, dtype=float)
    ints = np.asarray(integrals)
    fitted = float("nan")
    if (ints > 0.0).all():
        X = np.stack([np.log(eps_arr), np.ones(eps_arr.size)], axis=1)
        sol, *_ = np.linalg.lstsq(X, np.log(ints), rcond=None)
        fitted = float(sol[0])
    theo = -2.0 * (m - 1) / k_regularity
    return KSweepReport(
        eps_values=tuple(float(e) for e in eps_arr),
        K_integrals=tuple(integrals),
        fitted_exponent=fitted,
        theoretical_exponent=theo,
        C1_values=tuple(float(v * e ** (-theo)) for v, e in zip(ints, eps_arr)),
    )


# ---------------------------------------------------------------------------
# growth classification


@dataclass(frozen=True)
class GrowthReport:
    """Frequency-growth fit of sup_t log(|V(t, xi)| / |V(0, xi)|)."""

    brackets: tuple
    growth_logs: tuple
    kappa: float            # slope of the log<xi> model
    sigma: float            # best exponent of the <xi>^sigma model
    rate: float             # coefficient of <xi>^sigma
    classification: str     # "polynomial" | "gevrey" | "exponential"
    aic_log: float
    aic_power: float


SIGMA_GRID = np.round(np.arange(0.05, 1.0001, 0.05), 2)
SIGMA_EXPONENTIAL = 0.95


def growth_fit(traces) -> GrowthReport:
    """Fit both growth models to the traces of a frequency sweep, classify.

    The polynomial model regresses growth on log<xi> (slope kappa); the
    power model regresses on <xi>^sigma over a fixed sigma grid.  The model
    with the lower AIC-like score wins; sigma at or above 0.95 is reported
    as exponential growth with the fitted rate.  The sweep needs three
    frequencies whose norms |xi| span two decades.
    """
    traces = list(traces)
    check_sweep_span([tr.xi for tr in traces])
    b = np.array([bracket(tr.xi) for tr in traces])
    y = np.array([tr.growth_log for tr in traces])
    n = y.size

    def fit(Xcols):
        X = np.stack(Xcols, axis=1)
        sol, *_ = np.linalg.lstsq(X, y, rcond=None)
        sse = float(np.sum((X @ sol - y) ** 2))
        return sol, sse

    sol_log, sse_log = fit([np.log(b), np.ones(n)])
    best = (None, np.inf, None)
    for sigma in SIGMA_GRID:
        sol_p, sse_p = fit([b ** sigma, np.ones(n)])
        if sse_p < best[1]:
            best = (sol_p, sse_p, float(sigma))
    sol_pow, sse_pow, sigma = best

    def aic(sse, k_params):
        return n * log(max(sse, 1e-300) / n) + 2.0 * k_params

    aic_log = aic(sse_log, 2)
    aic_pow = aic(sse_pow, 3)
    if aic_log <= aic_pow or sigma <= SIGMA_GRID[0]:
        classification = "polynomial"
    elif sigma >= SIGMA_EXPONENTIAL:
        classification = "exponential"
    else:
        classification = "gevrey"
    return GrowthReport(
        brackets=tuple(float(v) for v in b),
        growth_logs=tuple(float(v) for v in y),
        kappa=float(sol_log[0]),
        sigma=float(sigma),
        rate=float(sol_pow[0]),
        classification=classification,
        aic_log=float(aic_log),
        aic_power=float(aic_pow),
    )


# ---------------------------------------------------------------------------
# end-to-end Cauchy solve on a periodic grid


@dataclass(frozen=True)
class CauchyField:
    """Snapshots of the solution on the periodic grid [0, 2 pi)."""

    x: np.ndarray
    snapshot_ts: np.ndarray
    fields: np.ndarray      # (n_snapshots, m, n_grid) complex


def solve_cauchy_1d(symbol: SystemSymbol, u0_samples, config: SolverConfig,
                    snapshot_ts) -> CauchyField:
    """Solve the Cauchy problem on [0, 2 pi) through the reduced system.

    ``u0_samples`` has shape (m, n_grid) with n_grid a power of two.  Each
    Fourier mode is pushed through the reduction, all modes are integrated
    in lockstep with one step, and the first band component is rescaled by
    <xi>^{-(m-1)} before the inverse transform.  The states are never
    renormalised: a mode that overflows fails the solve.  A variable symbol
    is stepped with the matrix-free right-hand side of
    :class:`hyposym.reduction.SeparablePath`, its t-only rows built once per
    half-step; a constant symbol jumps between the snapshot steps by RK4
    propagator powers (:func:`_rk4_propagate`) instead of stepping.
    """
    if symbol.n != 1:
        raise DomainError("the Cauchy solver is one-dimensional (n = 1)")
    u0 = np.asarray(u0_samples, dtype=complex)
    m = symbol.m
    if u0.ndim != 2 or u0.shape[0] != m:
        raise DomainError(f"u0 must have shape (m, n_grid), got {u0.shape}")
    n_grid = u0.shape[1]
    if n_grid < 2 or n_grid & (n_grid - 1):
        raise DomainError(f"grid size {n_grid} is not a power of two")
    snapshot_ts = np.atleast_1d(np.asarray(snapshot_ts, dtype=float))
    if snapshot_ts.min() < 0 or snapshot_ts.max() > symbol.horizon:
        raise DomainError("snapshots must lie inside [0, T]")

    wavenumbers = np.fft.fftfreq(n_grid, d=1.0 / n_grid)  # integers on [0, 2 pi)
    u0_hat = np.fft.fft(u0, axis=1)

    xi_max = float(np.abs(wavenumbers).max())
    N, h = config.steps_for(symbol, np.array([xi_max]))
    snap_idx = np.clip(np.rint(snapshot_ts / h).astype(int), 0, N)

    xis = wavenumbers[:, None]
    bxi = brackets(xis)
    V0 = initial_states(symbol, np.ascontiguousarray(u0_hat.T), xis, bxi)

    # Every mode takes the step of the top wavenumber, so all advance together.
    record = sorted(set(snap_idx.tolist()))
    if symbol.is_constant():
        # assembled at t = 0 only; no half-step grid
        M = _step_matrices(symbol, xis, np.zeros(1), bxi)
        states, _ = _rk4_propagate(M, V0, N, h, record)
    else:
        ts_half = np.linspace(0.0, symbol.horizon, 2 * N + 1)
        rhs = _separable_rhs(SeparablePath(symbol, xis, bxi), ts_half)
        states, _ = _lockstep_rk4(rhs, V0, N, h, record)
    # first band component of each snapshot, (n_snapshots, m, n_grid)
    first = np.swapaxes(states[[record.index(k) for k in snap_idx]][:, :, ::m], 1, 2)
    hat_snaps = first * bxi ** (-(m - 1))

    fields = np.fft.ifft(hat_snaps, axis=2)
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    return CauchyField(x=x, snapshot_ts=snap_idx * h, fields=fields)
