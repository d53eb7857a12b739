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

from dataclasses import dataclass
from math import ceil, log, sqrt

import numpy as np

from hyposym.errors import DomainError, NumericError
from hyposym.pencils import hermitian_part
from hyposym.quasisym import q_eps, q_eps_parts, sum_parts
from hyposym.reduction import (
    PathAssembler,
    SeparablePath,
    lift_states,
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


# Time samples per block of the energy terms (term2, term3 and the
# coercivity candidates) and of growth_log's row norms: the lifted
# (m^2 x m^2) complex stacks of 256 samples take 5.3 MB each at m = 6, a
# norm over a whole m = 6 trace of 20,001 samples raised the peak RSS of
# growth by 10 MB, and term2 and the eigenvalues of Q over that whole trace
# added 29.6 MB of traced memory to the energy diagnostics.
_TERM3_BLOCK = 256


@dataclass
class EnergyTrace:
    """Per-frequency time series of the reduced state and energy terms.

    ``V`` stores the (possibly renormalised) state; the true state is
    V * exp(log_scale[:, None]).  ``K`` is |(dQ/dt V|V)| / (Q V|V); ``term2``
    and ``term3`` are the commutator summands of the growth inequality;
    ``dtE`` is the centred difference of E; ``lambdas`` (len(ts), m) are the
    rescaled eigenvalues Q was built from.  All energy diagnostics refer to
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
    lambdas: np.ndarray | None = None
    coercivity_sup: float = float("nan")
    nonhyperbolic_points: int = 0

    @property
    def growth_log(self) -> float:
        """sup_t log(|V(t)| / |V(0)|), renormalisation folded back in."""
        # each row's norm is the same reduction in a block as in the whole trace
        norms = np.concatenate([np.linalg.norm(self.V[k : k + _TERM3_BLOCK], axis=1)
                                for k in range(0, len(self.V), _TERM3_BLOCK)])
        base = log(max(norms[0], 1e-300)) + self.log_scale[0]
        with np.errstate(divide="ignore"):
            vals = np.where(norms > 0, np.log(np.maximum(norms, 1e-300)), -np.inf)
        return float((vals + self.log_scale).max() - base)


# Bytes of right-hand-side data held per window of the lockstep RK4 (see
# :func:`_width`).  A window of reduced_integrate holds i (calA + calB), calA
# and the calB entries b at each half-step, 24 m^4 + 16 (m-1) m^2 bytes:
# windows of 1,170, 234, 75, 31 and 15 steps at m = 2..6.  The separable
# solve's window builds its m^4 complex last-row coefficients from terms and
# paths about as large again: windows of 1,024 (m = 2) and 202 (m = 3) steps.
# Twice the budget raised the peak RSS of an m = 6 growth sweep by 1.3 MB;
# counting the separable coefficients alone raised solve-glaeser's by 0.5 MB.
_WINDOW_BYTES = 1 << 20


def _width(row_bytes: int) -> int:
    """Steps per window whose half-steps hold ``row_bytes`` each, in _WINDOW_BYTES."""
    return max(1, _WINDOW_BYTES // (2 * row_bytes))


def _dense(M):
    """A window's half-step matrices M (2 (k1 - k0) + 1, q, d, d) as its f(j, Y, out), by
    ``np.matvec`` into ``out``: bitwise each row's own ``M @ y``."""
    return lambda j, Y, out: np.matvec(M[j], Y, out=out)


def _lockstep_rk4(window, width: int, Y0, N: int, h: float, record,
                  renormalize: bool = False, after=None, where: str = ""):
    """RK4 on a stack of q states in lockstep, d/dt y_r = f_r(t, y_r).

    ``Y0`` has shape (q, d).  The steps run in windows of at most ``width``:
    ``window(k0, k1)`` returns f(j, Y, out), which writes the right-hand side
    at half-step j (0 <= j <= 2 (k1 - k0)) of steps k0..k1 for the whole
    stack Y (q, d) into ``out`` (q, d), a C-contiguous buffer that is not Y.
    The loop owns the state, the four stages and one temporary and reuses
    them from step to step.  Each stage and the update run the ufuncs of
    Y + (h / 6) (s1 + 2 s2 + 2 s3 + s4), with its scalars and in its order,
    in place, so every state is bitwise that of the allocating expression.
    ``after(k0, k1, out)``, if given, runs once a window's states are checked
    finite, ``out`` holding the states recorded so far.  Returns the states
    and accumulated log scales at the sorted step indices ``record``, shapes
    (len(record), q, d) and (len(record), q).  Renormalisation keeps each
    row's |y| <= RENORM_THRESHOLD on its own, so exponentially growing rows
    never overflow; a row whose norm overflows in one step raises
    NumericError.  ``where`` ends the messages of the errors raised here.
    """
    Y = np.array(Y0, dtype=complex, order="C")
    q, d = Y.shape
    s1, s2, s3, s4, Z = (np.empty_like(Y) for _ in range(5))
    # The update's scalars as complex 0-d arrays: a ufunc casts a Python
    # float to the same complex value on every call, which takes about as
    # long as a product of 128 states of 4 entries.
    half, step, two, sixth = (np.array(c, dtype=complex) for c in (0.5 * h, h, 2.0, h / 6.0))
    record = [int(k) for k in record]
    out = np.empty((len(record), q, d), dtype=complex)
    logs = np.zeros((len(record), q))
    acc = np.zeros(q)
    slot = 0
    if record and record[0] == 0:
        out[0] = Y
        slot = 1
    # overflow surfaces through the isfinite guard, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, N, width):
            k1 = min(k0 + width, N)
            f = window(k0, k1)
            for k in range(k0, k1):
                j = 2 * (k - k0)
                f(j, Y, s1)
                f(j + 1, np.add(Y, np.multiply(half, s1, Z), Z), s2)
                f(j + 1, np.add(Y, np.multiply(half, s2, Z), Z), s3)
                f(j + 2, np.add(Y, np.multiply(step, s3, Z), Z), s4)
                np.add(s1, np.multiply(two, s2, s2), s1)
                np.add(s1, np.multiply(two, s3, s3), s1)
                np.add(s1, s4, s1)
                np.add(Y, np.multiply(sixth, s1, s1), Y)
                if renormalize and not _renormalize_rows(Y, acc):
                    raise NumericError(f"a state overflows at step {k + 1} of {N}{where}")
                if slot < len(record) and record[slot] == k + 1:
                    out[slot] = Y
                    logs[slot] = acc
                    slot += 1
            # A non-finite entry stays non-finite, so one check per window
            # catches it.
            if not np.isfinite(Y).all():
                raise NumericError(f"non-finite state by step {k1} of {N}{where}")
            if after is not None:
                after(k0, k1, out)
    return out, logs


def _rk4_propagate(M: np.ndarray, Y0, N: int, h: float, record):
    """:func:`_lockstep_rk4`'s states for constant matrices M (q, d, d), in one sweep.

    On a constant matrix one RK4 step is multiplication by its stability
    polynomial R(hM) = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, so the state
    at step k is R(hM)^k y0.  Each recorded step k, and N, starts from y0 and
    takes the square R^(2^b) of every set bit b of k as the squares are
    formed, so one square is held at a time.  Not bitwise the stepped run:
    about log2(N) products round where it rounds four stages per step.  The
    states, (len(record), q, d), are checked in ascending step order, so a
    run fails where the stepped run would.
    """
    Y0 = np.array(Y0, dtype=complex)
    eye = np.eye(M.shape[-1])
    # A zero row stays zero, as in the stepped run, even where a square of R overflows.
    live = Y0.any(axis=1, keepdims=True)
    at = dict.fromkeys(sorted(set(int(k) for k in record) | {N}), Y0)
    # overflow surfaces through the isfinite guard, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        Z = h * M
        R = eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)
        for bit in range(N.bit_length()):
            if bit:
                R = R @ R
            for k in at:
                if k >> bit & 1:
                    at[k] = np.where(live, np.matvec(R, at[k]), 0)
    for k, Y in at.items():
        if not np.isfinite(Y).all():
            raise NumericError(f"non-finite state by step {k} of {N}")
    return np.array([at[int(k)] for k in record]).reshape((len(record),) + Y0.shape)


def _renormalize_rows(Y: np.ndarray, acc: np.ndarray) -> bool:
    """Scale each row of Y with |y| > RENORM_THRESHOLD to unit norm, in place;
    False at the first row whose norm overflows.

    A row whose real and imaginary parts all lie within RENORM_THRESHOLD /
    sqrt(2 d) has a norm below the threshold, so most steps end after one
    max.  Otherwise the stacked norm only picks candidates: it may differ
    from the 1-d norm of the row in the last bits, and the 1-d norm decides,
    as in a solo run.
    """
    if np.abs(Y.view(np.float64)).max() <= (
            RENORM_THRESHOLD / sqrt(2 * Y.shape[1]) * (1.0 - 1e-12)):
        return True
    rough = np.linalg.norm(Y, axis=1)
    for r in np.flatnonzero(rough > RENORM_THRESHOLD * (1.0 - 1e-12)):
        nrm = float(np.linalg.norm(Y[r]))
        if nrm == float("inf"):
            return False
        if nrm > RENORM_THRESHOLD:
            Y[r] = Y[r] / nrm
            acc[r] += log(nrm)
    return True


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
        return _dense((1j * eval_symbol_path(symbol, ts_half[2 * k0 : 2 * k1 + 1], xi))[:, None])

    traj, _ = _lockstep_rk4(window, _width(symbol.m ** 2 * 16), u0[None], N, h, range(N + 1))
    return ts_half[::2], traj[:, 0]


def _band_form(mats: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Sum over bands of v* (mat v), with per-time m x m matrices and band
    blocks, _TERM3_BLOCK samples at a time."""
    out = np.empty(len(mats), dtype=complex)
    for s0 in range(0, len(mats), _TERM3_BLOCK):
        sl = slice(s0, s0 + _TERM3_BLOCK)
        prod = np.einsum("kab,kib->kia", mats[sl], blocks[sl])
        out[sl] = np.einsum("kia,kia->k", np.conj(blocks[sl]), prod)
    return out


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

    Q (the spectra and q_eps) depends only on (ts, xi, eps), so it and the
    coercivity constant are built before the states exist.  term2 reads the first m x m block of calA and
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
        self.lambdas = spec.lambdas
        self.Q = q_eps(spec.lambdas, eps)
        self.nonhyperbolic_points = int(np.count_nonzero(~spec.hyperbolic))
        self.bxi = bracket(xi)
        self.term2 = np.empty(ts.size)
        self.term3 = np.empty(ts.size)
        # the coercivity constant needs Q alone; blocks of _TERM3_BLOCK
        # samples bound the stacks of eigvalsh
        self.coercivity_sup = 0.0
        for s0 in range(0, ts.size, _TERM3_BLOCK):
            eigs = np.linalg.eigvalsh(hermitian_part(self.Q[s0 : s0 + _TERM3_BLOCK]))
            lo, hi = eigs[:, 0], eigs[:, -1]
            with np.errstate(divide="ignore", invalid="ignore"):
                floor_ratio = eps ** (2 * (m - 1)) / lo
            cm = np.where(lo <= 0, hi, np.where(floor_ratio > hi, floor_ratio, hi))
            self.coercivity_sup = max(self.coercivity_sup,
                                      float(np.max(cm, where=cm > 0.0, initial=0.0)))

    def add(self, k0: int, k1: int, calA, b, V) -> None:
        """term2 and term3 at samples k0..k1-1.

        ``calA`` and ``b`` are :meth:`PathAssembler.reduce` output for one
        frequency, from sample k0 on; ``V`` holds the states of every sample
        so far.  The samples go in blocks of at most _TERM3_BLOCK to bound
        the lifted stacks of term3 = |(Q_lift B - B* Q_lift) V | V| and the
        commutator of term2 = |<xi> ((Q A_0 - A_0* Q) V | V)|.
        """
        m = self.Q.shape[-1]
        for s0 in range(k0, k1, _TERM3_BLOCK):
            sl = slice(s0, min(s0 + _TERM3_BLOCK, k1))
            Q, A0 = self.Q[sl], calA[s0 - k0 : sl.stop - k0, 0, :m, :m] / self.bxi
            comm2 = np.einsum("kab,kbc->kac", Q, A0) - np.einsum(
                "kab,kbc->kac", np.conj(np.swapaxes(A0, 1, 2)), Q)
            self.term2[sl] = np.abs(self.bxi * _band_form(comm2, V[sl].reshape(-1, m, m)))
            M3 = _lifted_commutator(Q, b[s0 - k0 : sl.stop - k0, 0])
            self.term3[sl] = np.abs(np.vecdot(V[sl], (M3 @ V[sl, :, None])[..., 0]))

    def finish(self, trace: EnergyTrace) -> None:
        """Fill the trace's diagnostics once :meth:`add` has covered every sample."""
        ts, m = trace.ts, trace.m
        h = ts[1] - ts[0]
        trace.E, trace.K = _energy_and_K(self.Q, trace.V.reshape(ts.size, m, m), h)
        trace.term2, trace.term3 = self.term2, self.term3
        trace.coercivity_sup = self.coercivity_sup
        trace.dtE = np.gradient(trace.E, h)
        trace.lambdas = self.lambdas
        trace.nonhyperbolic_points = self.nonhyperbolic_points


def reduced_integrate(symbol: SystemSymbol, xi, V0, config: SolverConfig,
                      collect_energy: bool = True) -> EnergyTrace:
    """Integrate d/dt V = i (calA + calB) V and record energy diagnostics.

    ``V0`` is any complex vector of length m^2 (usually a row of
    :func:`hyposym.reduction.lift_states` at t = 0).  The state is rescaled
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
    assembler = PathAssembler(symbol, xi[None])
    constant = symbol.is_constant()
    if constant:   # assembled once; each window holds it broadcast over its steps
        calA0, b0 = assembler.reduce(ts_half[:1])[:2]
        M = (1j * (calA0 + lower_order_matrix(b0)))[0]
    held = ()      # calA and b of the current window at its integer steps k0..k1

    def window(k0, k1):
        nonlocal held
        if constant:
            held = [np.broadcast_to(x, (k1 - k0 + 1,) + x.shape[1:]) for x in (calA0, b0)]
            return lambda j, Y, out: np.matvec(M, Y, out=out)
        calA, b = assembler.reduce(ts_half[2 * k0 : 2 * k1 + 1])[:2]
        held = calA[::2], b[::2]
        rhs = lower_order_matrix(b)   # i (calA + calB) in calB's buffer, by the same ufuncs
        return _dense(np.multiply(1j, np.add(calA, rhs, out=rhs), out=rhs))

    def after(k0, k1, out):
        # samples k0..k1-1, and in the last window the final sample N too
        terms.add(k0, k1 if k1 < N else N + 1, *held, out[:, 0])

    V, logs = _lockstep_rk4(window, _width(24 * m ** 4 + 16 * (m - 1) * m ** 2), V0[None], N,
                            h, range(N + 1), renormalize=True,
                            after=None if terms is None else after, where=f" (xi={xi})")
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
    V0s = lift_states(symbol, xis, [0.0], np.broadcast_to(u0hat, (1, len(xis), symbol.m)))[0]
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
    residuals: tuple        # per trace: dtE - (K + 1.05 (C2 e<xi> + C3)) E, 0 where E is tiny


def _valid_mask(trace: EnergyTrace) -> np.ndarray:
    scale = float(trace.E.max(initial=0.0))
    return trace.E > max(ENERGY_FLOOR, 1e-13 * scale)


def energy_inequality_check(traces) -> InequalityReport:
    """Fit (C2, C3) and verify the pointwise growth inequality with slack.

    The constants are frequency-independent in the theory, so they are fitted
    by nonnegative least squares on the per-trace maxima of dtE/E - K against
    eps * <xi> using every trace except the highest frequency, then asserted
    pointwise on all traces with INEQUALITY_SLACK.  A system whose constants
    grow with frequency fails at the top frequency.  The traces are left as
    they are given.
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

    margins, witnesses, k_ints, residuals = [], [], [], []
    for tr, x in zip(traces, xs):
        mask = _valid_mask(tr)
        bound = tr.K + (1.0 + INEQUALITY_SLACK) * (C2 * x + C3)
        resid = np.where(mask, tr.dtE - bound * tr.E, -np.inf)
        rel = np.where(mask, resid / np.maximum(tr.E, ENERGY_FLOOR), -np.inf)
        residuals.append(np.where(mask, resid, 0.0))
        worst = int(np.argmax(rel))
        margins.append(float(rel[worst]) if mask.any() else 0.0)
        witnesses.append({"t": float(tr.ts[worst]), "xi": tr.xi.tolist(),
                          "margin": float(rel[worst])})
        k_ints.append(float(np.trapezoid(tr.K, tr.ts)))
    passed = all(mg <= 0.0 for mg in margins)
    return InequalityReport(C2=C2, C3=C3, margins=tuple(margins),
                            K_integrals=tuple(k_ints), passed=passed,
                            witnesses=tuple(witnesses), residuals=tuple(residuals))


@dataclass(frozen=True)
class KSweepReport:
    """Scaling of the integrated first energy term across an eps sweep."""

    eps_values: tuple
    K_integrals: tuple
    fitted_exponent: float
    theoretical_exponent: float
    C1_values: tuple        # integral * eps^{-theoretical exponent}


def integral_K_sweep(trace: EnergyTrace, eps_values, k_regularity: float = 2.0) -> KSweepReport:
    """Measure int_0^T K_eps dt along one trajectory across the eps sweep.

    Fits the exponent p in int K ~ C eps^p by least squares on the log-log
    pairs and reports the theoretical bound exponent -2(m-1)/k next to it.
    An integral that is not positive has no logarithm, so then p is not
    measured and reads nan (a constant symbol has dQ/dt = 0 and K = 0).
    The trace must carry energy diagnostics: the sweep reads its spectra.
    """
    if trace.lambdas is None:
        raise DomainError("the trace must carry energy diagnostics")
    m = trace.m
    # Only the eps-weighted sum of the quasi-symmetriser parts depends on eps.
    ts = trace.ts
    parts = q_eps_parts(trace.lambdas)
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
    half-step; a constant symbol is not stepped: each snapshot is the RK4
    propagator power R(hM)^k V0, taken by one sweep over the bits of the
    snapshot steps (:func:`_rk4_propagate`).
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
    V0 = lift_states(symbol, xis, [0.0], np.ascontiguousarray(u0_hat.T)[None], bxi)[0]

    # Every mode takes the step of the top wavenumber, so all advance together.
    record = sorted(set(snap_idx.tolist()))
    if symbol.is_constant():
        # assembled at t = 0 only; no half-step grid
        calA, b, _ = PathAssembler(symbol, xis, bxi).reduce(np.zeros(1))
        states = _rk4_propagate((1j * (calA + lower_order_matrix(b)))[0], V0, N, h, record)
    else:
        ts_half = np.linspace(0.0, symbol.horizon, 2 * N + 1)
        path = SeparablePath(symbol, xis, bxi)

        def window(k0, k1):
            L = path.last_rows(ts_half[2 * k0 : 2 * k1 + 1])
            return lambda j, Y, out: path.apply(L[j], Y, out)

        states, _ = _lockstep_rk4(window, _width(m ** 4 * 32), V0, N, h, record)
    # first band component of each snapshot, (n_snapshots, m, n_grid)
    first = np.swapaxes(states[[record.index(k) for k in snap_idx]][:, :, ::m], 1, 2)
    hat_snaps = first * bxi ** (-(m - 1))

    fields = np.fft.ifft(hat_snaps, axis=2)
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    return CauchyField(x=x, snapshot_ts=snap_idx * h, fields=fields)
