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

from hyposym import quasisym
from hyposym.errors import DomainError, NumericError
from hyposym.pencils import hermitian_part
from hyposym.quasisym import q_eps_parts, sum_parts
from hyposym.reduction import (
    PathAssembler,
    SeparablePath,
    band_rows,
)
from hyposym.symbols import (
    SystemSymbol,
    bracket,
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
        for name in ("cfl_safety", "t_step"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < float("inf"):
                raise DomainError(f"{name} must be positive and finite, got {value}")
        kind = self.eps_policy[0] if len(self.eps_policy) else None
        if kind not in ("fixed", "inverse", "balanced"):
            raise DomainError(f"unknown eps policy {kind!r}")
        if kind != "inverse" and len(self.eps_policy) < 2:
            raise DomainError(f"the {kind} eps policy needs a value")
        if kind == "fixed":
            v = float(self.eps_policy[1])
            if not 0.0 < v <= 1.0:
                raise DomainError(f"fixed eps must lie in (0, 1], got {v}")
        elif kind == "balanced":
            if not 1.0 <= float(self.eps_policy[1]) < float("inf"):
                raise DomainError("regularity parameter k must be finite and >= 1")

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


# Time samples per block of E, K, term2 and term3 in each RK4 window: term3's lifted
# (m^2 x m^2) complex stack takes 16 m^4 bytes a sample, 2.7 MB for 128 at m = 6.
# _EnergyTerms.add over 2,002 random samples (2 cores, 2 MiB L2, min of 15
# calls), blocks of 32 / 64 / 128 / 256 / 512: m = 3 11.2 / 8.8 / 7.5 / 8.8 /
# 8.0 ms, m = 4 19.4 / 12.9 / 11.1 / 12.1 / 14.6 ms, m = 6 42 / 44 / 50 / 62 / 65 ms.
_TERM3_BLOCK = 128
_TRACE_SAMPLES = 1001   # most samples of a trace that a report emits, ts[::stride]


@dataclass
class EnergyTrace:
    """Per-frequency time series of the reduced state and energy terms.

    ``V`` holds the (possibly renormalised) states of the at most
    _TRACE_SAMPLES samples ts[::stride] a report emits, or of none without
    energy diagnostics; ``norms`` and every other series hold each sample,
    and the true state is V * exp(log_scale[:, None]).  ``K`` is
    |(dQ/dt V|V)| / (Q V|V); ``K_sweep[i]`` is K with Q taken at
    ``sweep_eps[i]`` in place of ``eps``; ``term2`` and ``term3`` are the
    commutator summands of the growth inequality; ``dtE`` is the centred
    difference of E; ``lambdas`` (len(ts), m) are the rescaled eigenvalues Q
    was built from.  All energy diagnostics refer to the stored state, so
    across a renormalisation step dtE carries a negative spike; ratios like K
    and term/E are scale-free.
    """

    ts: np.ndarray
    V: np.ndarray
    log_scale: np.ndarray
    norms: np.ndarray
    xi: np.ndarray
    eps: float
    m: int
    stride: int = 1
    E: np.ndarray | None = None
    K: np.ndarray | None = None
    term2: np.ndarray | None = None
    term3: np.ndarray | None = None
    dtE: np.ndarray | None = None
    lambdas: np.ndarray | None = None
    coercivity_sup: float = float("nan")
    sweep_eps: tuple = ()
    K_sweep: np.ndarray | None = None

    @property
    def growth_log(self) -> float:
        """sup_t log(|V(t)| / |V(0)|), renormalisation folded back in."""
        norms = self.norms
        base = log(max(norms[0], 1e-300)) + self.log_scale[0]
        with np.errstate(divide="ignore"):
            vals = np.where(norms > 0, np.log(np.maximum(norms, 1e-300)), -np.inf)
        return float((vals + self.log_scale).max() - base)


# Bytes of right-hand-side data held per window of the lockstep RK4 (see
# :func:`_width`).  A window of reduced_integrate holds the band rows at each
# half-step and the companion block, b and the state at its integer steps,
# 4 m^2 (6m + 1) bytes a half-step; reduce's paths and bold_A, one bold_B
# term at a time, take more.  The tracemalloc peak of reduce and band_rows
# (then with a real diagonal) at xi = 100, per half-step over windows of 201
# to 801 half-steps, read 411 / 1,295 / 2,662 / 4,871 / 8,352 bytes at
# m = 2..6 (m2-glaeser, m3-tracezero and companion systems with a double
# zero); a half-step is counted at 16 m^2 (2m + 3), the least multiple of
# 16 m^2 above each: windows of 1,170, 404, 186, 100 and 60 steps.
# The separable solve's window is counted at 32 m^4 bytes a half-step
# (1,024 steps at m = 2, 202 at m = 3): its real last-row coefficients,
# 8 m^4 bytes, and the terms and paths they are built from peaked at
# 17-20 m^4 bytes a half-step (one window of m2-glaeser and of m3-tracezero,
# every term held at once), so its windows hold about 0.6 MB.
_WINDOW_BYTES = 1 << 20


def _width(row_bytes: int) -> int:
    """Steps per window whose half-steps hold ``row_bytes`` each, in _WINDOW_BYTES."""
    return max(1, _WINDOW_BYTES // (2 * row_bytes))


def _lockstep_rk4(window, width: int, Y0, N: int, h: float, record,
                  renormalize: bool = False, after=None, where: str = ""):
    """RK4 on a stack of q states in lockstep, d/dt y_r = f_r(t, y_r).

    ``Y0`` has shape (q, d).  The loop owns the state Y, the stages s1..s4 and
    a temporary Z.  Once per window of at most ``width`` steps,
    ``window(k0, k1)(stages)`` binds the C-contiguous complex (q, d) pairs
    stages = ((Y, s1), (Z, s2), (Z, s3), (Z, s4)) to f(j, i), which writes the
    right-hand side at half-step j (0 <= j <= 2 (k1 - k0)) of steps k0..k1 for
    ``stages[i][0]`` into ``stages[i][1]``.  Each stage and the update run the
    ufuncs of Y + (h / 6) (s1 + 2 s2 + 2 s3 + s4), with its scalars and in its
    order, in place, so every state is bitwise the allocating expression's.
    ``after(k0, k1, states, logs)``, if given, runs once a window's states are
    checked finite, with the states (k1 - k0 + 1, q, d) and log scales of its
    steps k0..k1 in buffers that the next window overwrites.  Returns the
    states and log scales at the sorted step indices ``record``, shapes
    (len(record), q, d) and (len(record), q).  Renormalisation keeps each
    row's |y| <= RENORM_THRESHOLD on its own, so exponentially growing rows
    never overflow; a row whose norm overflows in one step raises
    NumericError.  ``where`` ends the messages of the errors raised here.
    """
    Y = np.array(Y0, dtype=complex, order="C")
    q, d = Y.shape
    s1, s2, s3, s4, Z = (np.empty_like(Y) for _ in range(5))
    stages = ((Y, s1), (Z, s2), (Z, s3), (Z, s4))
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
    if after is not None:
        states, state_logs = np.empty((width + 1, q, d), dtype=complex), np.empty((width + 1, q))
    # overflow surfaces through the isfinite guard, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, N, width):
            k1 = min(k0 + width, N)
            f = window(k0, k1)(stages)
            if after is not None:
                states[0], state_logs[0] = Y, acc
            for k in range(k0, k1):
                j = 2 * (k - k0)
                f(j, 0)
                np.add(Y, np.multiply(half, s1, Z), Z)
                f(j + 1, 1)
                np.add(Y, np.multiply(half, s2, Z), Z)
                f(j + 1, 2)
                np.add(Y, np.multiply(step, s3, Z), Z)
                f(j + 2, 3)
                np.add(s1, np.multiply(two, s2, s2), s1)
                np.add(s1, np.multiply(two, s3, s3), s1)
                np.add(s1, s4, s1)
                np.add(Y, np.multiply(sixth, s1, s1), Y)
                if renormalize and not _renormalize_rows(Y, acc):
                    raise NumericError(f"a state overflows at step {k + 1} of {N}{where}")
                if after is not None:
                    states[k - k0 + 1], state_logs[k - k0 + 1] = Y, acc
                if slot < len(record) and record[slot] == k + 1:
                    out[slot] = Y
                    logs[slot] = acc
                    slot += 1
            del f   # the window's data goes before ``after`` and the next window
            # a non-finite entry stays non-finite: one check per window catches it
            if not np.isfinite(Y).all():
                raise NumericError(f"non-finite state by step {k1} of {N}{where}")
            if after is not None:
                after(k0, k1, states[: k1 - k0 + 1], state_logs[: k1 - k0 + 1])
    return out, logs


def _mode_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A (d, e, q) @ B (e, r, q) per mode q, summed over e in order on (q,) rows."""
    out = A[:, 0, None] * B[0]
    for k in range(1, A.shape[1]):
        out += A[:, k, None] * B[k]
    return out


def _rk4_propagate(C: np.ndarray, Y0, N: int, h: float, record):
    """:func:`_lockstep_rk4`'s states for constant matrices C (d, d, q), in one sweep.

    Modes last: Y0 (d, s, q) holds s states of each mode r, which share its
    matrix C[..., r].  On a constant matrix one RK4 step is multiplication by
    its stability polynomial R(hC) = I + hC + (hC)^2/2 + (hC)^3/6 +
    (hC)^4/24, so the state at step k is R(hC)^k y0.  Each recorded step k,
    and N, starts from y0 and takes the square R^(2^b) of every set bit b of
    k as the squares are formed, so one square is held at a time.  Not
    bitwise the stepped run: about log2(N) products round where it rounds
    four stages per step.  The states, (len(record), d, s, q), are checked in
    ascending step order, so a run fails where the stepped run would.
    """
    Y0 = np.array(Y0, dtype=complex, order="C")   # rows of q modes, contiguous
    eye = np.eye(C.shape[0])[..., None]
    # A zero state stays zero, as in the stepped run, even where a square of R overflows.
    live = Y0.any(axis=0)
    at = dict.fromkeys(sorted(set(int(k) for k in record) | {N}), Y0)
    # overflow surfaces through the isfinite guard, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        Z = h * np.ascontiguousarray(C)
        R = eye + _mode_product(Z, eye + _mode_product(
            Z, eye + _mode_product(Z, eye + Z / 4.0) / 3.0) / 2.0)
        for bit in range(N.bit_length()):
            if bit:
                R = _mode_product(R, R)
            for k in at:
                if k >> bit & 1:
                    at[k] = np.where(live, _mode_product(R, at[k]), 0)
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

    def window(k0, k1):   # the half-step matrices, split once
        Ms = list((1j * eval_symbol_path(symbol, ts_half[2 * k0 : 2 * k1 + 1], xi))[:, None])
        return lambda stages: lambda j, i: np.matvec(Ms[j], *stages[i])

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
    entries b (k, m-1, m, m) (see :func:`hyposym.reduction.block_sylvester`).

    calB has one nonzero row per band, so every entry of Q_lift B and of
    B* Q_lift is a single product of a Q entry and a calB entry; formed one
    by one, they are bitwise the dense products up to the sign of zeros.
    """
    k, m = Q.shape[0], Q.shape[-1]
    bt = np.moveaxis(b, 1, -1)                      # bt[s, i, j, l] = b[s, l, i, j]
    P = np.zeros((k, m, m, m, m), dtype=complex)    # [sample, band, row, band, column]
    # one band of rows i at a time, so each product takes 1/m of P
    for i in range(m):
        # (Q_lift B)[i m + a, j m + l] = Q[a, m-1] b[l, i, j]
        P[:, i, :, :, : m - 1] = Q[:, :, m - 1, None, None] * bt[:, i, None]
        # (B* Q_lift)[i m + l, j m + c] = conj(b[l, j, i]) Q[m-1, c]
        P[:, i, : m - 1] -= np.conj(bt[:, :, i]).transpose(0, 2, 1)[..., None] * Q[:, None, None, m - 1]
    return P.reshape(k, m * m, m * m)


def _energy_and_K(Q: np.ndarray, blocks: np.ndarray, h: float, first: int = 0) -> tuple:
    """E = (Q_lift V | V) and K = |(dQ/dt V | V)| / E of ``blocks``, whose Q is
    Q[first : first + len(blocks)], _TERM3_BLOCK samples at a time.  dQ/dt
    reads one sample of Q on each side, where there is one: bitwise
    ``np.gradient`` of the whole trajectory's Q."""
    E, K_num = np.empty(len(blocks)), np.empty(len(blocks))
    for s0 in range(0, len(blocks), _TERM3_BLOCK):
        sl = slice(s0, min(s0 + _TERM3_BLOCK, len(blocks)))
        a, z, lo = first + s0, first + sl.stop, max(first + s0 - 1, 0)   # samples in Q
        dQ = np.gradient(Q[lo : z + 1], h, axis=0)[a - lo : z - lo]
        E[sl] = _band_form(Q[a:z], blocks[sl]).real
        K_num[sl] = np.abs(_band_form(dQ, blocks[sl]))
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(E > ENERGY_FLOOR, K_num / np.maximum(E, ENERGY_FLOOR), 0.0)
    return E, K


class _EnergyTerms:
    """E, K, term2, term3, dtE, the coercivity constant and the K of each
    sweep eps of one trajectory, from the states of each RK4 window that
    :meth:`add` receives.

    The spectra depend only on (ts, xi) and are taken before the run; the
    quasi-symmetriser parts, Q at the run's eps and at each sweep eps, and
    the coercivity candidates, which need the run's Q alone, are built as the
    windows reach them, quasisym._ROW_BLOCK samples at a time, and dropped
    once no later sample reads them.  term2 and term3 read calA's companion
    block and calB of the integration's own windows: nothing is assembled
    here.  dQ/dt is taken by centred finite differences of the
    quasi-symmetriser entries (one-sided at the ends), which are polynomial
    in the eigenvalues and stay smooth through multiplicity crossings even
    where the eigenvalue branches do not.  Each sample's value is bitwise
    that of the same operations on the sample alone.
    """

    def __init__(self, symbol: SystemSymbol, ts, xi, eps: float, sweep_eps: tuple = ()):
        m, n = symbol.m, ts.size
        self.ts, self.bxi, self.floor = ts, bracket(xi), eps ** (2 * (m - 1))
        self.eps_values = (eps,) + sweep_eps
        self.lambdas = np.empty((n, m))
        for s0 in range(0, n, quasisym._ROW_BLOCK):
            sl = slice(s0, s0 + quasisym._ROW_BLOCK)
            self.lambdas[sl] = rescaled_spectra(symbol, ts[sl], xi).lambdas
        self.E, self.K, self.term2, self.term3 = (np.empty(n) for _ in range(4))
        self.K_sweep = np.empty((len(sweep_eps), n))
        # Q of samples q0..q0 + len(Q) - 1 at each of eps_values
        self.Qs, self.q0 = [np.empty((0, m, m)) for _ in self.eps_values], 0
        self.coercivity_sup = 0.0

    def _Q(self, lo: int, hi: int) -> list:
        """Q of samples lo..hi-1 at each of eps_values, its blocks built up to
        hi; rows before lo are dropped."""
        while self.q0 + len(self.Qs[0]) < hi:
            s0 = self.q0 + len(self.Qs[0])
            parts = q_eps_parts(self.lambdas[s0 : s0 + quasisym._ROW_BLOCK])
            new = [sum_parts(parts, eps) for eps in self.eps_values]
            eigs = np.linalg.eigvalsh(hermitian_part(new[0]))
            low, high = eigs[:, 0], eigs[:, -1]
            with np.errstate(divide="ignore", invalid="ignore"):
                floor_ratio = self.floor / low
            cm = np.where(low <= 0, high, np.where(floor_ratio > high, floor_ratio, high))
            self.coercivity_sup = max(self.coercivity_sup,
                                      float(np.max(cm, where=cm > 0.0, initial=0.0)))
            self.Qs = [np.concatenate([Q[lo - self.q0 :], Q_new])
                       for Q, Q_new in zip(self.Qs, new)]
            self.q0 = lo
        return [Q[lo - self.q0 : hi - self.q0] for Q in self.Qs]

    def add(self, k0: int, block, b, V) -> None:
        """The diagnostics of samples k0..k0 + len(V) - 1 from their states V
        and the window's companion block and b from sample k0 on.  term3's
        lifted stack goes _TERM3_BLOCK samples at a time."""
        m, sl, lo = self.lambdas.shape[1], slice(k0, k0 + len(V)), max(k0 - 1, 0)
        h, blocks = self.ts[1] - self.ts[0], V.reshape(-1, m, m)
        Qh, *swept = self._Q(lo, min(sl.stop + 1, self.ts.size))
        self.E[sl], self.K[sl] = _energy_and_K(Qh, blocks, h, k0 - lo)
        for K, Q in zip(self.K_sweep, swept):
            K[sl] = _energy_and_K(Q, blocks, h, k0 - lo)[1]
        Q = Qh[k0 - lo : sl.stop - lo]
        A0, b = block[: len(V), 0] / self.bxi, b[: len(V), 0]
        comm2 = np.einsum("kab,kbc->kac", Q, A0) - np.einsum(
            "kab,kbc->kac", np.conj(np.swapaxes(A0, 1, 2)), Q)
        self.term2[sl] = np.abs(self.bxi * _band_form(comm2, blocks))
        for s0 in range(0, len(V), _TERM3_BLOCK):
            s = slice(s0, s0 + _TERM3_BLOCK)
            M3V = _lifted_commutator(Q[s], b[s]) @ V[s, :, None]
            self.term3[k0 + s0 : k0 + s0 + len(M3V)] = np.abs(np.vecdot(V[s], M3V[..., 0]))

    def finish(self, trace: EnergyTrace) -> None:
        """Fill the trace's diagnostics once :meth:`add` has covered every sample."""
        trace.E, trace.K, trace.term2, trace.term3 = self.E, self.K, self.term2, self.term3
        trace.lambdas, trace.coercivity_sup = self.lambdas, self.coercivity_sup
        trace.sweep_eps, trace.K_sweep = self.eps_values[1:], self.K_sweep
        trace.dtE = np.gradient(trace.E, trace.ts[1] - trace.ts[0])


def reduced_integrate(symbol: SystemSymbol, xi, V0, config: SolverConfig,
                      collect_energy: bool = True, sweep_eps=()) -> EnergyTrace:
    """Integrate d/dt V = i (calA + calB) V and record energy diagnostics.

    ``V0`` is any complex vector of length m^2 (usually a row of
    :meth:`hyposym.reduction.PathAssembler.lift` at t = 0).  The state is rescaled
    whenever it grows past RENORM_THRESHOLD, so growing modes never overflow;
    the accumulated log-scale is stored on the trace.  A window steps the shift
    i <xi> and the band rows of its reduction; as it ends, its states, block
    and b give the diagnostics, norms and log scales of its samples, and K at
    each eps of ``sweep_eps``, which needs the diagnostics.  With them the
    trace keeps the states of the samples ts[::stride] a report emits;
    without them it keeps none.
    """
    m = symbol.m
    V0 = np.asarray(V0, dtype=complex).ravel()
    if V0.size != m * m:
        raise DomainError(f"reduced state must have {m * m} components")
    sweep_eps = tuple(float(eps) for eps in sweep_eps)
    if sweep_eps and not collect_energy:
        raise DomainError("an eps sweep needs the energy diagnostics")
    for eps in sweep_eps:
        quasisym._check_eps(eps)
    N, h = config.steps_for(symbol, xi)
    ts_half = np.linspace(0.0, symbol.horizon, 2 * N + 1)
    ts = ts_half[::2]
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    eps_val = config.eps_for(m, xi)
    stride = max(1, -(-ts.size // _TRACE_SAMPLES))
    terms = _EnergyTerms(symbol, ts, xi, eps_val, sweep_eps) if collect_energy else None
    assembler = PathAssembler(symbol, xi[None])
    constant = symbol.is_constant()
    shift = np.full(m * m - 1, 1j * float(assembler.bxi[0]))   # rows j < m-1: i <xi> V[j+1]
    held = ()      # block and b of the current window at its integer steps k0..k1
    kept = np.empty((-(-ts.size // stride) if collect_energy else 0, m * m), dtype=complex)
    norms, log_scale = np.empty(ts.size), np.empty(ts.size)

    def window(k0, k1):
        nonlocal held
        held = ()   # the last window's, released before this one is reduced
        n = 2 * (k1 - k0) + 1   # a constant symbol reduces one sample and broadcasts it
        block, b = assembler.reduce(ts_half[2 * k0 : 2 * k0 + (1 if constant else n)])[:2]
        rows, block, b = (np.broadcast_to(x, (n,) + x.shape[1:])
                          for x in (band_rows(block, b), block, b))
        held = tuple(x[::2] if constant else x[::2].copy() for x in (block, b))
        rows = list(rows)

        def bind(stages):
            views = [(Y.reshape(-1)[1:], out.reshape(-1)[:-1], Y, out[:, m - 1 :: m])
                     for Y, out in stages]

            def f(j, i):
                y, o, Y, last = views[i]
                np.multiply(shift, y, o)
                np.matvec(rows[j], Y, last)
            return f
        return bind

    def after(k0, k1, states, logs):
        n = k1 - k0 + (k1 == N)   # samples k0..k1-1, and in the last window N too
        V = states[:n, 0]
        log_scale[k0 : k0 + n] = logs[:n, 0]
        norms[k0 : k0 + n] = np.linalg.norm(V, axis=1)
        if terms is not None:
            kept[-(-k0 // stride) : -(-(k0 + n) // stride)] = V[-k0 % stride :: stride]
            terms.add(k0, *held, V)

    _lockstep_rk4(window, _width(16 * m * m * (2 * m + 3)), V0[None], N, h, (),
                  renormalize=True, after=after, where=f" (xi={xi})")
    trace = EnergyTrace(ts=ts, V=kept, log_scale=log_scale, norms=norms, xi=xi,
                        eps=eps_val, m=m, stride=stride)
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
                    collect_energy: bool = True, sweep_eps=()) -> list:
    """One :func:`reduced_integrate` trace per frequency x of ``config.xi_grid``.

    x is integrated at xi = (x, 0, ..., 0) from u-hat = ones / sqrt(m); growth
    fits and energy checks analyse these traces.  The first frequency's trace
    also carries K at each eps of ``sweep_eps``, for :func:`integral_K_sweep`.
    """
    xis = np.zeros((len(config.xi_grid), symbol.n))
    xis[:, 0] = config.xi_grid
    u0hat = np.ones(symbol.m, dtype=complex) / np.sqrt(symbol.m)
    u0hats = np.broadcast_to(u0hat, (1, len(xis), symbol.m))
    V0s = PathAssembler(symbol, xis).lift([0.0], u0hats)[0]
    return [reduced_integrate(symbol, xi, V0, config, collect_energy, () if r else sweep_eps)
            for r, (xi, V0) in enumerate(zip(xis, V0s))]


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


def integral_K_sweep(trace: EnergyTrace, k_regularity: float = 2.0) -> KSweepReport:
    """Measure int_0^T K_eps dt along one trajectory across its eps sweep.

    Integrates the series ``K_sweep`` that :func:`reduced_integrate` took at
    each of its ``sweep_eps`` and fits the exponent p in int K ~ C eps^p by
    least squares on the log-log pairs; reports the theoretical bound
    exponent -2(m-1)/k next to it.  An integral that is not positive has no
    logarithm, so then p is not measured and reads nan (a constant symbol has
    dQ/dt = 0 and K = 0).
    """
    if not trace.sweep_eps:
        raise DomainError("the trace carries no eps sweep")
    integrals = [float(np.trapezoid(K, trace.ts)) for K in trace.K_sweep]
    eps_arr = np.asarray(trace.sweep_eps)
    ints = np.asarray(integrals)
    fitted = float("nan")
    if (ints > 0.0).all():
        X = np.stack([np.log(eps_arr), np.ones(eps_arr.size)], axis=1)
        sol, *_ = np.linalg.lstsq(X, np.log(ints), rcond=None)
        fitted = float(sol[0])
    theo = -2.0 * (trace.m - 1) / k_regularity
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
    half-step and its states stored mode-last, (m^2, n_grid).  A constant
    symbol is not stepped: its calB is zero, so each snapshot is the RK4
    propagator power R(hC)^k of the m x m companion block C on each band of
    a state, modes last, by one sweep over the bits of the snapshot steps.
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

    assembler = PathAssembler(symbol, wavenumbers[:, None])
    V0 = assembler.lift([0.0], np.ascontiguousarray(u0_hat.T)[None])[0]

    # Every mode takes the step of the top wavenumber, so all advance together.
    record = sorted(set(snap_idx.tolist()))
    if symbol.is_constant():
        # assembled at t = 0 only; calB is zero: a constant symbol has no path D_t^k A, k >= 1
        block = assembler.reduce(np.zeros(1))[0][0]
        first = _rk4_propagate(np.moveaxis(1j * block, 0, -1), V0.reshape(-1, m, m).T,
                               N, h, record)[:, 0]
    else:
        ts_half = np.linspace(0.0, symbol.horizon, 2 * N + 1)
        path = SeparablePath(assembler)

        def window(k0, k1):
            L = list(path.last_rows(ts_half[2 * k0 : 2 * k1 + 1]))

            def bind(stages):
                f = path.bind(stages)
                return lambda j, i: f(L[j], i)
            return bind

        first = _lockstep_rk4(window, _width(m ** 4 * 32), V0.T, N, h, record)[0][:, ::m]
    # first band component of each snapshot, (n_snapshots, m, n_grid)
    hat_snaps = first[[record.index(k) for k in snap_idx]] * assembler.bxi ** (-(m - 1))

    fields = np.fft.ifft(hat_snaps, axis=2)
    x = 2.0 * np.pi * np.arange(n_grid) / n_grid
    return CauchyField(x=x, snapshot_ts=snap_idx * h, fields=fields)
