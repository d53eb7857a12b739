"""Block-Sylvester reduction of the first-order system.

The m x m system D_t u = A(t, D_x) u is turned into an m^2 x m^2 first-order
system D_t U = (calA + calB) U by applying the adjugate operator of
I D_t - A and stacking U_i = (D_t^{j-1} <D_x>^{m-j} u_i)_j per component.
calA is block diagonal with m identical companion blocks scaled by <xi>;
calB collects the lower-order terms that the reduction generates even for a
homogeneous system, one nonzero row per m-row band.

Every time derivative D_t^k A is exact: the symbol stores polynomial
coefficients and the factor (-i)^k is applied here, keeping the symbol
algebra real.
"""

from __future__ import annotations

from math import comb, gcd

import numpy as np

from hyposym.errors import DomainError, NumericError
from hyposym.symbols import (
    SystemSymbol,
    adjugate_coeffs,
    bracket,
    brackets,
    eval_symbol_path,
    faddeev_leverrier,
    time_derivative,
)


def _deriv_paths(derivs: list, ts: np.ndarray, xi) -> list:
    """(-i)^k d^k/dt^k A(t, xi) for the k-th symbol of ``derivs`` = [d^k/dt^k A]."""
    with np.errstate(invalid="ignore"):  # inf entries of an overflowing symbol
        return [(-1j) ** k * eval_symbol_path(d, ts, xi).astype(complex)
                for k, d in enumerate(derivs)]


def _bold_B_path(boldA: list, dtA: list, m: int) -> list:
    """Lower-order matrices bold_B_1..bold_B_{m-1} from the adjugate expansion."""
    boldB = []
    for h in range(m - 1):  # bold_B_{h+1}
        acc = np.zeros_like(boldA[0])
        for hp in range(m - 1 - h):
            acc += comb(m - 1 - hp, h) * (boldA[hp] @ dtA[m - 1 - h - hp])
        boldB.append(acc)
    return boldB


def lower_order_matrix(entries) -> np.ndarray:
    """calB from its scaled entries, shape (..., m-1, m, m) to (..., m^2, m^2).

    ``entries[..., l-1, i, j]`` goes to row i*m + m-1 and column j*m + l-1
    (zero-based); every other entry of calB is zero.
    """
    b = np.asarray(entries)
    m = b.shape[-1]
    calB = np.zeros(b.shape[:-3] + (m, m, m, m), dtype=complex)
    calB[..., :, m - 1, :, : m - 1] = np.moveaxis(b, -3, -1)
    return calB.reshape(b.shape[:-3] + (m * m, m * m))


class PathAssembler:
    """The reduction of one symbol at a stack of frequencies, on any time grid.

    ``xi`` has shape (n,) or (..., n).  The derivative symbols d^k/dt^k A,
    k < m, and the powers of <xi> are built once, so a windowed integration
    assembles one time window after another without rebuilding them.  The
    powers are taken per frequency as Python floats: numpy's array power is
    not bitwise ``float ** e``.  Every (t, xi) entry of a stacked result is
    bitwise that of the frequency alone.
    """

    def __init__(self, symbol: SystemSymbol, xi, bxi=None):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        m = symbol.m
        self.m = m
        self.xi = xi
        self.derivs = [time_derivative(symbol, k) for k in range(m)]
        # bxi: the caller's brackets(xi), if it has them
        self.bxi = brackets(xi) if bxi is None else np.reshape(bxi, xi.shape[:-1])
        values = self.bxi.ravel().tolist()
        # <xi>^e for e = -m..-1, each of the frequency stack's shape
        self.powers = {e: np.array([b ** e for b in values]).reshape(xi.shape[:-1])
                       for e in range(-m, 0)}

    def reduce(self, ts) -> tuple:
        """(calA, b, bold_A, bold_B, c), each of leading shape (len(ts), ...).

        ``b`` (..., m-1, m, m) holds the scaled entries of calB; see
        :func:`lower_order_matrix`.  Overflow leaves non-finite entries,
        without a warning, for the caller to check.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        m = self.m
        bxi = self.bxi
        A = eval_symbol_path(self.derivs[0], ts, self.xi)
        c = faddeev_leverrier(A)
        lead = A.shape[:-2]

        block = np.zeros(lead + (m, m))
        for j in range(m - 1):
            block[..., j, j + 1] = bxi
        with np.errstate(over="ignore", invalid="ignore"):
            for col in range(m):
                block[..., m - 1, col] = -c[..., m - col] * self.powers[col - m] * bxi
            calA = np.zeros(lead + (m * m, m * m))
            for i in range(m):
                calA[..., i * m : (i + 1) * m, i * m : (i + 1) * m] = block

            dtA = _deriv_paths(self.derivs, ts, self.xi)
            boldA = adjugate_coeffs(A.astype(complex), c.astype(complex))
            boldB = _bold_B_path(boldA, dtA, m)
            b = np.stack([boldB[l - 1] * self.powers[l - m][..., None, None]
                          for l in range(1, m)], axis=-3)
        return calA, b, boldA, boldB, c

    def __call__(self, ts) -> tuple:
        """(calA, calB) along ``ts``, shapes (len(ts), ..., m^2, m^2)."""
        calA, b, _, _, _ = self.reduce(ts)
        return calA, lower_order_matrix(b)


# Rows per BLAS product of SeparablePath.apply.  On 2 cores, one OpenBLAS
# product over all 1,024 modes of an m = 3 solve ran multithreaded and
# doubled the solve's time (18.7 s against 9.5 s at grid 1,024); products of
# 256 rows stay single-threaded.
_BLAS_ROWS = 256


class SeparablePath:
    """i (calA + calB) of a one-dimensional symbol at a stack of frequencies, matrix-free.

    For n = 1, A(t, xi) = xi A_1(t), so c_k(t, xi) = xi^k c_k(t, 1), and
    term hp of bold_B_l (see :func:`_bold_B_path`) is xi^(hp+1) times a
    matrix of t alone.  Row j < m-1 of each band of i (calA + calB) V is the
    companion shift i <xi> V[j+1].  The last row of band i sums t-only
    coefficients times per-frequency weights:
    - the companion row: -c_{m-col}(t, 1) on component col of band i, with
      weight xi^(m-col) <xi>^(col-m+1);
    - calB: row i of term hp of bold_B_l at xi = 1 on component l-1 of
      every band, with weight xi^(hp+1) <xi>^(l-m).
    Every weight is xi^p <xi>^(c+1-m) for the component c it multiplies and
    a power 1 <= p <= m, and no two terms share (p, component, band), so the
    last rows are one product of the weighted states with a t-only stack.
    Not bitwise :class:`PathAssembler`: xi^k FL(A_1) rounds differently
    from FL(xi A_1).
    """

    def __init__(self, symbol: SystemSymbol, xi, bxi):
        if symbol.n != 1:
            raise DomainError("the separable reduction is one-dimensional (n = 1)")
        m = symbol.m
        x = np.asarray(xi, dtype=float).reshape(-1, 1)
        b = np.asarray(bxi, dtype=float).reshape(-1, 1)
        self.m = m
        self.derivs = [time_derivative(symbol, k) for k in range(m)]
        component = np.tile(np.arange(m), m)
        # weights[:, p-1, a] = i xi^p <xi>^(c+1-m), c the component of state entry a
        self.weights = 1j * (x ** np.arange(1, m + 1))[:, :, None] * (
            b ** (component + 1 - m))[:, None, :]
        self.shift = 1j * b
        rows = gcd(x.shape[0], _BLAS_ROWS)
        self.blocks = (x.shape[0] // rows, rows, m ** 3)

    def last_rows(self, ts) -> np.ndarray:
        """The t-only stack L, shape (len(ts), m m^2, m).

        Row (p-1) m^2 + a, column i holds the coefficient of weight p on
        state entry a in the last row of band i, so the last rows at ts[k]
        are ``(weights * V[:, None, :]).reshape(q, -1) @ L[k]``.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        m = self.m
        dtA = _deriv_paths(self.derivs, ts, np.ones(1))
        c = faddeev_leverrier(dtA[0])
        boldA = adjugate_coeffs(dtA[0], c)
        # L[t, p-1, band j, component, band i]
        L = np.zeros((ts.size, m, m, m, m), dtype=complex)
        band, col = np.arange(m)[:, None], np.arange(m)[None, :]
        L[:, m - 1 - col, band, col, band] = -c[:, None, :0:-1]
        for l in range(1, m):
            for hp in range(m - l):
                term = comb(m - 1 - hp, l - 1) * (boldA[hp] @ dtA[m - l - hp])
                L[:, hp, :, l - 1, :] = np.swapaxes(term, 1, 2)
        return L.reshape(ts.size, m ** 3, m)

    def apply(self, L, Y) -> np.ndarray:
        """i (calA + calB) Y for states Y (q, m^2), with L one time of :meth:`last_rows`."""
        m = self.m
        out = np.empty_like(Y)
        np.multiply(self.shift, Y[:, 1:], out=out[:, :-1])
        weighted = (self.weights * Y[:, None, :]).reshape(self.blocks)
        out[:, m - 1 :: m] = (weighted @ L).reshape(-1, m)
        return out


def assemble_path(symbol: SystemSymbol, xi, ts) -> tuple:
    """Stacked (calA, calB) along a time grid, shapes (len(ts), m^2, m^2).

    calA is real block-companion; calB is complex.  A stack of frequencies,
    or the building blocks bold_A and bold_B, go through one
    :class:`PathAssembler`.
    """
    return PathAssembler(symbol, xi)(ts)


def derivative_maps(symbol: SystemSymbol, xi, ts, top: int) -> list:
    """Matrices P_j(t) with D_t^j u-hat = P_j u-hat along exact solutions.

    Built from the Leibniz recursion
    P_0 = I,  P_j = sum_l binom(j-1, l) (D_t^l A) P_{j-1-l};
    shape of each entry is (len(ts), m, m), or (len(ts), ..., m, m) for a
    stack of frequencies xi (..., n).
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    dtA = _deriv_paths([time_derivative(symbol, k) for k in range(max(top - 1, 0) + 1)], ts, xi)
    shape = dtA[0].shape
    maps = [np.broadcast_to(np.eye(symbol.m, dtype=complex), shape).copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, top + 1):
            acc = np.zeros(shape, dtype=complex)
            for l in range(j):
                acc += comb(j - 1, l) * (dtA[l] @ maps[j - 1 - l])
            maps.append(acc)
    if not np.isfinite(maps[-1]).all():
        raise NumericError("the time-derivative maps of u-hat overflow")
    return maps


def _power(b: float, e: int) -> float:
    """``b ** e`` on Python floats, inf where it overflows instead of OverflowError."""
    try:
        return b ** e
    except OverflowError:
        return float("inf")


def initial_states(symbol: SystemSymbol, u0hat: np.ndarray, xi: np.ndarray,
                   bxi=None) -> np.ndarray:
    """Initial reduced states from u-hat(0, xi): u0hat (q, m) at xi (q, n) to (q, m^2).

    Time derivatives at t = 0 come from the equation D_t u-hat = A u-hat
    (see :func:`derivative_maps`), then component (i, j) is scaled by
    <xi>^{m-j}: entry (i - 1) m + (j - 1) of a state holds
    D_t^{j-1} <xi>^{m-j} u_i-hat.  ``bxi`` is ``brackets(xi)`` if the caller
    has it.  Each row is bitwise the state of its frequency alone.
    """
    m = symbol.m
    values = (brackets(xi) if bxi is None else np.asarray(bxi)).tolist()
    maps = derivative_maps(symbol, xi, np.array([0.0]), m - 1)
    V = np.zeros((len(values), m * m), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m + 1):
            scale = np.array([_power(b, m - j) for b in values])
            V[:, j - 1 :: m] = scale[:, None] * np.matvec(maps[j - 1][0], u0hat)
    if not np.isfinite(V).all():
        raise NumericError("the initial reduced states overflow")
    return V


def lift_trajectory(symbol: SystemSymbol, xi, ts, u_hat_traj: np.ndarray) -> np.ndarray:
    """Reduced states U(t_k) built from a u-hat trajectory, shape (N, m^2)."""
    ts = np.asarray(ts, dtype=float)
    traj = np.asarray(u_hat_traj, dtype=complex)
    m = symbol.m
    if traj.shape != (ts.size, m):
        raise DomainError(
            f"trajectory shape {traj.shape} does not match grid ({ts.size}, {m})"
        )
    bxi = bracket(xi)
    maps = derivative_maps(symbol, xi, ts, m - 1)
    U = np.zeros((ts.size, m * m), dtype=complex)
    for j in range(1, m + 1):
        dt_u = np.einsum("tij,tj->ti", maps[j - 1], traj)
        for i in range(m):
            U[:, i * m + (j - 1)] = bxi ** (m - j) * dt_u[:, i]
    return U


def reduction_residual(symbol: SystemSymbol, xi, t_grid, u_hat_traj) -> float:
    """Ground-truth check of the reduction against a direct trajectory.

    Builds U(t) from the u-hat trajectory, differentiates it in time with a
    five-point fourth-order stencil, and returns the largest value of
    ||D_t U - (calA + calB) U|| / (1 + ||U||) over the interior grid.  For a
    trajectory from a fourth-order integrator the residual decays at fourth
    order in the step.
    """
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 5:
        raise DomainError("need a 1-d time grid with at least 5 points")
    steps = np.diff(ts)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-15):
        raise DomainError("time grid must be uniform")
    U = lift_trajectory(symbol, xi, ts, u_hat_traj)
    # Fourth-order central difference; D_t = -i d/dt.
    dU = (U[:-4] - 8.0 * U[1:-3] + 8.0 * U[3:-1] - U[4:]) / (12.0 * h)
    DtU = -1j * dU
    calA, calB = assemble_path(symbol, xi, ts[2:-2])
    rhs = np.einsum("tij,tj->ti", calA + calB, U[2:-2])
    num = np.linalg.norm(DtU - rhs, axis=1)
    den = 1.0 + np.linalg.norm(U[2:-2], axis=1)
    return float((num / den).max())
