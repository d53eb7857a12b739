"""Block-Sylvester reduction of the first-order system.

The m x m system D_t u = A(t, D_x) u is turned into an m^2 x m^2 first-order
system D_t U = (calA + calB) U by applying the adjugate operator of
I D_t - A and stacking U_i = (D_t^{j-1} <D_x>^{m-j} u_i)_j per component.
calA is block diagonal with m identical companion blocks scaled by <xi>;
calB collects the lower-order terms that the reduction generates even for a
homogeneous system, one nonzero row per m-row band.  Where they overflow,
:meth:`PathAssembler.reduce` raises NumericError.

Every time derivative D_t^k A = (-i)^k d^k/dt^k A is exact: the symbol
stores polynomial coefficients, so the paths d^k/dt^k A, bold_A and every
product of the lower-order terms stay real, and the phase (-i)^k is applied
once, where a product becomes the real or the imaginary part of its term.
"""

from __future__ import annotations

from math import comb, gcd

import numpy as np

from hyposym.errors import DomainError, NumericError
from hyposym.symbols import (
    SystemSymbol,
    adjugate_coeffs,
    brackets,
    eval_symbol_path,
    faddeev_leverrier,
    time_derivative,
)


def _bold_B_terms(derivs: list, ts, xi) -> tuple:
    """(paths, c, bold_A, terms): the one producer of the reduction's blocks.

    ``paths[k]`` is d^k/dt^k A along ``ts`` at ``xi`` for the symbols
    ``derivs``, k < m; c are the characteristic coefficients of A = paths[0]
    by the real recursion and bold_A_0..bold_A_{m-1} its adjugate
    coefficients.  ``terms[l-1][hp]`` = comb(m-1-hp, l-1) bold_A_hp D_t^k A,
    k = m-l-hp, of degree hp + 1 in xi, sum to bold_B_l.  Each product is
    real; the phase (-i)^k puts it into the real or imaginary part, bitwise
    the complex product up to the sign of a zero.
    """
    paths = [eval_symbol_path(d, ts, xi) for d in derivs]
    c = faddeev_leverrier(paths[0])
    m = c.shape[-1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        boldA = adjugate_coeffs(paths[0], c)
        terms = [[comb(m - 1 - hp, l - 1) * (boldA[hp] @ paths[m - l - hp]) * (-1j) ** (m - l - hp)
                  for hp in range(m - l)] for l in range(1, m)]
    return paths, c, boldA, terms


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
        """(calA, b, c), each of leading shape (len(ts), ...), from one call of
        :func:`_bold_B_terms`: calA and c real, b the scaled calB entries of
        :meth:`entries`.  Raises NumericError at the first (t, xi) pair,
        frequency by frequency and then by time, whose companion block or b
        overflowed.
        """
        ts = np.atleast_1d(ts)
        m, bxi = self.m, self.bxi
        _, c, _, terms = _bold_B_terms(self.derivs, ts, self.xi)
        lead = c.shape[:-1]
        block = np.zeros(lead + (m, m))
        for j in range(m - 1):
            block[..., j, j + 1] = bxi
        with np.errstate(over="ignore", invalid="ignore"):
            for col in range(m):
                block[..., m - 1, col] = -c[..., m - col] * self.powers[col - m] * bxi
            b = self.entries([sum(t) for t in terms])
        bad = ~(np.isfinite(block).all(axis=(-2, -1)) & np.isfinite(b).all(axis=(-3, -2, -1)))
        if bad.any():
            *k, i = np.argwhere(np.moveaxis(bad, 0, -1))[0]
            raise NumericError(f"the reduction overflows at (t={float(ts[i])}, "
                               f"xi={self.xi[tuple(k)].tolist()})")
        calA = np.zeros(lead + (m * m, m * m))
        for i in range(m):
            calA[..., i * m : (i + 1) * m, i * m : (i + 1) * m] = block
        return calA, b, c

    def entries(self, boldB: list) -> np.ndarray:
        """b[..., l-1, :, :] = bold_B_l <xi>^(l-m) of [bold_B_1, ..., bold_B_{m-1}]
        at these frequencies; see :func:`lower_order_matrix`."""
        m = self.m
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([boldB[l - 1] * self.powers[l - m][..., None, None]
                             for l in range(1, m)], axis=-3)


# Rows per BLAS product of SeparablePath.apply.  On 2 cores, one OpenBLAS
# product over all 1,024 modes of an m = 3 solve ran multithreaded and
# doubled the solve's time (18.7 s against 9.5 s at grid 1,024); products of
# 256 rows stay single-threaded.
_BLAS_ROWS = 256


class SeparablePath:
    """i (calA + calB) of a one-dimensional symbol at a stack of frequencies, matrix-free.

    For n = 1, A(t, xi) = xi A_1(t), so c_k(t, xi) = xi^k c_k(t, 1), and
    term hp of bold_B_l (see :func:`_bold_B_terms`) is xi^(hp+1) times a
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
    The path holds the weights, the shift i <xi> of every entry of the
    flattened stack and the buffer of the weighted states, so :meth:`apply`
    allocates nothing.  Not bitwise :class:`PathAssembler`: xi^k FL(A_1)
    rounds differently from FL(xi A_1).
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
        rows = gcd(x.shape[0], _BLAS_ROWS)
        self.blocks = (x.shape[0] // rows, rows, m ** 3)
        self.weighted = np.empty(self.blocks, dtype=complex)
        # i <xi> of each state entry's mode, over the flattened stack but its
        # last entry; zero on the last entry of each row, whose product takes
        # Y[r+1, 0] and so can neither overflow nor hold a value that is read
        shift = np.repeat(1j * b, m * m, axis=1)
        shift[:, -1] = 0.0
        self.shift = shift.reshape(-1)[:-1]

    def last_rows(self, ts) -> np.ndarray:
        """The t-only stack L, shape (len(ts), m m^2, m).

        Row (p-1) m^2 + a, column i holds the coefficient of weight p on
        state entry a in the last row of band i, so the last rows at ts[k]
        are ``(weights * V[:, None, :]).reshape(q, -1) @ L[k]``.  c and the
        terms come from one call of :func:`_bold_B_terms` at xi = 1, so the
        companion entries are bitwise -c of :meth:`PathAssembler.reduce` there.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        m = self.m
        _, c, _, terms = _bold_B_terms(self.derivs, ts, np.ones(1))
        # L[t, p-1, band j, component, band i]
        L = np.zeros((ts.size, m, m, m, m), dtype=complex)
        band, col = np.arange(m)[:, None], np.arange(m)[None, :]
        L[:, m - 1 - col, band, col, band] = -c[:, None, :0:-1]
        for l, band_terms in enumerate(terms, start=1):
            for hp, term in enumerate(band_terms):
                L[:, hp, :, l - 1, :] = np.swapaxes(term, 1, 2)
        return L.reshape(ts.size, m ** 3, m)

    def apply(self, L, Y, out) -> np.ndarray:
        """i (calA + calB) Y into ``out`` for states Y (q, m^2), with L one time of
        :meth:`last_rows`; Y and out are C-contiguous and distinct.

        Allocates nothing.  The companion shift is one product over the
        flattened stack: its entry at the end of row r takes Y[r+1, 0] times
        zero, and lies in the last row of band m-1, which the last rows
        overwrite.  The weighted states go into a buffer of the path, and
        their product with L writes the last rows into ``out`` in place.
        Bitwise the same products formed row by row.
        """
        assert Y.flags.c_contiguous and out.flags.c_contiguous
        m = self.m
        np.multiply(self.shift, Y.reshape(-1)[1:], out.reshape(-1)[:-1])
        np.multiply(self.weights, Y[:, None, :], self.weighted.reshape(self.weights.shape))
        np.matmul(self.weighted, L, out.reshape(self.blocks[:2] + (m * m,))[..., m - 1 :: m])
        return out


def assemble_path(symbol: SystemSymbol, xi, ts) -> tuple:
    """Stacked (calA, calB) along a time grid, shapes (len(ts), m^2, m^2).

    calA is real block-companion; calB is complex.  A stack of frequencies
    goes through one :meth:`PathAssembler.reduce`; the building blocks bold_A
    and bold_B come from :func:`_bold_B_terms`.
    """
    calA, b, _ = PathAssembler(symbol, xi).reduce(ts)
    return calA, lower_order_matrix(b)


def _power(b: float, e: int) -> float:
    """``b ** e`` on Python floats, inf where it overflows instead of OverflowError."""
    try:
        return b ** e
    except OverflowError:
        return float("inf")


def lift_states(symbol: SystemSymbol, xi, ts, u, bxi=None) -> np.ndarray:
    """Reduced states of u-hat along ``ts``: u (len(ts), ..., m) at frequencies
    xi (..., n) to (len(ts), ..., m^2).

    The time derivatives come from the equation D_t u-hat = A u-hat: D_t^j
    u-hat = P_j u-hat by the Leibniz recursion P_0 = I,
    P_j = sum_l binom(j-1, l) (D_t^l A) P_{j-1-l}.  Entry (i - 1) m + (j - 1)
    of a state holds <xi>^{m-j} D_t^{j-1} u_i-hat.  ``bxi`` is
    ``brackets(xi)`` if the caller has it.  Each (t, xi) state is bitwise
    that of its frequency alone.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    u = np.asarray(u, dtype=complex)
    m = symbol.m
    lead = xi.shape[:-1]
    if u.shape != (ts.size,) + lead + (m,):
        raise DomainError(f"u-hat shape {u.shape} does not match the grid "
                          f"{(ts.size,) + lead + (m,)}")
    values = np.ravel(brackets(xi) if bxi is None else bxi).tolist()
    V = np.empty(u.shape[:-1] + (m * m,), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing symbol's inf entries
        dtA = [(-1j) ** k * eval_symbol_path(time_derivative(symbol, k), ts, xi).astype(complex)
               for k in range(m - 1)]
        maps = [np.broadcast_to(np.eye(m, dtype=complex), dtA[0].shape)]
        for j in range(1, m):
            acc = np.zeros(dtA[0].shape, dtype=complex)
            for l in range(j):
                acc += comb(j - 1, l) * (dtA[l] @ maps[j - 1 - l])
            maps.append(acc)
        for j in range(1, m + 1):
            scale = np.array([_power(b, m - j) for b in values]).reshape(lead)
            V[..., j - 1 :: m] = scale[..., None] * np.matvec(maps[j - 1], u)
    if not np.isfinite(V).all():
        raise NumericError("the lifted states of u-hat overflow")
    return V


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
    U = lift_states(symbol, xi, ts, u_hat_traj)
    # Fourth-order central difference; D_t = -i d/dt.
    dU = (U[:-4] - 8.0 * U[1:-3] + 8.0 * U[3:-1] - U[4:]) / (12.0 * h)
    DtU = -1j * dU
    calA, calB = assemble_path(symbol, xi, ts[2:-2])
    rhs = np.einsum("tij,tj->ti", calA + calB, U[2:-2])
    num = np.linalg.norm(DtU - rhs, axis=1)
    den = 1.0 + np.linalg.norm(U[2:-2], axis=1)
    return float((num / den).max())
