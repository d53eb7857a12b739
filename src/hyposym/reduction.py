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

from itertools import takewhile
from math import comb

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
    """(paths, c, terms): the one producer of the reduction's blocks.

    ``paths[k]`` is d^k/dt^k A along ``ts`` at ``xi`` for the symbols
    ``derivs`` of a :class:`PathAssembler`; c are the characteristic
    coefficients of A = paths[0] by the real recursion.  ``terms[l-1]``
    yields, once, (hp, term) for each term of bold_B_l whose path k exists,
    comb(m-1-hp, l-1) bold_A_hp D_t^k A, k = m-l-hp, of degree hp + 1 in xi,
    formed as it is taken, so a caller that sums them holds one at a time.
    bold_A_0..bold_A_{m-1}, the adjugate coefficients of A, are formed only
    where a path k >= 1 exists: without one no band has a term.  Each
    product is real; the phase (-i)^k puts it into the real or imaginary
    part, bitwise the complex product up to the sign of a zero.
    """
    paths = [eval_symbol_path(d, ts, xi) for d in derivs]
    c = faddeev_leverrier(paths[0])
    m = c.shape[-1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        boldA = adjugate_coeffs(paths[0], c) if len(paths) > 1 else None

    def band(l):
        for hp in range(max(0, m - l - len(paths) + 1), m - l):
            with np.errstate(over="ignore", invalid="ignore"):
                term = comb(m - 1 - hp, l - 1) * (boldA[hp] @ paths[m - l - hp]) * (-1j) ** (m - l - hp)
            yield hp, term
    return paths, c, [band(l) for l in range(1, m)]


def block_sylvester(block, b) -> tuple:
    """Dense (calA, calB), (..., m^2, m^2), of the companion block (..., m, m) and
    calB entries b (..., m-1, m, m) of :meth:`PathAssembler.reduce`: calA holds m
    copies of ``block`` on its diagonal, and b[..., l-1, i, j] is calB's entry at
    row i*m + m-1, column j*m + l-1 (zero-based); every other entry is zero."""
    m = block.shape[-1]
    calA = np.zeros(block.shape[:-2] + (m * m, m * m))
    for i in range(m):
        calA[..., i * m : (i + 1) * m, i * m : (i + 1) * m] = block
    calB = np.zeros(b.shape[:-3] + (m, m, m, m), dtype=complex)
    calB[..., :, m - 1, :, : m - 1] = np.moveaxis(b, -3, -1)
    return calA, calB.reshape(b.shape[:-3] + (m * m, m * m))


def band_rows(block, b) -> np.ndarray:
    """Rows m-1, 2m-1, ... of i (calA + calB), (..., m, m^2), bitwise those of
    ``1j * np.add(*block_sylvester(block, b))``, from the same arguments."""
    m = block.shape[-1]
    rows = np.zeros(b.shape[:-3] + (m, m, m), dtype=complex)   # [band, band, component]
    rows[..., : m - 1] = np.moveaxis(b, -3, -1)
    diagonal = (..., range(m), range(m), slice(None))
    calA = rows[diagonal] + block[..., None, m - 1, :]   # calA's rows, each added once
    np.multiply(1j, np.add(rows, 0.0, out=rows), out=rows)   # calA's zeros: 0.0 + (-0.0) is +0.0
    rows[diagonal] = 1j * calA
    return rows.reshape(rows.shape[:-2] + (m * m,))


class PathAssembler:
    """The reduction of one symbol at a stack of frequencies, on any time grid.

    ``xi`` has shape (n,) or (..., n).  The assembler owns the reduction's
    inputs, built once for every time window: ``derivs``, the symbols
    d^k/dt^k A, k < m, up to the first that is zero (so is every higher one);
    ``bxi`` = <xi>; and ``powers[e]`` = <xi>^e, e = -m..m-1, per frequency as
    Python floats (numpy's array power is not bitwise ``float ** e``), inf
    where a positive power overflows.  A missing path's terms of bold_B and
    of the Leibniz maps would be +-0 where finite, and each sum they would
    join starts at +0.0, which adding +-0 keeps, so leaving them out is
    bitwise the full table.  Every (t, xi) entry of a stacked result is
    bitwise that of the frequency alone.
    """

    def __init__(self, symbol: SystemSymbol, xi):
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        m = symbol.m
        self.m = m
        self.xi = xi
        derivs = (time_derivative(symbol, k) for k in range(1, m))
        self.derivs = [symbol, *takewhile(lambda d: d.coeffs.any(), derivs)]
        self.bxi = brackets(xi)
        values, self.powers = self.bxi.ravel().tolist(), {}
        for e in range(-m, m):
            row = []
            for b in values:
                try:
                    row.append(b ** e)
                except OverflowError:
                    row.append(float("inf"))
            self.powers[e] = np.array(row).reshape(xi.shape[:-1])

    def reduce(self, ts) -> tuple:
        """(block, b, c), each of leading shape (len(ts), ...), from one call of
        :func:`_bold_B_terms`: the companion block (..., m, m) of calA and c
        real, b the scaled calB entries of :meth:`entries`; see
        :func:`block_sylvester`.  Without a path k >= 1 (a constant symbol) no
        band of calB has a term, and b is a read-only broadcast zero.  Raises
        NumericError at the first (t, xi) pair, frequency by frequency and
        then by time, whose companion block or b overflowed.
        """
        ts = np.atleast_1d(ts)
        m, bxi = self.m, self.bxi
        _, c, terms = _bold_B_terms(self.derivs, ts, self.xi)
        block = np.zeros(c.shape[:-1] + (m, m))
        for j in range(m - 1):
            block[..., j, j + 1] = bxi
        # Each bold_B_l is summed and scaled in place as its terms are formed:
        # bitwise :meth:`entries` of the summed bands, without their stacks.
        # Without a path k >= 1 each entry would be 0.0 <xi>^(l-m): +0.0, finite.
        shape, variable = c.shape[:-1] + (m - 1, m, m), len(self.derivs) > 1
        b = np.zeros(shape, dtype=complex) if variable else np.broadcast_to(0j, shape)
        with np.errstate(over="ignore", invalid="ignore"):
            for col in range(m):
                block[..., m - 1, col] = -c[..., m - col] * self.powers[col - m] * bxi
            for l, band in enumerate(terms if variable else (), start=1):
                bl = b[..., l - 1, :, :]
                for _, term in band:
                    bl += term
                    del term   # the band's last, freed before the next band forms its first
                bl *= self.powers[l - m][..., None, None]
        bad = ~np.isfinite(block).all(axis=(-2, -1))
        if variable:
            bad |= ~np.isfinite(b).all(axis=(-3, -2, -1))
        if bad.any():
            *k, i = np.argwhere(np.moveaxis(bad, 0, -1))[0]
            raise NumericError(f"the reduction overflows at (t={float(ts[i])}, "
                               f"xi={self.xi[tuple(k)].tolist()})")
        return block, b, c

    def entries(self, boldB: list) -> np.ndarray:
        """b[..., l-1, :, :] = bold_B_l <xi>^(l-m) of [bold_B_1, ..., bold_B_{m-1}]
        at these frequencies; see :func:`block_sylvester`."""
        m = self.m
        with np.errstate(over="ignore", invalid="ignore"):
            return np.stack([boldB[l - 1] * self.powers[l - m][..., None, None]
                             for l in range(1, m)], axis=-3)

    def lift(self, ts, u) -> np.ndarray:
        """Reduced states of u-hat along ``ts``: u (len(ts), ..., m) at these
        frequencies to (len(ts), ..., m^2).

        The time derivatives come from the equation D_t u-hat = A u-hat: D_t^j
        u-hat = P_j u-hat by the Leibniz recursion P_0 = I,
        P_j = sum_l binom(j-1, l) (D_t^l A) P_{j-1-l}, over the paths l that
        exist.  Entry (i - 1) m + (j - 1) of a state holds <xi>^{m-j} D_t^{j-1}
        u_i-hat.  Each (t, xi) state is bitwise that of its frequency alone.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        u, m = np.asarray(u, dtype=complex), self.m
        grid = (ts.size,) + self.xi.shape[:-1] + (m,)
        if u.shape != grid:
            raise DomainError(f"u-hat shape {u.shape} does not match the grid {grid}")
        V = np.empty(u.shape[:-1] + (m * m,), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing symbol's inf entries
            dtA = [(-1j) ** k * eval_symbol_path(d, ts, self.xi).astype(complex)
                   for k, d in enumerate(self.derivs[: m - 1])]
            maps = [np.broadcast_to(np.eye(m, dtype=complex), dtA[0].shape)]
            for j in range(1, m):
                acc = np.zeros(dtA[0].shape, dtype=complex)
                for l in range(min(j, len(dtA))):
                    acc += comb(j - 1, l) * (dtA[l] @ maps[j - 1 - l])
                maps.append(acc)
            for j in range(1, m + 1):
                V[..., j - 1 :: m] = self.powers[m - j][..., None] * np.matvec(maps[j - 1], u)
        if not np.isfinite(V).all():
            raise NumericError("the lifted states of u-hat overflow")
        return V


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
    Each coefficient of power p on component c carries the phase
    (-i)^(m-c-p), so the stack is real once the i of the odd phases moves
    into the weights.  States are stored mode-last, (m^2, q): every product
    runs over rows of the q modes.  The path holds the weights, the shift
    i <xi> of each mode and the buffer of the weighted states, so the
    right-hand sides of :meth:`bind` allocate nothing.  It takes the
    derivative symbols, the frequencies and <xi> of ``assembler``.  Not
    bitwise :meth:`PathAssembler.reduce`: xi^k FL(A_1) rounds differently
    from FL(xi A_1).
    """

    def __init__(self, assembler: PathAssembler):
        if assembler.derivs[0].n != 1:
            raise DomainError("the separable reduction is one-dimensional (n = 1)")
        m = assembler.m
        x = assembler.xi.reshape(1, 1, -1)
        b = assembler.bxi.reshape(1, 1, -1)
        self.m = m
        self.derivs = assembler.derivs
        power = np.arange(1, m + 1)[:, None, None]
        component = np.tile(np.arange(m), m)[None, :, None]
        # weights[p-1, a, r] = i xi^p <xi>^(c+1-m), times i where m-c-p is odd,
        # c the component of state entry a and r the mode
        phase = np.where((m - component - power) % 2, -1.0 + 0j, 1j)
        self.weights = (x ** power) * (b ** (component + 1 - m)) * phase
        self.weighted = np.empty(self.weights.shape, dtype=complex)
        self.shift = 1j * b.reshape(-1)

    def last_rows(self, ts) -> np.ndarray:
        """The real t-only stack L, shape (len(ts), m, m m^2).

        Row i, column (p-1) m^2 + a holds the coefficient of weight p on
        state entry a in the last row of band i, its phase (-i)^k, k =
        m-c-p, taken as the real part for even k and the imaginary part for
        odd k; so the last rows at ts[k] are ``L[k] @ W`` with W the weighted
        states (m m^2, q) as floats (m m^2, 2q).  c and the terms come from
        one call of :func:`_bold_B_terms` at xi = 1, so the companion
        entries are bitwise -c of :meth:`PathAssembler.reduce` there.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        m = self.m
        _, c, terms = _bold_B_terms(self.derivs, ts, np.ones(1))
        # L[t, band i, p-1, band j, component]
        L = np.zeros((ts.size, m, m, m, m))
        band, col = np.arange(m)[:, None], np.arange(m)[None, :]
        L[:, band, m - 1 - col, band, col] = -c[:, None, :0:-1]
        for l, band_terms in enumerate(terms, start=1):
            for hp, term in band_terms:
                part = term.imag if (m - l - hp) % 2 else term.real
                L[:, :, hp, :, l - 1] = part
        return L.reshape(ts.size, m, m ** 3)

    def bind(self, stages):
        """f(L, i): i (calA + calB) Y into ``out`` for (Y, out) = ``stages[i]``,
        L one time of :meth:`last_rows`; ValueError here unless each pair is two
        distinct C-contiguous complex (m^2, q) arrays.  The views are built here,
        once per pair, so f allocates nothing: the shift is one product of rows
        1.. of Y into rows ..m^2-2 of ``out``, and the weighted states, in a
        buffer of the path, times L overwrite the last row of each band as one
        real product.
        """
        m, q = self.m, self.shift.size
        shape, views = (m * m, q), []
        for Y, out in stages:
            if np.may_share_memory(Y, out) or any(a.shape != shape or a.dtype != complex
                                                  or not a.flags.c_contiguous for a in (Y, out)):
                raise ValueError(f"stages must be distinct C-contiguous complex {shape} arrays")
            views.append((Y[1:], out[:-1], Y[None], out.view(float)[m - 1 :: m]))
        weighted = self.weighted.view(float).reshape(m ** 3, 2 * q)

        def f(L, i):
            y, o, states, last = views[i]
            np.multiply(self.shift, y, o)
            np.multiply(self.weights, states, self.weighted)
            np.matmul(L, weighted, last)
        return f


def assemble_path(symbol: SystemSymbol, xi, ts) -> tuple:
    """Stacked (calA, calB) along a time grid, shapes (len(ts), m^2, m^2).

    calA is real block-companion; calB is complex.  A stack of frequencies
    goes through one :meth:`PathAssembler.reduce`; the building blocks bold_A
    and bold_B come from :func:`_bold_B_terms`.
    """
    block, b, _ = PathAssembler(symbol, xi).reduce(ts)
    return block_sylvester(block, b)


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
    assembler = PathAssembler(symbol, xi)
    U = assembler.lift(ts, u_hat_traj)
    # Fourth-order central difference; D_t = -i d/dt.
    dU = (U[:-4] - 8.0 * U[1:-3] + 8.0 * U[3:-1] - U[4:]) / (12.0 * h)
    DtU = -1j * dU
    calA, calB = block_sylvester(*assembler.reduce(ts[2:-2])[:2])
    rhs = np.einsum("tij,tj->ti", calA + calB, U[2:-2])
    num = np.linalg.norm(DtU - rhs, axis=1)
    den = 1.0 + np.linalg.norm(U[2:-2], axis=1)
    return float((num / den).max())
