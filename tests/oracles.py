"""Reference implementations and one-point paths that tests check against.

None is on a path of the package: the kernels in ``src/`` work on the m x m
blocks and the W rows directly, stacked over (t, xi).  The characteristic
coefficients with their eigenvalue cross-check, the Cayley-Hamilton residual
and the near-diagonality constant work at one point or on one matrix.  The
lower-order terms of the reduction are formed here in complex arithmetic,
from the phased paths (-i)^k d^k/dt^k A.  The lockstep RK4 and the
separable right-hand side allocate their stages and products, as they did
before they were written in place.  The constant-coefficient RK4 solve
keeps its propagator on the dense m^2 x m^2 reduced matrices, and its
chain of propagator powers from one recorded step to the next.  The lifting
of u-hat to reduced states keeps its two earlier forms: at t = 0 with
``np.matvec`` and along a trajectory with ``np.einsum``.  The inline
companion systems with a double zero eigenvalue at t = 0, and constant ones,
are shared by several test modules.  The full-table assembler keeps every
derivative path d^k/dt^k A, k < m, the identically zero ones too.  The
conditions grid's ``GridData`` of the whole grid is its time blocks joined.
The memory bounds of the tests read one call's tracemalloc peak.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from hyposym.conditions import GridData, _grid_blocks
from hyposym.energy import _renormalize_rows
from hyposym.errors import ConsistencyError, DomainError, NumericError
from hyposym.pencils import hermitian_part
from hyposym.reduction import PathAssembler
from hyposym.symbols import (
    SystemSymbol,
    adjugate_coeffs,
    bracket,
    brackets,
    deleted_sigmas,
    eval_symbol_path,
    faddeev_leverrier,
    matrix_powers,
    time_derivative,
)

# Relative tolerance for the Faddeev-LeVerrier vs. eigenvalue cross-check of
# the characteristic coefficients.  Double-precision trace recursion loses
# roughly m digits, so 1e-8 is comfortable for m <= 6.
CHAR_XCHECK_TOL = 1e-8


def companion_symbol(last_row, horizon=1.0):
    """1-d symbol whose matrix is the companion matrix with the polynomials in
    t of ``last_row`` (coefficient lists, lowest degree first) as last row."""
    m = len(last_row)
    coeffs = np.zeros((1, m, m, max(map(len, last_row))))
    for i in range(m - 1):
        coeffs[0, i, i + 1, 0] = 1.0
    for j, poly in enumerate(last_row):
        coeffs[0, m - 1, j, : len(poly)] = poly
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


# Eigenvalues +-2 and +-t (a double zero at t = 0): the inline system of the
# report-m4 benchmark.  The m = 6 system adds the pair +-1.
M4_DOUBLE_ZERO = companion_symbol([[0.0, 0.0, -4.0], [0.0], [4.0, 0.0, 1.0], [0.0]])
M6_DOUBLE_ZERO = companion_symbol([[0.0, 0.0, 4.0], [0.0], [-4.0, 0.0, -5.0], [0.0],
                                   [5.0, 0.0, 1.0], [0.0]])

# Constant companion systems by order: eigenvalues 0 and +-1 at m = 3,
# +-1 and +-2 at m = 4, and +-1, +-2 and +-3 at m = 6.
CONSTANT_COMPANIONS = {
    3: companion_symbol([[0.0], [1.0], [0.0]]),
    4: companion_symbol([[-4.0], [0.0], [5.0], [0.0]]),
    6: companion_symbol([[36.0], [0.0], [-49.0], [0.0], [14.0], [0.0]]),
}


def lift_blocks(block: np.ndarray) -> np.ndarray:
    """Block-diagonal lifting with m identical copies of an m x m block.

    Works on stacks: shape (..., m, m) to (..., m^2, m^2).
    """
    block = np.asarray(block)
    return np.kron(np.eye(block.shape[-1], dtype=block.dtype), block)


def full_table(symbol: SystemSymbol, xi) -> PathAssembler:
    """``PathAssembler(symbol, xi)`` with every derivative symbol d^k/dt^k A,
    k < m, in its table, zero ones too, so that its reduce, lift, separable
    last rows and evaluate_grid form every path and every term."""
    assembler = PathAssembler(symbol, xi)
    assembler.derivs = [time_derivative(symbol, k) for k in range(symbol.m)]
    return assembler


def grid_data(symbol: SystemSymbol, grid) -> GridData:
    """GridData of the whole sampling grid: the time blocks that
    ``run_conditions`` evaluates one at a time, joined along t."""
    blocks = [data for _, data in _grid_blocks(symbol, grid)]

    def joined(name):
        return np.concatenate([getattr(data, name) for data in blocks])

    return GridData(lambdas=joined("lambdas"),
                    nonhyperbolic=sum(data.nonhyperbolic for data in blocks),
                    deleted_sigmas=joined("deleted_sigmas"), b_entries=joined("b_entries"),
                    dtA0_norms=joined("dtA0_norms"))


def difference_identity_residual_of(lambdas) -> float:
    """Max relative residual of the deleted-variable difference identity.

    For every pair i != j and 1 <= k <= m-1:
    sigma_{m-k}(pi_i l) - sigma_{m-k}(pi_j l)
        = (-1)^{m-k} (l_j - l_i) * sum of products over (m-k-1)-subsets
          avoiding i and j.
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    m = lam.size
    worst = 0.0
    W = deleted_sigmas(lam)   # W[i, k-1] = sigma_{m-k}(pi_i l)
    for k in range(1, m):
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                lhs = W[i, k - 1] - W[j, k - 1]
                rest = [idx for idx in range(m) if idx not in (i, j)]
                ssum = sum(
                    float(np.prod(lam[list(sub)]))
                    for sub in combinations(rest, m - k - 1)
                )
                rhs = (-1.0) ** (m - k) * (lam[j] - lam[i]) * ssum
                scale = 1.0 + max(abs(lhs), abs(rhs))
                worst = max(worst, abs(lhs - rhs) / scale)
    return worst


@dataclass(frozen=True)
class CharCoeffs:
    """Characteristic coefficients c_0..c_m of A(t, xi), c_0 = 1.

    c_h is a homogeneous polynomial of degree h in xi (``degrees`` records
    this); c_1 = -tr A and c_m = (-1)^m det A.  ``xcheck_residual`` is the
    relative disagreement between the trace recursion and the elementary
    symmetric polynomials of the eigenvalues.
    """

    c: np.ndarray
    xcheck_residual: float
    degrees: tuple = field(default=())

    def __post_init__(self):
        if not self.degrees:
            object.__setattr__(self, "degrees", tuple(range(len(self.c))))


def char_coeffs(symbol: SystemSymbol, t: float, xi) -> CharCoeffs:
    """Characteristic coefficients of the unrescaled symbol A(t, xi).

    Computed by the Faddeev-LeVerrier recursion and cross-checked against the
    elementary symmetric polynomials of the eigenvalues of A(t, xi); the two
    must agree to CHAR_XCHECK_TOL relative or a ConsistencyError is raised.
    """
    A = eval_symbol_path(symbol, [t], xi)[0]
    c = faddeev_leverrier(A).real
    # Independent route: general eigensolver on A, then signed symmetric sums.
    try:
        eigs = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed at (t={t}, xi={xi}): {exc}") from exc
    m = symbol.m
    # Vieta: prod (tau - mu_i) expanded by convolution, complex-safe.
    poly = np.ones(1, dtype=complex)
    for mu in eigs:
        poly = np.convolve(poly, np.array([1.0, -mu]))
    scale = 1.0 + np.abs(c).max()
    residual = float(np.abs(c - poly.real).max() / scale)
    residual = max(residual, float(np.abs(poly.imag).max() / scale))
    if residual > CHAR_XCHECK_TOL:
        raise ConsistencyError(
            f"characteristic-coefficient cross-check failed at (t={t}, xi={xi}): "
            f"relative residual {residual:.3e} > {CHAR_XCHECK_TOL:.1e}"
        )
    return CharCoeffs(c=c, xcheck_residual=residual, degrees=tuple(range(m + 1)))


def cayley_hamilton_residual(symbol: SystemSymbol, t: float, xi) -> float:
    """Frobenius norm of sum_h c_h A^{m-h}, normalised by ||A||_F^m + 1."""
    A = eval_symbol_path(symbol, [t], xi)[0]
    c = faddeev_leverrier(A).real
    m = symbol.m
    powers = matrix_powers(A, m)
    acc = np.zeros_like(A)
    for h in range(m + 1):
        acc += c[h] * powers[m - h]
    return float(np.linalg.norm(acc) / (np.linalg.norm(A) ** m + 1.0))


def near_diagonal_constant(Q: np.ndarray) -> float:
    """Largest c0 with Q >= c0 diag(Q): the minimal eigenvalue of (Q, diag Q)."""
    Q = np.asarray(Q)
    d = np.diag(Q).real
    if np.any(d <= 0.0):
        raise DomainError("near-diagonality needs strictly positive diagonal entries")
    scale = 1.0 / np.sqrt(d)
    white = scale[:, None] * Q * scale[None, :]
    return float(np.linalg.eigvalsh(hermitian_part(white))[0])


def deriv_paths(derivs: list, ts: np.ndarray, xi) -> list:
    """(-i)^k d^k/dt^k A(t, xi) for the k-th symbol of ``derivs`` = [d^k/dt^k A]."""
    with np.errstate(invalid="ignore"):  # inf entries of an overflowing symbol
        return [(-1j) ** k * eval_symbol_path(d, ts, xi).astype(complex)
                for k, d in enumerate(derivs)]


def bold_B_terms(c: np.ndarray, dtA: list) -> tuple:
    """bold_A_0..bold_A_{m-1} of A = dtA[0] with char. coefficients c, and the
    terms ``terms[l-1][hp]`` = comb(m-1-hp, l-1) bold_A_hp D_t^(m-l-hp) A of
    bold_B_l, all in complex arithmetic."""
    m = dtA[0].shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        boldA = adjugate_coeffs(dtA[0], c)
        terms = [[comb(m - 1 - hp, l - 1) * (boldA[hp] @ dtA[m - l - hp]) for hp in range(m - l)]
                 for l in range(1, m)]
    return boldA, terms


def reduce_reference(symbol: SystemSymbol, xi, ts) -> tuple:
    """(block, b, c) of ``PathAssembler(symbol, xi).reduce(ts)``, with the calB
    entries b from the complex terms of :func:`bold_B_terms`."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    m = symbol.m
    bxi = brackets(xi)
    powers = {e: np.array([b ** e for b in bxi.ravel().tolist()]).reshape(bxi.shape)
              for e in range(-m, 0)}
    derivs = [time_derivative(symbol, k) for k in range(m)]
    A = eval_symbol_path(derivs[0], ts, xi)
    c = faddeev_leverrier(A)
    block = np.zeros(A.shape)
    for j in range(m - 1):
        block[..., j, j + 1] = bxi
    with np.errstate(over="ignore", invalid="ignore"):
        for col in range(m):
            block[..., m - 1, col] = -c[..., m - col] * powers[col - m] * bxi
        _, terms = bold_B_terms(c, deriv_paths(derivs, ts, xi))
        b = np.stack([sum(t) * powers[l - m][..., None, None] for l, t in enumerate(terms, 1)],
                     axis=-3)
    return block, b, c


def last_rows_reference(symbol: SystemSymbol, ts) -> np.ndarray:
    """The complex t-only stack of the mode-major separable apply, shape
    (len(ts), m m^2, m), from the complex paths and terms at xi = 1 and the
    real recursion's coefficients: row (p-1) m^2 + a, column i holds the
    coefficient of weight p on state entry a in the last row of band i;
    :func:`phase_folded` turns it into ``SeparablePath.last_rows(ts)``."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    m = symbol.m
    dtA = deriv_paths([time_derivative(symbol, k) for k in range(m)], ts, np.ones(1))
    c = faddeev_leverrier(dtA[0].real)
    L = np.zeros((ts.size, m, m, m, m), dtype=complex)
    band, col = np.arange(m)[:, None], np.arange(m)[None, :]
    L[:, m - 1 - col, band, col, band] = -c[:, None, :0:-1]
    for l, terms in enumerate(bold_B_terms(c, dtA)[1], start=1):
        for hp, term in enumerate(terms):
            L[:, hp, :, l - 1, :] = np.swapaxes(term, 1, 2)
    return L.reshape(ts.size, m ** 3, m)


def phase_folded(L: np.ndarray) -> np.ndarray:
    """The complex stack of :func:`last_rows_reference` (T, m m^2, m) as the
    real (T, m, m m^2) of ``SeparablePath.last_rows``: the coefficient of
    power p on component c carries the phase (-i)^(m-c-p), so each row keeps
    its real part where m-c-p is even and its imaginary part where it is odd."""
    m = L.shape[-1]
    power = np.arange(1, m + 1)[:, None, None]
    component = np.arange(m)[None, None, :]
    odd = np.broadcast_to((m - component - power) % 2 == 1, (m, m, m)).reshape(-1)
    return np.swapaxes(np.where(odd[:, None], L.imag, L.real), 1, 2)


def derivative_maps(symbol: SystemSymbol, xi, ts, top: int) -> list:
    """Matrices P_j(t), j = 0..top, with D_t^j u-hat = P_j u-hat along exact
    solutions, from P_0 = I, P_j = sum_l binom(j-1, l) (D_t^l A) P_{j-1-l};
    each of shape (len(ts), ..., m, m) for frequencies xi (..., n)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        dtA = [(-1j) ** k * eval_symbol_path(time_derivative(symbol, k), ts, xi).astype(complex)
               for k in range(max(top - 1, 0) + 1)]
        maps = [np.broadcast_to(np.eye(symbol.m, dtype=complex), dtA[0].shape).copy()]
        for j in range(1, top + 1):
            acc = np.zeros(dtA[0].shape, dtype=complex)
            for l in range(j):
                acc += comb(j - 1, l) * (dtA[l] @ maps[j - 1 - l])
            maps.append(acc)
    return maps


def initial_states(symbol: SystemSymbol, u0hat: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Reduced states of u-hat(0, xi): u0hat (q, m) at xi (q, n) to (q, m^2),
    each band component scaled by <xi>^{m-j} after one ``np.matvec``."""
    m = symbol.m
    values = brackets(xi).tolist()
    maps = derivative_maps(symbol, xi, np.array([0.0]), m - 1)
    V = np.zeros((len(values), m * m), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m + 1):
            scale = np.array([b ** (m - j) for b in values])
            V[:, j - 1 :: m] = scale[:, None] * np.matvec(maps[j - 1][0], u0hat)
    return V


def lift_trajectory(symbol: SystemSymbol, xi, ts, u_hat_traj: np.ndarray) -> np.ndarray:
    """Reduced states U(t_k) of a u-hat trajectory (N, m) at one frequency,
    shape (N, m^2), the derivative maps applied by ``np.einsum``."""
    ts = np.asarray(ts, dtype=float)
    traj = np.asarray(u_hat_traj, dtype=complex)
    m = symbol.m
    bxi = bracket(xi)
    maps = derivative_maps(symbol, xi, ts, m - 1)
    U = np.zeros((ts.size, m * m), dtype=complex)
    for j in range(1, m + 1):
        dt_u = np.einsum("tij,tj->ti", maps[j - 1], traj)
        for i in range(m):
            U[:, i * m + (j - 1)] = bxi ** (m - j) * dt_u[:, i]
    return U


def lockstep_rk4_reference(window, width, Y0, N, h, record, renormalize=False, after=None,
                           where=""):
    """``hyposym.energy._lockstep_rk4`` with a fresh array for every stage, every
    temporary and every state: each stage binds ``window(k0, k1)`` to a table
    of one new pair (Y, out), Y + (h / 6) (s1 + 2 s2 + 2 s3 + s4) is one
    expression, and ``after`` receives the window's states and log scales
    stacked from lists."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, N, width):
            k1 = min(k0 + width, N)
            bind = window(k0, k1)
            states, state_logs = [Y], [acc.copy()]

            def g(j, Y):
                out = np.empty_like(Y)
                bind(((Y, out),))(j, 0)
                return out

            for k in range(k0, k1):
                j = 2 * (k - k0)
                s1 = g(j, Y)
                s2 = g(j + 1, Y + (0.5 * h) * s1)
                s3 = g(j + 1, Y + (0.5 * h) * s2)
                s4 = g(j + 2, Y + h * s3)
                Y = Y + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
                if renormalize and not _renormalize_rows(Y, acc):
                    raise NumericError(f"a state overflows at step {k + 1} of {N}{where}")
                states.append(Y)
                state_logs.append(acc.copy())
                if slot < len(record) and record[slot] == k + 1:
                    out[slot] = Y
                    logs[slot] = acc
                    slot += 1
            if not np.isfinite(Y).all():
                raise NumericError(f"non-finite state by step {k1} of {N}{where}")
            if after is not None:
                after(k0, k1, np.array(states), np.array(state_logs))
    return out, logs


def separable_apply(path, L, Y, out) -> np.ndarray:
    """i (calA + calB) Y into ``out`` by one call of ``path.bind(((Y, out),))``;
    Y and out mode-last, (m^2, q)."""
    path.bind(((Y, out),))(L, 0)
    return out


def separable_apply_reference(path, L, Y, bxi) -> np.ndarray:
    """:func:`separable_apply` into a new array: the shift i <xi> row by row,
    the weighted states and the last rows each a new product.  ``bxi`` holds
    the brackets the path was built with."""
    m, q = path.m, Y.shape[1]
    out = np.empty(Y.shape, dtype=complex)
    np.multiply(1j * np.ravel(bxi), Y[1:], out=out[:-1])
    weighted = np.ascontiguousarray(path.weights * Y[None]).view(float).reshape(m ** 3, 2 * q)
    out.view(float)[m - 1 :: m] = L @ weighted
    return out


def mode_major_apply(xi, bxi, L, Y) -> np.ndarray:
    """The separable i (calA + calB) Y on states stored mode-major, Y (q, m^2),
    in complex arithmetic: the shift i <xi> on each state's next entry, then
    the weighted states (q, m m^2), weight p on entry a being
    i xi^p <xi>^(c+1-m) with c the entry's component, times one time of
    :func:`last_rows_reference` into the last row of each band."""
    q, d = Y.shape
    m = L.shape[-1]
    x = np.reshape(xi, (-1, 1))
    b = np.reshape(bxi, (-1, 1))
    component = np.tile(np.arange(m), m)
    weights = 1j * (x ** np.arange(1, m + 1))[:, :, None] * (b ** (component + 1 - m))[:, None, :]
    out = np.empty_like(Y)
    np.multiply(1j * b, Y[:, 1:], out=out[:, :-1])
    out[:, m - 1 :: m] = (weights * Y[:, None, :]).reshape(q, m * d) @ L
    return out


def _stability_polynomial(M, h):
    """R(hM) = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24 of matrices M (q, d, d)."""
    eye = np.eye(M.shape[-1])
    Z = h * M
    return eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)


def rk4_propagate_dense(M, Y0, N, h, record) -> np.ndarray:
    """The constant-coefficient propagator on the dense reduced matrices M (q,
    d, d) and states Y0 (q, d), with numpy ``matmul`` and ``matvec`` on the
    stacks: the sweep of ``hyposym.energy._rk4_propagate`` over the bits of the
    recorded steps, one square held at a time, each recorded state taken by
    the squares of its set bits.  Returns (len(record), q, d)."""
    Y0 = np.array(Y0, dtype=complex)
    live = Y0.any(axis=1, keepdims=True)
    at = dict.fromkeys(sorted(set(int(k) for k in record) | {N}), Y0)
    with np.errstate(over="ignore", invalid="ignore"):
        R = _stability_polynomial(M, h)
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


def rk4_propagate_reference(M, Y0, N, h, record) -> np.ndarray:
    """:func:`rk4_propagate_dense` as a chain of jumps: the state moves
    from one recorded step to the next, and on to N, by
    ``np.linalg.matrix_power(R(hM), delta)``, and fails at the first stop
    whose state is not finite."""
    Y = np.array(Y0, dtype=complex)
    live = Y.any(axis=1, keepdims=True)
    stops = sorted(set(int(k) for k in record if k > 0) | {N})
    at = {0: Y}
    with np.errstate(over="ignore", invalid="ignore"):
        R = _stability_polynomial(M, h)
        for k, delta in zip(stops, np.diff([0] + stops).tolist()):
            Y = np.where(live, np.matvec(np.linalg.matrix_power(R, delta), Y), 0)
            if not np.isfinite(Y).all():
                raise NumericError(f"non-finite state by step {k} of {N}")
            at[k] = Y
    return np.array([at[int(k)] for k in record]).reshape((len(record),) + Y.shape)


def traced_peak(fn, *args) -> tuple:
    """(fn(*args), bytes): the call's result and its tracemalloc peak above
    the memory traced when it starts."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
