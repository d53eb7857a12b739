"""Exact and numeric algebra on the matrix symbol A(t, xi).

A system is described by its first-order symbol

    A(t, xi) = sum_p A_p(t) * xi_p,

where each A_p(t) is an m x m matrix of univariate real polynomials in t.
The polynomial representation keeps every time derivative exact, which the
block-Sylvester reduction needs up to order m - 1.

Characteristic coefficients are computed with the Faddeev-LeVerrier trace
recursion; eigenvalues are the eigenvalues of the companion matrix of the
characteristic polynomial, stacked over (t, xi) and solved by one
``numpy.linalg.eigvals`` call per count of exact trailing zero
coefficients.  Deflating those zeros first, as ``numpy.roots`` does, keeps
structural zero roots exact, and the companion route keeps coalescing spectra
far more accurate than running a general eigensolver on A itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hyposym.errors import CapabilityError, DomainError, NumericError

MAX_DIMENSION = 6


def bracket(xi) -> float:
    """Japanese bracket <xi> = sqrt(1 + |xi|^2); total, <0> = 1, and inf
    where |xi|^2 overflows."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    with np.errstate(over="ignore"):
        return float(np.sqrt(1.0 + np.dot(xi, xi)))


def brackets(xi) -> np.ndarray:
    """<xi> of every frequency of a stack (..., n), shape (...); each is ``bracket(row)``."""
    xi = np.asarray(xi, dtype=float)
    return np.array([bracket(row) for row in xi.reshape(-1, xi.shape[-1])]).reshape(xi.shape[:-1])


@dataclass(frozen=True)
class SystemSymbol:
    """First-order m x m symbol with polynomial time coefficients.

    Parameters
    ----------
    coeffs : ndarray, shape (n, m, m, d)
        ``coeffs[p, i, j]`` holds the ascending-degree coefficients of the
        polynomial entry a_{ij,p}(t) multiplying frequency component xi_p.
    horizon : float
        Final time T > 0; all evaluations require 0 <= t <= T.
    """

    coeffs: np.ndarray
    horizon: float

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 4 or arr.shape[1] != arr.shape[2]:
            raise DomainError(
                f"coeffs must have shape (n, m, m, degree+1), got {arr.shape}"
            )
        if arr.shape[3] == 0:
            arr = np.zeros(arr.shape[:3] + (1,))
        m = arr.shape[1]
        if not 2 <= m <= MAX_DIMENSION:
            raise CapabilityError(f"matrix dimension m={m} outside [2, {MAX_DIMENSION}]")
        if not np.isfinite(arr).all():
            raise DomainError("polynomial coefficients must be finite")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise DomainError(f"horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "coeffs", arr)

    @property
    def m(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[3] - 1

    def is_constant(self) -> bool:
        """True when every entry is constant in t (all lower-order terms vanish)."""
        return self.coeffs.shape[3] == 1 or not self.coeffs[..., 1:].any()

    def direction_matrices(self, t) -> np.ndarray:
        """Evaluate the per-direction coefficient matrices A_p(t).

        ``t`` may be a scalar or a 1-d array; the result has shape
        (n, m, m) respectively (len(t), n, m, m).  An entry that overflows
        is left non-finite, without a warning, for the kernels downstream
        to reject.
        """
        t_arr = np.asarray(t, dtype=float)
        # Horner evaluation over the trailing degree axis.
        out = np.zeros(t_arr.shape + self.coeffs.shape[:3])
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(self.coeffs.shape[3] - 1, -1, -1):
                out = out * t_arr[..., None, None, None] + self.coeffs[..., k]
        return out


@dataclass(frozen=True)
class Spectrum:
    """Rescaled eigenvalues of A_0 = <xi>^{-1} A(t, xi), ascending real part.

    ``lambdas`` has shape (..., m) and holds the real parts; ``hyperbolic``
    and ``imag_residual`` have the leading shape (...).
    """

    lambdas: np.ndarray
    hyperbolic: bool | np.ndarray
    imag_residual: float | np.ndarray


def _check_time(symbol: SystemSymbol, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= symbol.horizon:
        raise DomainError(f"t={t} outside [0, {symbol.horizon}]")
    return t


def eval_symbol(symbol: SystemSymbol, t: float, xi) -> np.ndarray:
    """Evaluate A(t, xi) = sum_p A_p(t) xi_p as a real m x m matrix."""
    t = _check_time(symbol, t)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (symbol.n,):
        raise DomainError(f"xi must have {symbol.n} components, got shape {xi.shape}")
    mats = symbol.direction_matrices(t)
    return np.einsum("p,pij->ij", xi, mats)


def eval_symbol_path(symbol: SystemSymbol, ts: np.ndarray, xi) -> np.ndarray:
    """Vectorised ``eval_symbol`` over a 1-d array of times.

    ``xi`` of shape (n,) gives (len(ts), m, m); a stack (..., n) of
    frequencies gives (len(ts), ..., m, m), each entry bitwise that of its
    frequency alone.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size and (ts.min() < 0.0 or ts.max() > symbol.horizon):
        raise DomainError("time grid leaves [0, T]")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape[-1] != symbol.n:
        raise DomainError(f"xi must have {symbol.n} components, got shape {xi.shape}")
    mats = symbol.direction_matrices(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("...p,tpij->t...ij", xi, mats)


def time_derivative(symbol: SystemSymbol, k: int) -> SystemSymbol:
    """k-th formal time derivative of the symbol (plain d/dt, no factors of -i).

    The operator D_t = -i d/dt is realised downstream by multiplying with
    (-i)^k at assembly time, keeping this module real-valued.
    """
    if k < 0:
        raise DomainError(f"derivative order must be >= 0, got {k}")
    coeffs = symbol.coeffs
    for _ in range(k):
        d = coeffs.shape[3]
        if d == 1:
            coeffs = np.zeros(coeffs.shape[:3] + (1,))
            break
        with np.errstate(over="ignore"):
            coeffs = coeffs[..., 1:] * np.arange(1, d)
    if not np.isfinite(coeffs).all():
        raise NumericError(f"the coefficients of d^{k}/dt^{k} A overflow")
    return SystemSymbol(coeffs=coeffs, horizon=symbol.horizon)


def elementary_symmetric_all(lambdas) -> np.ndarray:
    """All signed elementary symmetric polynomials sigma_0..sigma_q at once.

    Works on stacks: shape (..., q) to (..., q + 1).  Each tuple is sorted
    along the last axis and absorbed value by value by the same recurrence,
    so every row of a stack equals the call on that row alone, bit for bit.
    """
    lam = np.sort(np.asarray(lambdas, dtype=float), axis=-1)
    q = lam.shape[-1]
    e = np.zeros((q + 1,) + lam.shape[:-1])
    e[0] = 1.0
    for k in range(q):
        x = lam[..., k]
        for j in range(q, 0, -1):
            e[j] += x * e[j - 1]
    return e.transpose(*range(1, e.ndim), 0) * (-1.0) ** np.arange(q + 1)


def deleted_sigmas(lams) -> np.ndarray:
    """W rows of stacked eigenvalue tuples, shape (..., m) to (..., m, m).

    Row i is (sigma_{m-1}(pi_i lambda), ..., sigma_1(pi_i lambda), 1), where
    pi_i deletes the i-th value.  Each row equals the reversed
    ``elementary_symmetric_all(np.delete(lam, i))`` bit for bit: the deleted
    tuples of the sorted values go through one stacked call of it.
    """
    lam = np.asarray(lams, dtype=float)
    m = lam.shape[-1]
    order = np.argsort(lam, axis=-1, kind="stable")
    ordered = np.take_along_axis(lam, order, axis=-1)
    # rest[..., p, :] is the sorted tuple without its p-th entry.
    rest = ordered[..., np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)]
    rows = elementary_symmetric_all(rest)[..., ::-1]
    # Row i deletes the value at sorted position rank[i].
    rank = np.argsort(order, axis=-1)
    return np.take_along_axis(rows, rank[..., None], axis=-2)


def faddeev_leverrier(A: np.ndarray) -> np.ndarray:
    """Characteristic coefficients of a stack of square matrices.

    Accepts shape (..., m, m) and returns shape (..., m + 1) with c_0 = 1,
    using the trace recursion  M_k = A (M_{k-1} + c_{k-1} I),
    c_k = -tr(M_k)/k.  Works for real or complex input.
    """
    A = np.asarray(A)
    m = A.shape[-1]
    batch = A.shape[:-2]
    eye = np.eye(m, dtype=A.dtype)
    c = np.zeros(batch + (m + 1,), dtype=A.dtype)
    c[..., 0] = 1.0
    M = np.zeros_like(A)
    # Overflow surfaces as non-finite coefficients, which companion_roots
    # turns into NumericError, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, m + 1):
            M = A @ (M + c[..., k - 1, None, None] * eye)
            c[..., k] = -np.einsum("...ii->...", M) / k
    return c


def companion_roots(c: np.ndarray) -> np.ndarray:
    """Roots of c_0 tau^m + c_1 tau^{m-1} + ... + c_m for stacked c (..., m+1).

    Each row's exact trailing zero coefficients are deflated first, as
    ``numpy.roots`` does, so structural zero roots come out exactly zero and
    are placed last.  Rows with the same count of trailing zeros share one
    ``numpy.linalg.eigvals`` call on companion matrices built as
    ``numpy.roots`` builds them, so each row's roots are bitwise those of
    ``numpy.roots``.  A non-finite c_1..c_m raises NumericError.
    """
    c = np.asarray(c, dtype=float)
    m = c.shape[-1] - 1
    flat = c.reshape(-1, m + 1)
    if np.any(flat[:, 0] == 0.0):
        raise DomainError("leading coefficient c_0 must be nonzero")
    # Degree after deflation: the index of the last nonzero coefficient.
    degree = m - np.argmax(flat[:, ::-1] != 0.0, axis=1)
    roots = np.zeros((flat.shape[0], m), dtype=complex)
    # Not a bare np.unique: numpy 2.4 imports numpy.ma for it (about 1.6 MB).
    for deg in sorted(set(degree[degree > 0].tolist())):
        rows = np.flatnonzero(degree == deg)
        comp = np.zeros((rows.size, deg, deg))
        comp[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        comp[:, 0, :] = -flat[rows, 1 : deg + 1] / flat[rows, :1]
        try:
            roots[rows, :deg] = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"companion eigenvalue solve failed: {exc}") from exc
    return roots.reshape(c.shape[:-1] + (m,))


def spectra(c: np.ndarray) -> Spectrum:
    """Sorted companion roots of stacked characteristic coefficients (..., m+1).

    A point is hyperbolic when its largest imaginary part does not exceed
    1e-8 * (1 + spectral radius).
    """
    roots = companion_roots(c)
    roots = np.take_along_axis(roots, np.argsort(roots.real, axis=-1, kind="stable"), axis=-1)
    imag_residual = np.abs(roots.imag).max(axis=-1)
    radius = np.abs(roots).max(axis=-1)
    return Spectrum(
        lambdas=roots.real.copy(),
        hyperbolic=imag_residual <= 1e-8 * (1.0 + radius),
        imag_residual=imag_residual,
    )


def rescaled_spectra(symbol: SystemSymbol, ts, xi) -> Spectrum:
    """Spectra of <xi>^{-1} A(t, xi) along a 1-d time grid, stacked over ts."""
    A0 = eval_symbol_path(symbol, ts, xi) / bracket(xi)
    return spectra(faddeev_leverrier(A0).real)


def matrix_powers(A: np.ndarray, top: int) -> list:
    """[I, A, A^2, ..., A^top] for a stack of square matrices."""
    m = A.shape[-1]
    eye = np.broadcast_to(np.eye(m, dtype=A.dtype), A.shape).copy()
    powers = [eye]
    for _ in range(top):
        powers.append(powers[-1] @ A)
    return powers


def adjugate_coeffs(A: np.ndarray, c: np.ndarray) -> list:
    """[bold_A_0, ..., bold_A_{m-1}] with bold_A_h = sum_{h'<=h} c_{h'} A^{h-h'}.

    Works on stacks: A has shape (..., m, m) and c shape (..., m + 1).
    """
    m = A.shape[-1]
    powers = matrix_powers(A, m - 1)
    out = []
    for h in range(m):
        acc = np.zeros_like(A)
        for hp in range(h + 1):
            acc += c[..., hp, None, None] * powers[h - hp]
        out.append(acc)
    return out
