"""Reference implementations and one-point paths that tests check against.

None is on a path of the package: the kernels in ``src/`` work on the m x m
blocks and the W rows directly, stacked over (t, xi).  The characteristic
coefficients with their eigenvalue cross-check, the Cayley-Hamilton residual
and the near-diagonality constant work at one point or on one matrix.
"""

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from hyposym.errors import ConsistencyError, DomainError, NumericError
from hyposym.pencils import hermitian_part
from hyposym.symbols import (
    SystemSymbol,
    deleted_sigmas,
    eval_symbol,
    faddeev_leverrier,
    matrix_powers,
)

# Relative tolerance for the Faddeev-LeVerrier vs. eigenvalue cross-check of
# the characteristic coefficients.  Double-precision trace recursion loses
# roughly m digits, so 1e-8 is comfortable for m <= 6.
CHAR_XCHECK_TOL = 1e-8


def lift_blocks(block: np.ndarray) -> np.ndarray:
    """Block-diagonal lifting with m identical copies of an m x m block.

    Works on stacks: shape (..., m, m) to (..., m^2, m^2).
    """
    block = np.asarray(block)
    return np.kron(np.eye(block.shape[-1], dtype=block.dtype), block)


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
    A = eval_symbol(symbol, t, xi)
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
    A = eval_symbol(symbol, t, xi)
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
