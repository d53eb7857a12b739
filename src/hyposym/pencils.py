"""Hermitian pencil helpers shared by the quasi-symmetriser and condition checks."""

from __future__ import annotations

import numpy as np

from hyposym.errors import NumericError

GEN_EIG_JITTER = 1e-12


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M*) / 2, for a matrix or a stack of matrices (..., n, n)."""
    return 0.5 * (M + np.swapaxes(M, -1, -2).conj())


def gen_eigvalsh(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Eigenvalues of Hermitian pencils (A, B) with B positive definite.

    Works on stacks (..., n, n).  Solves via Cholesky whitening,
    L^{-1} A L^{-*}; if B fails to factor, a diagonal jitter of
    1e-12 * max|B| is added once before giving up.  numpy factors a stack as
    a whole, so a stack holding such a B is solved one pencil at a time.
    """
    A = hermitian_part(np.asarray(A))
    B = hermitian_part(np.asarray(B))
    for attempt in range(2):
        try:
            L = np.linalg.cholesky(B)
            break
        except np.linalg.LinAlgError:
            if B.ndim > 2:
                return np.stack([gen_eigvalsh(a, b) for a, b in zip(A, B)])
            if attempt == 1:
                raise NumericError("pencil right-hand matrix is not positive definite")
            B = B + GEN_EIG_JITTER * max(np.abs(B).max(), 1.0) * np.eye(B.shape[0])
    Y = np.linalg.solve(L, A)
    W = np.linalg.solve(L, Y.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(hermitian_part(W))
