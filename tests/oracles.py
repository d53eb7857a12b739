"""Reference implementations that more than one test module checks against.

Neither is on a path of the package: the kernels in ``src/`` work on the
m x m blocks and the W rows directly.
"""

from itertools import combinations

import numpy as np

from hyposym.symbols import deleted_sigmas


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
