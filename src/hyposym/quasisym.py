"""Quasi-symmetriser of a Sylvester companion matrix with real eigenvalues.

Built inductively from the unit lower-triangular matrices P(lambda): the
epsilon-parametrised Hermitian matrix

    Q_eps(lambda) = sum over permutations rho of  P_eps(lambda_rho)* P_eps(lambda_rho),
    P_eps = diag(eps^{m-1}, ..., eps, 1) P,

is coercive like eps^{2(m-1)}, almost commutes with the companion matrix, and
its eps^0 part factors through the W matrix of deleted-variable symmetric
polynomials.  The permutation sum is exact (m factorial terms), which caps the
dimension at m = 6.

Row r of P(lambda_rho) only depends on the set of the first r permuted
values, so :func:`q_eps_parts` builds the row and its outer product once per
subset of the sorted values (at most 2^m of them, stacked over any leading
shape) and then replays the m! * m additions of the permutation sum in
permutation order.  Only additions remain in the m! loop, and the result is
bitwise that of the sum over every permutation of P(lambda_rho) built level
by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import numpy as np

from hyposym.errors import CapabilityError, DomainError
from hyposym.pencils import gen_eigvalsh, hermitian_part
from hyposym.symbols import MAX_DIMENSION, deleted_sigmas, elementary_symmetric_all


def _check_m(m: int) -> None:
    if m < 1:
        raise DomainError("need at least one eigenvalue")
    if m > MAX_DIMENSION:
        raise CapabilityError(
            f"m={m} exceeds the permutation-sum cap m <= {MAX_DIMENSION}"
        )


def _check_eps(eps: float) -> None:
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"eps must lie in (0, 1], got {eps}")


def sylvester_companion(lambdas) -> np.ndarray:
    """Companion matrices with characteristic roots ``lambdas``.

    Works on stacks: shape (..., m) to (..., m, m).  Ones on the
    superdiagonal; last row (-sigma_m, ..., -sigma_1) in the signed
    elementary-symmetric convention.
    """
    lam = np.asarray(lambdas, dtype=float)
    m = lam.shape[-1]
    _check_m(m)
    sig = elementary_symmetric_all(lam)
    M = np.zeros(lam.shape + (m,))
    M[..., np.arange(m - 1), np.arange(1, m)] = 1.0
    M[..., m - 1, :] = -sig[..., m - np.arange(m)]
    return M


# Rows per block of q_eps_parts: 2^m outer products of 1,024 rows take at
# most 19 MB at m = 6.
_ROW_BLOCK = 1024


@lru_cache(maxsize=None)
def _subset_plan(m: int) -> tuple:
    """The r-element subsets of range(m) for each r, and the addition plan.

    ``plan[k, i]`` indexes, in the flat list of all subsets, the set
    rho[:m-1-i] of the k-th permutation rho: part i adds the outer product
    of its sigma row, which is row m-1-i of P(lambda_rho).
    """
    subsets = tuple(tuple(combinations(range(m), r)) for r in range(m))
    flat = [sub for level in subsets for sub in level]
    position = {frozenset(sub): k for k, sub in enumerate(flat)}
    plan = np.array([
        [position[frozenset(rho[: m - 1 - i])] for i in range(m)]
        for rho in permutations(range(m))
    ])
    plan.setflags(write=False)   # shared by every caller through the cache
    return subsets, plan


def q_eps_parts(lambdas) -> np.ndarray:
    """eps-power parts of the permutation sum for stacked tuples.

    Maps shape (..., m) to (m, ..., m, m); ``parts[i]`` is the coefficient
    of eps^{2i}.  Row r of P(lambda_rho) is the sigma row
    (sigma_r, ..., sigma_1, 1, 0, ..., 0) of the first r permuted values,
    and ``elementary_symmetric_all`` sorts them first, so the row depends on
    their set only.  Every row of the result equals the permutation sum
    bit for bit (see the module docstring).
    """
    lam = np.sort(np.asarray(lambdas, dtype=float), axis=-1)
    m = lam.shape[-1]
    _check_m(m)
    flat = lam.reshape(-1, m)
    parts = np.empty((m, flat.shape[0], m, m))
    # Blocks of rows bound the 2^m stacked outer products in memory.
    for k0 in range(0, flat.shape[0], _ROW_BLOCK):
        parts[:, k0 : k0 + _ROW_BLOCK] = _replayed_parts(flat[k0 : k0 + _ROW_BLOCK])
    return parts.reshape((m,) + lam.shape[:-1] + (m, m))


def _replayed_parts(lam: np.ndarray) -> np.ndarray:
    """q_eps_parts of sorted rows (n, m), all subsets held at once."""
    n, m = lam.shape
    subsets, plan = _subset_plan(m)
    rows = []
    for r, level in enumerate(subsets):
        index = np.array(level, dtype=np.intp).reshape(len(level), r)
        # sigma rows of every r-element subset at once: (C(m, r), n, r + 1)
        sig = elementary_symmetric_all(lam[:, index].swapaxes(0, 1))
        row = np.zeros(sig.shape[:-1] + (m,))
        row[..., : r + 1] = sig[..., ::-1]
        rows.append(row)
    rows = np.concatenate(rows)
    with np.errstate(over="ignore"):   # an overflowed product reads inf
        outers = rows[..., :, None] * rows[..., None, :]
    parts = np.zeros((m, n, m, m))
    for take in plan:
        parts += outers[take]
    return parts


def sum_parts(parts: np.ndarray, eps: float) -> np.ndarray:
    """Q_eps = sum_i eps^{2i} parts[i] from the parts of :func:`q_eps_parts`.

    An eps sweep over one stack builds the parts once and sums them per eps.
    """
    _check_eps(eps)
    Q = np.zeros(parts.shape[1:])
    for i, part in enumerate(parts):
        Q += eps ** (2 * i) * part
    return Q


def q_eps(lambdas, eps: float) -> np.ndarray:
    """Q_eps for stacked tuples, shape (..., m) to (..., m, m)."""
    return sum_parts(q_eps_parts(lambdas), eps)


def build_Q_eps(lambdas, eps: float) -> np.ndarray:
    """Q_eps (m, m) of one tuple: ``q_eps`` on the flattened ``lambdas``.

    Kept only because the benchmark's kernel table (``perfbench/kernels.py``)
    imports it.  No package code may call it: the benchmark's tracer reads
    ``.lambdas`` off the result of every traced call of this name.
    """
    return q_eps(np.ravel(lambdas), eps)


@dataclass(frozen=True)
class PropertyReport:
    """Numeric residuals and constants for the quasi-symmetriser properties,
    each of the leading shape of the eigenvalue stack (a scalar for one tuple)."""

    psd_min_eigs: tuple          # min eigenvalue of each eps-power part
    coercivity_constant: float   # C with C^{-1} eps^{2(m-1)} I <= Q_eps <= C I
    commutator_constant: float   # smallest C with |Q M - M* Q| <= C eps Q_eps
    recursion_residual: float    # Q_eps vs Q_0 + eps^2 sum of deleted-variable liftings
    factorization_residual: float  # ||Q_0 - (m-1)! W* W||
    det_identity_abs: float      # |det Q_0 - (m-1)! prod (l_i - l_j)^2|
    det_identity_rel: float
    diag_product_ratio: float    # prod q_{0,ii} / prod (l_i^2 + l_j^2), NaN-guarded


def verify_properties(lambdas, eps: float) -> PropertyReport:
    """Measure all seven structure properties of Q_eps on stacked tuples.

    ``lambdas`` has shape (..., m).  The parts are built once for the whole
    stack, and each row of every field equals the call on that row alone,
    bit for bit.
    """
    lam = np.asarray(lambdas, dtype=float)
    m, shape = lam.shape[-1], lam.shape[:-1]
    _check_m(m)
    lam = lam.reshape(-1, m)
    parts = q_eps_parts(lam)
    Q, Q0 = sum_parts(parts, eps), parts[0]

    psd = np.linalg.eigvalsh(hermitian_part(parts))[..., 0]

    eigs = np.linalg.eigvalsh(hermitian_part(Q))
    lo, hi = eigs[:, 0], eigs[:, -1]
    with np.errstate(divide="ignore"):
        coercivity = np.where(lo > 0, np.maximum(hi, eps ** (2 * (m - 1)) / lo), np.inf)

    M = sylvester_companion(lam)
    comm = -1j * (Q @ M - M.swapaxes(-1, -2) @ Q)
    commutator = np.abs(gen_eigvalsh(comm, Q)).max(axis=-1) / eps

    # Deleted-variable recursion: Q_eps = Q_0 + eps^2 sum_i lifted Q_eps(pi_i lambda);
    # Q_eps is Q_0 itself when m = 1.
    acc = Q0.copy()
    if m >= 2:
        # Tuple i of each row is np.delete(row, i).
        deleted = q_eps(lam[:, np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)], eps)
        for i in range(m):
            acc[:, : m - 1, : m - 1] += eps ** 2 * deleted[:, i]
    recursion = np.abs(Q - acc).max(axis=(-2, -1))

    W = deleted_sigmas(lam)
    factorization = np.abs(Q0 - factorial(m - 1) * W.swapaxes(-1, -2) @ W).max(axis=(-2, -1))

    # det W is the Vandermonde product, so det Q_0 carries ((m-1)!)^m, one
    # factorial per row of the factorization in property (v).  float_power
    # squares through libm's pow, as the scalar ** 2 of a single tuple does;
    # an array's ** 2 is x * x, which differs in the last bit now and then.
    vander = pair_prod = 1.0
    for i, j in combinations(range(m), 2):
        vander = vander * np.float_power(lam[:, i] - lam[:, j], 2)
        pair_prod = pair_prod * (np.float_power(lam[:, i], 2) + np.float_power(lam[:, j], 2))
    det_scale = float(factorial(m - 1) ** m)
    det_abs = np.abs(np.linalg.det(Q0) - det_scale * vander)
    det_rel = det_abs / (1.0 + det_scale * np.abs(vander))

    diag_prod = np.prod(np.diagonal(Q0, axis1=-2, axis2=-1), axis=-1)
    ratio = np.divide(diag_prod, pair_prod, out=np.full(lam.shape[0], np.nan),
                      where=pair_prod > 0)

    def unstack(values):
        return values.reshape(shape)[()]

    # the fields in their order of declaration
    return PropertyReport(tuple(map(unstack, psd)), *map(unstack, (
        coercivity, commutator, recursion, factorization, det_abs, det_rel, ratio)))


def sample_separation_set(m: int, bound: float, count: int, seed: int) -> np.ndarray:
    """Deterministic sample of eigenvalue tuples from the separation set.

    Rejection sampling of lambda in [-1, 1]^m subject to
    lambda_i^2 + lambda_j^2 <= bound (lambda_i - lambda_j)^2 for all pairs.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, m))
    got = 0
    while got < count:
        cand = rng.uniform(-1.0, 1.0, size=(4 * (count - got), m))
        num = cand[:, :, None] ** 2 + cand[:, None, :] ** 2
        den = (cand[:, :, None] - cand[:, None, :]) ** 2
        iu = np.triu_indices(m, 1)
        ok = (num[:, iu[0], iu[1]] <= bound * den[:, iu[0], iu[1]]).all(axis=1)
        take = cand[ok][: count - got]
        out[got : got + take.shape[0]] = take
        got += take.shape[0]
    return out
