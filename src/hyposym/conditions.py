"""Numeric evaluation of the hypotheses: eigenvalue separation, Levi-type
conditions in both formulations, the zone decomposition, and the sandwich
inequality for the lower-order terms.

All conditions are uniform claims over (t, xi); this module measures them on
a fixed, reproducible sampling grid and reports suprema with witnesses.  The
0/0 convention throughout: a ratio whose numerator is below ``ABS_FLOOR``
counts as 0 (the inequality holds vacuously); a vanishing denominator under a
live numerator is reported as infinity with the witness recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hyposym.errors import CapabilityError, DomainError, NumericError
from hyposym.pencils import hermitian_part
from hyposym.reduction import PathAssembler, _bold_B_terms
from hyposym.symbols import (
    SystemSymbol,
    deleted_sigmas,
    eval_symbol_path,
    faddeev_leverrier,
    rescaled_spectra,
    spectra,
)

ABS_FLOOR = 1e-14
RANK_TOL = 1e-10
# Ratios beyond this are reported as unbounded: a double root computed via the
# companion matrix splits at round-off scale, so "denominator exactly zero"
# must be read as "negligible against the numerator".
RATIO_CAP = 1e12


# ---------------------------------------------------------------------------
# sampling grid


def _directions(n: int, count: int) -> np.ndarray:
    """Deterministic direction set on the unit sphere in R^n."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        angles = 2.0 * np.pi * golden * np.arange(count)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if n == 3:
        # Fibonacci sphere.
        k = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / count)
        theta = np.pi * (1.0 + np.sqrt(5.0)) * k
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    raise CapabilityError(f"direction sampling implemented for n <= 3, got n={n}")


@dataclass(frozen=True)
class SamplingGrid:
    """Cartesian (t, r, direction) grid with xi = r * direction."""

    ts: np.ndarray
    radii: np.ndarray
    dirs: np.ndarray

    @classmethod
    def default(cls, symbol: SystemSymbol, n_t: int = 201, n_r: int = 32,
                r_min: float = 1.0, r_max: float = 1e4, n_dirs: int = 16):
        ts = np.linspace(0.0, symbol.horizon, n_t)
        radii = np.geomspace(r_min, r_max, n_r)
        return cls(ts=ts, radii=radii, dirs=_directions(symbol.n, n_dirs))

    def __post_init__(self):
        if self.ts.size == 0 or self.radii.size == 0 or self.dirs.shape[0] == 0:
            raise DomainError("empty sampling grid")

    @property
    def shape(self) -> tuple:
        return (self.ts.size, self.radii.size, self.dirs.shape[0])

    @property
    def xis(self) -> np.ndarray:
        """The frequencies xi = r * direction, shape (R, D, n)."""
        return self.radii[:, None, None] * self.dirs


@dataclass
class GridData:
    """Spectra and lower-order data of one time block, indexed (t, r, dir)."""

    lambdas: np.ndarray          # (t, R, D, m) rescaled eigenvalues (real parts)
    nonhyperbolic: int
    deleted_sigmas: np.ndarray   # (t, R, D, m, m); [..., i, c] = sigma_{m-1-c}(pi_i lambda)
    b_entries: np.ndarray        # (t, R, D, m-1, m, m) scaled entries of calB
    dtA0_norms: np.ndarray       # (t, R, D, m-1) spectral norms of D_t^k A_0


# (t, xi) points per time block of evaluate_grid.  run_conditions holds one
# block's GridData at a time, beside its per-point tables.  Larger blocks
# gain no time and raise the peak: 8,192 points took run_conditions on
# m3-tracezero from 2.9 to 12.8 MiB of traced memory.
_GRID_BLOCK = 1 << 10


def evaluate_grid(assembler: PathAssembler, grid: SamplingGrid, block: slice) -> GridData:
    """Eigenvalues, W rows, b entries and derivative norms on the time
    samples ``grid.ts[block]``, with ``assembler`` built at the grid's
    frequencies (r, d).

    The derivative norms and calB terms come from one call of
    :func:`_bold_B_terms`; a missing path has norm 0.0 and no terms.  A is
    odd in xi and negating a double is exact, so on a 1-d grid (directions
    +1, -1) -1 takes the terms (term hp negated for even hp) and norms of +1,
    but not c: (-1)^k c_k would not keep the sign of a zero c_k.  Every entry
    is bitwise that of its point alone, but an SVD of -X can differ from one
    of X in the last bits (within 1e-15 relative).
    """
    m, k0 = assembler.m, block.start
    ts = grid.ts[block]
    bxi = assembler.bxi[..., None, None]
    mirror = grid.dirs.tolist() == [[1.0], [-1.0]]
    lead = slice(0, 1) if mirror else slice(None)  # the norms of +1 broadcast to -1
    paths, _, terms = _bold_B_terms(assembler.derivs, ts, assembler.xi[:, lead])
    A = eval_symbol_path(assembler.derivs[0], ts, assembler.xi) if mirror else paths[0]
    char0 = faddeev_leverrier(A / bxi).real
    _require_finite(char0, grid, k0, "a rescaled characteristic coefficient")
    zero = np.zeros(paths[0].shape, dtype=complex)   # the sum of a band without terms
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [list(band) for band in terms]   # the mirror sums them twice
        boldB = [sum((x for _, x in t), zero) for t in terms]
        if mirror:  # bold_B_l at -xi: term hp times (-1)^(hp+1)
            boldB = [np.concatenate([b, sum((x if hp % 2 else -x for hp, x in t), zero)],
                                    axis=2) for b, t in zip(boldB, terms)]
    b_entries = assembler.entries(boldB)
    _require_finite(b_entries, grid, k0, "a lower-order entry of calB")
    dt_norms = np.zeros(char0.shape[:3] + (m - 1,))   # a missing path's: its SVD reads 0.0
    for k in range(1, len(paths)):
        dA0 = paths[k] / bxi[:, lead]
        dt_norms[..., k - 1] = np.linalg.svd(dA0, compute_uv=False)[..., 0]
    spec = spectra(char0)
    return GridData(
        lambdas=spec.lambdas,
        nonhyperbolic=int(np.count_nonzero(~spec.hyperbolic)),
        deleted_sigmas=deleted_sigmas(spec.lambdas),
        b_entries=b_entries,
        dtA0_norms=dt_norms,
    )


def _grid_blocks(symbol: SystemSymbol, grid: SamplingGrid):
    """Yield (k0, GridData) for the time blocks of _GRID_BLOCK points in turn,
    k0 the block's first time index; one assembler serves every block."""
    T, R, D = grid.shape
    assembler = PathAssembler(symbol, grid.xis)
    _require_finite(assembler.bxi[None], grid, 0, "<xi>")
    step = max(1, _GRID_BLOCK // (R * D))
    for k0 in range(0, T, step):
        yield k0, evaluate_grid(assembler, grid, slice(k0, k0 + step))


def _require_finite(values: np.ndarray, grid: SamplingGrid, k0: int, what: str) -> None:
    """NumericError at the first (t, r, d) point of a block from time index k0
    where ``values`` (t, r, d, ...) is not finite."""
    bad = ~np.isfinite(values).reshape(values.shape[:3] + (-1,)).all(axis=-1)
    if bad.any():
        t_idx, r_idx, d_idx = np.argwhere(bad)[0]
        raise NumericError(f"{what} is not finite at (t={grid.ts[k0 + t_idx]}, "
                           f"xi={grid.xis[r_idx, d_idx].tolist()})")


# ---------------------------------------------------------------------------
# individual conditions


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ratio with the 0/0 convention and infinity sentinel.

    A ratio beyond RATIO_CAP reads inf, and so does inf/inf, where both
    squares overflowed.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    # ~(vals <= RATIO_CAP) holds for the NaN of inf/inf too
    return np.where(num > ABS_FLOOR, np.where(vals <= RATIO_CAP, vals, np.inf), 0.0)


def _argmax_witness(values: np.ndarray, grid: SamplingGrid):
    flat = np.argmax(np.where(np.isnan(values), -np.inf, values))
    t_idx, r_idx, d_idx = np.unravel_index(flat, values.shape)
    return {
        "t": float(grid.ts[t_idx]),
        "xi": grid.xis[r_idx, d_idx].tolist(),
        "value": float(values[t_idx, r_idx, d_idx]),
    }


def ks_pointwise(lambdas: np.ndarray) -> np.ndarray:
    """Worst pair ratio (l_i^2 + l_j^2) / (l_i - l_j)^2 per grid point.

    Coinciding zero eigenvalues contribute 0; coinciding nonzero eigenvalues
    contribute infinity.
    """
    m = lambdas.shape[-1]
    worst = np.zeros(lambdas.shape[:-1])
    with np.errstate(over="ignore"):   # an overflowed square reads inf
        for i in range(m):
            for j in range(i + 1, m):
                num = lambdas[..., i] ** 2 + lambdas[..., j] ** 2
                den = (lambdas[..., i] - lambdas[..., j]) ** 2
                worst = np.maximum(worst, _ratio(num, den))
    return worst


def levi_pointwise(b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Levi ratios per (grid point, l, j) from calB entries ``b``: column sums
    of |b|^2 against q_ll, with ``q`` the square sums of :func:`_square_sums`."""
    m = q.shape[-1] - 1
    out = np.zeros(q.shape[:-1] + (m - 1, m))
    with np.errstate(over="ignore"):   # an overflowed square sum reads inf
        for l in range(1, m):
            for j in range(m):
                num = (np.abs(b[..., l - 1, :, j]) ** 2).sum(axis=-1)
                out[..., l - 1, j] = _ratio(num, q[..., l])
    return out


def thm2_pointwise(dtA0_norms: np.ndarray, q: np.ndarray) -> np.ndarray:
    """max_k ||D_t^k A_0||^2 / q_jj per (grid point, j), q as in :func:`levi_pointwise`."""
    m = q.shape[-1] - 1
    out = np.zeros(q.shape[:-1] + (m - 1,))
    with np.errstate(over="ignore"):   # an overflowed square reads inf
        num = (dtA0_norms ** 2).max(axis=-1)
        for j in range(1, m):
            out[..., j - 1] = _ratio(num, q[..., j])
    return out


def sandwich_of(W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest C with |W_lift calB V| <= C |W_lift V|, on stacks of W rows
    ``W`` (..., m, m) and calB entries ``b`` (..., m-1, m, m).

    W's last column is all ones, so band i of W_lift calB V is that column
    times row i of R V, where R (m x m^2) holds calB's band rows; and
    W_lift*W_lift = I (x) W*W.  So C^2 = m lambda_max(R (I (x) (W*W)^+) R*),
    dropping the eigenvalues of W*W below RANK_TOL times the largest.  C is
    infinite where sqrt(m) |R_j u| > RANK_TOL (sqrt(m) |b| + 1) for a band
    block R_j and a dropped eigenvector u: the lifted rule for e_j (x) u.
    """
    m = W.shape[-1]
    with np.errstate(over="ignore"):   # W rows or b entries whose squares overflow
        vals, vecs = np.linalg.eigh(np.swapaxes(W, -1, -2) @ W)
        keep = vals > RANK_TOL * np.maximum(vals[..., -1:], 0.0)
        # Z[..., i, j, k]: row i of band block j of R applied to eigenvector k
        Z = np.moveaxis(b, -3, -1) @ vecs[..., None, : m - 1, :]
        leak = np.where(keep[..., None, :], 0.0, np.linalg.norm(Z, axis=-3))
        norm_b = np.sqrt(m) * np.linalg.norm(b.reshape(b.shape[:-3] + (-1,)), axis=-1) + 1.0
    unbounded = np.sqrt(m) * leak.max(axis=(-2, -1)) > RANK_TOL * norm_b
    # Whitening by 1/sqrt(inf) zeroes the eigenvectors outside the kept range.
    Y = Z / np.sqrt(np.where(keep, vals, np.inf))[..., None, None, :]
    Y = Y.reshape(W.shape[:-2] + (m, m * m))
    # Where a part of Y exceeds 2^500 its Gram product may overflow: that Y
    # is scaled by 2^-e, e the exponent of its largest part, and its C by 2^e.
    parts = Y.view(np.float64)
    e = np.frexp(np.maximum(parts.max(axis=(-2, -1)), -parts.min(axis=(-2, -1))))[1]
    e = np.where(e > 500, e, 0)
    Y *= np.ldexp(1.0, -e)[..., None, None]
    top = np.linalg.eigvalsh(hermitian_part(Y @ np.swapaxes(Y, -1, -2).conj()))[..., -1]
    with np.errstate(over="ignore"):   # a C beyond the double range reads inf
        return np.ldexp(np.where(unbounded, np.inf, np.sqrt(m * np.maximum(top, 0.0))), e)


def sandwich_constant(symbol: SystemSymbol, t: float, xi) -> float:
    """Smallest C with |W_lift calB V| <= C |W_lift V| at one (t, xi)."""
    ts = np.array([float(t)])
    b = PathAssembler(symbol, xi).reduce(ts)[1]
    W = deleted_sigmas(rescaled_spectra(symbol, ts, xi).lambdas)
    return float(sandwich_of(W, b)[0])


def _square_sums(W: np.ndarray) -> np.ndarray:
    """S[..., j] = sum_i sigma_{m-j}(pi_i lambda)^2 from stacked W rows, j = 1..m; S[..., 0] = 0."""
    m = W.shape[-1]
    S = np.zeros(W.shape[:-2] + (m + 1,))
    with np.errstate(over="ignore"):   # an overflowed square reads inf
        for i in range(m):
            S[..., 1:] += W[..., i, :] ** 2
    return S


def _zones(V: np.ndarray, sig_sq: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Zone indices of stacked states V (..., m^2) under the nested decomposition.

    ``sig_sq`` holds the square sums of :func:`_square_sums`.  A state is in
    the first zone h in 1..m-2 whose inequality it satisfies, else in zone
    m-1, the final complement; for m = 2 every state is in zone 1.
    """
    m = sig_sq.shape[-1] - 1
    if deltas.size < m - 2:
        raise DomainError(f"need {m - 2} zone thresholds, got {deltas.size}")
    T = np.zeros(V.shape[:-1] + (m + 1,))
    for j in range(1, m + 1):
        T[..., j] = np.sum(np.abs(V[..., j - 1 :: m]) ** 2, axis=-1)
    zone = np.full(V.shape[:-1], m - 1)
    open_ = np.ones(V.shape[:-1], dtype=bool)
    for h in range(1, m - 1):
        lhs = np.zeros(V.shape[:-1])
        for j in range(h + 1, m):
            lhs += sig_sq[..., j] * T[..., j]
        hit = open_ & (lhs <= deltas[h - 1] * sig_sq[..., h] * T[..., h])
        zone[hit] = h
        open_ &= ~hit
    return zone


# ---------------------------------------------------------------------------
# aggregated report


@dataclass
class ConditionReport:
    """Measured constants of all hypotheses on a sampling grid."""

    m: int
    ks_constant: float
    ks_witness: dict
    levi_sups: np.ndarray        # (m-1, m)
    levi_witness: dict
    thm2_sups: np.ndarray        # (m-1,)
    thm2_witness: dict
    sandwich_sup: float
    sandwich_witness: dict
    implication_constant: float  # sup levi(l, j) / thm2(l) over live points
    zone_stats: dict
    nonhyperbolic_points: int
    grid: SamplingGrid
    # (T, R, D, 1 + (m-1)(m+1)) per point in conditions.csv's row order: ks,
    # then per l the thm2 ratio and the m levi ratios; the three views below
    # are its parts
    table: np.ndarray = field(repr=False, default=None)
    levi_values: np.ndarray = field(repr=False, default=None)   # (T, R, D, m-1, m)
    thm2_values: np.ndarray = field(repr=False, default=None)   # (T, R, D, m-1)
    ks_values: np.ndarray = field(repr=False, default=None)     # (T, R, D)


def run_conditions(symbol: SystemSymbol, grid: SamplingGrid, seed: int = 0) -> ConditionReport:
    """Evaluate every condition on the grid and aggregate with witnesses.

    The grid is evaluated one time block at a time.  Each block's GridData
    writes its ks, thm2 and levi ratios into views of one per-point table,
    laid out in conditions.csv's row order, and its eigenvalues into their
    own table, and gives the sandwich constants at its every 4th time
    sample; then it is dropped.  Each sup is the largest value of its
    pointwise view; the witness is the first grid point, in (t, r, d) order,
    where it is reached.
    """
    m = symbol.m
    T, R, D = grid.shape
    T4 = -(-T // 4)
    lambdas = np.empty((T, R, D, m))
    table = np.empty((T, R, D, 1 + (m - 1) * (m + 1)))
    ks_vals = table[..., 0]
    per_l = table[..., 1:].reshape(T, R, D, m - 1, m + 1)
    thm2_vals, levi_vals = per_l[..., 0], per_l[..., 1:]
    sandwich = np.empty((T4, R, D))   # at every 4th time sample
    nonhyperbolic = 0
    for k0, data in _grid_blocks(symbol, grid):
        sl = slice(k0, k0 + data.lambdas.shape[0])
        lambdas[sl] = data.lambdas
        nonhyperbolic += data.nonhyperbolic
        ks_vals[sl] = ks_pointwise(data.lambdas)
        q = _square_sums(data.deleted_sigmas)
        levi_vals[sl] = levi_pointwise(data.b_entries, q)
        thm2_vals[sl] = thm2_pointwise(data.dtA0_norms, q)
        j0 = -(-k0 // 4)   # time index 4 j0 is the block's first multiple of 4
        W, b = data.deleted_sigmas[4 * j0 - k0 :: 4], data.b_entries[4 * j0 - k0 :: 4]
        if W.size:   # a block of under 4 time samples may hold none
            sandwich[j0 : j0 + W.shape[0]] = sandwich_of(
                W.reshape(-1, m, m), b.reshape(-1, m - 1, m, m)).reshape(W.shape[:3])
        del data, q, W, b   # before the next block is evaluated

    ks_sup, ks_wit = float(ks_vals.max()), _argmax_witness(ks_vals, grid)
    levi_sups = levi_vals.max(axis=(0, 1, 2))
    levi_wit = _argmax_witness(levi_vals.max(axis=(-2, -1)), grid)
    thm2_sups = thm2_vals.max(axis=(0, 1, 2))
    thm2_wit = _argmax_witness(thm2_vals.max(axis=-1), grid)

    # Implication direction: a finite derivative-norm ratio at a point must
    # bound the Levi ratio there up to a constant.
    impl = 0.0
    for l in range(m - 1):
        t2 = thm2_vals[..., l]
        live = np.isfinite(t2) & (t2 > ABS_FLOOR)
        for j in range(m):
            lv = levi_vals[..., l, j]
            if np.any(live & ~np.isfinite(lv)):
                impl = float("inf")
            elif live.any():
                impl = max(impl, float((lv[live] / t2[live]).max()))

    # Sandwich constant on every 4th time sample: argmax gives the first
    # maximiser in (r, d, t) order.
    sw_vals = np.moveaxis(sandwich, 0, 2).reshape(-1)
    k = int(np.argmax(sw_vals))
    sw_sup, sw_wit = 0.0, {}
    if sw_vals[k] > 0.0:
        pair, t_idx = divmod(k, T4)
        sw_sup = float(sw_vals[k])
        sw_wit = {"t": float(grid.ts[4 * t_idx]), "xi": grid.xis[divmod(pair, D)].tolist(),
                  "value": sw_sup}

    # Zone occupancy of seeded random states at grid spectra.  Each W row is
    # bitwise that of its eigenvalue tuple alone, so the sampled rows are
    # built from the sampled tuples.
    rng = np.random.default_rng(seed)
    flat = lambdas.reshape(-1, m)
    sample = rng.choice(flat.shape[0], size=min(1000, flat.shape[0]), replace=False)
    # One draw of (re, im) per sampled point, in the order of a per-point loop.
    draws = rng.standard_normal((sample.size, 2, m * m))
    zones = _zones(draws[:, 0] + 1j * draws[:, 1], _square_sums(deleted_sigmas(flat[sample])),
                   np.ones(m - 2))
    counts = dict(zip(*np.unique(zones, return_counts=True)))

    return ConditionReport(
        m=m,
        ks_constant=ks_sup,
        ks_witness=ks_wit,
        levi_sups=levi_sups,
        levi_witness=levi_wit,
        thm2_sups=thm2_sups,
        thm2_witness=thm2_wit,
        sandwich_sup=sw_sup,
        sandwich_witness=sw_wit,
        implication_constant=impl,
        zone_stats={int(k): int(v) for k, v in sorted(counts.items())},
        nonhyperbolic_points=nonhyperbolic,
        grid=grid,
        table=table,
        levi_values=levi_vals,
        thm2_values=thm2_vals,
        ks_values=ks_vals,
    )
