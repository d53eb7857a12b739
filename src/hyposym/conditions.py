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
from hyposym.reduction import PathAssembler
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

    def xi(self, r_idx: int, d_idx: int) -> np.ndarray:
        return self.radii[r_idx] * self.dirs[d_idx]

    def points(self):
        for r_idx in range(self.radii.size):
            for d_idx in range(self.dirs.shape[0]):
                yield r_idx, d_idx, self.xi(r_idx, d_idx)


@dataclass
class GridData:
    """Per-grid-point spectra and lower-order data, indexed (t, r, dir)."""

    lambdas: np.ndarray          # (T, R, D, m) rescaled eigenvalues (real parts)
    nonhyperbolic: int
    deleted_sigmas: np.ndarray   # (T, R, D, m, m); [..., i, c] = sigma_{m-1-c}(pi_i lambda)
    b_entries: np.ndarray        # (T, R, D, m-1, m, m) scaled entries of calB
    dtA0_norms: np.ndarray       # (T, R, D, m-1) spectral norms of D_t^k A_0


# (t, xi) points per block of evaluate_grid and of the sandwich constant.
# Larger blocks raise the peak RSS of `conditions` (by 2 MB at 8,192 on
# m3-tracezero) and gain no time.
_GRID_BLOCK = 1 << 10


def evaluate_grid(symbol: SystemSymbol, grid: SamplingGrid) -> GridData:
    """Evaluate eigenvalues, W-row data, b entries and derivative norms.

    One assembler holds every grid frequency; time runs in blocks to bound
    the stacks.  Each entry is bitwise that of its (t, xi) point alone.
    """
    m = symbol.m
    T, R, D = grid.shape
    char0 = np.zeros((T, R, D, m + 1))
    b_entries = np.zeros((T, R, D, m - 1, m, m), dtype=complex)
    dt_norms = np.zeros((T, R, D, m - 1))

    assembler = PathAssembler(symbol, grid.radii[:, None, None] * grid.dirs)
    _require_finite(assembler.bxi[None], grid, 0, "<xi>")
    bxi = assembler.bxi[..., None, None]
    step = max(1, _GRID_BLOCK // (R * D))
    for k0 in range(0, T, step):
        sl = slice(k0, k0 + step)
        ts = grid.ts[sl]
        A = eval_symbol_path(symbol, ts, assembler.xi)
        char0[sl] = faddeev_leverrier(A / bxi).real
        _require_finite(char0[sl], grid, k0, "a rescaled characteristic coefficient")
        b_entries[sl] = assembler.reduce(ts)[1]
        _require_finite(b_entries[sl], grid, k0, "a lower-order entry of calB")
        for k in range(1, m):
            dA0 = eval_symbol_path(assembler.derivs[k], ts, assembler.xi) / bxi
            dt_norms[sl, ..., k - 1] = np.linalg.svd(dA0, compute_uv=False)[..., 0]
    spec = spectra(char0)
    return GridData(
        lambdas=spec.lambdas,
        nonhyperbolic=int(np.count_nonzero(~spec.hyperbolic)),
        deleted_sigmas=deleted_sigmas(spec.lambdas),
        b_entries=b_entries,
        dtA0_norms=dt_norms,
    )


def _require_finite(values: np.ndarray, grid: SamplingGrid, k0: int, what: str) -> None:
    """NumericError at the first (t, r, d) point of a block from time index k0
    where ``values`` (t, r, d, ...) is not finite."""
    bad = ~np.isfinite(values).reshape(values.shape[:3] + (-1,)).all(axis=-1)
    if bad.any():
        t_idx, r_idx, d_idx = np.argwhere(bad)[0]
        raise NumericError(f"{what} is not finite at (t={grid.ts[k0 + t_idx]}, "
                           f"xi={grid.xi(r_idx, d_idx).tolist()})")


# ---------------------------------------------------------------------------
# individual conditions


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise ratio with the 0/0 convention and infinity sentinel.

    A ratio beyond RATIO_CAP reads inf, and so does inf/inf, where both
    squares overflowed.
    """
    out = np.zeros_like(num, dtype=float)
    live = num > ABS_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    out[live] = vals[live]
    out[live & ~(vals <= RATIO_CAP)] = np.inf   # the NaN of inf/inf too
    return out


def _argmax_witness(values: np.ndarray, grid: SamplingGrid):
    flat = np.argmax(np.where(np.isnan(values), -np.inf, values))
    t_idx, r_idx, d_idx = np.unravel_index(flat, values.shape)
    return {
        "t": float(grid.ts[t_idx]),
        "xi": (grid.radii[r_idx] * grid.dirs[d_idx]).tolist(),
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


def levi_pointwise(data: GridData) -> np.ndarray:
    """Levi ratios per (grid point, l, j): column sums of |b|^2 against q_ll."""
    m = data.lambdas.shape[-1]
    shape = data.lambdas.shape[:-1]
    out = np.zeros(shape + (m - 1, m))
    with np.errstate(over="ignore"):   # an overflowed square sum reads inf
        for l in range(1, m):
            # q_ll = sum_i sigma_{m-l}(pi_i lambda)^2; column l-1 of the W rows
            # holds sigma_{m-l}(pi_i lambda).
            den = (data.deleted_sigmas[..., :, l - 1] ** 2).sum(axis=-1)
            for j in range(m):
                num = (np.abs(data.b_entries[..., l - 1, :, j]) ** 2).sum(axis=-1)
                out[..., l - 1, j] = _ratio(num, den)
    return out


def thm2_pointwise(data: GridData) -> np.ndarray:
    """max_k ||D_t^k A_0||^2 / q_jj per (grid point, j)."""
    m = data.lambdas.shape[-1]
    shape = data.lambdas.shape[:-1]
    out = np.zeros(shape + (m - 1,))
    with np.errstate(over="ignore"):   # an overflowed square reads inf
        num = (data.dtA0_norms ** 2).max(axis=-1)
        for j in range(1, m):
            den = (data.deleted_sigmas[..., :, j - 1] ** 2).sum(axis=-1)
            out[..., j - 1] = _ratio(num, den)
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
    top = np.linalg.eigvalsh(hermitian_part(Y @ np.swapaxes(Y, -1, -2).conj()))[..., -1]
    return np.where(unbounded, np.inf, np.sqrt(m * np.maximum(top, 0.0)))


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
    levi_values: np.ndarray = field(repr=False, default=None)
    thm2_values: np.ndarray = field(repr=False, default=None)
    ks_values: np.ndarray = field(repr=False, default=None)


def run_conditions(symbol: SystemSymbol, grid: SamplingGrid, seed: int = 0) -> ConditionReport:
    """Evaluate every condition on the grid and aggregate with witnesses.

    Each sup is the largest value of its pointwise table; the witness is the
    first grid point, in (t, r, d) order, where it is reached.
    """
    data = evaluate_grid(symbol, grid)
    m = symbol.m
    _, R, D = grid.shape

    ks_vals = ks_pointwise(data.lambdas)
    ks_sup, ks_wit = float(ks_vals.max()), _argmax_witness(ks_vals, grid)
    levi_vals = levi_pointwise(data)
    levi_sups = levi_vals.reshape(-1, m - 1, m).max(axis=0)
    levi_wit = _argmax_witness(levi_vals.max(axis=(-2, -1)), grid)
    thm2_vals = thm2_pointwise(data)
    thm2_sups = thm2_vals.reshape(-1, m - 1).max(axis=0)
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

    # Sandwich constant on every 4th time sample, copied in blocks of whole
    # (r, d) pairs in (r, d, t) order: argmax gives the first maximiser in it.
    W4, b4 = (np.swapaxes(a[::4].reshape((-1, R * D) + a.shape[3:]), 0, 1)
              for a in (data.deleted_sigmas, data.b_entries))
    T4, step = W4.shape[1], max(1, _GRID_BLOCK // W4.shape[1])
    sw_vals = np.concatenate([
        sandwich_of(W4[p:p + step].reshape(-1, m, m), b4[p:p + step].reshape(-1, m - 1, m, m))
        for p in range(0, R * D, step)])
    k = int(np.argmax(sw_vals))
    sw_sup, sw_wit = 0.0, {}
    if sw_vals[k] > 0.0:
        pair, t_idx = divmod(k, T4)
        xi = grid.xi(*divmod(pair, D))
        sw_sup = float(sw_vals[k])
        sw_wit = {"t": float(grid.ts[4 * t_idx]), "xi": xi.tolist(), "value": sw_sup}

    # Zone occupancy of seeded random states at grid spectra.
    rng = np.random.default_rng(seed)
    flat_W = data.deleted_sigmas.reshape(-1, m, m)
    sample = rng.choice(flat_W.shape[0], size=min(1000, flat_W.shape[0]), replace=False)
    # One draw of (re, im) per sampled point, in the order of a per-point loop.
    draws = rng.standard_normal((sample.size, 2, m * m))
    zones = _zones(draws[:, 0] + 1j * draws[:, 1], _square_sums(flat_W[sample]),
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
        nonhyperbolic_points=data.nonhyperbolic,
        grid=grid,
        levi_values=levi_vals,
        thm2_values=thm2_vals,
        ks_values=ks_vals,
    )
