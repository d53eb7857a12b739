from dataclasses import dataclass, fields

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from hyposym import DomainError, SamplingGrid, SystemSymbol, run_conditions, sandwich_constant
from hyposym.conditions import (
    ABS_FLOOR,
    RANK_TOL,
    _square_sums,
    _zones,
    sandwich_of,
)
from hyposym.examples import builtin_system
from hyposym.pencils import hermitian_part
from hyposym.quasisym import sample_separation_set
from hyposym.reduction import assemble_path, block_sylvester
from hyposym.symbols import bracket, deleted_sigmas, rescaled_spectra
from oracles import (
    M4_DOUBLE_ZERO,
    M6_DOUBLE_ZERO,
    companion_symbol,
    difference_identity_residual_of,
    grid_data,
    lift_blocks,
)


def small_grid(symbol, n_t=41, n_r=6, r_max=100.0):
    return SamplingGrid.default(symbol, n_t=n_t, n_r=n_r, r_max=r_max)


def grid_points(grid):
    """(r, d, xi) of every frequency of the grid, in (r, d) order."""
    for r_idx, d_idx in np.ndindex(grid.radii.size, grid.dirs.shape[0]):
        yield r_idx, d_idx, grid.radii[r_idx] * grid.dirs[d_idx]


def constant_symbol(M, horizon=1.0):
    M = np.asarray(M, dtype=float)
    coeffs = np.zeros((1, M.shape[0], M.shape[0], 1))
    coeffs[..., 0] = M
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


def lifted_sandwich_of(W_lift, B):
    """Oracle: smallest C with |W_lift B V| <= C |W_lift V| from the lifted
    m^2 x m^2 matrices, on stacks.

    Computed on the orthogonal complement of ker(W*W) via a rank-revealing
    eigendecomposition; where the lower-order form acts outside that range
    the result is infinity.
    """
    WB = W_lift @ B
    G = hermitian_part(np.swapaxes(W_lift, -1, -2).conj() @ W_lift)
    Bq = hermitian_part(np.swapaxes(WB, -1, -2).conj() @ WB)
    vals, vecs = np.linalg.eigh(G)
    keep = vals > RANK_TOL * np.maximum(vals[..., -1:], 0.0)
    leak = np.where(keep, 0.0, np.linalg.norm(WB @ vecs, axis=-2))
    norm_B = np.linalg.norm(WB, axis=(-2, -1)) + 1.0
    unbounded = leak.max(axis=-1) > RANK_TOL * norm_B
    # Whitening by 1/sqrt(inf) zeroes the columns outside the kept range.
    white = vecs / np.sqrt(np.where(keep, vals, np.inf))[..., None, :]
    M = hermitian_part(np.swapaxes(white, -1, -2).conj() @ Bq @ white)
    top = np.linalg.eigvalsh(M)[..., -1]
    return np.where(unbounded, np.inf, np.sqrt(np.maximum(top, 0.0)))


def assert_sandwich_matches_lifted(W, b):
    """sandwich_of(W, b) against the lifted oracle: the same infinite points,
    finite values within 1e-13 relative, and each row bitwise its own call."""
    C = sandwich_of(W, b)
    ref = lifted_sandwich_of(lift_blocks(W), block_sylvester(np.zeros(W.shape), b)[1])
    np.testing.assert_array_equal(np.isinf(C), np.isinf(ref))
    finite = np.isfinite(ref)
    np.testing.assert_allclose(C[finite], ref[finite], rtol=1e-13, atol=0.0)
    for i in range(W.shape[0]):
        assert sandwich_of(W[i:i + 1], b[i:i + 1]).tobytes() == C[i:i + 1].tobytes()
    return C


def symmetriser_diagonals(lambdas) -> np.ndarray:
    """q_jj = sum_i sigma_{m-j}(pi_i lambda)^2 at index j = 1..m-1, as run_conditions sums them."""
    return _square_sums(deleted_sigmas(np.asarray(lambdas, dtype=float)))


def zone_of(V, lambdas, deltas) -> int:
    """Zone index of one reduced state through the stacked path of run_conditions."""
    return int(_zones(np.asarray(V, dtype=complex), symmetriser_diagonals(lambdas),
                      np.asarray(deltas, dtype=float)))


class TestKsConstant:
    def test_tracezero_is_one(self):
        S = builtin_system("m3-tracezero")
        rep = run_conditions(S, small_grid(S))
        value, witness = rep.ks_constant, rep.ks_witness
        assert value == pytest.approx(1.0, abs=1e-12)
        assert "t" in witness and "xi" in witness

    def test_strictly_hyperbolic_pair(self):
        S = builtin_system("m2-wave")  # rescaled spectrum (-s, s)
        value = run_conditions(S, small_grid(S)).ks_constant
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_coinciding_nonzero_reports_infinity(self):
        S = constant_symbol(np.eye(2))  # both eigenvalues equal s != 0
        rep = run_conditions(S, small_grid(S))
        value, witness = rep.ks_constant, rep.ks_witness
        assert value == np.inf
        assert witness["value"] == np.inf

    def test_empty_grid_rejected(self):
        S = builtin_system("m2-wave")
        with pytest.raises(DomainError):
            SamplingGrid(ts=np.zeros(0), radii=np.array([1.0]), dirs=np.array([[1.0]]))


class TestSymmetriserDiagonal:
    def test_tracezero_values(self):
        a, s = 0.81, 0.6
        lam = np.array([-np.sqrt(a) * s, 0.0, np.sqrt(a) * s])
        # q11 = sum of squared pair products = a^2 s^4 (single nonzero pair),
        # q22 = sum of squared pair sums = 2 a s^2.
        q = symmetriser_diagonals(lam)
        assert q[1] == pytest.approx(a ** 2 * s ** 4, rel=1e-12)
        assert q[2] == pytest.approx(2.0 * a * s ** 2, rel=1e-12)

    def test_m2_value(self):
        lam = np.array([0.3, -1.2])
        assert symmetriser_diagonals(lam)[1] == pytest.approx(lam[0] ** 2 + lam[1] ** 2)

    def test_zero_spectrum(self):
        q = symmetriser_diagonals(np.zeros(3))
        assert q[1] == 0.0 and q[2] == 0.0


class TestLeviRatios:
    def test_glaeser_ratio_two(self):
        S = builtin_system("m2-glaeser")
        grid = small_grid(S)
        rep = run_conditions(S, grid)
        sups, values = rep.levi_sups, rep.levi_values
        assert sups[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert sups[0, 1] == 0.0
        # pointwise: identically two away from the degenerate instant
        mask = grid.ts >= 0.1
        window = values[mask][..., 0, 0]
        np.testing.assert_allclose(window, 2.0, rtol=1e-10)

    def test_constant_coefficients_vanish(self):
        S = builtin_system("m2-wave")
        sups = run_conditions(S, small_grid(S)).levi_sups
        assert np.all(sups == 0.0)

    def test_m3_denominators_match_symmetriser_diagonal(self):
        S = builtin_system("m3-tracezero")
        grid = small_grid(S, n_t=5, n_r=2)
        data = grid_data(S, grid)
        lam = data.lambdas[3, 1, 0]
        den_l1 = (data.deleted_sigmas[3, 1, 0, :, 0] ** 2).sum()
        den_l2 = (data.deleted_sigmas[3, 1, 0, :, 1] ** 2).sum()
        q = symmetriser_diagonals(lam)
        assert den_l1 == pytest.approx(q[1], rel=1e-12)
        assert den_l2 == pytest.approx(q[2], rel=1e-12)


class TestThm2Ratios:
    def test_tracezero_finite_table(self):
        S = builtin_system("m3-tracezero")
        rep = run_conditions(S, small_grid(S))
        sups, values = rep.thm2_sups, rep.thm2_values
        assert np.all(np.isfinite(sups))
        assert np.all(np.isfinite(values))

    def test_constant_vanishes(self):
        S = builtin_system("m2-wave")
        sups = run_conditions(S, small_grid(S)).thm2_sups
        assert np.all(sups == 0.0)

    def test_m2_equivalence_with_levi(self):
        # For 2x2 systems the two conditions are finite together.
        for name in ("m2-glaeser", "m2-wave"):
            S = builtin_system(name)
            rep = run_conditions(S, small_grid(S))
            levi_vals, thm2_vals = rep.levi_values, rep.thm2_values
            assert np.isfinite(levi_vals).all() == np.isfinite(thm2_vals).all()

    def test_implication_thm2_finite_gives_levi_finite(self):
        for name in ("m2-glaeser", "m3-tracezero"):
            S = builtin_system(name)
            rep = run_conditions(S, small_grid(S, n_t=21, n_r=4))
            levi_vals, thm2_vals = rep.levi_values, rep.thm2_values
            m = S.m
            for l in range(m - 1):
                live = np.isfinite(thm2_vals[..., l])
                for j in range(m):
                    assert np.isfinite(levi_vals[..., l, j][live]).all()


class TestSandwichConstant:
    def test_zero_lower_order(self):
        S = builtin_system("m2-wave")
        value = sandwich_constant(S, 0.5, np.array([10.0]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_glaeser_against_random_sampling(self):
        S = builtin_system("m2-glaeser")
        t, xi = 1.0, np.array([10.0])
        value = sandwich_constant(S, t, xi)
        calA, calB = assemble_path(S, xi, [t])
        lam = np.sort(np.linalg.eigvals(
            calA[0, :2, :2] / bracket(xi)).real)
        Wl = lift_blocks(deleted_sigmas(lam))
        rng = np.random.default_rng(9)
        best = 0.0
        for _ in range(100_000):
            V = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            denom = np.linalg.norm(Wl @ V)
            if denom > 1e-12:
                best = max(best, np.linalg.norm(Wl @ (calB[0] @ V)) / denom)
        assert best <= value * (1 + 1e-9)
        assert best >= 0.95 * value

    def test_synthetic_large_entries(self):
        W = deleted_sigmas(np.array([-1.0, 0.5, 1.5]))[None]
        b = np.zeros((1, 2, 3, 3), dtype=complex)
        b[0, 0, :, 0] = 1e4   # calB[i*3 + 2, 0] for every band i
        value = assert_sandwich_matches_lifted(W, b)[0]
        assert np.isfinite(value) and value > 1e3

    def test_gram_product_beyond_the_double_range(self):
        """A row whose Gram product would overflow is scaled by a power of two
        and its C scaled back, exactly; a row that needs no scaling is bitwise."""
        rng = np.random.default_rng(7)
        W = deleted_sigmas(np.array([[-1.0, 0.5, 1.5]] * 2))
        b = rng.standard_normal((2, 2, 3, 3)) + 1j * rng.standard_normal((2, 2, 3, 3))
        C = assert_sandwich_matches_lifted(W, b)
        got = sandwich_of(W, b * np.array([1.0, 2.0 ** 600])[:, None, None, None])
        assert got[0] == C[0] and got[1] == np.ldexp(C[1], 600)

    def test_monotone_envelope_against_levi(self):
        # The sandwich constant is controlled by a monotone function of the
        # lower-order ratios; for this example the envelope C <= alpha sqrt(L)
        # holds pointwise with alpha = sqrt(2), frozen as a regression value.
        S = builtin_system("m2-glaeser")
        grid = SamplingGrid.default(S, n_t=21, n_r=5, r_max=1000.0)
        levi = run_conditions(S, grid).levi_values
        alpha_frozen = np.sqrt(2.0)
        for r_idx, d_idx, xi in grid_points(grid):
            for t_idx in range(grid.ts.size):
                L = levi[t_idx, r_idx, d_idx].max()
                C = sandwich_constant(S, grid.ts[t_idx], xi)
                if L > 1e-14:
                    assert C <= alpha_frozen * np.sqrt(L) * (1 + 1e-9)
                else:
                    assert C <= 1e-10

    def test_leak_outside_range_is_infinite(self):
        W = deleted_sigmas(np.array([1.0, 1.0]))[None]  # coinciding: W is singular
        b = np.zeros((1, 1, 2, 2), dtype=complex)
        b[0, 0, 0, 0] = 1.0   # calB[1, 0]
        b[0, 0, 1, 1] = 1.0   # calB[3, 2]
        assert assert_sandwich_matches_lifted(W, b)[0] == np.inf


def _every_fourth_t(data):
    """The (W, b) stacks of run_conditions' sandwich: every 4th t, flattened."""
    m = data.lambdas.shape[-1]
    return (data.deleted_sigmas[::4].reshape(-1, m, m),
            data.b_entries[::4].reshape(-1, m - 1, m, m))


class TestSandwichAgainstLifted:
    @pytest.mark.parametrize("name, infinite", [
        ("m2-glaeser", 0), ("m2-wave", 0), ("m2-nonhyp-control", 0), ("m3-tracezero", 194),
    ])
    def test_builtin_default_grids(self, name, infinite):
        S = builtin_system(name)
        C = assert_sandwich_matches_lifted(*_every_fourth_t(
            grid_data(S, SamplingGrid.default(S))))
        assert np.count_nonzero(np.isinf(C)) == infinite

    @pytest.mark.parametrize("symbol, n_t, n_r", [
        (M4_DOUBLE_ZERO, 41, 8),   # the report-m4 grid
        (M6_DOUBLE_ZERO, 21, 4),
    ])
    def test_inline_systems(self, symbol, n_t, n_r):
        grid = SamplingGrid.default(symbol, n_t=n_t, n_r=n_r)
        C = assert_sandwich_matches_lifted(*_every_fourth_t(grid_data(symbol, grid)))
        assert np.isinf(C).any() and np.isfinite(C).any()

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_random_stacks_with_coalescing_tuples(self, m):
        """Tuples drawn from four values, so most repeat one: singular W.
        Half the rows project b off ker W and stay finite; the rest leak."""
        rng = np.random.default_rng(m)
        lams = rng.choice([-1.5, -0.5, 0.0, 2.0], size=(64, m))
        W = deleted_sigmas(lams)
        shape = (64, m - 1, m, m)
        b = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
             * 10.0 ** rng.uniform(-3.0, 3.0, (64, 1, 1, 1)))
        for row in range(0, 64, 2):
            _, s, vt = np.linalg.svd(W[row])
            null = vt[s <= RANK_TOL * s[0], : m - 1].T
            if null.size:
                basis, _ = np.linalg.qr(null)
                b[row] -= np.einsum("lk,pk,pij->lij", basis, basis.conj(), b[row])
        C = assert_sandwich_matches_lifted(W, b)
        assert np.isfinite(C).any() and np.isinf(C).any()


def _sandwich_loop(symbol, grid):
    """Per-point oracle: every 4th t, first maximiser in (r, d, t) order."""
    sup, witness = 0.0, {}
    for _, _, xi in grid_points(grid):
        for t_idx in range(0, grid.ts.size, 4):
            value = sandwich_constant(symbol, grid.ts[t_idx], xi)
            if value > sup:
                sup = value
                witness = {"t": float(grid.ts[t_idx]), "xi": xi.tolist(), "value": value}
    return sup, witness


@pytest.mark.parametrize("name, kind, n_t", [
    ("m2-glaeser", "finite", 21), ("m2-wave", "zero", 21),
    # the tracezero sandwich is unbounded only near t = 0 (t <= 0.02 here)
    ("m3-tracezero", "inf", 201),
])
def test_grid_sandwich_matches_per_point_loop(name, kind, n_t):
    S = builtin_system(name)
    grid = small_grid(S, n_t=n_t, n_r=3)
    report = run_conditions(S, grid)
    sup, witness = _sandwich_loop(S, grid)
    if kind == "zero":
        assert report.sandwich_sup == sup == 0.0
        assert report.sandwich_witness == witness == {}
        return
    assert report.sandwich_witness["t"] == witness["t"]
    assert report.sandwich_witness["xi"] == witness["xi"]
    if kind == "inf":
        assert report.sandwich_sup == sup == np.inf
    else:
        assert np.isfinite(sup) and sup > 0.0
        assert report.sandwich_sup == pytest.approx(sup, rel=1e-12)


def choose_deltas(symbol: SystemSymbol, t: float, xi, n_states: int = 256,
                  seed: int = 0, max_doublings: int = 40) -> np.ndarray:
    """Doubling search for zone thresholds that make the piecewise bounds hold.

    Starting from delta_h = 1, doubles all thresholds until, on a seeded
    sample of states, every nonempty zone shows a strictly positive lower
    constant min |W V|^2 / (S_h T_h) for its designated group.
    """
    m = symbol.m
    if m == 2:
        return np.zeros(0)
    lam = rescaled_spectra(symbol, np.array([float(t)]), xi).lambdas[0]
    W = deleted_sigmas(lam)
    Wl = lift_blocks(W)
    sig_sq = _square_sums(W)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n_states, m * m)) + 1j * rng.standard_normal((n_states, m * m))
    deltas = np.ones(m - 2)
    for _ in range(max_doublings):
        ok = True
        for V, h in zip(states, _zones(states, sig_sq, deltas)):
            T_h = float(np.sum(np.abs(V[h - 1 :: m]) ** 2))
            denom = sig_sq[h] * T_h
            if denom <= ABS_FLOOR:
                continue
            lower = float(np.linalg.norm(Wl @ V) ** 2) / denom
            if lower <= ABS_FLOOR:
                ok = False
                break
        if ok:
            return deltas
        deltas = deltas * 2.0
    return deltas


class TestZoneClassify:
    def test_zero_state_first_zone(self):
        assert zone_of(np.zeros(9), np.array([0.1, 0.5, 1.0]), [1.0]) == 1

    def test_middle_components_complement(self):
        V = np.zeros(9, dtype=complex)
        V[1] = V[4] = V[7] = 1.0
        assert zone_of(V, np.array([0.1, 0.5, 1.0]), [1.0]) == 2

    def test_m2_always_first(self):
        assert zone_of(np.ones(4), np.array([0.3, 0.9]), []) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        lam = np.array([0.2, -0.7, 1.1])
        V = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        h = zone_of(V, lam, [2.0])
        assert zone_of(1e6 * V, lam, [2.0]) == h
        assert zone_of(1e-6 * V, lam, [2.0]) == h

    @given(data=st.data())
    def test_permutation_invariance(self, data):
        lam = [0.4, -1.0, 0.8]
        perm = data.draw(st.permutations(lam))
        rng = np.random.default_rng(8)
        V = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert zone_of(V, np.array(perm), [1.5]) == zone_of(V, np.array(lam), [1.5])

    def test_choose_deltas_tracezero(self):
        S = builtin_system("m3-tracezero")
        deltas = choose_deltas(S, 0.9, np.array([10.0]))
        assert deltas.shape == (1,)
        assert deltas[0] >= 1.0


@dataclass(frozen=True)
class LemmaReport:
    difference_identity_residual: float
    grouped_bound_constant: float


def grouped_bound_constant_of(lambdas, V_batch: np.ndarray) -> float:
    """Fitted constant for the lower bound on grouped W-products.

    Largest ratio RHS/LHS over the batch, where for each k
    LHS = sum_{l,i} |sum_{j>=k} sigma_{m-j}(pi_i l) V_{j+lm}|^2 and
    RHS = sum_i sigma_{m-k}(pi_i l)^2 * sum_l |V_{k+lm}|^2.
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    m = lam.size
    V_batch = np.atleast_2d(np.asarray(V_batch, dtype=complex))
    W = deleted_sigmas(lam)   # W[i, j-1] = sigma_{m-j}(pi_i l)
    worst = 0.0
    for V in V_batch:
        blocks = V.reshape(m, m)  # blocks[l, j-1] = V_{j + l m}
        for k in range(1, m + 1):
            lhs = 0.0
            for l in range(m):
                partial = W[:, k - 1 :] @ blocks[l, k - 1 :]
                lhs += float(np.sum(np.abs(partial) ** 2))
            rhs = float((W[:, k - 1] ** 2).sum() * np.sum(np.abs(blocks[:, k - 1]) ** 2))
            if rhs > ABS_FLOOR:
                if lhs == 0.0:
                    return float("inf")
                worst = max(worst, rhs / lhs)
    return worst


def lemma_identities_check(lambdas, n_states: int = 64, seed: int = 0) -> LemmaReport:
    """Exact identity residual plus the fitted inequality constant at one lambda."""
    lam = np.asarray(lambdas, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    m = lam.size
    V = rng.standard_normal((n_states, m * m)) + 1j * rng.standard_normal((n_states, m * m))
    return LemmaReport(
        difference_identity_residual=difference_identity_residual_of(lam),
        grouped_bound_constant=grouped_bound_constant_of(lam, V),
    )


class TestLemmaIdentities:
    def test_m2_hand_case(self):
        lam = np.array([1.7, -0.4])
        assert difference_identity_residual_of(lam) <= 1e-14

    def test_integer_spectrum_exact(self):
        assert difference_identity_residual_of(np.array([1.0, 2.0, 3.0])) <= 1e-14

    def test_coinciding_values_both_sides_vanish(self):
        assert difference_identity_residual_of(np.array([0.9, 0.9, -0.3])) <= 1e-14

    def test_random_all_dimensions(self):
        rng = np.random.default_rng(23)
        for m in (2, 3, 4, 5):
            for _ in range(20):
                assert difference_identity_residual_of(rng.uniform(-3, 3, m)) <= 1e-12

    def test_grouped_bound_constant_finite_on_separation_set(self):
        lams = sample_separation_set(3, 10.0, 50, seed=29)
        rng = np.random.default_rng(31)
        worst = 0.0
        for lam in lams:
            V = rng.standard_normal((20, 9)) + 1j * rng.standard_normal((20, 9))
            c = grouped_bound_constant_of(lam, V)
            assert np.isfinite(c)
            worst = max(worst, c)
        assert worst > 0.0

    def test_report_shape(self):
        rep = lemma_identities_check(np.array([0.5, -0.5, 1.5]), n_states=16, seed=0)
        assert rep.difference_identity_residual <= 1e-12
        assert np.isfinite(rep.grouped_bound_constant)


class TestRunConditions:
    def test_glaeser_report(self):
        S = builtin_system("m2-glaeser")
        rep = run_conditions(S, small_grid(S))
        assert rep.ks_constant == pytest.approx(0.5, abs=1e-12)
        assert rep.levi_sups[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert rep.thm2_sups[0] == pytest.approx(2.0, rel=1e-12)
        assert np.isfinite(rep.sandwich_sup)
        assert rep.nonhyperbolic_points == 0
        assert rep.zone_stats == {1: sum(rep.zone_stats.values())}
        assert np.isfinite(rep.implication_constant)

    def test_ks_large_frequency_invariance(self):
        # the ratio stabilises once <xi> ~ |xi|
        S = builtin_system("m3-tracezero")
        vals = {}
        for r in (1e3, 1e4):
            grid = SamplingGrid(ts=np.linspace(0, 1, 21), radii=np.array([r]),
                                dirs=np.array([[1.0], [-1.0]]))
            vals[r] = run_conditions(S, grid).ks_constant
        assert vals[1e3] == pytest.approx(vals[1e4], abs=1e-4)

    def test_control_system_flagged(self):
        S = builtin_system("m2-nonhyp-control")
        rep = run_conditions(S, small_grid(S, n_t=11, n_r=3))
        assert rep.nonhyperbolic_points > 0

    def test_two_dimensional_frequency_grid(self):
        # multi-dimensional xi is supported by the symbol algebra and the
        # sampling grid; directions are unit vectors
        coeffs = np.zeros((2, 2, 2, 1))
        coeffs[0, 0, 1, 0] = 1.0
        coeffs[0, 1, 0, 0] = 1.0
        coeffs[1, 0, 0, 0] = 1.0
        coeffs[1, 1, 1, 0] = 1.0
        S = SystemSymbol(coeffs=coeffs, horizon=1.0)
        grid = SamplingGrid.default(S, n_t=5, n_r=3, n_dirs=8)
        assert grid.dirs.shape == (8, 2)
        np.testing.assert_allclose(np.linalg.norm(grid.dirs, axis=1), 1.0)
        value = run_conditions(S, grid).ks_constant
        assert np.isfinite(value)

    def test_grid_frequencies_are_radius_times_direction(self):
        for n, n_dirs in ((1, 2), (2, 7), (3, 5)):
            S = SystemSymbol(coeffs=np.ones((n, 2, 2, 1)), horizon=1.0)
            grid = SamplingGrid.default(S, n_t=3, n_r=6, n_dirs=n_dirs)
            xis = grid.xis
            assert xis.shape == (6, grid.dirs.shape[0], n)
            for r_idx, d_idx, xi in grid_points(grid):
                assert xis[r_idx, d_idx].tobytes() == xi.tobytes(), (n, r_idx, d_idx)


class TestEvaluateGridStacked:
    """The one-assembler, time-blocked evaluate_grid against a per-point loop."""

    @staticmethod
    def per_point(symbol, grid):
        from hyposym.reduction import PathAssembler
        from hyposym.symbols import eval_symbol_path, faddeev_leverrier, time_derivative

        m = symbol.m
        T, R, D = grid.shape
        char0 = np.zeros((T, R, D, m + 1))
        b = np.zeros((T, R, D, m - 1, m, m), dtype=complex)
        norms = np.zeros((T, R, D, m - 1))
        for r_idx, d_idx, xi in grid_points(grid):
            bxi = bracket(xi)
            A = eval_symbol_path(symbol, grid.ts, xi)
            char0[:, r_idx, d_idx] = faddeev_leverrier(A / bxi).real
            b[:, r_idx, d_idx] = PathAssembler(symbol, xi).reduce(grid.ts)[1]
            for k in range(1, m):
                dA0 = eval_symbol_path(time_derivative(symbol, k), grid.ts, xi) / bxi
                norms[:, r_idx, d_idx, k - 1] = np.linalg.svd(dA0, compute_uv=False)[:, 0]
        return char0, b, norms

    @staticmethod
    def symbol(name):
        if name == "n2-inline":
            rng = np.random.default_rng(5)
            return SystemSymbol(coeffs=rng.standard_normal((2, 3, 3, 3)), horizon=1.0)
        if name == "n1-sparse-m5":
            # half the coefficients zero: SVDs of X and -X differ in the last bits
            rng = np.random.default_rng(1)
            coeffs = rng.standard_normal((1, 5, 5, 3))
            coeffs[rng.random(coeffs.shape) < 0.5] = 0.0
            return SystemSymbol(coeffs=coeffs, horizon=1.0)
        if name == "m4-inline":
            return M4_DOUBLE_ZERO
        return builtin_system(name)

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero", "n2-inline", "m4-inline",
                                      "n1-sparse-m5"])
    def test_bitwise_per_point(self, name, monkeypatch):
        """Spectra and calB everywhere, and the derivative norms of every
        direction that is not the negation of an earlier one, are bitwise."""
        import hyposym.conditions as conditions
        from hyposym.symbols import spectra

        S = self.symbol(name)
        grid = SamplingGrid.default(S, n_t=37, n_r=5, n_dirs=7)
        # several time blocks, the last one short
        monkeypatch.setattr(conditions, "_GRID_BLOCK", 8 * grid.shape[1] * grid.shape[2])
        data = grid_data(S, grid)
        char0, b, norms = self.per_point(S, grid)
        spec = spectra(char0)
        assert data.lambdas.tobytes() == spec.lambdas.tobytes()
        assert data.nonhyperbolic == np.count_nonzero(~spec.hyperbolic)
        assert data.b_entries.tobytes() == b.tobytes()
        lead = slice(None) if S.n > 1 else slice(0, 1)   # on a 1-d grid, -1 mirrors +1
        assert data.dtA0_norms[:, :, lead].tobytes() == norms[:, :, lead].tobytes()

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero", "m4-inline", "n1-sparse-m5"])
    def test_negated_direction_norms_within_rounding(self, name):
        """The direction -1 takes the derivative norms of +1: equal to the
        per-point SVD of -X within 1e-15 of the norm (up to 8.6e-16 seen on
        random systems with zero entries), and bitwise on the rank-one
        derivatives of the built-in and report-m4 systems."""
        S = self.symbol(name)
        grid = SamplingGrid.default(S, n_t=37, n_r=5)
        got = grid_data(S, grid).dtA0_norms
        _, _, norms = self.per_point(S, grid)
        assert np.all(np.abs(got - norms) <= 1e-15 * norms)
        if name != "n1-sparse-m5":
            assert got.tobytes() == norms.tobytes()

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero", "m4-inline"])
    def test_paths_per_block(self, name, monkeypatch):
        """On a one-dimensional grid each time block evaluates A once on the
        whole grid, for the rescaled coefficients, and the derivative paths
        that are not identically zero once on the direction +1, for the terms
        and the norms alike: all m of them, but 3 for m4-inline, of degree 2."""
        import hyposym.conditions as conditions
        import hyposym.reduction as reduction
        from hyposym.symbols import eval_symbol_path

        calls = []

        def counting(symbol, ts, xi):
            calls.append(len(ts))
            return eval_symbol_path(symbol, ts, xi)

        for module in (conditions, reduction):
            monkeypatch.setattr(module, "eval_symbol_path", counting)
        S = self.symbol(name)
        paths = {"m2-glaeser": 2, "m3-tracezero": 3, "m4-inline": 3}[name]
        grid = SamplingGrid.default(S, n_t=37, n_r=5)
        monkeypatch.setattr(conditions, "_GRID_BLOCK", 8 * grid.shape[1] * grid.shape[2])
        grid_data(S, grid)
        blocks = -(-grid.shape[0] // 8)
        assert len(calls) == blocks * (paths + 1)
        assert sum(calls) == grid.shape[0] * (paths + 1)


# The n = 2, m = 3 inline system of scripts/run_example_reports.py.
N2_M3 = SystemSymbol(coeffs=np.array([
    [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
     [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]]), horizon=1.0)


def report_bytes(report) -> dict:
    """Every field of a ConditionReport but its grid: arrays as bytes, the
    rest by repr, which spells each float exactly."""
    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name != "grid":
            out[f.name] = value.tobytes() if isinstance(value, np.ndarray) else repr(value)
    return out


class TestTimeBlocks:
    """run_conditions evaluates the grid one time block at a time."""

    @pytest.mark.parametrize("symbol, n_dirs", [
        (builtin_system("m3-tracezero"), 16), (builtin_system("m2-glaeser"), 16), (N2_M3, 7),
    ], ids=["m3-tracezero", "m2-glaeser", "n2-m3"])
    def test_report_does_not_depend_on_the_block_size(self, symbol, n_dirs, monkeypatch):
        """Blocks of 1, 3, 5 and 8 time samples (the every-4th-sample slice
        starts at an offset in most of them, and is empty in many blocks of
        1 and 3), one block for the whole grid, and the default: every
        field, the sandwich witness and zone_stats included, is bit for bit
        the same."""
        import hyposym.conditions as conditions

        grid = SamplingGrid.default(symbol, n_t=37, n_r=5, n_dirs=n_dirs)
        points = grid.shape[1] * grid.shape[2]
        report = run_conditions(symbol, grid, seed=3)
        assert report.sandwich_witness and len(report.zone_stats) > (symbol.m > 2)
        want = report_bytes(report)
        for per_block in (1, 3, 5, 8, grid.shape[0]):
            monkeypatch.setattr(conditions, "_GRID_BLOCK", per_block * points)
            assert report_bytes(run_conditions(symbol, grid, seed=3)) == want, per_block

    def test_traced_peak_on_the_default_m3_grid(self):
        """No whole-grid GridData: on the 12,864 points of m3-tracezero,
        run_conditions peaks at 2.9 MiB of traced memory (8.5 MiB when it
        held the whole grid's W rows and calB entries)."""
        import tracemalloc

        S = builtin_system("m3-tracezero")
        grid = SamplingGrid.default(S)
        run_conditions(S, grid)   # lazy imports and caches outside the measurement
        tracemalloc.start()
        try:
            run_conditions(S, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


def test_calB_overflow_at_the_largest_radius_names_its_first_point():
    """A = xi [[0, 1], [c t, 0]] with c = 1e305 and t <= 1e-3: A, <xi> and the
    rescaled characteristic coefficients stay finite on the whole grid, and
    bold_B_1 = -i xi c at entry (1, 0) overflows at radius 1e4 only."""
    from hyposym.errors import NumericError

    S = companion_symbol([[0.0, 1e305], [0.0]], horizon=1e-3)
    data = grid_data(S, SamplingGrid.default(S, n_t=5, n_r=2, r_max=100.0))
    assert np.isfinite(data.b_entries).all() and np.isfinite(data.lambdas).all()
    with pytest.raises(NumericError) as exc:
        grid_data(S, SamplingGrid.default(S, n_t=5, n_r=3, r_max=1e4))
    assert str(exc.value) == "a lower-order entry of calB is not finite at (t=0.0, xi=[10000.0])"
