import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from hyposym import (
    DomainError,
    SamplingGrid,
    SystemSymbol,
    assemble,
    ks_constant,
    lemma_identities_check,
    levi_ratios,
    run_conditions,
    sandwich_constant,
    symmetriser_diagonal,
    thm2_ratios,
    zone_classify,
)
from hyposym.conditions import (
    evaluate_grid,
    difference_identity_residual_of,
    grouped_bound_constant_of,
    sandwich_of,
    choose_deltas,
)
from hyposym.examples import builtin_system
from hyposym.quasisym import build_W, lift_blocks, sample_separation_set
from hyposym.symbols import bracket


def small_grid(symbol, n_t=41, n_r=6, r_max=100.0):
    return SamplingGrid.default(symbol, n_t=n_t, n_r=n_r, r_max=r_max)


def constant_symbol(M, horizon=1.0):
    M = np.asarray(M, dtype=float)
    coeffs = np.zeros((1, M.shape[0], M.shape[0], 1))
    coeffs[..., 0] = M
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


class TestKsConstant:
    def test_tracezero_is_one(self):
        S = builtin_system("m3-tracezero")
        value, witness = ks_constant(S, small_grid(S))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert "t" in witness and "xi" in witness

    def test_strictly_hyperbolic_pair(self):
        S = builtin_system("m2-wave")  # rescaled spectrum (-s, s)
        value, _ = ks_constant(S, small_grid(S))
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_coinciding_nonzero_reports_infinity(self):
        S = constant_symbol(np.eye(2))  # both eigenvalues equal s != 0
        value, witness = ks_constant(S, small_grid(S))
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
        assert symmetriser_diagonal(lam, 1) == pytest.approx(a ** 2 * s ** 4, rel=1e-12)
        assert symmetriser_diagonal(lam, 2) == pytest.approx(2.0 * a * s ** 2, rel=1e-12)

    def test_m2_value(self):
        lam = np.array([0.3, -1.2])
        assert symmetriser_diagonal(lam, 1) == pytest.approx(lam[0] ** 2 + lam[1] ** 2)

    def test_zero_spectrum(self):
        assert symmetriser_diagonal(np.zeros(3), 1) == 0.0
        assert symmetriser_diagonal(np.zeros(3), 2) == 0.0

    def test_index_range(self):
        with pytest.raises(DomainError):
            symmetriser_diagonal(np.zeros(3), 3)
        with pytest.raises(DomainError):
            symmetriser_diagonal(np.zeros(3), 0)


class TestLeviRatios:
    def test_glaeser_ratio_two(self):
        S = builtin_system("m2-glaeser")
        grid = small_grid(S)
        sups, values, _ = levi_ratios(S, grid)
        assert sups[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert sups[0, 1] == 0.0
        # pointwise: identically two away from the degenerate instant
        mask = grid.ts >= 0.1
        window = values[mask][..., 0, 0]
        np.testing.assert_allclose(window, 2.0, rtol=1e-10)

    def test_constant_coefficients_vanish(self):
        S = builtin_system("m2-wave")
        sups, _, _ = levi_ratios(S, small_grid(S))
        assert np.all(sups == 0.0)

    def test_m3_denominators_match_symmetriser_diagonal(self):
        S = builtin_system("m3-tracezero")
        grid = small_grid(S, n_t=5, n_r=2)
        data = evaluate_grid(S, grid)
        lam = data.lambdas[3, 1, 0]
        den_l1 = (data.deleted_sigmas[3, 1, 0, :, 0] ** 2).sum()
        den_l2 = (data.deleted_sigmas[3, 1, 0, :, 1] ** 2).sum()
        assert den_l1 == pytest.approx(symmetriser_diagonal(lam, 1), rel=1e-12)
        assert den_l2 == pytest.approx(symmetriser_diagonal(lam, 2), rel=1e-12)


class TestThm2Ratios:
    def test_tracezero_finite_table(self):
        S = builtin_system("m3-tracezero")
        sups, values, _ = thm2_ratios(S, small_grid(S))
        assert np.all(np.isfinite(sups))
        assert np.all(np.isfinite(values))

    def test_constant_vanishes(self):
        S = builtin_system("m2-wave")
        sups, _, _ = thm2_ratios(S, small_grid(S))
        assert np.all(sups == 0.0)

    def test_m2_equivalence_with_levi(self):
        # For 2x2 systems the two conditions are finite together.
        for name in ("m2-glaeser", "m2-wave"):
            S = builtin_system(name)
            grid = small_grid(S)
            levi_sups, levi_vals, _ = levi_ratios(S, grid)
            thm2_sups, thm2_vals, _ = thm2_ratios(S, grid)
            assert np.isfinite(levi_vals).all() == np.isfinite(thm2_vals).all()

    def test_implication_thm2_finite_gives_levi_finite(self):
        for name in ("m2-glaeser", "m3-tracezero"):
            S = builtin_system(name)
            grid = small_grid(S, n_t=21, n_r=4)
            _, levi_vals, _ = levi_ratios(S, grid)
            _, thm2_vals, _ = thm2_ratios(S, grid)
            m = S.m
            for l in range(m - 1):
                live = np.isfinite(thm2_vals[..., l])
                for j in range(m):
                    assert np.isfinite(levi_vals[..., l, j][live]).all()


class TestSandwichConstant:
    def test_zero_lower_order(self):
        S = builtin_system("m2-wave")
        value, witness = sandwich_constant(S, 0.5, np.array([10.0]))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert witness is None

    def test_glaeser_against_random_sampling(self):
        S = builtin_system("m2-glaeser")
        t, xi = 1.0, np.array([10.0])
        value, _ = sandwich_constant(S, t, xi)
        red = assemble(S, t, xi)
        lam = np.sort(np.linalg.eigvals(
            red.calA[:2, :2] / bracket(xi)).real)
        Wl = lift_blocks(build_W(lam))
        rng = np.random.default_rng(9)
        best = 0.0
        for _ in range(100_000):
            V = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            denom = np.linalg.norm(Wl @ V)
            if denom > 1e-12:
                best = max(best, np.linalg.norm(Wl @ (red.calB @ V)) / denom)
        assert best <= value * (1 + 1e-9)
        assert best >= 0.95 * value

    def test_synthetic_large_entries(self):
        lam = np.array([-1.0, 0.5, 1.5])
        Wl = lift_blocks(build_W(lam))
        B = np.zeros((9, 9), dtype=complex)
        for i in range(3):
            B[i * 3 + 2, 0] = 1e4
        value, _ = sandwich_of(Wl, B)
        assert np.isfinite(value) and value > 1e3

    def test_monotone_envelope_against_levi(self):
        # The sandwich constant is controlled by a monotone function of the
        # lower-order ratios; for this example the envelope C <= alpha sqrt(L)
        # holds pointwise with alpha = sqrt(2), frozen as a regression value.
        from hyposym.conditions import evaluate_grid, levi_pointwise

        S = builtin_system("m2-glaeser")
        grid = SamplingGrid.default(S, n_t=21, n_r=5, r_max=1000.0)
        levi = levi_pointwise(evaluate_grid(S, grid))
        alpha_frozen = np.sqrt(2.0)
        for r_idx, d_idx, xi in grid.points():
            for t_idx in range(grid.ts.size):
                L = levi[t_idx, r_idx, d_idx].max()
                C, _ = sandwich_constant(S, grid.ts[t_idx], xi)
                if L > 1e-14:
                    assert C <= alpha_frozen * np.sqrt(L) * (1 + 1e-9)
                else:
                    assert C <= 1e-10

    def test_leak_outside_range_is_infinite(self):
        lam = np.array([1.0, 1.0])  # coinciding: W is singular
        Wl = lift_blocks(build_W(lam))
        B = np.zeros((4, 4), dtype=complex)
        B[1, 0] = 1.0
        B[3, 2] = 1.0
        value, witness = sandwich_of(Wl, B)
        assert value == np.inf
        assert witness is not None


def _sandwich_loop(symbol, grid):
    """Per-point oracle: every 4th t, first maximiser in (r, d, t) order."""
    sup, witness = 0.0, {}
    for _, _, xi in grid.points():
        for t_idx in range(0, grid.ts.size, 4):
            value, _ = sandwich_constant(symbol, grid.ts[t_idx], xi)
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


class TestZoneClassify:
    def test_zero_state_first_zone(self):
        assert zone_classify(np.zeros(9), np.array([0.1, 0.5, 1.0]), [1.0]) == 1

    def test_middle_components_complement(self):
        V = np.zeros(9, dtype=complex)
        V[1] = V[4] = V[7] = 1.0
        assert zone_classify(V, np.array([0.1, 0.5, 1.0]), [1.0]) == 2

    def test_m2_always_first(self):
        assert zone_classify(np.ones(4), np.array([0.3, 0.9]), []) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        lam = np.array([0.2, -0.7, 1.1])
        V = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        h = zone_classify(V, lam, [2.0])
        assert zone_classify(1e6 * V, lam, [2.0]) == h
        assert zone_classify(1e-6 * V, lam, [2.0]) == h

    @given(data=st.data())
    def test_permutation_invariance(self, data):
        lam = [0.4, -1.0, 0.8]
        perm = data.draw(st.permutations(lam))
        rng = np.random.default_rng(8)
        V = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert zone_classify(V, np.array(perm), [1.5]) == zone_classify(V, np.array(lam), [1.5])

    def test_choose_deltas_tracezero(self):
        S = builtin_system("m3-tracezero")
        deltas = choose_deltas(S, 0.9, np.array([10.0]))
        assert deltas.shape == (1,)
        assert deltas[0] >= 1.0


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
            vals[r], _ = ks_constant(S, grid)
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
        value, _ = ks_constant(S, grid)
        assert np.isfinite(value)


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
        for r_idx, d_idx, xi in grid.points():
            bxi = bracket(xi)
            A = eval_symbol_path(symbol, grid.ts, xi)
            char0[:, r_idx, d_idx] = faddeev_leverrier(A / bxi).real
            b[:, r_idx, d_idx] = PathAssembler(symbol, xi).reduce(grid.ts)[1]
            for k in range(1, m):
                dA0 = eval_symbol_path(time_derivative(symbol, k), grid.ts, xi) / bxi
                norms[:, r_idx, d_idx, k - 1] = np.linalg.svd(dA0, compute_uv=False)[:, 0]
        return char0, b, norms

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero", "n2-inline"])
    def test_bitwise_per_point(self, name, monkeypatch):
        import hyposym.conditions as conditions
        from hyposym.symbols import spectra

        if name == "n2-inline":
            rng = np.random.default_rng(5)
            S = SystemSymbol(coeffs=rng.standard_normal((2, 3, 3, 3)), horizon=1.0)
        else:
            S = builtin_system(name)
        grid = SamplingGrid.default(S, n_t=37, n_r=5, n_dirs=7)
        # several time blocks, the last one short
        monkeypatch.setattr(conditions, "_GRID_BLOCK", 8 * grid.shape[1] * grid.shape[2])
        data = evaluate_grid(S, grid)
        char0, b, norms = self.per_point(S, grid)
        assert data.lambdas.tobytes() == spectra(char0).lambdas.tobytes()
        assert data.b_entries.tobytes() == b.tobytes()
        assert data.dtA0_norms.tobytes() == norms.tobytes()
