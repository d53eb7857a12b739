import numpy as np
import pytest
from math import comb

from hyposym import (
    DomainError,
    SystemSymbol,
    eval_symbol,
    reduction_residual,
    time_derivative,
)
from hyposym.energy import SolverConfig, direct_integrate
from hyposym.examples import builtin_system
from hyposym.reduction import (
    PathAssembler,
    SeparablePath,
    assemble_path,
    derivative_maps,
    initial_states,
    lift_trajectory,
)
from hyposym.symbols import bracket, brackets, eval_symbol_path, faddeev_leverrier, rescaled_spectra


def dense_symbol(m, seed, degree=2, horizon=1.0):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, (1, m, m, degree + 1))
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


def blocks_at(S, t, xi):
    """(bold_A, bold_B) at one (t, xi)."""
    _, _, bold_A, bold_B, _ = PathAssembler(S, xi).reduce([t])
    return [B[0] for B in bold_A], [B[0] for B in bold_B]


def state_at(S, u0, xi):
    """The reduced state of u-hat(0, xi) = u0 at one frequency xi."""
    return initial_states(S, np.asarray(u0, dtype=complex)[None], xi[None])[0]


class TestBoldA:
    def test_order_zero_is_identity(self):
        S = dense_symbol(3, 1)
        np.testing.assert_array_equal(blocks_at(S, 0.5, np.array([2.0]))[0][0], np.eye(3))

    def test_m3_first_order(self):
        S = dense_symbol(3, 2)
        t, xi = 0.3, np.array([1.5])
        A = eval_symbol(S, t, xi)
        np.testing.assert_allclose(
            blocks_at(S, t, xi)[0][1], A - np.trace(A) * np.eye(3), atol=1e-12
        )

    def test_zero_symbol(self):
        S = SystemSymbol(coeffs=np.zeros((1, 3, 3, 1)), horizon=1.0)
        for h in (1, 2):
            np.testing.assert_array_equal(blocks_at(S, 0.0, np.array([1.0]))[0][h],
                                          np.zeros((3, 3)))


class TestBoldB:
    def test_m2_is_time_derivative(self):
        S = builtin_system("m2-glaeser")
        t, xi = 0.7, np.array([3.0])
        dA = eval_symbol(time_derivative(S, 1), t, xi)
        np.testing.assert_allclose(blocks_at(S, t, xi)[1][0], -1j * dA, atol=1e-12)

    def test_m3_second_matrix(self):
        S = dense_symbol(3, 5)
        t, xi = 0.4, np.array([2.0])
        dA = eval_symbol(time_derivative(S, 1), t, xi)
        np.testing.assert_allclose(blocks_at(S, t, xi)[1][1], 2.0 * (-1j) * dA, atol=1e-12)

    def test_m3_first_matrix(self):
        S = dense_symbol(3, 6)
        t, xi = 0.9, np.array([1.0])
        A = eval_symbol(S, t, xi)
        dA = -1j * eval_symbol(time_derivative(S, 1), t, xi)
        d2A = (-1j) ** 2 * eval_symbol(time_derivative(S, 2), t, xi)
        expected = d2A + (A - np.trace(A) * np.eye(3)) @ dA
        np.testing.assert_allclose(blocks_at(S, t, xi)[1][0], expected, atol=1e-12)

    def test_polynomial_identity_consistency(self):
        # The regrouped matrices must reproduce the double-sum expansion of
        # the lower-order operator coefficient by coefficient in a formal
        # commuting variable.
        for m, seed in ((2, 11), (3, 12), (4, 13), (5, 14)):
            S = dense_symbol(m, seed, degree=3)
            t, xi = 0.6, np.array([1.3])
            bold_A, bold_B = blocks_at(S, t, xi)
            direct = [np.zeros((m, m), dtype=complex) for _ in range(m - 1)]
            for h in range(m - 1):
                Ah = bold_A[h]
                for hp in range(h, m - 1):
                    k = hp + 1 - h
                    dA = (-1j) ** k * eval_symbol(time_derivative(S, k), t, xi)
                    direct[m - 2 - hp] += comb(m - 1 - h, k) * (Ah @ dA)
            for l in range(1, m):
                regrouped = bold_B[l - 1]
                scale = 1.0 + np.abs(regrouped).max()
                assert np.abs(regrouped - direct[l - 1]).max() / scale <= 1e-12


class TestAssemble:
    def test_glaeser_lower_order_band(self):
        # Only the second band couples, to the first component, through the
        # time derivative of the single nonconstant entry.
        S = builtin_system("m2-glaeser")
        t, xi_val = 0.5, 2.0
        _, calB = assemble_path(S, np.array([xi_val]), [t])
        bxi = bracket(xi_val)
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 0] = -1j * (2.0 * t) * xi_val / bxi
        np.testing.assert_allclose(calB[0], expected, atol=1e-14)

    def test_m3_companion_last_row(self):
        S = dense_symbol(3, 21)
        t, xi_val = 0.25, 3.0
        calA, _, _, _, c = PathAssembler(S, np.array([xi_val])).reduce([t])
        calA, c = calA[0], c[0]
        bxi = bracket(xi_val)
        row = calA[2, :3]
        np.testing.assert_allclose(
            row,
            [-c[3] * bxi ** -3 * bxi, -c[2] * bxi ** -2 * bxi, -c[1] * bxi ** -1 * bxi],
            rtol=1e-12,
        )
        # three identical blocks
        np.testing.assert_array_equal(calA[:3, :3], calA[3:6, 3:6])
        np.testing.assert_array_equal(calA[:3, :3], calA[6:, 6:])

    def test_constant_coefficients_no_lower_order(self):
        S = builtin_system("m2-wave")
        _, calB = assemble_path(S, np.array([7.0]), [0.5])
        assert np.abs(calB).max() == 0.0

    def test_band_zero_columns(self):
        for name in ("m2-glaeser", "m3-tracezero"):
            S = builtin_system(name)
            m = S.m
            calB = assemble_path(S, np.array([4.0]), [0.8])[1][0]
            for j in range(1, m + 1):
                assert np.abs(calB[:, j * m - 1]).max() == 0.0
            for i in range(m):
                band = calB[i * m : (i + 1) * m]
                assert np.abs(band[: m - 1]).max() == 0.0

    def test_block_eigenvalues_match_rescaled_spectrum(self):
        for name in ("m2-glaeser", "m3-tracezero"):
            S = builtin_system(name)
            t, xi = 0.6, np.array([5.0])
            calA, _ = assemble_path(S, xi, [t])
            spec = rescaled_spectra(S, np.array([t]), xi)
            block = calA[0, : S.m, : S.m]
            eigs = np.sort(np.linalg.eigvals(block).real)
            np.testing.assert_allclose(eigs, bracket(xi) * spec.lambdas[0], atol=1e-8)

    def test_homogeneity_smoke(self):
        # At large |xi| the rescaled assembly is invariant under xi -> s xi.
        S = builtin_system("m2-glaeser")
        t = 0.9
        a1, b1 = assemble_path(S, np.array([1e3]), np.array([t]))
        a2, b2 = assemble_path(S, np.array([1e4]), np.array([t]))
        np.testing.assert_allclose(
            a1[0] / bracket(1e3), a2[0] / bracket(1e4), atol=1e-6
        )
        np.testing.assert_allclose(b1[0], b2[0], atol=1e-6)

    def test_scaled_entry_table(self):
        S = builtin_system("m3-tracezero")
        calB = assemble_path(S, np.array([2.0]), [0.5])[1][0]
        table = PathAssembler(S, np.array([2.0])).reduce(np.array([0.5]))[1][0]
        m = 3
        for l in (1, 2):
            for i in range(m):
                for j in range(m):
                    assert table[l - 1, i, j] == calB[i * m + m - 1, j * m + l - 1]


class TestTransformInitialData:
    def test_leading_components_scaled(self):
        S = builtin_system("m2-glaeser")
        xi = np.array([3.0])
        u0 = np.array([1.0 + 2.0j, -0.5])
        V = state_at(S, u0, xi)
        assert V[0] == pytest.approx(bracket(xi) * u0[0])
        assert V[2] == pytest.approx(bracket(xi) * u0[1])

    def test_second_components_follow_equation(self):
        S = builtin_system("m2-glaeser")
        xi = np.array([3.0])
        u0 = np.array([1.0, 1.0 - 1.0j])
        V = state_at(S, u0, xi)
        Au = eval_symbol(S, 0.0, xi) @ u0
        assert V[1] == pytest.approx(Au[0])
        assert V[3] == pytest.approx(Au[1])

    def test_zero_data(self):
        S = builtin_system("m3-tracezero")
        assert np.all(state_at(S, np.zeros(3), np.array([2.0])) == 0.0)


class TestReductionResidual:
    def test_constant_coefficients_floor(self):
        S = builtin_system("m2-wave")
        xi = np.array([4.0])
        cfg = SolverConfig(t_step=2e-3)
        ts, traj = direct_integrate(S, xi, np.array([1.0, 0.5j]), cfg)
        assert reduction_residual(S, xi, ts, traj) <= 1e-8

    def test_fourth_order_convergence(self):
        S = builtin_system("m2-glaeser")
        xi = np.array([np.sqrt(99.0)])  # bracket = 10
        u0 = np.array([1.0, 1.0])
        residuals = []
        for h in (4e-3, 2e-3):
            ts, traj = direct_integrate(S, xi, u0, SolverConfig(t_step=h))
            residuals.append(reduction_residual(S, xi, ts, traj))
        order = np.log2(residuals[0] / residuals[1])
        assert order >= 3.5

    def test_tracezero_fine_step(self):
        S = builtin_system("m3-tracezero")
        xi = np.array([np.sqrt(99.0)])
        ts, traj = direct_integrate(S, xi, np.array([1.0, 0.3, -0.2]), SolverConfig(t_step=1e-3))
        assert reduction_residual(S, xi, ts, traj) <= 1e-6

    def test_residual_below_integrator_bound(self):
        # Engineering bound: 5 * T * omega^5 h^4 / 30 with omega = <xi> * (1 + max |lambda|).
        S = builtin_system("m2-glaeser")
        xi = np.array([np.sqrt(99.0)])
        h = 1e-3
        ts, traj = direct_integrate(S, xi, np.array([1.0, 1.0]), SolverConfig(t_step=h))
        res = reduction_residual(S, xi, ts, traj)
        omega = bracket(xi) * 2.0
        assert res <= 5.0 * S.horizon * omega ** 5 * h ** 4 / 30.0

    def test_grid_mismatch(self):
        S = builtin_system("m2-wave")
        with pytest.raises(DomainError):
            reduction_residual(S, np.array([1.0]), np.linspace(0, 1, 11), np.zeros((10, 2)))
        with pytest.raises(DomainError):
            reduction_residual(S, np.array([1.0]), np.array([0.0, 0.1, 0.3, 0.35, 0.5]),
                               np.zeros((5, 2)))


class TestLiftTrajectory:
    def test_matches_initial_transform(self):
        S = builtin_system("m3-tracezero")
        xi = np.array([2.0])
        u0 = np.array([0.2, -1.0, 0.5 + 0.5j])
        ts = np.linspace(0.0, 0.1, 6)
        traj = np.tile(u0, (6, 1))
        U = lift_trajectory(S, xi, ts, traj)
        np.testing.assert_allclose(U[0], state_at(S, u0, xi), atol=1e-14)


def stack_symbols():
    """m = 2..4, one and two frequency directions."""
    rng = np.random.default_rng(11)
    yield builtin_system("m2-glaeser")
    yield builtin_system("m3-tracezero")
    yield dense_symbol(4, 5)
    yield SystemSymbol(coeffs=rng.uniform(-1, 1, (2, 3, 3, 3)), horizon=1.0)


class TestStackedFrequencies:
    """A stack of frequencies gives each frequency's own result, bit for bit."""

    def test_assembly_matches_one_row_assemble_path(self):
        rng = np.random.default_rng(4)
        ts = np.linspace(0.0, 1.0, 33)
        for S in stack_symbols():
            # integer wavenumbers as in a solve, then random frequencies
            xis = np.concatenate([np.repeat(np.arange(-48.0, 48.0)[:, None], S.n, axis=1),
                                  rng.uniform(-1e3, 1e3, (32, S.n))])
            calA, calB = PathAssembler(S, xis)(ts)
            assert calA.shape == (ts.size, len(xis), S.m ** 2, S.m ** 2)
            for r, xi in enumerate(xis):
                refA, refB = assemble_path(S, xi, ts)
                assert calA[:, r].tobytes() == refA.tobytes(), (S.m, S.n, r)
                assert calB[:, r].tobytes() == refB.tobytes(), (S.m, S.n, r)
            # the companion rows against <xi> powers taken as Python floats
            m = S.m
            for r in range(0, len(xis), 5):
                bxi = bracket(xis[r])
                c = faddeev_leverrier(eval_symbol_path(S, ts, xis[r]))
                for col in range(m):
                    ref = -c[:, m - col] * bxi ** (col - m) * bxi
                    assert np.array_equal(calA[:, r, m - 1, col], ref), (S.m, r, col)

    def test_initial_states_match_per_frequency_transform(self):
        # reference: one frequency at a time, components scaled one by one
        rng = np.random.default_rng(8)
        for S in stack_symbols():
            m = S.m
            xis = rng.uniform(-40.0, 40.0, (7, S.n))
            u0 = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
            V = initial_states(S, u0, xis)
            for r, xi in enumerate(xis):
                bxi = bracket(xi)
                maps = derivative_maps(S, xi, np.array([0.0]), m - 1)
                ref = np.zeros(m * m, dtype=complex)
                for j in range(1, m + 1):
                    dt_u = maps[j - 1][0] @ u0[r]
                    for i in range(m):
                        ref[i * m + (j - 1)] = bxi ** (m - j) * dt_u[i]
                assert V[r].tobytes() == ref.tobytes(), (S.m, r)


def inline_m4():
    """n = 1, m = 4: eigenvalues +-2 and +-t (the report-m4 benchmark system)."""
    coeffs = np.zeros((1, 4, 4, 3))
    coeffs[0, 0, 1, 0] = coeffs[0, 1, 2, 0] = coeffs[0, 2, 3, 0] = 1.0
    coeffs[0, 3, 0, 2] = -4.0
    coeffs[0, 3, 2] = [4.0, 0.0, 1.0]
    return SystemSymbol(coeffs=coeffs, horizon=1.0)


class TestSeparablePath:
    """The matrix-free i (calA + calB) against the assembled matrices.

    Not bitwise: xi^k FL(A_1) rounds differently from FL(xi A_1).  The gap
    is measured against |M|_F |y| per frequency.
    """

    TOL = 1e-13

    @pytest.mark.parametrize("S", [builtin_system("m2-glaeser"), builtin_system("m3-tracezero"),
                                   inline_m4()], ids=["m2-glaeser", "m3-tracezero", "inline-m4"])
    def test_matches_assembled_matrices(self, S):
        rng = np.random.default_rng(6)
        d = S.m * S.m
        xis = np.array([[0.0], [1.0], [-1.0], [-7.0], [64.0], [-512.0], [511.0], [3.5]])
        path = SeparablePath(S, xis, brackets(xis))
        ts_half = np.linspace(0.0, S.horizon, 2 * 40 + 1)
        sample = np.concatenate([[0, 1, 2], rng.choice(ts_half.size, 10, replace=False),
                                 [ts_half.size - 1]])
        L = path.last_rows(ts_half[sample])
        calA, calB = PathAssembler(S, xis)(ts_half[sample])
        for k in range(sample.size):
            Y = rng.standard_normal((len(xis), d)) + 1j * rng.standard_normal((len(xis), d))
            M = 1j * (calA[k] + calB[k])
            err = np.linalg.norm(path.apply(L[k], Y) - np.matvec(M, Y), axis=1)
            scale = np.linalg.norm(M, axis=(1, 2)) * np.linalg.norm(Y, axis=1)
            assert (err <= self.TOL * scale).all(), (k, err / scale)
        # every weight carries xi^p, p >= 1: the last rows vanish at wavenumber 0
        assert not path.apply(L[0], Y)[0, S.m - 1 :: S.m].any()

    def test_rejects_more_than_one_direction(self):
        S = SystemSymbol(coeffs=np.ones((2, 2, 2, 2)), horizon=1.0)
        xis = np.ones((3, 2))
        with pytest.raises(DomainError):
            SeparablePath(S, xis, brackets(xis))
