import numpy as np
import pytest
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hyposym import (
    DomainError,
    SystemSymbol,
    reduction_residual,
    time_derivative,
)
from hyposym.energy import SolverConfig, direct_integrate
from hyposym.examples import builtin_system
from hyposym.reduction import (
    PathAssembler,
    SeparablePath,
    _bold_B_terms,
    assemble_path,
    lift_states,
)
from hyposym.symbols import bracket, brackets, eval_symbol_path, faddeev_leverrier, rescaled_spectra
from hyposym.conditions import SamplingGrid
from hyposym.errors import NumericError
from oracles import (
    M4_DOUBLE_ZERO,
    M6_DOUBLE_ZERO,
    bold_B_terms,
    companion_symbol,
    derivative_maps,
    grid_data,
    initial_states,
    last_rows_reference,
    lift_trajectory,
    reduce_reference,
)


def dense_symbol(m, seed, degree=2, horizon=1.0):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1, 1, (1, m, m, degree + 1))
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


def blocks_at(S, t, xi):
    """(bold_A, bold_B) at one (t, xi), from the reduction's kernel."""
    _, _, bold_A, terms = _bold_B_terms(PathAssembler(S, xi).derivs, [t], xi)
    return [B[0] for B in bold_A], [sum(T)[0] for T in terms]


def state_at(S, u0, xi):
    """The reduced state of u-hat(0, xi) = u0 at one frequency xi."""
    return lift_states(S, xi[None], [0.0], np.asarray(u0, dtype=complex)[None, None])[0, 0]


class TestBoldA:
    def test_order_zero_is_identity(self):
        S = dense_symbol(3, 1)
        np.testing.assert_array_equal(blocks_at(S, 0.5, np.array([2.0]))[0][0], np.eye(3))

    def test_m3_first_order(self):
        S = dense_symbol(3, 2)
        t, xi = 0.3, np.array([1.5])
        A = eval_symbol_path(S, [t], xi)[0]
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
        dA = eval_symbol_path(time_derivative(S, 1), [t], xi)[0]
        np.testing.assert_allclose(blocks_at(S, t, xi)[1][0], -1j * dA, atol=1e-12)

    def test_m3_second_matrix(self):
        S = dense_symbol(3, 5)
        t, xi = 0.4, np.array([2.0])
        dA = eval_symbol_path(time_derivative(S, 1), [t], xi)[0]
        np.testing.assert_allclose(blocks_at(S, t, xi)[1][1], 2.0 * (-1j) * dA, atol=1e-12)

    def test_m3_first_matrix(self):
        S = dense_symbol(3, 6)
        t, xi = 0.9, np.array([1.0])
        A = eval_symbol_path(S, [t], xi)[0]
        dA = -1j * eval_symbol_path(time_derivative(S, 1), [t], xi)[0]
        d2A = (-1j) ** 2 * eval_symbol_path(time_derivative(S, 2), [t], xi)[0]
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
                    dA = (-1j) ** k * eval_symbol_path(time_derivative(S, k), [t], xi)[0]
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
        calA, _, c = PathAssembler(S, np.array([xi_val])).reduce([t])
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
        Au = eval_symbol_path(S, [0.0], xi)[0] @ u0
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
        U = lift_states(S, xi, ts, traj)
        np.testing.assert_allclose(U[0], state_at(S, u0, xi), atol=1e-14)


def lift_symbols():
    """m = 2..6: the built-ins, dense random symbols, the inline double-zero
    systems and one symbol in two space dimensions."""
    yield builtin_system("m2-glaeser")
    yield builtin_system("m3-tracezero")
    for m in range(2, 7):
        yield dense_symbol(m, 30 + m)
    yield M4_DOUBLE_ZERO
    yield M6_DOUBLE_ZERO
    rng = np.random.default_rng(12)
    yield SystemSymbol(coeffs=rng.uniform(-1, 1, (2, 4, 4, 3)), horizon=1.0)


class TestLiftStates:
    """The one lifting of u-hat against its earlier forms, kept in the oracles."""

    def test_stack_matches_each_frequency_alone_bitwise(self):
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 1.0, 9)
        for S in lift_symbols():
            m = S.m
            xis = rng.uniform(-30.0, 30.0, (6, S.n))
            u = rng.standard_normal((ts.size, 6, m)) + 1j * rng.standard_normal((ts.size, 6, m))
            V = lift_states(S, xis, ts, u)
            assert V.shape == (ts.size, 6, m * m)
            for r, xi in enumerate(xis):
                alone = lift_states(S, xi, ts, u[:, r])
                assert V[:, r].tobytes() == alone.tobytes(), (m, S.n, r)

    def test_at_zero_matches_initial_states_bitwise(self):
        rng = np.random.default_rng(6)
        for S in lift_symbols():
            m = S.m
            xis = rng.uniform(-50.0, 50.0, (7, S.n))
            u0 = rng.standard_normal((7, m)) + 1j * rng.standard_normal((7, m))
            V = lift_states(S, xis, [0.0], u0[None])[0]
            assert V.tobytes() == initial_states(S, u0, xis).tobytes(), (m, S.n)

    def test_trajectory_matches_lift_trajectory(self):
        # einsum and matvec round the derivative maps' products differently
        # on dense symbols from m = 3 on; they agree bit for bit at m = 2 and
        # on the built-in systems (the first two of lift_symbols)
        rng = np.random.default_rng(7)
        ts = np.linspace(0.0, 1.0, 41)
        for k, S in enumerate(lift_symbols()):
            m = S.m
            xi = rng.uniform(-20.0, 20.0, S.n)
            traj = rng.standard_normal((ts.size, m)) + 1j * rng.standard_normal((ts.size, m))
            U = lift_states(S, xi, ts, traj)
            ref = lift_trajectory(S, xi, ts, traj)
            if m == 2 or k < 2:
                assert U.tobytes() == ref.tobytes(), (m, S.n, k)
            gap = np.abs(U - ref).max(axis=1)
            assert np.all(gap <= 1e-15 * np.abs(ref).max(axis=1)), (m, S.n, gap.max())

    def test_shape_mismatch_and_overflow(self):
        S = builtin_system("m3-tracezero")
        with pytest.raises(DomainError):
            lift_states(S, np.ones((4, 1)), [0.0, 0.5], np.zeros((2, 3, 3)))
        with pytest.raises(NumericError):
            lift_states(S, np.array([1e300]), [0.0], np.ones((1, 3)))


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
            calA, calB = assemble_path(S, xis, ts)
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
            V = lift_states(S, xis, [0.0], u0[None])[0]
            for r, xi in enumerate(xis):
                bxi = bracket(xi)
                maps = derivative_maps(S, xi, np.array([0.0]), m - 1)
                ref = np.zeros(m * m, dtype=complex)
                for j in range(1, m + 1):
                    dt_u = maps[j - 1][0] @ u0[r]
                    for i in range(m):
                        ref[i * m + (j - 1)] = bxi ** (m - j) * dt_u[i]
                assert V[r].tobytes() == ref.tobytes(), (S.m, r)


class TestSeparablePath:
    """The matrix-free i (calA + calB) against the assembled matrices.

    Not bitwise: xi^k FL(A_1) rounds differently from FL(xi A_1).  The gap
    is measured against |M|_F |y| per frequency.
    """

    TOL = 1e-13

    @pytest.mark.parametrize("S", [builtin_system("m2-glaeser"), builtin_system("m3-tracezero"),
                                   M4_DOUBLE_ZERO], ids=["m2-glaeser", "m3-tracezero", "inline-m4"])
    def test_matches_assembled_matrices(self, S):
        rng = np.random.default_rng(6)
        d = S.m * S.m
        xis = np.array([[0.0], [1.0], [-1.0], [-7.0], [64.0], [-512.0], [511.0], [3.5]])
        path = SeparablePath(S, xis, brackets(xis))
        ts_half = np.linspace(0.0, S.horizon, 2 * 40 + 1)
        sample = np.concatenate([[0, 1, 2], rng.choice(ts_half.size, 10, replace=False),
                                 [ts_half.size - 1]])
        L = path.last_rows(ts_half[sample])
        calA, calB = assemble_path(S, xis, ts_half[sample])
        for k in range(sample.size):
            Y = rng.standard_normal((len(xis), d)) + 1j * rng.standard_normal((len(xis), d))
            M = 1j * (calA[k] + calB[k])
            err = np.linalg.norm(path.apply(L[k], Y, np.empty_like(Y)) - np.matvec(M, Y), axis=1)
            scale = np.linalg.norm(M, axis=(1, 2)) * np.linalg.norm(Y, axis=1)
            assert (err <= self.TOL * scale).all(), (k, err / scale)
        # every weight carries xi^p, p >= 1: the last rows vanish at wavenumber 0
        assert not path.apply(L[0], Y, np.empty_like(Y))[0, S.m - 1 :: S.m].any()

    def test_rejects_more_than_one_direction(self):
        S = SystemSymbol(coeffs=np.ones((2, 2, 2, 2)), horizon=1.0)
        xis = np.ones((3, 2))
        with pytest.raises(DomainError):
            SeparablePath(S, xis, brackets(xis))


class TestOneRecursion:
    """The separable solve's companion entries are -c of reduce at xi = 1,
    bit for bit: both take c from the one real recursion of the kernel."""

    @staticmethod
    def check(S, ts):
        m = S.m
        xis = np.ones((1, 1))
        L = SeparablePath(S, xis, brackets(xis)).last_rows(ts).reshape(ts.size, m, m, m, m)
        c = PathAssembler(S, xis).reduce(ts)[2][:, 0]
        band, col = np.arange(m)[:, None], np.arange(m)[None, :]
        companion = L[:, m - 1 - col, band, col, band]
        want = np.broadcast_to(-c[:, None, :0:-1], companion.shape)
        assert companion.real.tobytes() == np.ascontiguousarray(want).tobytes()
        assert not companion.imag.any()

    @pytest.mark.parametrize("m, value", [(4, 1.63e-80), (4, 1 / 3), (5, 0.7), (6, 0.7)])
    def test_equal_entries(self, m, value):
        """Constant symbols of equal entries, where a complex recursion's
        quotients round apart from the real ones."""
        self.check(SystemSymbol(coeffs=np.full((1, m, m, 1), value), horizon=1.0),
                   np.array([0.0, 0.5]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(2, 6), degree=st.integers(0, 2),
           scale=st.sampled_from([1e-80, 1e-3, 1.0, 7.0, 1e40]))
    def test_drawn_symbols(self, data, m, degree, scale):
        coeffs = data.draw(hnp.arrays(np.float64, (1, m, m, degree + 1),
                                      elements=st.floats(-4.0, 4.0)), label="coeffs")
        ts = np.sort(data.draw(hnp.arrays(np.float64, 4, elements=st.floats(0.0, 1.0)),
                               label="ts"))
        self.check(SystemSymbol(coeffs=scale * coeffs, horizon=1.0), ts)


def complex_terms(derivs, ts, xi):
    """``_bold_B_terms`` with its terms as complex products of the phased
    paths (-i)^k d^k/dt^k A."""
    paths = [eval_symbol_path(d, ts, xi) for d in derivs]
    c = faddeev_leverrier(paths[0])
    with np.errstate(invalid="ignore"):
        dtA = [(-1j) ** k * p.astype(complex) for k, p in enumerate(paths)]
    return (paths, c) + bold_B_terms(c, dtA)


class TestRealTermsAgainstComplexOracle:
    """The lower-order terms from real products, phased once, against the
    complex products of the oracle.

    reduce's (calA, b, c) and evaluate_grid's b_entries are bitwise.  So is
    last_rows, with the oracle's c from the real recursion, up to the sign of
    its zero entries: the complex products' zeros take their signs from
    complex rounding, and the sign of a zero entry of L changes no nonzero
    entry of the products in ``apply``.
    """

    SYSTEMS = {**{name: builtin_system(name) for name in
                  ("m2-glaeser", "m2-wave", "m2-nonhyp-control", "m3-tracezero")},
               "m4-double-zero": M4_DOUBLE_ZERO, "m6-double-zero": M6_DOUBLE_ZERO}

    @staticmethod
    def check(S, xis, ts):
        calA, b, c = PathAssembler(S, xis).reduce(ts)
        ref = reduce_reference(S, xis, ts)
        for name, got, want in zip(("calA", "b", "c"), (calA, b, c), ref):
            assert got.tobytes() == want.tobytes(), name
        if S.n == 1:
            L = SeparablePath(S, xis, brackets(xis)).last_rows(ts)
            assert (L + 0.0).tobytes() == (last_rows_reference(S, ts) + 0.0).tobytes()
        grid = SamplingGrid.default(S, n_t=ts.size, n_r=3, r_max=float(np.abs(xis).max()) + 2.0,
                                    n_dirs=3)
        grid = SamplingGrid(ts=ts, radii=grid.radii, dirs=grid.dirs)
        want = reduce_reference(S, grid.radii[:, None, None] * grid.dirs, ts)[1]
        assert grid_data(S, grid).b_entries.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_systems(self, name):
        S = self.SYSTEMS[name]
        xis = np.array([[0.0], [1.0], [-3.0], [100.0], [1e4]])
        self.check(S, xis, np.linspace(0.0, S.horizon, 65))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.integers(2, 6), n=st.integers(1, 2), degree=st.integers(0, 2))
    def test_drawn_symbols(self, data, m, n, degree):
        coeffs = data.draw(hnp.arrays(np.float64, (n, m, m, degree + 1),
                                      elements=st.floats(-4.0, 4.0)), label="coeffs")
        xis = data.draw(hnp.arrays(np.float64, (3, n), elements=st.floats(-1e3, 1e3)), label="xis")
        ts = np.sort(data.draw(hnp.arrays(np.float64, 4, elements=st.floats(0.0, 1.0)),
                               label="ts"))
        self.check(SystemSymbol(coeffs=coeffs, horizon=1.0), xis, ts)

    @pytest.mark.parametrize("last_row", [
        [[0.0, 1e305], [0.0], [0.0]],
        [[0.0, 1e300], [1.0, 1e303], [0.0, 1e200], [2.0, 1e100], [0.0, 1e250], [1.0]],
    ], ids=["m3", "m6"])
    def test_overflowing_symbol(self, last_row, monkeypatch):
        """Where the terms overflow, the same entries are non-finite (the
        complex products may hold NaN where the real ones hold inf), the
        finite entries are bitwise, reduce fails at the first overflowed point,
        frequency by frequency, and evaluate_grid fails with the same text."""
        import hyposym.conditions as conditions

        S = companion_symbol(last_row, horizon=1e-3)
        xis = np.array([[1.0], [100.0], [1e4]])
        ts = np.linspace(0.0, S.horizon, 7)
        assembler = PathAssembler(S, xis)
        terms = _bold_B_terms(assembler.derivs, ts, xis)[3]
        with np.errstate(over="ignore", invalid="ignore"):
            b = assembler.entries([sum(t) for t in terms])
        refA, ref, _ = reduce_reference(S, xis, ts)
        finite = np.isfinite(b)
        assert not finite.all()
        assert (finite == np.isfinite(ref)).all()
        assert np.where(finite, b, 0).tobytes() == np.where(finite, ref, 0).tobytes()
        bad = ~(np.isfinite(refA).all(axis=(-2, -1)) & finite.all(axis=(-3, -2, -1)))
        k, i = np.argwhere(bad.T)[0]
        with pytest.raises(NumericError) as exc:
            assembler.reduce(ts)
        assert str(exc.value) == (f"the reduction overflows at (t={ts[i]}, "
                                  f"xi={xis[k].tolist()})")
        L = SeparablePath(S, xis, brackets(xis)).last_rows(ts)
        assert (np.isfinite(L) == np.isfinite(last_rows_reference(S, ts))).all()
        grid = SamplingGrid.default(S, n_t=5, n_r=3, r_max=1e4)
        messages = []
        for terms in (conditions._bold_B_terms, complex_terms):
            monkeypatch.setattr(conditions, "_bold_B_terms", terms)
            with pytest.raises(NumericError) as exc:
                grid_data(S, grid)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
