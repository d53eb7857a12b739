import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from hyposym import DomainError, SystemSymbol, eval_symbol, time_derivative
from hyposym.errors import CapabilityError, NumericError
from hyposym.examples import builtin_system
from hyposym.symbols import (
    adjugate_coeffs,
    bracket,
    brackets,
    companion_roots,
    deleted_sigmas,
    elementary_symmetric_all,
    eval_symbol_path,
    faddeev_leverrier,
    rescaled_spectra,
)
from oracles import cayley_hamilton_residual, char_coeffs


def symbol_2x2(a_poly):
    coeffs = np.zeros((1, 2, 2, len(a_poly)))
    coeffs[0, 0, 1, 0] = 1.0
    coeffs[0, 1, 0, : len(a_poly)] = a_poly
    return SystemSymbol(coeffs=coeffs, horizon=4.0)


class TestEvalSymbol:
    def test_direct_substitution(self):
        S = symbol_2x2([0.0, 0.0, 1.0])  # a(t) = t^2
        A = eval_symbol(S, 2.0, np.array([3.0]))
        np.testing.assert_allclose(A, [[0.0, 3.0], [12.0, 0.0]])

    def test_zero_frequency(self):
        S = symbol_2x2([0.0, 1.0])
        np.testing.assert_array_equal(eval_symbol(S, 1.0, np.array([0.0])), np.zeros((2, 2)))

    def test_tracefree_3x3(self):
        # trace-free shape with a(t) = 4 held constant
        coeffs = np.zeros((1, 3, 3, 1))
        coeffs[0, 0, 1, 0] = 4.0
        coeffs[0, 1, 0, 0] = 1.0
        coeffs[0, 2, 1, 0] = 1.0
        S = SystemSymbol(coeffs=coeffs, horizon=1.0)
        A = eval_symbol(S, 0.5, np.array([1.0]))
        np.testing.assert_allclose(A, [[0, 4, 0], [1, 0, 0], [0, 1, 0]], atol=1e-12)

    def test_time_outside_horizon(self):
        S = symbol_2x2([1.0])
        with pytest.raises(DomainError):
            eval_symbol(S, 5.0, np.array([1.0]))

    def test_m7_rejected(self):
        with pytest.raises(CapabilityError):
            SystemSymbol(coeffs=np.zeros((1, 7, 7, 1)), horizon=1.0)

    def test_path_rejects_wrong_frequency_length(self):
        # an n = 2 symbol: a length-1 xi must not broadcast to (x, x)
        coeffs = np.zeros((2, 2, 2, 1))
        coeffs[0, 0, 1, 0] = 1.0
        coeffs[1, 1, 0, 0] = 1.0
        S = SystemSymbol(coeffs=coeffs, horizon=1.0)
        ts = np.array([0.0, 0.5])
        for shape in ((1,), (4, 1)):
            with pytest.raises(DomainError):
                eval_symbol_path(S, ts, np.ones(shape))
        assert eval_symbol_path(S, ts, np.array([3.0, 0.0])).shape == (2, 2, 2)
        np.testing.assert_array_equal(eval_symbol_path(S, ts, np.array([3.0, 0.0]))[1],
                                      eval_symbol(S, 0.5, np.array([3.0, 0.0])))
        assert eval_symbol_path(S, ts, np.ones((4, 2))).shape == (2, 4, 2, 2)


class TestRescaledEigenvalues:
    def test_tracefree_spectrum(self):
        S = builtin_system("m3-tracezero")
        t, xi = 0.8, 2.0
        spec = rescaled_spectra(S, np.array([t]), np.array([xi]))
        a = t ** 4
        s = xi / bracket(xi)
        np.testing.assert_allclose(
            spec.lambdas[0], [-np.sqrt(a) * s, 0.0, np.sqrt(a) * s], atol=1e-12
        )
        assert spec.hyperbolic[0]

    def test_symmetric_system(self):
        S = symbol_2x2([1.0])  # A = [[0,1],[1,0]] xi
        spec = rescaled_spectra(S, np.array([0.0]), np.array([1.0]))
        np.testing.assert_allclose(spec.lambdas[0], [-1 / np.sqrt(2), 1 / np.sqrt(2)], rtol=1e-14)

    def test_rotation_not_hyperbolic(self):
        S = builtin_system("m2-nonhyp-control")
        spec = rescaled_spectra(S, np.array([0.5]), np.array([1.0]))
        assert not spec.hyperbolic[0]
        assert spec.imag_residual[0] > 0.1


class TestBatchedKernels:
    """The stacked kernels against the per-row loops they replace."""

    def test_companion_roots_match_numpy_roots_bitwise(self):
        rng = np.random.default_rng(3)
        for m in range(2, 7):
            c = np.concatenate([np.ones((60, 1)), rng.standard_normal((60, m))], axis=1)
            for z in range(1, m + 1):
                c[10 * z - 10 : 10 * z - 5, m + 1 - z :] = 0.0  # z trailing zeros
            c[::7, 1:-1] = 0.0                                  # interior zeros only
            got = companion_roots(c.reshape(6, 10, m + 1))
            assert got.shape == (6, 10, m)
            for row, roots in zip(c, got.reshape(-1, m)):
                ref = np.roots(row).astype(complex)
                ref = np.concatenate([ref, np.zeros(m - ref.size, dtype=complex)])
                assert roots.tobytes() == ref.tobytes()
            np.testing.assert_array_equal(companion_roots(c[0]), got[0, 0])

    def test_brackets_match_bracket_bitwise(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            xi = rng.uniform(-1e3, 1e3, (4, 6, n))
            xi[0, :3] = rng.integers(-512, 513, (3, n))  # wavenumbers of a solve
            xi[1, 0] = 0.0
            got = brackets(xi)
            assert got.shape == (4, 6)
            for row, value in zip(xi.reshape(-1, n), got.ravel()):
                assert value.tobytes() == np.float64(bracket(row)).tobytes()
        assert brackets(np.array([3.0, 4.0])).shape == ()

    def test_companion_roots_rejects_bad_coefficients(self):
        with pytest.raises(DomainError):
            companion_roots(np.array([0.0, 1.0, 2.0]))
        with pytest.raises(NumericError):
            companion_roots(np.array([[1.0, 0.5, 0.0], [1.0, np.inf, 0.0]]))

    def test_deleted_sigmas_match_deleted_loop_bitwise(self):
        rng = np.random.default_rng(4)
        for m in range(2, 7):
            lam = rng.standard_normal((400, m))
            lam[:200] = rng.integers(-2, 3, (200, m)) * 0.5  # ties and zeros
            got = deleted_sigmas(lam.reshape(20, 20, m))
            assert got.shape == (20, 20, m, m)
            for row, W in zip(lam, got.reshape(-1, m, m)):
                ref = np.array([elementary_symmetric_all(np.delete(row, i))[::-1]
                                for i in range(m)])
                assert W.tobytes() == ref.tobytes()


def _sigmas_scalar_loop(lam):
    """Signed sigma_0..sigma_q by the scalar recurrence over the sorted tuple."""
    lam = sorted(float(x) for x in lam)
    e = [1.0] + [0.0] * len(lam)
    for x in lam:
        for j in range(len(lam), 0, -1):
            e[j] += x * e[j - 1]
    return np.array(e) * (-1.0) ** np.arange(len(lam) + 1)


class TestElementarySymmetric:
    def test_stacked_rows_match_one_row_calls_bitwise(self):
        rng = np.random.default_rng(8)
        for q in range(0, 7):
            lam = rng.standard_normal((60, q))
            lam[:30] = rng.integers(-2, 3, (30, q)) * 0.5  # ties and zeros
            lam[30] = 0.0
            got = elementary_symmetric_all(lam.reshape(3, 20, q))
            assert got.shape == (3, 20, q + 1)
            for row, sig in zip(lam, got.reshape(-1, q + 1)):
                one = elementary_symmetric_all(row)
                assert sig.tobytes() == one.tobytes()
                assert one.tobytes() == _sigmas_scalar_loop(row).tobytes()

    def test_h_zero_is_one(self):
        assert elementary_symmetric_all([4.0, -1.0, 3.0])[0] == 1.0

    def test_signed_sum(self):
        assert elementary_symmetric_all([1.0, 2.0, 3.0])[1] == -6.0

    def test_pair_product(self):
        assert elementary_symmetric_all([2.0, 3.0])[2] == 6.0

    def test_full_product(self):
        assert elementary_symmetric_all([1.0, 2.0, 3.0])[3] == -6.0

    @given(
        lam=st.lists(st.floats(-5, 5), min_size=2, max_size=5),
        data=st.data(),
    )
    def test_permutation_invariant_exact(self, lam, data):
        perm = data.draw(st.permutations(lam))
        assert (elementary_symmetric_all(lam) == elementary_symmetric_all(perm)).all()


class TestCharCoeffs:
    def test_3x3_closed_forms(self):
        rng = np.random.default_rng(5)
        M = rng.uniform(-2, 2, (3, 3))
        coeffs = np.zeros((1, 3, 3, 1))
        coeffs[..., 0] = M
        S = SystemSymbol(coeffs=coeffs, horizon=1.0)
        xi = 1.7
        cc = char_coeffs(S, 0.5, np.array([xi]))
        A = M * xi
        c1 = -np.trace(A)
        c2 = (
            A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
            + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
            + A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
        )
        c3 = -np.linalg.det(A)
        np.testing.assert_allclose(cc.c, [1.0, c1, c2, c3], rtol=1e-10)
        assert cc.degrees == (0, 1, 2, 3)

    def test_glaeser_hand_expansion(self):
        # det(I tau - A xi) = tau^2 - a xi^2 for A = [[0,1],[a,0]]
        S = symbol_2x2([0.0, 0.0, 1.0])
        cc = char_coeffs(S, 1.5, np.array([2.0]))
        np.testing.assert_allclose(cc.c, [1.0, 0.0, -(1.5 ** 2) * 4.0], atol=1e-12)

    def test_zero_symbol(self):
        S = symbol_2x2([0.0])
        cc = char_coeffs(S, 0.0, np.array([3.0]))
        np.testing.assert_array_equal(cc.c, [1.0, 0.0, 0.0])

    def test_trace_and_det_exact(self):
        rng = np.random.default_rng(11)
        for m in (2, 3, 4):
            A = rng.uniform(-1, 1, (m, m))
            c = faddeev_leverrier(A)
            assert c[1] == pytest.approx(-np.trace(A), rel=1e-13)
            assert c[m] == pytest.approx((-1.0) ** m * np.linalg.det(A), rel=1e-10)

    def test_homogeneity_in_xi(self):
        S = builtin_system("m3-tracezero")
        c_one = char_coeffs(S, 0.7, np.array([1.0])).c
        s = 37.5
        c_scaled = char_coeffs(S, 0.7, np.array([s])).c
        for h in range(4):
            assert c_scaled[h] == pytest.approx(s ** h * c_one[h], rel=1e-12, abs=1e-12)


def exact_char_coeffs(A_frac):
    """Faddeev-LeVerrier over exact rationals; oracle for the float recursion."""
    m = len(A_frac)
    c = [Fraction(1)] + [Fraction(0)] * m
    M = [[Fraction(0)] * m for _ in range(m)]
    for k in range(1, m + 1):
        shifted = [[M[i][j] + (c[k - 1] if i == j else 0) for j in range(m)] for i in range(m)]
        M = [
            [sum(A_frac[i][l] * shifted[l][j] for l in range(m)) for j in range(m)]
            for i in range(m)
        ]
        c[k] = -sum(M[i][i] for i in range(m)) / k
    return c


class TestAdjugate:
    def test_m2_form(self):
        S = symbol_2x2([0.0, 1.0])
        t, xi = 2.0, 3.0
        A = eval_symbol(S, t, np.array([xi]))
        B = adjugate_coeffs(A, faddeev_leverrier(A))
        np.testing.assert_array_equal(B[0], np.eye(2))
        np.testing.assert_allclose(B[1], A - np.trace(A) * np.eye(2), atol=1e-12)

    def test_m3_form(self):
        S = builtin_system("m3-tracezero")
        t, xi = 0.9, 2.0
        A = eval_symbol(S, t, np.array([xi]))
        B = adjugate_coeffs(A, faddeev_leverrier(A))
        adjA = np.linalg.det(A) * np.linalg.inv(A) if abs(np.linalg.det(A)) > 1e-12 else None
        np.testing.assert_array_equal(B[0], np.eye(3))
        np.testing.assert_allclose(B[1], A - np.trace(A) * np.eye(3), atol=1e-12)
        # adj(A) via the power expansion even when A is singular
        c = faddeev_leverrier(A)
        np.testing.assert_allclose(B[2], A @ A + c[1] * A + c[2] * np.eye(3), atol=1e-12)

    def test_product_identity_at_point(self):
        coeffs = np.zeros((1, 2, 2, 1))
        coeffs[..., 0] = [[1.0, 2.0], [3.0, 4.0]]
        S = SystemSymbol(coeffs=coeffs, horizon=1.0)
        A = eval_symbol(S, 0.0, np.array([1.0]))
        B = adjugate_coeffs(A, faddeev_leverrier(A))
        tau = 5.0
        adj_at_tau = B[0] * tau + B[1]
        det = np.linalg.det(tau * np.eye(2) - A)
        assert det == pytest.approx(-2.0)
        np.testing.assert_allclose(
            adj_at_tau @ (tau * np.eye(2) - A), det * np.eye(2), atol=1e-12
        )

    def test_adjugate_identity_random_sample(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            m = rng.integers(2, 6)
            A = rng.uniform(-2, 2, (m, m))
            tau = rng.uniform(-3, 3)
            c = faddeev_leverrier(A)
            powers = [np.eye(m)]
            for _ in range(m - 1):
                powers.append(powers[-1] @ A)
            adj = np.zeros((m, m))
            for i in range(m):
                coeff = sum(c[h] * powers[m - (i + 1) - h] for h in range(m - i))
                adj += coeff * tau ** i
            lhs = adj @ (tau * np.eye(m) - A)
            det = np.linalg.det(tau * np.eye(m) - A)
            resid = np.abs(lhs - det * np.eye(m)).max() / (1.0 + abs(det))
            assert resid <= 1e-10


class TestCayleyHamilton:
    def test_diagonal_exact(self):
        coeffs = np.zeros((1, 2, 2, 1))
        coeffs[..., 0] = np.diag([1.0, 2.0])
        S = SystemSymbol(coeffs=coeffs, horizon=1.0)
        assert cayley_hamilton_residual(S, 0.0, np.array([1.0])) < 1e-14

    def test_zero_matrix(self):
        S = symbol_2x2([0.0])
        assert cayley_hamilton_residual(S, 0.0, np.array([1.0])) == 0.0

    def test_random_4x4_against_exact_rationals(self):
        # Fixed seed; the float recursion is validated once against an exact
        # rational evaluation of the same recursion on integer entries.
        rng = np.random.default_rng(2024)
        M = rng.integers(-4, 5, (4, 4))
        A_frac = [[Fraction(int(v)) for v in row] for row in M]
        c_exact = exact_char_coeffs(A_frac)
        c_float = faddeev_leverrier(M.astype(float))
        for h in range(5):
            assert float(c_exact[h]) == pytest.approx(c_float[h], rel=1e-12, abs=1e-12)
        coeffs = np.zeros((1, 4, 4, 1))
        coeffs[..., 0] = M
        S = SystemSymbol(coeffs=coeffs, horizon=1.0)
        assert cayley_hamilton_residual(S, 0.0, np.array([1.0])) <= 1e-10

    def test_residual_random_sample(self):
        rng = np.random.default_rng(55)
        for _ in range(200):
            m = rng.integers(2, 6)
            M = rng.uniform(-2, 2, (m, m))
            coeffs = np.zeros((1, m, m, 1))
            coeffs[..., 0] = M
            S = SystemSymbol(coeffs=coeffs, horizon=1.0)
            assert cayley_hamilton_residual(S, 0.0, np.array([1.0])) <= 1e-10


class TestTimeDerivative:
    def test_first_derivative(self):
        S = symbol_2x2([0.0, 0.0, 1.0])
        dS = time_derivative(S, 1)
        np.testing.assert_allclose(
            eval_symbol(dS, 3.0, np.array([1.0])), [[0.0, 0.0], [6.0, 0.0]]
        )

    def test_identity_at_order_zero(self):
        S = symbol_2x2([0.5, 1.5])
        np.testing.assert_array_equal(time_derivative(S, 0).coeffs, S.coeffs)

    def test_second_derivative_of_cubic(self):
        S = symbol_2x2([0.0, 0.0, 0.0, 1.0])  # a = t^3
        d2 = time_derivative(S, 2)
        assert eval_symbol(d2, 1.0, np.array([1.0]))[1, 0] == pytest.approx(6.0)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            time_derivative(symbol_2x2([1.0]), -1)


class TestCrossChecks:
    def test_fl_matches_sigma_of_eigenvalues(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            m = rng.integers(2, 5)
            # well-separated spectrum by construction
            lam = np.sort(rng.uniform(-3, 3, m))
            while np.min(np.diff(lam)) < 0.3:
                lam = np.sort(rng.uniform(-3, 3, m))
            Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
            A = Q @ np.diag(lam) @ Q.T
            c = faddeev_leverrier(A)
            sig = elementary_symmetric_all(lam)
            np.testing.assert_allclose(c, sig, rtol=1e-8, atol=1e-10)

    def test_char_coeffs_records_residual(self):
        S = builtin_system("m2-glaeser")
        cc = char_coeffs(S, 0.5, np.array([10.0]))
        assert cc.xcheck_residual <= 1e-8
