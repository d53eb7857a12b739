import numpy as np
import pytest
from itertools import combinations, permutations
from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from hyposym import DomainError, sylvester_companion, verify_properties
from hyposym.errors import CapabilityError, NumericError
from hyposym.pencils import gen_eigvalsh, hermitian_part
from hyposym.quasisym import (
    _ROW_BLOCK,
    PropertyReport,
    build_Q_eps,
    q_eps_parts,
    sample_separation_set,
    sum_parts,
)
from hyposym.symbols import deleted_sigmas, elementary_symmetric_all
from oracles import lift_blocks, near_diagonal_constant, q_eps, traced_peak


def build_P(lambdas) -> np.ndarray:
    """Unit lower-triangular transfer matrix, built level by level.

    P for a single eigenvalue is [[1]]; each extension appends the row
    (sigma_{q-1}(lambda'), ..., sigma_1(lambda'), 1) built from the values
    seen so far, so the result depends only on lambdas[:-1].  The
    quasi-symmetriser does not go through it (see ``q_eps_parts``).
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    m = lam.size
    P = np.zeros((m, m))
    P[0, 0] = 1.0
    for q in range(2, m + 1):
        sig = elementary_symmetric_all(lam[: q - 1])
        P[q - 1, : q - 1] = sig[q - 1 - np.arange(q - 1)]
        P[q - 1, q - 1] = 1.0
    return P


def closed_form_Q2(lam, eps):
    l1, l2 = lam
    base = np.array([[l1 ** 2 + l2 ** 2, -(l1 + l2)], [-(l1 + l2), 2.0]])
    return base + 2.0 * eps ** 2 * np.array([[1.0, 0.0], [0.0, 0.0]])


def closed_form_Q3(lam, eps):
    Q = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            li, lj = lam[i], lam[j]
            Q += 2.0 * np.array(
                [
                    [(li * lj) ** 2, -li * lj * (li + lj), li * lj],
                    [-li * lj * (li + lj), (li + lj) ** 2, -(li + lj)],
                    [li * lj, -(li + lj), 1.0],
                ]
            )
    for li in lam:
        Q += 2.0 * eps ** 2 * np.array([[li ** 2, -li, 0.0], [-li, 1.0, 0.0], [0.0, 0.0, 0.0]])
    Q += 6.0 * eps ** 4 * np.diag([1.0, 0.0, 0.0])
    return Q


class TestBuildP:
    def test_single_value(self):
        np.testing.assert_array_equal(build_P([3.0]), [[1.0]])

    def test_two_values(self):
        np.testing.assert_array_equal(build_P([0.7, 9.0]), [[1.0, 0.0], [-0.7, 1.0]])

    def test_unit_lower_triangular(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 4, 5):
            P = build_P(rng.uniform(-2, 2, m))
            assert np.linalg.det(P) == pytest.approx(1.0)
            assert np.allclose(np.triu(P, 1), 0.0)

    def test_depends_only_on_leading_values(self):
        lam = np.array([0.3, -1.2, 0.9])
        for last in (-5.0, 0.0, 7.0):
            np.testing.assert_array_equal(build_P([0.3, -1.2, last]), build_P(lam))


class TestBuildW:
    def test_m2_rows(self):
        lam = np.array([0.4, -1.1])
        np.testing.assert_allclose(deleted_sigmas(lam), [[1.1, 1.0], [-0.4, 1.0]])

    def test_m3_first_row(self):
        lam = np.array([0.5, -0.3, 2.0])
        W = deleted_sigmas(lam)
        np.testing.assert_allclose(W[0], [lam[1] * lam[2], -(lam[1] + lam[2]), 1.0])

    def test_q0_factorization(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 4):
            lam = rng.uniform(-1.5, 1.5, m)
            W = deleted_sigmas(lam)
            np.testing.assert_allclose(q_eps_parts(lam)[0], factorial(m - 1) * W.T @ W,
                                       atol=1e-12)

    def test_det_q0_two_values(self):
        lam = np.array([0.9, -0.4])
        Q0 = q_eps_parts(lam)[0]
        assert np.linalg.det(Q0) == pytest.approx((lam[0] - lam[1]) ** 2)


class TestBuildQeps:
    def test_closed_form_m2(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            lam = rng.uniform(-2, 2, 2)
            eps = rng.uniform(0.01, 1.0)
            np.testing.assert_allclose(
                q_eps(lam, eps), closed_form_Q2(lam, eps), atol=1e-12
            )

    def test_closed_form_m3(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            lam = rng.uniform(-2, 2, 3)
            eps = rng.uniform(0.01, 1.0)
            np.testing.assert_allclose(
                q_eps(lam, eps), closed_form_Q3(lam, eps), atol=1e-12
            )

    def test_degenerate_pair_gives_singular_q0(self):
        Q0 = q_eps_parts([0.8, 0.8])[0]
        assert abs(np.linalg.det(Q0)) < 1e-14

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(13)
        for m in (2, 3, 4):
            lam = rng.uniform(-2, 2, m)
            ref = q_eps(lam, 0.3)
            for rho in permutations(range(m)):
                np.testing.assert_array_equal(q_eps(lam[list(rho)], 0.3), ref)

    def test_eps_bounds(self):
        with pytest.raises(DomainError):
            q_eps([1.0, 2.0], 0.0)
        with pytest.raises(DomainError):
            q_eps([1.0, 2.0], 1.5)

    def test_dimension_cap(self):
        with pytest.raises(CapabilityError):
            q_eps(np.arange(7.0), 0.5)


def permutation_sum_parts(lam):
    """The m! sum over build_P, one permutation at a time (the reference)."""
    lam = np.sort(np.asarray(lam, dtype=float))
    m = lam.size
    parts = [np.zeros((m, m)) for _ in range(m)]
    for rho in permutations(range(m)):
        P = build_P(lam[list(rho)])
        for i in range(m):
            row = P[m - 1 - i, :]
            parts[i] += np.outer(row, row)
    return parts


def awkward_rows(m, rng):
    """Unsorted rows plus ties, signed zeros and an all-zero row."""
    rows = [rng.uniform(-2, 2, m), rng.standard_normal(m) * 1e3, np.zeros(m),
            np.full(m, -0.7), rng.integers(-2, 3, m) * 0.5]
    mixed = rng.uniform(-1, 1, m)
    mixed[: m // 2] = 0.0
    mixed[0] = -0.0
    rows.append(mixed)
    return np.array(rows)


class TestStackedKernel:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_parts_match_permutation_sum_bitwise(self, m):
        lams = awkward_rows(m, np.random.default_rng(40 + m))
        stacked = q_eps_parts(lams.reshape(2, 3, m))
        assert stacked.shape == (m, 2, 3, m, m)
        for k, lam in enumerate(lams):
            ref = permutation_sum_parts(lam)
            one = q_eps_parts(lam[None])
            for i in range(m):
                assert stacked[i].reshape(-1, m, m)[k].tobytes() == ref[i].tobytes()
                assert one[i, 0].tobytes() == ref[i].tobytes()

    @pytest.mark.parametrize("m", range(1, 7))
    def test_q_eps_matches_permutation_sum_bitwise(self, m):
        lams = awkward_rows(m, np.random.default_rng(50 + m))
        for eps in (1.0, 0.3, 0.01):
            got = q_eps(lams, eps)
            for lam, Q in zip(lams, got):
                ref = np.zeros((m, m))
                for i, part in enumerate(permutation_sum_parts(lam)):
                    ref += eps ** (2 * i) * part
                assert Q.tobytes() == ref.tobytes()
                assert build_Q_eps(lam, eps).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", range(1, 6))
    def test_q_eps_by_row_blocks_is_the_sum_of_parts_bitwise(self, m):
        """Q_eps summed block by block equals the sum of the whole stack's
        parts on a stack of two full row blocks and a short one."""
        rng = np.random.default_rng(60 + m)
        lams = np.concatenate([awkward_rows(m, rng)] + [
            rng.choice([-1.5, -0.5, 0.0, 1e-3, 2.0], size=(_ROW_BLOCK, m)) for _ in range(2)])
        lams = lams.reshape(2, -1, m)
        assert lams[0].shape[0] > _ROW_BLOCK // 2 and lams.size > _ROW_BLOCK * m
        parts = q_eps_parts(lams)
        for eps in (1.0, 0.3, 1e-4):
            Q = q_eps(lams, eps)
            assert Q.shape == lams.shape + (m,)
            assert Q.tobytes() == sum_parts(parts, eps).tobytes()

    def test_q_eps_holds_one_block_of_parts(self):
        """At m = 4 the parts of 16 row blocks take four times their Q_eps;
        Q_eps from them must peak below that, holding Q and one block's work."""
        import tracemalloc

        m, rows = 4, 16 * _ROW_BLOCK
        lams = np.random.default_rng(7).uniform(-2.0, 2.0, (rows, m))
        parts_bytes = m * rows * m * m * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            q_eps(lams, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < parts_bytes

    def test_q_eps_peak_at_m6(self):
        """4,096 sorted m = 6 rows: q_eps peaked at 7.8 MB of traced memory in
        blocks of 256 rows and at 27.2 MB in blocks of 1,024."""
        lams = np.sort(np.random.default_rng(8).uniform(-1.0, 1.0, (4096, 6)), axis=-1)
        _, peak = traced_peak(q_eps, lams, 0.3)
        assert peak < 10e6

    def test_empty_stack_and_bad_eps(self):
        assert q_eps_parts(np.zeros((0, 3))).shape == (3, 0, 3, 3)
        assert q_eps(np.zeros((0, 3)), 0.5).shape == (0, 3, 3)
        with pytest.raises(DomainError):
            q_eps(np.zeros((0, 3)), 0.0)
        with pytest.raises(DomainError):
            q_eps(np.zeros((2, 3)), 0.0)
        with pytest.raises(CapabilityError):
            q_eps_parts(np.zeros((2, 7)))


def verify_properties_per_point(lambdas, eps: float) -> PropertyReport:
    """The one-tuple-at-a-time body that the stacked kernel replaced; the oracle."""
    lam = np.asarray(lambdas, dtype=float).ravel()
    m = lam.size
    parts = q_eps_parts(lam)
    Q, W = sum_parts(parts, eps), deleted_sigmas(lam)

    psd = tuple(float(np.linalg.eigvalsh(hermitian_part(p))[0]) for p in parts)

    eigs = np.linalg.eigvalsh(hermitian_part(Q))
    lo, hi = float(eigs[0]), float(eigs[-1])
    coercivity = max(hi, eps ** (2 * (m - 1)) / lo) if lo > 0 else np.inf

    M = sylvester_companion(lam)
    comm = -1j * (Q @ M - M.T @ Q)
    gen = gen_eigvalsh(comm, Q)
    commutator = float(np.abs(gen).max() / eps)

    if m >= 2:
        deleted = q_eps(lam[np.nonzero(~np.eye(m, dtype=bool))[1].reshape(m, m - 1)], eps)
        acc = parts[0].copy()
        for i in range(m):
            pad = np.zeros((m, m))
            pad[: m - 1, : m - 1] = deleted[i]
            acc += eps ** 2 * pad
        recursion = float(np.abs(Q - acc).max())
    else:
        recursion = 0.0

    Q0 = parts[0]
    factorization = float(np.abs(Q0 - factorial(m - 1) * W.T @ W).max())

    vander = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            vander *= (lam[i] - lam[j]) ** 2
    det_scale = float(factorial(m - 1) ** m)
    det_abs = abs(float(np.linalg.det(Q0)) - det_scale * vander)
    det_rel = det_abs / (1.0 + det_scale * abs(vander))

    pair_prod = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            pair_prod *= lam[i] ** 2 + lam[j] ** 2
    diag_prod = float(np.prod(np.diag(Q0)))
    ratio = diag_prod / pair_prod if pair_prod > 0 else float("nan")

    return PropertyReport(
        psd_min_eigs=psd,
        coercivity_constant=coercivity,
        commutator_constant=commutator,
        recursion_residual=recursion,
        factorization_residual=factorization,
        det_identity_abs=det_abs,
        det_identity_rel=det_rel,
        diag_product_ratio=ratio,
    )


def _report_rows(rep: PropertyReport) -> np.ndarray:
    """Every field of a report as columns of one (rows, m + 7) float array."""
    fields = [np.asarray(v, dtype=float) for v in rep.psd_min_eigs]
    fields += [np.asarray(getattr(rep, name), dtype=float) for name in (
        "coercivity_constant", "commutator_constant", "recursion_residual",
        "factorization_residual", "det_identity_abs", "det_identity_rel",
        "diag_product_ratio")]
    return np.stack([np.atleast_1d(f) for f in fields], axis=-1)


class TestStackedVerifyProperties:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_stack_matches_per_point_bitwise(self, m):
        lams = (sample_separation_set(m, 10.0, 12, seed=m) if m > 1
                else np.random.default_rng(1).uniform(-2, 2, (12, 1)))
        for eps in (1.0, 0.1, 0.01):
            got = _report_rows(verify_properties(lams, eps))
            ref = np.concatenate([_report_rows(verify_properties_per_point(lam, eps))
                                  for lam in lams])
            assert got.tobytes() == ref.tobytes()

    def test_coalescing_and_degenerate_tuples_bitwise(self):
        # a double eigenvalue, a triple zero (the ratio is NaN) and a stack of
        # leading shape (2, 2)
        lams = np.array([[[1.0, 1.0, -0.5], [0.0, 0.0, 0.0]],
                         [[1.0, 1.0, 1.0], [2.0, -2.0, 0.0]]])
        for eps in (1.0, 0.1, 1e-6):
            rep = verify_properties(lams, eps)
            assert rep.recursion_residual.shape == (2, 2)
            ref = np.concatenate([_report_rows(verify_properties_per_point(lam, eps))
                                  for lam in lams.reshape(-1, 3)])
            assert _report_rows(rep).reshape(-1, 10).tobytes() == ref.tobytes()

    def test_products_where_pow_and_x_times_x_round_apart(self):
        # libm's pow(x, 2) and x * x disagree in the last bit now and then; the
        # Vandermonde and pair products must follow the scalar ** 2 of one tuple.
        def apart(x):
            return float(x) ** 2 != float(x) * float(x)

        lams = np.random.default_rng(11).uniform(-1, 1, (4000, 3))
        picked = np.array([lam for lam in lams
                           if any(apart(lam[i] - lam[j]) or apart(lam[i]) or apart(lam[j])
                                  for i, j in combinations(range(3), 2))][:8])
        if not picked.size:
            pytest.skip("pow(x, 2) rounds like x * x on this platform")
        got = _report_rows(verify_properties(picked, 0.1))
        ref = np.concatenate([_report_rows(verify_properties_per_point(lam, 0.1))
                              for lam in picked])
        assert got.tobytes() == ref.tobytes()

    def test_single_tuple_gives_scalars(self):
        rep = verify_properties([0.6, -1.4, 0.2], 0.2)
        assert np.ndim(rep.coercivity_constant) == 0
        assert len(rep.psd_min_eigs) == 3 and np.ndim(rep.psd_min_eigs[0]) == 0

    def test_companion_stack_rows(self):
        lams = sample_separation_set(4, 10.0, 5, seed=2)
        M = sylvester_companion(lams)
        assert M.shape == (5, 4, 4)
        for lam, row in zip(lams, M):
            assert row.tobytes() == sylvester_companion(lam).tobytes()
            np.testing.assert_allclose(np.sort(np.linalg.eigvals(row).real), np.sort(lam),
                                       atol=1e-10)


class TestGenEigvalsh:
    def test_stack_with_a_jittered_matrix_matches_single_calls(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3, 3))
        B = X @ X.swapaxes(-1, -2) + 0.5 * np.eye(3)
        singular = np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0])   # rank one, PSD
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        B[2] = singular
        A = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        got = gen_eigvalsh(A, B)
        assert got.shape == (4, 3)
        for k in range(4):
            assert got[k].tobytes() == gen_eigvalsh(A[k], B[k]).tobytes()
        for k in (0, 1, 3):
            Ah = hermitian_part(A[k])
            ref = np.sort(np.linalg.eigvals(np.linalg.solve(B[k], Ah)).real)
            np.testing.assert_allclose(got[k], ref, rtol=1e-9, atol=1e-9)

    def test_indefinite_matrix_still_raises(self):
        B = np.stack([np.eye(2), -np.eye(2)])
        with pytest.raises(NumericError):
            gen_eigvalsh(np.eye(2) + np.zeros((2, 2, 2)), B)
        with pytest.raises(NumericError):
            gen_eigvalsh(np.eye(2), -np.eye(2))


class TestVerifyProperties:
    def test_parts_are_psd(self):
        rng = np.random.default_rng(31)
        for m in (2, 3, 4):
            lam = rng.uniform(-2, 2, m)
            rep = verify_properties(lam, 0.4)
            assert min(rep.psd_min_eigs) >= -1e-12

    def test_coercivity_is_two_sided(self):
        lam = np.array([0.6, -1.4, 0.2])
        eps = 0.2
        rep = verify_properties(lam, eps)
        Q = q_eps(lam, eps)
        eigs = np.linalg.eigvalsh(Q)
        C = rep.coercivity_constant
        assert eigs[-1] <= C * (1 + 1e-12)
        assert eigs[0] >= eps ** (2 * (len(lam) - 1)) / C * (1 - 1e-12)

    def test_recursion_property(self):
        rng = np.random.default_rng(41)
        for m in (2, 3, 4):
            for _ in range(10):
                lam = rng.uniform(-2, 2, m)
                rep = verify_properties(lam, rng.uniform(0.05, 1.0))
                assert rep.recursion_residual <= 1e-10

    def test_factorization_residual_roundoff(self):
        rng = np.random.default_rng(43)
        for m in (2, 3, 4):
            lam = rng.uniform(-2, 2, m)
            rep = verify_properties(lam, 0.7)
            assert rep.factorization_residual <= 1e-12 * (1 + abs(lam).max() ** (2 * m))

    def test_det_identity_m2_hand_value(self):
        rep = verify_properties(np.array([1.0, -1.0]), 1e-6)
        Q0 = q_eps_parts(np.array([1.0, -1.0]))[0]
        assert np.linalg.det(Q0) == pytest.approx(4.0)
        assert rep.det_identity_rel <= 1e-10
        np.testing.assert_allclose(Q0, 2.0 * np.eye(2))
        assert near_diagonal_constant(Q0) == pytest.approx(1.0)

    def test_det_identity_well_separated(self):
        rng = np.random.default_rng(47)
        for m in (2, 3, 4):
            lam = np.sort(rng.uniform(-2, 2, m))
            while m > 1 and np.min(np.diff(lam)) < 0.4:
                lam = np.sort(rng.uniform(-2, 2, m))
            rep = verify_properties(lam, 0.3)
            assert rep.det_identity_rel <= 1e-8

    def test_diag_product_ratio_bounded(self):
        # Regression bounds frozen from this seeded sweep
        # (measured suprema 2.0, 107.9, 3.97e5; m=2 is exactly 2).
        frozen = {2: 2.01, 3: 120.0, 4: 4.4e5}
        rng = np.random.default_rng(53)
        for m, cap in frozen.items():
            worst = 0.0
            for _ in range(1000):
                lam = rng.uniform(-1, 1, m)
                # ratio only involves Q0; evaluate directly for speed
                Q0 = q_eps_parts(lam)[0]
                prod = 1.0
                for i in range(m):
                    for j in range(i + 1, m):
                        prod *= lam[i] ** 2 + lam[j] ** 2
                if prod > 0:
                    worst = max(worst, float(np.prod(np.diag(Q0))) / prod)
            assert worst <= cap

    def test_coercivity_regression_over_bounded_sample(self):
        # Deterministic seeded sample in [-1, 1]^m; the sup of the two-sided
        # constant is frozen as a regression value.
        frozen = {2: 5.1, 3: 41.0, 4: 370.0}
        rng = np.random.default_rng(2101)
        for m, cap in frozen.items():
            worst = 0.0
            for _ in range(200):
                lam = rng.uniform(-1, 1, m)
                for eps in (1.0, 0.1):
                    worst = max(worst, verify_properties(lam, eps).coercivity_constant)
            assert np.isfinite(worst) and worst <= cap

    def test_commutator_constant_uniformly_bounded(self):
        # The two-sided eps-sandwich yields a constant bounded uniformly in
        # eps; the smallest measured constant shrinks with eps for separated
        # spectra (the eps^0 part is an exact symmetriser), so the assertion
        # is boundedness by the eps=1 value with 10% headroom, plus
        # stabilisation at a coalescing spectrum for small eps.
        rng = np.random.default_rng(59)
        for m in (2, 3):
            for _ in range(20):
                lam = rng.uniform(-2, 2, m)
                c1 = verify_properties(lam, 1.0).commutator_constant
                for eps in (0.1, 0.01):
                    c = verify_properties(lam, eps).commutator_constant
                    assert np.isfinite(c)
                    assert c <= 1.1 * c1
        coalescing = verify_properties(np.array([1.0, 1.0, -0.5]), 0.1).commutator_constant
        tighter = verify_properties(np.array([1.0, 1.0, -0.5]), 0.01).commutator_constant
        assert abs(coalescing - tighter) <= 0.1 * coalescing

    def test_commutator_sandwich_holds(self):
        # -C eps Q <= -i(QM - M*Q) <= C eps Q as quadratic forms.
        rng = np.random.default_rng(61)
        for _ in range(25):
            m = rng.integers(2, 5)
            lam = rng.uniform(-2, 2, m)
            eps = rng.uniform(0.05, 1.0)
            Q = q_eps(lam, eps)
            M = sylvester_companion(lam)
            comm = -1j * (Q @ M - M.T @ Q)
            C = verify_properties(lam, eps).commutator_constant
            for _ in range(10):
                v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
                lhs = abs(np.vdot(v, comm @ v))
                rhs = C * eps * np.vdot(v, Q @ v).real
                assert lhs <= rhs * (1 + 1e-8) + 1e-12


class TestNearDiagonal:
    def test_diagonal_matrix(self):
        assert near_diagonal_constant(np.diag([1.0, 5.0, 0.1])) == pytest.approx(1.0)

    def test_rank_one(self):
        assert near_diagonal_constant(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(DomainError):
            near_diagonal_constant(np.array([[0.0, 0.0], [0.0, 2.0]]))

    def test_separation_set_sampling_bound(self):
        # Lemma-style lower bound c * m^{1-m} with c = det Q / prod(diag).
        lams = sample_separation_set(2, 10.0, 200, seed=17)
        for lam in lams:
            Q = q_eps(lam, 0.1)
            c0 = near_diagonal_constant(Q)
            c = np.linalg.det(Q) / np.prod(np.diag(Q))
            assert c0 >= c * 2 ** (1 - 2) - 1e-12
            assert c0 > 0.0


class TestLiftBlocks:
    def test_block_count_and_content(self):
        Q = np.array([[1.0, 2.0], [2.0, 5.0]])
        L = lift_blocks(Q)
        assert L.shape == (4, 4)
        np.testing.assert_array_equal(L[:2, :2], Q)
        np.testing.assert_array_equal(L[2:, 2:], Q)

    def test_off_blocks_zero(self):
        Q = np.arange(9.0).reshape(3, 3)
        L = lift_blocks(Q)
        assert np.all(L[:3, 3:] == 0.0) and np.all(L[3:6, 6:] == 0.0)

    def test_sampling_set_respects_bound(self):
        lams = sample_separation_set(3, 10.0, 64, seed=5)
        for lam in lams:
            for i in range(3):
                for j in range(i + 1, 3):
                    assert lam[i] ** 2 + lam[j] ** 2 <= 10.0 * (lam[i] - lam[j]) ** 2 + 1e-12


@given(
    lam=st.lists(st.floats(-2, 2), min_size=2, max_size=4),
    eps=st.floats(0.01, 1.0),
    data=st.data(),
)
def test_quasi_symmetriser_permutation_invariance(lam, eps, data):
    perm = data.draw(st.permutations(lam))
    ref = q_eps(np.array(lam), eps)
    new = q_eps(np.array(perm), eps)
    np.testing.assert_array_equal(ref, new)
