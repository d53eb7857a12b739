import numpy as np
import pytest
from math import factorial, log

from hyposym import (
    DomainError,
    SolverConfig,
    direct_integrate,
    energy_inequality_check,
    frequency_sweep,
    growth_fit,
    integral_K_sweep,
    reduced_integrate,
    sandwich_constant,
    solve_cauchy_1d,
)
from hyposym import energy
from hyposym.energy import (
    _TERM3_BLOCK,
    RENORM_THRESHOLD,
    EnergyTrace,
    _EnergyTerms,
    _dense,
    _lockstep_rk4,
    _width,
)
from hyposym.examples import builtin_system
from hyposym.pencils import hermitian_part
from hyposym.reduction import PathAssembler, assemble_path, initial_states, lift_trajectory
from hyposym.symbols import SystemSymbol, bracket, brackets, eval_symbol, rescaled_spectra
from hyposym.quasisym import q_eps, verify_properties
from oracles import lift_blocks


def initial_state(symbol, u0hat, xi):
    """The reduced state of u-hat(0, xi) = u0hat at one frequency xi."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return initial_states(symbol, np.asarray(u0hat, dtype=complex)[None], xi[None])[0]


def reweight_energy(trace, symbol, eps):
    """The energy diagnostics of an existing trajectory at another eps.

    The oracle of the diagnostics that reduced_integrate takes from its own
    RK4 windows: calA and calB are assembled _TERM3_BLOCK samples at a time,
    apart from the integration.
    """
    new = EnergyTrace(ts=trace.ts, V=trace.V, log_scale=trace.log_scale,
                      xi=trace.xi, eps=float(eps), m=trace.m)
    ts = trace.ts
    terms = _EnergyTerms(symbol, ts, trace.xi, float(eps))
    assembler = PathAssembler(symbol, trace.xi[None])
    for k0 in range(0, ts.size, _TERM3_BLOCK):
        k1 = min(k0 + _TERM3_BLOCK, ts.size)
        terms.add(k0, k1, *assembler.reduce(ts[k0:k1])[:2], trace.V)
    terms.finish(new)
    return new


def constant_symbol(M, horizon=1.0):
    M = np.asarray(M, dtype=float)
    coeffs = np.zeros((1, M.shape[0], M.shape[0], 1))
    coeffs[..., 0] = M
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


def companion_symbol(last_row, horizon=1.0):
    """1-d symbol whose matrix is the companion matrix with the polynomials in
    t of ``last_row`` (coefficient lists, lowest degree first) as last row."""
    m = len(last_row)
    coeffs = np.zeros((1, m, m, max(map(len, last_row))))
    for i in range(m - 1):
        coeffs[0, i, i + 1, 0] = 1.0
    for j, poly in enumerate(last_row):
        coeffs[0, m - 1, j, : len(poly)] = poly
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


# Eigenvalues +-2 and +-t (a double zero at t = 0): the inline system of the
# report-m4 benchmark.  The m = 6 system adds the pair +-1.
M4_DOUBLE_ZERO = companion_symbol([[0.0, 0.0, -4.0], [0.0], [4.0, 0.0, 1.0], [0.0]])
M6_DOUBLE_ZERO = companion_symbol([[0.0, 0.0, 4.0], [0.0], [-4.0, 0.0, -5.0], [0.0],
                                   [5.0, 0.0, 1.0], [0.0]])


def per_sample_diagnostics(trace, symbol):
    """Energy diagnostics with one quasi-symmetriser, lifting and dot per sample."""
    ts, V, m, eps = trace.ts, trace.V, symbol.m, trace.eps
    bxi = bracket(trace.xi)
    h = ts[1] - ts[0]
    n = ts.size
    calA, calB = assemble_path(symbol, trace.xi, ts)
    Q = np.empty((n, m, m))
    for k in range(n):
        lam = rescaled_spectra(symbol, ts[k : k + 1], trace.xi).lambdas[0]
        Q[k] = q_eps(lam, eps)
    dQ = np.gradient(Q, h, axis=0)
    blocks = V.reshape(n, m, m)
    A0 = calA[:, :m, :m] / bxi

    def band_form(mats):
        prod = np.einsum("kab,kib->kia", mats, blocks)
        return np.einsum("kia,kia->k", np.conj(blocks), prod)

    E = band_form(Q).real
    with np.errstate(divide="ignore", invalid="ignore"):
        K = np.where(E > 1e-280, np.abs(band_form(dQ)) / np.maximum(E, 1e-280), 0.0)
    comm2 = np.einsum("kab,kbc->kac", Q, A0) - np.einsum(
        "kab,kbc->kac", np.conj(np.swapaxes(A0, 1, 2)), Q)
    term2 = np.abs(bxi * band_form(comm2))
    term3 = np.empty(n, dtype=complex)
    coercivity = 0.0
    for k in range(n):
        Qf = lift_blocks(Q[k])
        M3 = Qf @ calB[k] - calB[k].conj().T @ Qf
        term3[k] = np.vdot(V[k], M3 @ V[k])
        eigs = np.linalg.eigvalsh(hermitian_part(Q[k]))
        lo, hi = eigs[0], eigs[-1]
        coercivity = max(coercivity, hi if lo <= 0 else max(hi, eps ** (2 * (m - 1)) / lo))
    # np.abs of an array, as the library takes it: the scalar abs() (libm
    # hypot) can differ from numpy's vectorised loop in the last bit
    return {"E": E, "K": K, "term2": term2, "term3": np.abs(term3), "dtE": np.gradient(E, h),
            "coercivity_sup": float(coercivity)}


def reference_rk4(M_half, N, h, y0, renormalize):
    """One frequency's RK4, step by step: the oracle of the lockstep integrator.

    ``M_half`` is (2N+1, d, d) on the half-step grid or one constant (d, d)
    matrix; renormalisation decides on the 1-d norm of the state.
    """
    constant = M_half.ndim == 2
    y = np.asarray(y0, dtype=complex).copy()
    out = np.empty((N + 1, y.size), dtype=complex)
    logs = np.zeros(N + 1)
    out[0] = y
    acc = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N):
            if constant:
                M1 = M2 = M3 = M_half
            else:
                M1, M2, M3 = M_half[2 * k], M_half[2 * k + 1], M_half[2 * k + 2]
            k1 = M1 @ y
            k2 = M2 @ (y + (0.5 * h) * k1)
            k3 = M2 @ (y + (0.5 * h) * k2)
            k4 = M3 @ (y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if renormalize:
                nrm = float(np.linalg.norm(y))
                if nrm > RENORM_THRESHOLD:
                    y = y / nrm
                    acc += log(nrm)
            out[k + 1] = y
            logs[k + 1] = acc
    return out, logs


def step_matrices(S, xis, ts):
    """i (calA + calB) of S at the frequency stack xis (q, n) along ts, (len(ts), q, d, d)."""
    return 1j * np.add(*PathAssembler(S, xis)(ts))


def dense_rk4(S, xis, ts_half, Y0, N, h, record, renormalize=False):
    """_lockstep_rk4 on S's dense windows, as reduced_integrate steps a variable symbol."""
    def window(k0, k1):
        return _dense(step_matrices(S, xis, ts_half[2 * k0 : 2 * k1 + 1]))
    return _lockstep_rk4(window, _width(len(xis) * S.m ** 4 * 16), Y0, N, h, record, renormalize)


def constant_rk4(M, Y0, N, h, record, renormalize=False):
    """_lockstep_rk4 on constant matrices M (q, d, d), as reduced_integrate steps them."""
    def f(j, Y):
        return np.matvec(M, Y)
    return _lockstep_rk4(lambda k0, k1: f, _width(M.size * 16), Y0, N, h, record, renormalize)


def windowed_solve(S, u0, config, snapshot_ts):
    """The fields of solve_cauchy_1d, stepped with the dense PathAssembler windows."""
    m, n = S.m, u0.shape[1]
    xis = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    N, h = config.steps_for(S, np.array([n / 2.0]))
    snap_idx = np.clip(np.rint(np.asarray(snapshot_ts) / h).astype(int), 0, N)
    record = sorted(set(snap_idx.tolist()))
    V0 = initial_states(S, np.fft.fft(u0, axis=1).T, xis)
    states, _ = dense_rk4(S, xis, np.linspace(0.0, S.horizon, 2 * N + 1), V0, N, h, record)
    first = np.swapaxes(states[[record.index(k) for k in snap_idx]][:, :, ::m], 1, 2)
    return np.fft.ifft(first * brackets(xis) ** (-(m - 1)), axis=2)


def expm(M):
    vals, vecs = np.linalg.eig(M)
    return (vecs * np.exp(vals)) @ np.linalg.inv(vecs)


class TestDirectIntegrate:
    def test_zero_symbol_constant_solution(self):
        S = constant_symbol(np.zeros((2, 2)))
        ts, traj = direct_integrate(S, np.array([3.0]), np.array([1.0, -2.0j]),
                                    SolverConfig(t_step=1e-2))
        np.testing.assert_allclose(traj[-1], traj[0], atol=1e-14)

    def test_matrix_exponential_closed_form(self):
        S = builtin_system("m2-wave")
        xi = np.array([2.0])
        u0 = np.array([1.0, 0.25 - 0.5j])
        ts, traj = direct_integrate(S, xi, u0, SolverConfig(t_step=1e-3))
        A = eval_symbol(S, 0.0, xi)
        for idx in (len(ts) // 2, len(ts) - 1):
            exact = expm(1j * ts[idx] * A) @ u0
            np.testing.assert_allclose(traj[idx], exact, atol=1e-10)

    def test_rotation_grows_like_cosh(self):
        S = builtin_system("m2-nonhyp-control")
        xi = np.array([5.0])
        u0 = np.array([1.0, 1.0]) / np.sqrt(2)
        ts, traj = direct_integrate(S, xi, u0, SolverConfig())
        A = eval_symbol(S, 0.0, xi)
        exact = expm(1j * ts[-1] * A) @ u0
        np.testing.assert_allclose(traj[-1], exact, rtol=1e-6)
        # exp(i t A xi) has modes exp(+-xi t): growth rate xi up to a
        # data-dependent O(1) offset
        assert np.log(np.linalg.norm(traj[-1])) == pytest.approx(
            5.0 * S.horizon + np.log(np.linalg.norm(u0) / np.sqrt(2)), rel=0.05
        )

    def test_step_guard(self):
        S = builtin_system("m2-wave")
        with pytest.raises(DomainError):
            direct_integrate(S, np.array([100.0]), np.array([1.0, 0.0]),
                             SolverConfig(t_step=0.01))


def oracle_gap(symbol, xi, u0hat, config) -> float:
    """Max deviation between the reduced solve and the lifted direct oracle.

    Both systems are integrated with the same step; the direct trajectory is
    lifted through the reduction transform and compared against the reduced
    state, normalised by the largest lifted state norm.
    """
    ts, traj = direct_integrate(symbol, xi, u0hat, config)
    U = lift_trajectory(symbol, xi, ts, traj)
    V0 = initial_state(symbol, u0hat, xi)
    trace = reduced_integrate(symbol, xi, V0, config, collect_energy=False)
    scale = max(float(np.linalg.norm(U, axis=1).max()), 1e-300)
    return float(np.linalg.norm(trace.V - U, axis=1).max() / scale)


class TestReducedIntegrate:
    def test_zero_state_stays_zero(self):
        S = builtin_system("m2-glaeser")
        trace = reduced_integrate(S, np.array([4.0]), np.zeros(4), SolverConfig())
        assert np.all(trace.V == 0.0)
        assert np.all(trace.E == 0.0)
        assert np.all(trace.K == 0.0)

    def test_oracle_consistency_examples(self):
        cfg = SolverConfig(t_step=1e-3)
        xi = np.array([np.sqrt(99.0)])  # bracket = 10
        assert oracle_gap(builtin_system("m2-glaeser"), xi, np.array([1.0, 1.0]), cfg) <= 1e-6
        assert oracle_gap(builtin_system("m3-tracezero"), xi,
                          np.array([1.0, 0.5, -0.25]), cfg) <= 1e-6

    def test_oracle_convergence_order(self):
        S = builtin_system("m2-glaeser")
        xi = np.array([np.sqrt(99.0)])
        u0 = np.array([1.0, 1.0])
        gaps = [oracle_gap(S, xi, u0, SolverConfig(t_step=h)) for h in (4e-3, 1e-3)]
        order = np.log(gaps[0] / gaps[1]) / np.log(4.0)
        assert order >= 3.5

    def test_constant_hyperbolic_energy_bounded(self):
        S = builtin_system("m2-wave")
        xi = np.array([20.0])
        u0 = np.array([1.0, 0.5])
        V0 = initial_state(S, u0, xi)
        trace = reduced_integrate(S, xi, V0, SolverConfig())
        lam = np.array([-1.0, 1.0]) * (20.0 / bracket(20.0))
        C_comm = verify_properties(lam, trace.eps).commutator_constant
        kappa0 = np.exp(C_comm * trace.eps * bracket(xi) * S.horizon)
        ratio = trace.E / trace.E[0]
        assert ratio.max() <= kappa0 * (1 + 1e-6)
        assert ratio.min() >= 1.0 / kappa0 * (1 - 1e-6)

    def test_coercivity_along_trajectory(self):
        for name in ("m2-glaeser", "m3-tracezero"):
            S = builtin_system(name)
            xi = np.array([30.0])
            V0 = initial_state(S, np.ones(S.m), xi)
            trace = reduced_integrate(S, xi, V0, SolverConfig())
            m = S.m
            lower = trace.eps ** (2 * (m - 1)) / trace.coercivity_sup
            norms = np.linalg.norm(trace.V, axis=1) ** 2
            assert np.all(trace.E >= lower * norms * (1 - 1e-9))
            assert np.all(trace.E >= 0.0)

    def test_third_term_bound_with_sandwich_constant(self):
        S = builtin_system("m2-glaeser")
        xi = np.array([100.0])
        V0 = initial_state(S, np.ones(2), xi)
        trace = reduced_integrate(S, xi, V0, SolverConfig())
        m = S.m
        sw = max(sandwich_constant(S, t, xi) for t in trace.ts[:: len(trace.ts) // 40])
        C3 = 2.0 * factorial(m - 1) * sw
        assert np.all(trace.term3 <= C3 * trace.E * (1 + 1e-6) + 1e-12)

    def test_diagnostics_match_per_sample_loop_bitwise(self):
        """The diagnostics that reduced_integrate takes from its own RK4
        windows, and reweight_energy at the same eps, are bitwise the
        per-sample oracle's."""
        d6 = 36
        assert _width(d6 * d6 * 16) == 6
        cases = [
            # 402 samples: the term3 blocks end mid-trace
            (builtin_system("m3-tracezero"), 20.0, None, 402),
            (builtin_system("m3-tracezero"), 20.0, 0.05, 402),
            # 2,001 steps in 63 windows of 32
            (M4_DOUBLE_ZERO, 100.0, None, 2002),
            # a constant symbol: one assembly, stepped in windows of 512
            (builtin_system("m2-wave"), 300.0, None, 6002),
            # 6 steps per window
            (M6_DOUBLE_ZERO, 5.0, None, 103),
        ]
        for S, x, eps, samples in cases:
            xi = np.array([x])
            V0 = initial_state(S, np.ones(S.m) / np.sqrt(S.m), xi)
            config = SolverConfig() if eps is None else SolverConfig(eps_policy=("fixed", eps))
            trace = reduced_integrate(S, xi, V0, config)
            assert trace.ts.size == samples
            ref = per_sample_diagnostics(trace, S)
            again = reweight_energy(trace, S, trace.eps)
            for got in (trace, again):
                for name in ("E", "K", "term2", "term3", "dtE"):
                    assert getattr(got, name).tobytes() == ref[name].tobytes(), (S.m, x, name)
                assert got.coercivity_sup == ref["coercivity_sup"], (S.m, x)

    def test_constant_symbol_renormalises_across_windows_bitwise(self):
        """A constant symbol steps its one assembly in bounded windows; a run
        that renormalises twice is bitwise the step-by-step oracle, and its
        diagnostics bitwise the per-sample loop's."""
        S = builtin_system("m2-nonhyp-control")
        xi = np.array([600.0])
        N, h = SolverConfig().steps_for(S, xi)
        assert N == 12001 and N > _width(S.m ** 4 * 16)
        V0 = initial_state(S, np.ones(2) / np.sqrt(2), xi)
        trace = reduced_integrate(S, xi, V0, SolverConfig())
        ref, ref_logs = reference_rk4(step_matrices(S, xi[None], np.zeros(1))[0, 0], N, h, V0,
                                      renormalize=True)
        assert np.count_nonzero(np.diff(ref_logs)) == 2
        assert trace.V.tobytes() == ref.tobytes()
        assert trace.log_scale.tobytes() == ref_logs.tobytes()
        diag = per_sample_diagnostics(trace, S)
        for name in ("E", "K", "term2", "term3", "dtE"):
            assert getattr(trace, name).tobytes() == diag[name].tobytes(), name

    def test_invalid_state_length(self):
        with pytest.raises(DomainError):
            reduced_integrate(builtin_system("m2-wave"), np.array([1.0]), np.zeros(3),
                              SolverConfig())

    def test_overflowing_mode_is_renormalised(self):
        # exp(1000 t) overflows a double; renormalisation finishes the run
        # and folds the growth back into growth_log
        S = builtin_system("m2-nonhyp-control")
        xi = np.array([1000.0])
        V0 = initial_state(S, np.ones(2), xi)
        trace = reduced_integrate(S, xi, V0, SolverConfig(), collect_energy=False)
        assert trace.growth_log == pytest.approx(1000.0, rel=0.05)


class TestEnergyInequality:
    @staticmethod
    def traces_for(name, xi_values):
        S = builtin_system(name)
        cfg = SolverConfig()
        out = []
        for xi_mag in xi_values:
            xi = np.array([xi_mag])
            V0 = initial_state(S, np.ones(S.m) / np.sqrt(S.m), xi)
            out.append(reduced_integrate(S, xi, V0, cfg))
        return out

    def test_constant_coefficients_reduce_to_commutator_term(self):
        S = builtin_system("m2-wave")
        xi = np.array([10.0])
        V0 = initial_state(S, np.ones(2), xi)
        trace = reduced_integrate(S, xi, V0, SolverConfig())
        assert np.abs(trace.K).max() <= 1e-8
        assert np.abs(trace.term3).max() <= 1e-12
        # dtE then carries only the commutator term plus RK4 energy drift
        N, h = SolverConfig().steps_for(S, xi)
        omega = bracket(xi)
        drift = trace.E.max() * omega * (omega * h) ** 4
        assert np.all(np.abs(trace.dtE) <= trace.term2.max() * 1.05 + drift)
        rep = energy_inequality_check([trace])
        assert rep.passed

    def test_glaeser_passes_and_control_fails(self):
        good = energy_inequality_check(self.traces_for("m2-glaeser", (10.0, 100.0, 1000.0)))
        assert good.passed
        assert all(m <= 0 for m in good.margins)
        bad = energy_inequality_check(self.traces_for("m2-nonhyp-control",
                                                      (10.0, 100.0, 1000.0)))
        assert not bad.passed
        assert bad.margins[-1] > 0

    def test_zero_trace_no_residual(self):
        S = builtin_system("m2-wave")
        trace = reduced_integrate(S, np.array([5.0]), np.zeros(4), SolverConfig())
        rep = energy_inequality_check([trace])
        assert rep.passed
        assert rep.margins == (0.0,)

    def test_missing_diagnostics_rejected(self):
        S = builtin_system("m2-wave")
        trace = reduced_integrate(S, np.array([5.0]), np.zeros(4), SolverConfig(),
                                  collect_energy=False)
        with pytest.raises(DomainError):
            energy_inequality_check([trace])


class TestIntegralKSweep:
    def test_reweight_reuses_trajectory(self):
        S = builtin_system("m2-glaeser")
        xi = np.array([10.0])
        V0 = initial_state(S, np.ones(2), xi)
        base = reduced_integrate(S, xi, V0, SolverConfig())
        re = reweight_energy(base, S, 0.5)
        np.testing.assert_array_equal(re.V, base.V)
        assert re.eps == 0.5

    def test_integrals_match_per_eps_reweight_bitwise(self):
        # The sweep builds the quasi-symmetriser parts once; each integral
        # must still be the one a full per-eps reweight gives.
        for name in ("m2-glaeser", "m3-tracezero"):
            S = builtin_system(name)
            xi = np.array([10.0])
            eps_values = (1e-1, 1e-2, 1e-3)
            sweep = integral_K_sweep(frequency_sweep(S, SolverConfig(xi_grid=(10.0,)),
                                                     collect_energy=False)[0], S, eps_values)
            V0 = initial_state(S, np.ones(S.m) / np.sqrt(S.m), xi)
            base = reduced_integrate(S, xi, V0, SolverConfig(), collect_energy=False)
            for eps, value in zip(eps_values, sweep.K_integrals):
                tr = reweight_energy(base, S, eps)
                assert value == float(np.trapezoid(tr.K, tr.ts)), (name, eps)

    def test_upper_bound_direction_holds(self):
        # int K <= C1 eps^{-2(m-1)/k} with C1 calibrated at the largest eps.
        S = builtin_system("m2-glaeser")
        rep = integral_K_sweep(frequency_sweep(S, SolverConfig(xi_grid=(10.0,)),
                                               collect_energy=False)[0], S, (1e-1, 1e-2, 1e-3))
        C1 = rep.C1_values[0]
        for eps, val in zip(rep.eps_values, rep.K_integrals):
            assert val <= C1 * eps ** rep.theoretical_exponent * (1 + 1e-9)

    def test_integral_stable_under_grid_refinement(self):
        S = builtin_system("m2-glaeser")
        vals = []
        for h in (4e-4, 2e-4):
            rep = integral_K_sweep(frequency_sweep(S, SolverConfig(t_step=h, xi_grid=(100.0,)),
                                                   collect_energy=False)[0], S, (1e-2,))
            vals.append(rep.K_integrals[0])
        assert vals[0] == pytest.approx(vals[1], rel=1e-5)


class TestGrowthFit:
    def test_constant_hyperbolic_is_polynomial_and_flat(self):
        S = builtin_system("m2-wave")
        cfg = SolverConfig(xi_grid=tuple(np.geomspace(10, 1000, 5)))
        rep = growth_fit(frequency_sweep(S, cfg, collect_energy=False))
        assert rep.classification == "polynomial"
        assert abs(rep.kappa) <= 0.1

    def test_control_exponential_rate(self):
        S = builtin_system("m2-nonhyp-control")
        cfg = SolverConfig(xi_grid=tuple(np.geomspace(10, 1000, 5)))
        rep = growth_fit(frequency_sweep(S, cfg, collect_energy=False))
        assert rep.classification == "exponential"
        assert rep.rate == pytest.approx(S.horizon, rel=0.1)

    def test_insufficient_grid(self):
        S = builtin_system("m2-wave")
        with pytest.raises(DomainError):
            growth_fit(frequency_sweep(S, SolverConfig(xi_grid=(10.0, 20.0, 30.0)),
                                       collect_energy=False))
        with pytest.raises(DomainError):
            growth_fit(frequency_sweep(S, SolverConfig(xi_grid=(10.0, 1000.0)),
                                       collect_energy=False))


class TestSolveCauchy1d:
    def test_transport_diagonal(self):
        c = 0.7
        S = constant_symbol(np.diag([c, c]))
        n = 128
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.exp(1j * x), np.cos(2 * x)]).astype(complex)
        field = solve_cauchy_1d(S, u0, SolverConfig(), [1.0])
        t = field.snapshot_ts[0]
        exact = np.stack([np.exp(1j * (x + c * t)), np.cos(2 * (x + c * t))])
        np.testing.assert_allclose(field.fields[0], exact, atol=1e-7)

    def test_zero_data(self):
        S = builtin_system("m2-wave")
        u0 = np.zeros((2, 64), dtype=complex)
        field = solve_cauchy_1d(S, u0, SolverConfig(), [0.5])
        assert np.abs(field.fields).max() == 0.0

    def test_dalembert_wave(self):
        S = builtin_system("m2-wave")
        n = 256
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.cos(x), 0.5 * np.sin(2 * x)]).astype(complex)
        field = solve_cauchy_1d(S, u0, SolverConfig(), [0.5, 1.0])
        u0h = np.fft.fft(u0, axis=1)
        k = np.fft.fftfreq(n, d=1.0 / n)
        for s, t in enumerate(field.snapshot_ts):
            wp = np.fft.ifft((u0h[0] + u0h[1]) * np.exp(1j * k * t))
            wm = np.fft.ifft((u0h[0] - u0h[1]) * np.exp(-1j * k * t))
            exact = np.stack([(wp + wm) / 2.0, (wp - wm) / 2.0])
            err = np.abs(field.fields[s] - exact).max() / np.abs(exact).max()
            assert err <= 1e-6

    def test_time_varying_path(self):
        S = builtin_system("m2-glaeser")
        n = 16
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.exp(1j * x), np.zeros(n)]).astype(complex)
        field = solve_cauchy_1d(S, u0, SolverConfig(), [1.0])
        # compare against the per-mode direct oracle
        u0h = np.fft.fft(u0, axis=1)
        k = np.fft.fftfreq(n, d=1.0 / n)
        cfg = SolverConfig(t_step=field.snapshot_ts[-1] / round(1.0 / 0.05 * bracket(8.0)))
        exact_h = np.zeros((2, n), dtype=complex)
        N, h = SolverConfig().steps_for(S, np.array([8.0]))
        for q in range(n):
            ts, traj = direct_integrate(S, np.array([k[q]]), u0h[:, q], SolverConfig(t_step=h))
            exact_h[:, q] = traj[-1]
        exact = np.fft.ifft(exact_h, axis=1)
        np.testing.assert_allclose(field.fields[0], exact, atol=1e-8)

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero"])
    def test_separable_solve_matches_windowed_lockstep(self, name):
        # Not bitwise: the separable right-hand side rounds xi^k FL(A_1)
        # where the windows round FL(xi A_1).
        S = builtin_system(name)
        n = 128
        x = 2 * np.pi * np.arange(n) / n
        rng = np.random.default_rng(9)
        u0 = np.exp(1j * x) + 0.25 * (rng.standard_normal((S.m, n))
                                      + 1j * rng.standard_normal((S.m, n)))
        field = solve_cauchy_1d(S, u0, SolverConfig(), [0.5, 1.0])
        ref = windowed_solve(S, u0, SolverConfig(), [0.5, 1.0])
        for s in range(2):
            scale = np.abs(ref[s]).max()
            assert np.abs(field.fields[s] - ref[s]).max() <= 1e-12 * scale, (name, s)

    def test_variable_coefficients_assemble_no_matrices(self, monkeypatch):
        from hyposym import reduction

        def refuse(*args, **kwargs):
            raise AssertionError("a solve must not assemble dense matrices")

        monkeypatch.setattr(reduction.PathAssembler, "__call__", refuse)
        S = builtin_system("m2-glaeser")
        n = 16
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.exp(1j * x), np.zeros(n)])
        field = solve_cauchy_1d(S, u0, SolverConfig(), [1.0])
        assert np.isfinite(field.fields).all() and np.abs(field.fields).max() > 0.5

    @pytest.mark.parametrize("name", ["m2-glaeser", "m2-wave"])
    def test_one_bracket_per_mode(self, name, monkeypatch):
        from hyposym import symbols

        calls = []
        real = symbols.bracket
        monkeypatch.setattr(symbols, "bracket", lambda xi: calls.append(1) or real(xi))
        n = 64
        solve_cauchy_1d(builtin_system(name), np.ones((2, n), dtype=complex), SolverConfig(),
                        [1.0])
        assert len(calls) == n

    def test_grid_validation(self):
        S = builtin_system("m2-wave")
        with pytest.raises(DomainError):
            solve_cauchy_1d(S, np.zeros((2, 100), dtype=complex), SolverConfig(), [0.5])
        with pytest.raises(DomainError):
            solve_cauchy_1d(S, np.zeros((3, 64), dtype=complex), SolverConfig(), [0.5])


class TestSolverConfig:
    def test_eps_policies(self):
        cfg = SolverConfig(eps_policy=("fixed", 0.25))
        assert cfg.eps_for(2, 100.0) == 0.25
        cfg = SolverConfig(eps_policy=("inverse",))
        assert cfg.eps_for(2, 3.0) == pytest.approx(1.0 / bracket(3.0))
        cfg = SolverConfig(eps_policy=("balanced", 2))
        assert cfg.eps_for(2, 3.0) == pytest.approx(bracket(3.0) ** (-0.5))

    def test_policy_validation(self):
        with pytest.raises(DomainError):
            SolverConfig(eps_policy=("fixed", 2.0))
        with pytest.raises(DomainError):
            SolverConfig(eps_policy=("mystery",))
        with pytest.raises(DomainError):
            SolverConfig(t_step=-1.0)

    def test_underflowing_step_is_a_domain_error(self):
        # cfl / <xi> rounds to a subnormal or to zero: T / h is not finite
        S = builtin_system("m2-glaeser")
        for cfl in (1e-320, 5e-324):
            cfg = SolverConfig(cfl_safety=cfl)
            assert cfg.step_count(S, np.array([512.0])) == float("inf")
            with pytest.raises(DomainError, match="underflows"):
                cfg.steps_for(S, np.array([512.0]))
        assert SolverConfig().step_count(S, np.array([512.0])) == 10241

    def test_eps_stays_in_unit_interval(self):
        cfg = SolverConfig(eps_policy=("balanced", 2))
        for xi in (0.0, 1.0, 1e4):
            assert 0.0 < cfg.eps_for(3, xi) <= 1.0


class TestLockstepRK4:
    """Every row of a lockstep run is bitwise its own step-by-step run."""

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero"])
    def test_variable_coefficients_across_windows(self, name):
        S = builtin_system(name)
        m, d = S.m, S.m * S.m
        xis = np.array([[0.0], [1.0], [-3.0], [7.0], [12.5]])
        N, h = SolverConfig().steps_for(S, xis[-1])
        width = _width(len(xis) * d * d * 16)
        assert 1 <= width < N  # the run crosses window boundaries
        ts_half = np.linspace(0.0, S.horizon, 2 * N + 1)
        u0 = np.array([1.0, 0.5j, -0.25])[:m]
        V0 = np.stack([initial_state(S, u0, xi) for xi in xis])
        states, logs = dense_rk4(S, xis, ts_half, V0, N, h, [0, N])
        assert states.shape == (2, len(xis), d)
        assert not logs.any()
        for r, xi in enumerate(xis):
            ref, _ = reference_rk4(1j * np.add(*assemble_path(S, xi, ts_half)), N, h, V0[r],
                                   renormalize=False)
            assert states[0, r].tobytes() == ref[0].tobytes()
            assert states[1, r].tobytes() == ref[N].tobytes(), xi

    def test_constant_coefficients(self):
        S = builtin_system("m2-wave")
        xis = np.fft.fftfreq(16, d=1.0 / 16)[:, None]
        N, h = SolverConfig().steps_for(S, np.array([8.0]))
        matrices = step_matrices(S, xis, np.zeros(1))[0]
        assert matrices.shape == (16, 4, 4)
        assert _width(matrices.size * 16) < N  # the run crosses window boundaries
        rng = np.random.default_rng(3)
        V0 = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        record = [0, N // 3, N]
        states, _ = constant_rk4(matrices, V0, N, h, record)
        for r in range(16):
            ref, _ = reference_rk4(matrices[r], N, h, V0[r], renormalize=False)
            for slot, k in enumerate(record):
                assert states[slot, r].tobytes() == ref[k].tobytes(), (r, k)

    def test_renormalised_rows_match_their_solo_runs(self):
        # Rows at xi = 450 and 600 grow like exp(xi t) past RENORM_THRESHOLD
        # (exp(276)); the rows at xi = 0 and 2 next to them never reach it.
        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[0.0], [600.0], [2.0], [450.0]])
        N, h = SolverConfig().steps_for(S, np.array([600.0]))
        matrices = step_matrices(S, xis, np.zeros(1))[0]
        # With this data the xi = 450 row crosses the threshold at a state
        # whose stacked norm differs from its 1-d norm in the last bit.
        rng = np.random.default_rng(0)
        V0 = np.stack([initial_state(S, rng.standard_normal(2) + 1j * rng.standard_normal(2),
                                     xi) for xi in xis])
        states, logs = constant_rk4(matrices, V0, N, h, range(N + 1), renormalize=True)
        assert logs[-1, 1] > 2 * log(RENORM_THRESHOLD) and logs[-1, 3] > log(RENORM_THRESHOLD)
        assert not logs[:, [0, 2]].any()
        for r in range(len(xis)):
            solo, solo_logs = constant_rk4(matrices[r : r + 1], V0[r : r + 1], N, h,
                                           range(N + 1), renormalize=True)
            assert states[:, r].tobytes() == solo[:, 0].tobytes(), r
            assert logs[:, r].tobytes() == solo_logs[:, 0].tobytes(), r
            ref, ref_logs = reference_rk4(matrices[r], N, h, V0[r], renormalize=True)
            assert states[:, r].tobytes() == ref.tobytes(), r
            assert logs[:, r].tobytes() == ref_logs.tobytes(), r

    def test_overflow_is_reported_as_numeric_error(self):
        from hyposym.errors import NumericError

        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[1.0], [1000.0]])
        N, h = SolverConfig().steps_for(S, np.array([1000.0]))
        matrices = step_matrices(S, xis, np.zeros(1))[0]
        V0 = np.stack([initial_state(S, np.ones(2), xi) for xi in xis])
        with pytest.raises(NumericError, match="non-finite state"):
            constant_rk4(matrices, V0, N, h, [N])


class TestRK4Propagate:
    """Propagator powers R(hM)^k against the stepped constant-coefficient run.

    Not bitwise: the stepped run rounds once per step, the powers about
    log2(N) times, so the two differ by roughly N unit roundoffs of each
    row's size (1.1e-12 at N = 10,241).
    """

    TOL = 1e-11

    @staticmethod
    def _compare(S, xis, N, h, seed=3):
        from hyposym.energy import _rk4_propagate

        M = step_matrices(S, xis, np.zeros(1))[0]
        rng = np.random.default_rng(seed)
        d = M.shape[-1]
        V0 = rng.standard_normal((len(xis), d)) + 1j * rng.standard_normal((len(xis), d))
        ref, _ = constant_rk4(M, V0, N, h, range(N + 1))
        scale = np.abs(ref).max(axis=(0, 2))[:, None]
        for record in ([0, N // 3, N], [0, N // 3, N // 3, N], [N // 3, N]):
            states, logs = _rk4_propagate(M, V0, N, h, record)
            assert states.shape == (len(record), len(xis), d)
            assert logs.shape == (len(record), len(xis)) and not logs.any()
            for slot, k in enumerate(record):
                err = np.abs(states[slot] - ref[k]).max(axis=1, keepdims=True)
                assert (err <= TestRK4Propagate.TOL * scale).all(), (record, k)
            if record[0] == 0:
                assert states[0].tobytes() == V0.astype(complex).tobytes()

    def test_matches_stepped_run_on_wave(self):
        S = builtin_system("m2-wave")
        N, h = SolverConfig().steps_for(S, np.array([8.0]))
        self._compare(S, np.fft.fftfreq(16, d=1.0 / 16)[:, None], N, h)

    def test_matches_stepped_run_on_nonhyperbolic_control(self):
        # modes grow like exp(xi t), up to exp(300) without renormalisation
        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[0.0], [1.0], [-7.0], [50.0], [300.0], [-300.0]])
        N, h = SolverConfig().steps_for(S, np.array([300.0]))
        self._compare(S, xis, N, h)

    def test_zero_row_stays_zero_where_the_power_overflows(self):
        # R(hM)^N overflows at xi = 1024 (growth like exp(1024 t)); the
        # stepped run keeps a zero state at zero, and so must the powers.
        from hyposym.energy import _rk4_propagate

        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[1.0], [1024.0]])
        N, h = SolverConfig().steps_for(S, xis[-1])
        M = step_matrices(S, xis, np.zeros(1))[0]
        V0 = np.array([[1.0, 0.5j, -0.25, 2.0], [0.0, 0.0, 0.0, 0.0]])
        states, _ = _rk4_propagate(M, V0, N, h, [N])   # one jump: R^N itself overflows
        ref, _ = constant_rk4(M, V0, N, h, [N])
        assert not states[:, 1].any() and not ref[:, 1].any()
        scale = np.abs(ref[:, 0]).max()
        assert np.abs(states[:, 0] - ref[:, 0]).max() <= self.TOL * scale

    def test_overflow_raises_numeric_error(self):
        from hyposym.errors import NumericError

        S = builtin_system("m2-nonhyp-control")
        n = 2048
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.exp(1j * x), np.exp(1j * x)])
        with pytest.raises(NumericError, match="non-finite state"):
            solve_cauchy_1d(S, u0, SolverConfig(), [0.5, 1.0])

    def test_cost_does_not_grow_with_step_count(self, monkeypatch):
        # About 10^7 steps: the stepped run would take hours and its
        # half-step grid alone 160 MB.
        import time

        def refuse(*args, **kwargs):
            raise AssertionError("constant coefficients must not be stepped")

        monkeypatch.setattr(energy, "_lockstep_rk4", refuse)
        S = builtin_system("m2-wave")
        n = 16
        cfg = SolverConfig(cfl_safety=bracket(n / 2) * 1e-7)
        N, _ = cfg.steps_for(S, np.array([n / 2]))
        assert N >= 10 ** 7
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.cos(x) + 0.5j * np.sin(3 * x), 0.25 * np.exp(-2j * x)])
        start = time.perf_counter()
        field = solve_cauchy_1d(S, u0, cfg, [S.horizon])
        assert time.perf_counter() - start < 1.0
        T = field.snapshot_ts[0]
        u0h = np.fft.fft(u0, axis=1)
        k = np.fft.fftfreq(n, d=1.0 / n)
        exact_h = np.stack([expm(1j * T * eval_symbol(S, 0.0, np.array([kq]))) @ u0h[:, q]
                            for q, kq in enumerate(k)], axis=1)
        exact = np.fft.ifft(exact_h, axis=1)
        err = np.abs(field.fields[0] - exact).max() / np.abs(exact).max()
        assert err <= 1e-8
