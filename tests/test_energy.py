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
    _energy_and_K,
    _lockstep_rk4,
    _width,
)
from hyposym.examples import builtin_system
from hyposym.pencils import gen_eigvalsh, hermitian_part
from hyposym.reduction import (
    PathAssembler,
    SeparablePath,
    assemble_path,
)
from hyposym.symbols import SystemSymbol, bracket, brackets, eval_symbol_path, rescaled_spectra
from hyposym.quasisym import q_eps_parts, sum_parts, verify_properties
from oracles import (
    CONSTANT_COMPANIONS,
    M4_DOUBLE_ZERO,
    M6_DOUBLE_ZERO,
    every_state,
    lift_blocks,
    lockstep_rk4_reference,
    q_eps,
    rk4_propagate_dense,
    rk4_propagate_reference,
    separable_apply,
    separable_apply_reference,
    traced_peak,
)


def initial_state(symbol, u0hat, xi):
    """The reduced state of u-hat(0, xi) = u0hat at one frequency xi."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    u0hat = np.asarray(u0hat, dtype=complex)
    return PathAssembler(symbol, xi[None]).lift([0.0], u0hat[None, None])[0, 0]


def reweight_energy(trace, symbol, eps):
    """The energy diagnostics of an existing trajectory at another eps.

    The oracle of the diagnostics that reduced_integrate takes from its own
    RK4 windows: windows of _TERM3_BLOCK samples hand the trace's states to
    _EnergyTerms.add, as reduced_integrate's ``after`` hook hands each RK4
    window's, with calA and calB assembled apart from the integration.  The
    trace must keep every state.
    """
    new = EnergyTrace(ts=trace.ts, V=trace.V, log_scale=trace.log_scale, norms=trace.norms,
                      xi=trace.xi, eps=float(eps), m=trace.m, stride=trace.stride)
    ts = trace.ts
    terms = _EnergyTerms(symbol, ts, trace.xi, float(eps))
    assembler = PathAssembler(symbol, trace.xi[None])
    for k0 in range(0, ts.size, _TERM3_BLOCK):
        k1 = min(k0 + _TERM3_BLOCK, ts.size)
        terms.add(k0, *assembler.reduce(ts[k0:k1])[:2], trace.V[k0:k1])
    terms.finish(new)
    return new


def constant_symbol(M, horizon=1.0):
    M = np.asarray(M, dtype=float)
    coeffs = np.zeros((1, M.shape[0], M.shape[0], 1))
    coeffs[..., 0] = M
    return SystemSymbol(coeffs=coeffs, horizon=horizon)


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
    return 1j * np.add(*assemble_path(S, xis, ts))


def dense_bind(M):
    """The bind of a window's half-step matrices M (2 (k1 - k0) + 1, q, d, d):
    f(j, i) writes ``np.matvec(M[j], Y)`` of (Y, out) = stages[i] into out."""
    return lambda stages: lambda j, i: np.matvec(M[j], *stages[i])


def dense_rk4(S, xis, ts_half, Y0, N, h, record, renormalize=False):
    """_lockstep_rk4 on S's dense windows of i (calA + calB)."""
    def window(k0, k1):
        return dense_bind(step_matrices(S, xis, ts_half[2 * k0 : 2 * k1 + 1]))
    return _lockstep_rk4(window, _width(len(xis) * S.m ** 4 * 16), Y0, N, h, record, renormalize)


def lockstep_widths(monkeypatch):
    """The list that records the window width of every _lockstep_rk4 run
    started through the energy module from now on."""
    widths = []

    def spy(window, width, *args, **kwargs):
        widths.append(width)
        return _lockstep_rk4(window, width, *args, **kwargs)

    monkeypatch.setattr(energy, "_lockstep_rk4", spy)
    return widths


def constant_rk4(M, Y0, N, h, record, renormalize=False):
    """_lockstep_rk4 on constant matrices M (q, d, d), one window width at a time."""
    def bind(stages):
        return lambda j, i: np.matvec(M, *stages[i])
    return _lockstep_rk4(lambda k0, k1: bind, _width(M.size * 16), Y0, N, h, record, renormalize)


def windowed_solve(S, u0, config, snapshot_ts):
    """The fields of solve_cauchy_1d, stepped with the dense PathAssembler windows."""
    m, n = S.m, u0.shape[1]
    xis = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    N, h = config.steps_for(S, np.array([n / 2.0]))
    snap_idx = np.clip(np.rint(np.asarray(snapshot_ts) / h).astype(int), 0, N)
    record = sorted(set(snap_idx.tolist()))
    V0 = PathAssembler(S, xis).lift([0.0], np.fft.fft(u0, axis=1).T[None])[0]
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
        A = eval_symbol_path(S, [0.0], xi)[0]
        for idx in (len(ts) // 2, len(ts) - 1):
            exact = expm(1j * ts[idx] * A) @ u0
            np.testing.assert_allclose(traj[idx], exact, atol=1e-10)

    def test_rotation_grows_like_cosh(self):
        S = builtin_system("m2-nonhyp-control")
        xi = np.array([5.0])
        u0 = np.array([1.0, 1.0]) / np.sqrt(2)
        ts, traj = direct_integrate(S, xi, u0, SolverConfig())
        A = eval_symbol_path(S, [0.0], xi)[0]
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
    U = PathAssembler(symbol, xi).lift(ts, traj)
    V0 = initial_state(symbol, u0hat, xi)
    with every_state():
        trace = reduced_integrate(symbol, xi, V0, config)
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

    def test_diagnostics_match_per_sample_loop_bitwise(self, monkeypatch):
        """The diagnostics that reduced_integrate takes from its own RK4
        windows, and reweight_energy at the same eps, are bitwise the
        per-sample oracle's.  Every run crosses window boundaries."""
        widths = lockstep_widths(monkeypatch)
        cases = [
            # 801 steps in windows of 404; 802 samples: the term3 blocks end mid-trace
            (builtin_system("m3-tracezero"), 40.0, None, 802, 404),
            (builtin_system("m3-tracezero"), 40.0, 0.05, 802, 404),
            # 2,001 steps in 11 windows of 186
            (M4_DOUBLE_ZERO, 100.0, None, 2002, 186),
            # a constant symbol: one sample per window, stepped in windows of 1,170
            (builtin_system("m2-wave"), 300.0, None, 6002, 1170),
            # 102 steps in windows of 60
            (M6_DOUBLE_ZERO, 5.0, None, 103, 60),
        ]
        for S, x, eps, samples, width in cases:
            xi = np.array([x])
            V0 = initial_state(S, np.ones(S.m) / np.sqrt(S.m), xi)
            config = SolverConfig() if eps is None else SolverConfig(eps_policy=("fixed", eps))
            with every_state():
                trace = reduced_integrate(S, xi, V0, config)
            assert trace.ts.size == samples
            assert widths[-1] == width < samples - 1
            ref = per_sample_diagnostics(trace, S)
            again = reweight_energy(trace, S, trace.eps)
            for got in (trace, again):
                for name in ("E", "K", "term2", "term3", "dtE"):
                    assert getattr(got, name).tobytes() == ref[name].tobytes(), (S.m, x, name)
                assert got.coercivity_sup == ref["coercivity_sup"], (S.m, x)

    def test_band_forms_hold_one_block(self):
        """E, K and term2 take their band forms _TERM3_BLOCK samples at a
        time: at m = 6 the products over 16,384 samples take 9.4 MB, and the
        whole-trace form held two such stacks."""
        import tracemalloc

        k, m = 64 * _TERM3_BLOCK, 6
        rng = np.random.default_rng(2)
        Q = rng.standard_normal((k, m, m))
        blocks = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            form = energy._band_form(Q, blocks)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < k * m * m * 16 / 4
        ref = np.einsum("kia,kia->k", np.conj(blocks), np.einsum("kab,kib->kia", Q, blocks))
        assert form.tobytes() == ref.tobytes()

    def test_diagnostics_peak(self):
        """One run with diagnostics on M4_DOUBLE_ZERO at xi = 100 (2,002
        samples) peaked at 1.70 MB of traced memory, the parts of one block
        of quasisym._ROW_BLOCK samples (1.0 MB) on top of the window's data;
        with every state kept (0.5 MB) it peaked at 2.04 MB, with Q and the
        diagnostics of the whole trace at 2.3 MB, and with every bold_B term
        of a window held at once, windows counted without the reduction's
        temporaries and term3 in blocks of 256 samples at 4.6 MB."""
        xi = np.array([100.0])
        V0 = initial_state(M4_DOUBLE_ZERO, np.ones(4) / 2, xi)
        _, peak = traced_peak(reduced_integrate, M4_DOUBLE_ZERO, xi, V0, SolverConfig())
        assert peak < 2.5e6

    def test_trace_peak_holds_no_whole_trace_stack(self):
        """A whole run with diagnostics on M6_DOUBLE_ZERO at xi = 1000
        (20,002 samples), keeping the 1,001 states a report emits, peaked at
        9.77 MB of traced memory, and with a report's K sweep at three more
        eps at 10.54 MB: the parts and Q of one block of quasisym._ROW_BLOCK
        samples (6.5 MB) over the spectra and the 1-d series of every sample.
        With Q (5.8 MB) and every state (11.5 MB) of the trace held it
        peaked at 22.1 MB, and a K sweep taken after the run from every
        state at 60.5 MB."""
        S, xi = M6_DOUBLE_ZERO, np.array([1000.0])
        V0 = initial_state(S, np.ones(6) / np.sqrt(6), xi)
        for sweep in ((), (1e-1, 1e-2, 1e-3)):
            trace, peak = traced_peak(reduced_integrate, S, xi, V0, SolverConfig(), True, sweep)
            assert trace.ts.size == 20002 and trace.V.shape == (1001, 36)
            assert trace.K_sweep.shape == (len(sweep), 20002)
            assert peak < 12e6, sweep

    @pytest.mark.parametrize("size", [1, 7])
    def test_block_sizes_change_no_output_bit(self, size, monkeypatch):
        """Q_eps rows, energy-term samples and RK4 windows taken 1 and 7 at a
        time: every diagnostic and the K sweep keep every bit."""
        from hyposym import quasisym

        S, xi = M4_DOUBLE_ZERO, np.array([10.0])
        V0 = initial_state(S, np.ones(4) / 2, xi)

        def outputs():
            trace = reduced_integrate(S, xi, V0, SolverConfig(), sweep_eps=(1e-1, 1e-2))
            sweep = integral_K_sweep(trace)
            return [getattr(trace, name).tobytes() for name in
                    ("V", "log_scale", "E", "K", "term2", "term3", "dtE", "lambdas",
                     "K_sweep")] + [trace.coercivity_sup, sweep.K_integrals]

        ref = outputs()
        widths = lockstep_widths(monkeypatch)
        monkeypatch.setattr(quasisym, "_ROW_BLOCK", size)
        monkeypatch.setattr(energy, "_TERM3_BLOCK", size)
        # windows of `size` steps: a half-step of m = 4 is counted at 2,816 bytes
        monkeypatch.setattr(energy, "_WINDOW_BYTES", size * 2 * 2816)
        assert outputs() == ref
        assert widths == [size]

    def test_constant_symbol_renormalises_across_windows_bitwise(self, monkeypatch):
        """A constant symbol steps one sample per window in bounded windows; a run
        that renormalises twice is bitwise the step-by-step oracle, and its
        diagnostics bitwise the per-sample loop's."""
        S = builtin_system("m2-nonhyp-control")
        xi = np.array([600.0])
        N, h = SolverConfig().steps_for(S, xi)
        assert N == 12001
        widths = lockstep_widths(monkeypatch)
        V0 = initial_state(S, np.ones(2) / np.sqrt(2), xi)
        with every_state():
            trace = reduced_integrate(S, xi, V0, SolverConfig())
        assert widths == [1170]   # 11 windows
        ref, ref_logs = reference_rk4(step_matrices(S, xi[None], np.zeros(1))[0, 0], N, h, V0,
                                      renormalize=True)
        assert np.count_nonzero(np.diff(ref_logs)) == 2
        assert trace.V.tobytes() == ref.tobytes()
        assert trace.log_scale.tobytes() == ref_logs.tobytes()
        diag = per_sample_diagnostics(trace, S)
        for name in ("E", "K", "term2", "term3", "dtE"):
            assert getattr(trace, name).tobytes() == diag[name].tobytes(), name

    @pytest.mark.parametrize("name, x, start, renormalisations", [
        ("m2-glaeser", 50.0, None, 0),
        # a constant symbol, renormalised in the fifth and tenth windows of 1,170 steps
        ("m2-nonhyp-control", 600.0, None, 2),
        ("m2-wave", 300.0, None, 0),
        ("m3-tracezero", 40.0, None, 0),
        # from norm 0.9 RENORM_THRESHOLD; renormalised at step 1,569, in the
        # ninth window of 186 steps
        ("m4-double-zero", 100.0, 0.9 * RENORM_THRESHOLD, 1),
        ("m6-double-zero", 5.0, None, 0),
    ])
    def test_sweep_is_bitwise_the_dense_oracle(self, name, x, start, renormalisations):
        """The band rows and the shift step the sweep bitwise as the dense
        i (calA + calB) of assemble_path steps it, one step at a time."""
        S = {"m4-double-zero": M4_DOUBLE_ZERO, "m6-double-zero": M6_DOUBLE_ZERO}.get(name)
        S = builtin_system(name) if S is None else S
        xi = np.array([x])
        V0 = initial_state(S, np.ones(S.m) / np.sqrt(S.m), xi)
        if start is not None:
            V0 = V0 * (start / np.linalg.norm(V0))
        with every_state():
            trace = reduced_integrate(S, xi, V0, SolverConfig())
        N, h = SolverConfig().steps_for(S, xi)
        ts_half = np.linspace(0.0, S.horizon, 2 * N + 1)
        ref, ref_logs = reference_rk4(1j * np.add(*assemble_path(S, xi, ts_half)), N, h, V0,
                                      renormalize=True)
        assert np.count_nonzero(np.diff(ref_logs)) == renormalisations
        assert trace.V.tobytes() == ref.tobytes()
        assert trace.log_scale.tobytes() == ref_logs.tobytes()

    @pytest.mark.parametrize("name", ["m3-tracezero", "m2-wave"])
    def test_sweep_assembles_no_dense_matrix(self, name, monkeypatch):
        """The sweep's twin of test_variable_coefficients_assemble_no_matrices:
        a variable and a constant symbol step the band rows of i (calA + calB),
        and their diagnostics read the companion block and b."""
        from hyposym import reduction

        def refuse(*args, **kwargs):
            raise AssertionError("a sweep must not assemble dense matrices")

        monkeypatch.setattr(reduction, "block_sylvester", refuse)
        assert not hasattr(energy, "block_sylvester")
        traces = frequency_sweep(builtin_system(name), SolverConfig(xi_grid=(1.0, 10.0, 100.0)))
        assert all(np.isfinite(tr.term3).all() and np.isfinite(tr.term2).all() for tr in traces)

    def test_invalid_state_length(self):
        with pytest.raises(DomainError):
            reduced_integrate(builtin_system("m2-wave"), np.array([1.0]), np.zeros(3),
                              SolverConfig())

    @pytest.mark.parametrize("name, xis, strides", [
        ("m3-tracezero", (10.0, 100.0, 400.0), [1, 2, 8]),
        # exp(600 t) growth, renormalised twice at xi = 600
        ("m2-nonhyp-control", (10.0, 100.0, 600.0), [1, 2, 12]),
    ])
    def test_kept_states_are_the_full_record_at_the_stride(self, name, xis, strides):
        """A report's traces keep the states of the samples ts[::stride] that
        it emits, and a growth sweep's none: bitwise the full run's, as is
        every series, which holds every sample; the payload of a trace is
        bitwise that of the full run with its states taken at the stride."""
        from dataclasses import replace

        from hyposym.cli import _trace_payload

        S = builtin_system(name)
        config = SolverConfig(xi_grid=xis)
        with every_state():
            full = frequency_sweep(S, config)
        kept = frequency_sweep(S, config)
        bare = frequency_sweep(S, config, collect_energy=False)
        assert [tr.stride for tr in kept] == strides
        assert np.count_nonzero(np.diff(full[-1].log_scale)) == (2 if name[1] == "2" else 0)
        for r, (f, k, b) in enumerate(zip(full, kept, bare)):
            assert f.V.shape[0] == f.ts.size and f.stride == 1
            assert k.stride == b.stride == max(1, -(-f.ts.size // 1001))
            assert k.V.tobytes() == f.V[:: k.stride].tobytes(), r
            assert b.V.shape == (0, S.m * S.m) and b.E is None
            for field in ("log_scale", "norms"):
                assert getattr(k, field).tobytes() == getattr(f, field).tobytes(), (r, field)
                assert getattr(b, field).tobytes() == getattr(f, field).tobytes(), (r, field)
            for field in ("E", "K", "term2", "term3", "dtE", "lambdas"):
                assert getattr(k, field).tobytes() == getattr(f, field).tobytes(), (r, field)
            residual = np.zeros(f.ts.size)
            got = _trace_payload(k, residual)
            ref = _trace_payload(replace(f, V=f.V[:: k.stride], stride=k.stride), residual)
            assert ref["V_re"].tobytes() == f.V[:: k.stride].real.tobytes()
            assert ref["log_scale"].tobytes() == f.log_scale[:: k.stride].tobytes()
            assert got.keys() == ref.keys()
            for key, value in ref.items():
                assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), (r, key)

    def test_sweep_without_energy_keeps_no_state(self):
        """A growth sweep keeps no state: its traced peak at xi = 1000
        (20,002 samples) read 1.73 MB against 1.15 MB at xi = 100 (2,002),
        the difference being the half-step times, row norms and log scales,
        32 bytes a sample; every state of the trace would add 5.1 MB."""
        peaks = []
        for x in (100.0, 1000.0):
            traces, peak = traced_peak(frequency_sweep, M4_DOUBLE_ZERO,
                                       SolverConfig(xi_grid=(x,)), False)
            assert traces[0].V.shape == (0, 16)
            peaks.append(peak)
        assert traces[0].ts.size == 20002
        assert peaks[1] < peaks[0] + 1e6

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

    def test_check_leaves_its_traces_unchanged(self):
        traces = self.traces_for("m2-glaeser", (10.0, 100.0, 1000.0))
        before = [{k: np.copy(v) for k, v in vars(tr).items()} for tr in traces]
        rep = energy_inequality_check(traces)
        for tr, fields in zip(traces, before):
            assert vars(tr).keys() == fields.keys()
            for k, v in fields.items():
                assert np.asarray(getattr(tr, k)).tobytes() == v.tobytes(), k
        # one residual per trace and sample, zero where the energy is negligible
        assert [r.shape for r in rep.residuals] == [tr.ts.shape for tr in traces]
        for tr, r in zip(traces, rep.residuals):
            assert np.all(r[tr.E <= 1e-280] == 0.0)


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
        # The sweep builds the quasi-symmetriser parts once per block, in the
        # RK4 windows; each integral must still be the one a full per-eps
        # reweight of every state gives, also where the trace keeps only
        # every stride-th state.
        for name, x, stride in [(name, x, stride) for name in ("m2-glaeser", "m3-tracezero")
                                for x, stride in ((10.0, 1), (100.0, 2))]:
            S = builtin_system(name)
            xi = np.array([x])
            eps_values = (1e-1, 1e-2, 1e-3)
            trace = frequency_sweep(S, SolverConfig(xi_grid=(x,)), sweep_eps=eps_values)[0]
            assert trace.stride == stride
            sweep = integral_K_sweep(trace)
            assert sweep.eps_values == eps_values
            V0 = initial_state(S, np.ones(S.m) / np.sqrt(S.m), xi)
            with every_state():
                base = reduced_integrate(S, xi, V0, SolverConfig())
            for eps, value in zip(eps_values, sweep.K_integrals):
                tr = reweight_energy(base, S, eps)
                assert value == float(np.trapezoid(tr.K, tr.ts)), (name, x, eps)

    def test_sweep_reads_the_spectra_of_the_trace(self):
        S = builtin_system("m3-tracezero")
        trace = frequency_sweep(S, SolverConfig(xi_grid=(10.0,)), sweep_eps=(1e-1,))[0]
        want = rescaled_spectra(S, trace.ts, trace.xi).lambdas
        assert trace.lambdas.tobytes() == want.tobytes()
        assert integral_K_sweep(trace).eps_values == (1e-1,)
        for collect_energy in (True, False):
            bare = frequency_sweep(S, SolverConfig(xi_grid=(10.0,)), collect_energy)[0]
            assert bare.sweep_eps == ()
            with pytest.raises(DomainError, match="no eps sweep"):
                integral_K_sweep(bare)
        V0 = initial_state(S, np.ones(3) / np.sqrt(3), trace.xi)
        for eps in (0.0, -1e-3, 1.5, float("nan")):
            with pytest.raises(DomainError, match="eps must lie in"):
                reduced_integrate(S, trace.xi, V0, SolverConfig(), sweep_eps=(1e-1, eps))
        with pytest.raises(DomainError, match="needs the energy diagnostics"):
            reduced_integrate(S, trace.xi, V0, SolverConfig(), False, (1e-1,))
        with pytest.raises(DomainError, match="needs the energy diagnostics"):
            frequency_sweep(S, SolverConfig(xi_grid=(10.0,)), False, (1e-1,))
        # only the first frequency takes the sweep
        traces = frequency_sweep(S, SolverConfig(xi_grid=(10.0, 20.0)), sweep_eps=(1e-1,))
        assert [tr.sweep_eps for tr in traces] == [(1e-1,), ()]

    def test_upper_bound_direction_holds(self):
        # int K <= C1 eps^{-2(m-1)/k} with C1 calibrated at the largest eps.
        S = builtin_system("m2-glaeser")
        rep = integral_K_sweep(frequency_sweep(S, SolverConfig(xi_grid=(10.0,)),
                                               sweep_eps=(1e-1, 1e-2, 1e-3))[0])
        C1 = rep.C1_values[0]
        for eps, val in zip(rep.eps_values, rep.K_integrals):
            assert val <= C1 * eps ** rep.theoretical_exponent * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero"])
    def test_data_independent_bound(self, name):
        # For every state, |(dQ V|V)| / (Q V|V) <= rho, the largest |eigenvalue|
        # of the pencil (dQ, Q), so int rho bounds int K for any initial data.
        # At xi = 100, eps = 1e-1 / 1e-2 / 1e-3: m2-glaeser reads int rho =
        # 4.615 / 9.211 / 13.897 against int K = 2.516 / 3.034 / 3.041, max
        # K / rho 0.977-0.984; m3-tracezero reads int rho = 8.674 / 18.89 /
        # 29.14 against int K = 7.981 / 11.48 / 11.55, max K / rho 0.997.
        S = builtin_system(name)
        with every_state():
            trace = frequency_sweep(S, SolverConfig(xi_grid=(100.0,)))[0]
        ts = trace.ts
        h = ts[1] - ts[0]
        parts = q_eps_parts(trace.lambdas)
        blocks = trace.V.reshape(ts.size, S.m, S.m)
        for eps in (1e-1, 1e-2, 1e-3):
            Q = sum_parts(parts, eps)
            _, K = _energy_and_K(Q, blocks, h)
            rho = np.abs(gen_eigvalsh(np.gradient(Q, h, axis=0), Q)).max(axis=-1)
            assert (K <= rho * (1 + 1e-9)).all(), eps
            assert np.trapezoid(K, ts) <= np.trapezoid(rho, ts), eps

    def test_integral_stable_under_grid_refinement(self):
        S = builtin_system("m2-glaeser")
        vals = []
        for h in (4e-4, 2e-4):
            rep = integral_K_sweep(frequency_sweep(S, SolverConfig(t_step=h, xi_grid=(100.0,)),
                                                   sweep_eps=(1e-2,))[0])
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

        monkeypatch.setattr(reduction.PathAssembler, "reduce", refuse)
        monkeypatch.setattr(reduction, "block_sylvester", refuse)
        assert not hasattr(energy, "block_sylvester")
        S = builtin_system("m2-glaeser")
        n = 16
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.exp(1j * x), np.zeros(n)])
        field = solve_cauchy_1d(S, u0, SolverConfig(), [1.0])
        assert np.isfinite(field.fields).all() and np.abs(field.fields).max() > 0.5

    @pytest.mark.parametrize("m", [2, 6])
    def test_constant_coefficients_assemble_no_dense_matrix(self, m, monkeypatch):
        # the propagator steps the m x m companion block; calB is zero
        from hyposym import reduction

        def refuse(*args, **kwargs):
            raise AssertionError("a solve must not assemble dense matrices")

        monkeypatch.setattr(reduction, "block_sylvester", refuse)
        S = builtin_system("m2-wave") if m == 2 else CONSTANT_COMPANIONS[m]
        x = 2 * np.pi * np.arange(16) / 16
        field = solve_cauchy_1d(S, np.stack([np.exp(1j * x)] * m), SolverConfig(), [1.0])
        assert np.isfinite(field.fields).all() and np.abs(field.fields).max() > 0.5

    @pytest.mark.parametrize("name", ["m2-glaeser", "m2-wave"])
    def test_one_bracket_per_mode(self, name, monkeypatch):
        # every frequency handed to brackets, in the modules a solve runs;
        # energy takes <xi> from its assembler
        from hyposym import reduction, symbols

        calls = []
        real = symbols.brackets

        def spy(xi):
            calls.extend(np.ndindex(np.shape(xi)[:-1]))
            return real(xi)

        for module in (symbols, reduction):
            monkeypatch.setattr(module, "brackets", spy)
        n = 64
        solve_cauchy_1d(builtin_system(name), np.ones((2, n), dtype=complex), SolverConfig(),
                        [1.0])
        assert len(calls) == n

    def test_constant_m6_solve_peak(self):
        """An m = 6 constant solve at grid 1,024 peaked at 9.2 MB of traced
        memory; stepped on the dense (1,024, 36, 36) reduced matrices it
        peaked at 90.7 MB."""
        S, n = CONSTANT_COMPANIONS[6], 1024
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.exp(1j * (i + 1) * x) for i in range(6)])
        field, peak = traced_peak(solve_cauchy_1d, S, u0, SolverConfig(), [0.5, 1.0])
        assert np.isfinite(field.fields).all()
        assert peak < 12e6

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

    @pytest.mark.parametrize("kwargs", [
        {"eps_policy": ("balanced",)},
        {"eps_policy": ("fixed",)},
        {"eps_policy": ()},
        {"eps_policy": ("balanced", float("nan"))},
        {"eps_policy": ("balanced", float("inf"))},
        {"cfl_safety": float("nan")},
        {"cfl_safety": float("inf")},
        {"t_step": float("nan")},
        {"t_step": float("inf")},
    ])
    def test_missing_or_non_finite_values_are_domain_errors(self, kwargs):
        # a policy without its value raised IndexError, and a balanced k of
        # nan or inf made eps_for return 1.0 at every frequency
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)

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
        xis = np.array([[0.0], [1.0], [-3.0], [7.0], [50.0]])
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

    @pytest.mark.parametrize("width", [1, 7, 400])
    def test_after_receives_each_window_states(self, width):
        """``after`` receives the states and log scales of steps k0..k1 of
        each window, bitwise the full record, from the integrator and from
        the reference loop; the xi = 600 row is renormalised at step 53, in
        the middle of a window of 7 steps and of the one window of N."""
        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[600.0], [2.0]])
        N, h = 400, SolverConfig().steps_for(S, xis[0])[1]
        matrices = step_matrices(S, xis, np.zeros(1))[0]
        V0 = np.stack([initial_state(S, np.ones(2), xi) for xi in xis])
        V0[0] *= 0.1 * RENORM_THRESHOLD / np.linalg.norm(V0[0])

        def window(k0, k1):
            return lambda stages: lambda j, i: np.matvec(matrices, *stages[i])

        full, full_logs = _lockstep_rk4(window, width, V0, N, h, range(N + 1), renormalize=True)
        assert (np.flatnonzero(np.diff(full_logs[:, 0])) + 1).tolist() == [53]
        assert not full_logs[:, 1].any()
        for run in (_lockstep_rk4, lockstep_rk4_reference):
            seen = []

            def after(k0, k1, states, logs):
                seen.append((k0, k1))
                assert states.shape == (k1 - k0 + 1,) + V0.shape
                assert states.tobytes() == full[k0 : k1 + 1].tobytes(), (k0, k1)
                assert logs.tobytes() == full_logs[k0 : k1 + 1].tobytes(), (k0, k1)

            out, logs = run(window, width, V0, N, h, (), renormalize=True, after=after)
            assert out.shape == (0,) + V0.shape and logs.shape == (0, 2)
            assert seen == [(k0, min(k0 + width, N)) for k0 in range(0, N, width)]

    def test_overflow_is_reported_as_numeric_error(self):
        from hyposym.errors import NumericError

        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[1.0], [1000.0]])
        N, h = SolverConfig().steps_for(S, np.array([1000.0]))
        matrices = step_matrices(S, xis, np.zeros(1))[0]
        V0 = np.stack([initial_state(S, np.ones(2), xi) for xi in xis])
        with pytest.raises(NumericError, match="non-finite state"):
            constant_rk4(matrices, V0, N, h, [N])


def separable_bind_reference(bxi):
    """A stand-in for ``SeparablePath.bind`` whose f(L, i) copies the
    allocating :func:`separable_apply_reference` into the pair's ``out``."""
    def bind(path, stages):
        def f(L, i):
            Y, out = stages[i]
            out[...] = separable_apply_reference(path, L, Y, bxi)
        return f
    return bind


class TestInPlaceStages:
    """The lockstep RK4 with its stages, temporaries and the separable
    right-hand side written into reused buffers, against the allocating loop
    and apply of the oracles: bitwise on every state."""

    def test_dense_windows_renormalising_bitwise(self, monkeypatch):
        # 2,001 steps in windows of 186; the state starts at 0.9 RENORM_THRESHOLD
        # and is renormalised once, after the first window (at step 1,569)
        S, xi = M4_DOUBLE_ZERO, np.array([100.0])
        V0 = initial_state(S, np.ones(4) / 2, xi)
        V0 = V0 * (0.9 * RENORM_THRESHOLD / np.linalg.norm(V0))
        trace = reduced_integrate(S, xi, V0, SolverConfig())
        renormalised = np.flatnonzero(np.diff(trace.log_scale))
        assert renormalised.size == 1 and renormalised[0] >= 186
        monkeypatch.setattr(energy, "_lockstep_rk4", lockstep_rk4_reference)
        ref = reduced_integrate(S, xi, V0, SolverConfig())
        for name in ("V", "log_scale", "E", "K", "term2", "term3", "dtE"):
            assert getattr(trace, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("name", ["m2-glaeser", "m3-tracezero"])
    @pytest.mark.parametrize("q", [1, 2, 128, 1024])
    def test_separable_steps_bitwise(self, name, q):
        # states mode-last, (m^2, q); windows of 16 steps
        S = builtin_system(name)
        d = S.m * S.m
        xis = np.array([[3.0]]) if q == 1 else np.fft.fftfreq(q, d=1.0 / q)[:, None]
        bxi = brackets(xis)
        N, h = 40, S.horizon / 1000
        ts_half = np.linspace(0.0, N * h, 2 * N + 1)
        rng = np.random.default_rng(q)
        V0 = rng.standard_normal((d, q)) + 1j * rng.standard_normal((d, q))
        path = SeparablePath(PathAssembler(S, xis))

        def windows(bind):
            def window(k0, k1):
                L = path.last_rows(ts_half[2 * k0 : 2 * k1 + 1])

                def bound(stages):
                    f = bind(path, stages)
                    return lambda j, i: f(L[j], i)
                return bound
            return window

        got = _lockstep_rk4(windows(SeparablePath.bind), 16, V0, N, h, [0, 17, N])
        ref = lockstep_rk4_reference(windows(separable_bind_reference(bxi)),
                                     16, V0, N, h, [0, 17, N])
        assert np.isfinite(got[0]).all()
        assert got[0].tobytes() == ref[0].tobytes()

    def test_solve_bitwise(self, monkeypatch):
        S = builtin_system("m3-tracezero")
        n = 64
        x = 2 * np.pi * np.arange(n) / n
        u0 = np.stack([np.exp(1j * x), 0.5 * np.cos(2 * x), np.zeros(n)])
        field = solve_cauchy_1d(S, u0, SolverConfig(), [0.5, 1.0])
        bxi = brackets(np.fft.fftfreq(n, d=1.0 / n)[:, None])
        monkeypatch.setattr(energy, "_lockstep_rk4", lockstep_rk4_reference)
        monkeypatch.setattr(SeparablePath, "bind", separable_bind_reference(bxi))
        ref = solve_cauchy_1d(S, u0, SolverConfig(), [0.5, 1.0])
        assert field.fields.tobytes() == ref.fields.tobytes()

    def test_apply_writes_only_out(self):
        S = builtin_system("m3-tracezero")
        xis = np.fft.fftfreq(8, d=1.0 / 8)[:, None]
        path = SeparablePath(PathAssembler(S, xis))
        L = path.last_rows(np.array([0.25]))[0]
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((9, 8)) + 1j * rng.standard_normal((9, 8))
        before = Y.copy()
        out = np.full_like(Y, np.nan)
        assert separable_apply(path, L, Y, out) is out
        assert Y.tobytes() == before.tobytes()
        assert out.tobytes() == separable_apply_reference(path, L, Y, brackets(xis)).tobytes()


def whole_trace_growth_log(V, logs) -> float:
    """growth_log's formula on the norms of a whole record of states."""
    norms = np.linalg.norm(V, axis=1)
    base = log(norms[0]) + logs[0]
    with np.errstate(divide="ignore"):
        vals = np.where(norms > 0, np.log(np.maximum(norms, 1e-300)), -np.inf)
    return float((vals + logs).max() - base)


class TestGrowthLog:
    def test_blocked_row_norms_match_whole_trace_bitwise(self):
        # 1,000 rows, their norms taken `width` rows at a time, as
        # reduced_integrate takes them per RK4 window
        rng = np.random.default_rng(2)
        V = rng.standard_normal((1000, 36)) + 1j * rng.standard_normal((1000, 36))
        V[3] = 0.0
        V[500:] *= 1e150
        logs = np.sort(rng.uniform(0.0, 50.0, 1000))
        for width in (1, 7, 60, 1000):
            norms = np.concatenate([np.linalg.norm(V[k : k + width], axis=1)
                                    for k in range(0, 1000, width)])
            trace = EnergyTrace(ts=np.linspace(0.0, 1.0, 1000), V=V, log_scale=logs,
                                norms=norms, xi=np.array([1.0]), eps=1.0, m=6)
            assert trace.growth_log == whole_trace_growth_log(V, logs), width

    @pytest.mark.parametrize("name, x", [("m2-nonhyp-control", 600.0), ("m6-double-zero", 5.0)])
    def test_runs_without_states_match_the_whole_record(self, name, x):
        """The row norms a run takes per window are bitwise those of its
        whole record, and a run that keeps no state reads the same growth."""
        S = M6_DOUBLE_ZERO if name == "m6-double-zero" else builtin_system(name)
        xi = np.array([x])
        V0 = initial_state(S, np.ones(S.m) / np.sqrt(S.m), xi)
        with every_state():
            full = reduced_integrate(S, xi, V0, SolverConfig())
        bare = reduced_integrate(S, xi, V0, SolverConfig(), collect_energy=False)
        assert bare.V.shape == (0, S.m * S.m)
        assert full.norms.tobytes() == np.linalg.norm(full.V, axis=1).tobytes()
        assert bare.norms.tobytes() == full.norms.tobytes()
        assert bare.log_scale.tobytes() == full.log_scale.tobytes()
        assert bare.growth_log == full.growth_log == whole_trace_growth_log(full.V, full.log_scale)


def block_propagate(S, xis, V0, N, h, record):
    """_rk4_propagate on the companion block of the constant symbol S at the
    frequency stack xis (q, n), as solve_cauchy_1d calls it; the states go in
    as (q, m^2) and come out as (len(record), q, m^2)."""
    from hyposym.energy import _rk4_propagate

    m = S.m
    block = PathAssembler(S, xis).reduce(np.zeros(1))[0][0]
    states = _rk4_propagate(np.moveaxis(1j * block, 0, -1), V0.reshape(-1, m, m).T,
                            N, h, record)
    return states.transpose(0, 3, 2, 1).reshape(len(record), len(xis), m * m)


class TestRK4Propagate:
    """Propagator powers R(hC)^k of the companion block C against the dense
    oracle and the stepped constant-coefficient run.

    Not bitwise the stepped run: it rounds once per step, the sweep about
    log2(N) times, so the two differ by roughly N unit roundoffs of each
    row's size (1.1e-12 at N = 10,241).
    """

    TOL = 1e-11

    @staticmethod
    def _compare(S, xis, N, h, seed=3):
        M = step_matrices(S, xis, np.zeros(1))[0]
        rng = np.random.default_rng(seed)
        d = M.shape[-1]
        V0 = rng.standard_normal((len(xis), d)) + 1j * rng.standard_normal((len(xis), d))
        ref, _ = constant_rk4(M, V0, N, h, range(N + 1))
        scale = np.abs(ref).max(axis=(0, 2))[:, None]
        for record in ([0, N // 3, N], [0, N // 3, N // 3, N], [N // 3, N]):
            states = block_propagate(S, xis, V0, N, h, record)
            assert states.shape == (len(record), len(xis), d)
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
        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[1.0], [1024.0]])
        N, h = SolverConfig().steps_for(S, xis[-1])
        M = step_matrices(S, xis, np.zeros(1))[0]
        V0 = np.array([[1.0, 0.5j, -0.25, 2.0], [0.0, 0.0, 0.0, 0.0]])
        states = block_propagate(S, xis, V0, N, h, [N])   # the squares of R^N overflow
        ref, _ = constant_rk4(M, V0, N, h, [N])
        assert not states[:, 1].any() and not ref[:, 1].any()
        scale = np.abs(ref[:, 0]).max()
        assert np.abs(states[:, 0] - ref[:, 0]).max() <= self.TOL * scale

    @staticmethod
    def _compare_chain(S, xis, N, h, seed=5):
        M = step_matrices(S, xis, np.zeros(1))[0]
        rng = np.random.default_rng(seed)
        shape = (len(xis), M.shape[-1])
        V0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for record in ([0, N // 2, N], [N // 3, N // 3, N], [N]):
            ref = rk4_propagate_reference(M, V0, N, h, record)
            states = block_propagate(S, xis, V0, N, h, record)
            scale = np.abs(ref).max(axis=(0, 2))[:, None]
            assert (np.abs(states - ref).max(axis=0) <= 1e-15 * scale).all(), record

    def test_sweep_matches_jump_chain_at_solve_wave_shape(self):
        # solve-wave: 1,024 modes, N = 10,241, snapshots at N / 2 and N
        S = builtin_system("m2-wave")
        xis = np.fft.fftfreq(1024, d=1.0 / 1024)[:, None]
        N, h = SolverConfig().steps_for(S, np.array([512.0]))
        assert N == 10241
        self._compare_chain(S, xis, N, h)

    def test_sweep_matches_jump_chain_on_nonhyperbolic_control(self):
        # modes grow like exp(xi t), up to exp(300) without renormalisation
        S = builtin_system("m2-nonhyp-control")
        xis = np.array([[0.0], [1.0], [-7.0], [50.0], [300.0], [-300.0]])
        N, h = SolverConfig().steps_for(S, np.array([300.0]))
        self._compare_chain(S, xis, N, h)

    @staticmethod
    def _dense_and_block(S, n, seed=6):
        """(dense oracle, block propagator) states at snapshots N / 2 and N
        of the solve shape of S at grid n, from random reduced states."""
        xis = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        N, h = SolverConfig().steps_for(S, np.array([n / 2.0]))
        rng = np.random.default_rng(seed)
        shape = (n, S.m ** 2)
        V0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        record = [0, N // 2, N]
        ref = rk4_propagate_dense(step_matrices(S, xis, np.zeros(1))[0], V0, N, h, record)
        return ref, block_propagate(S, xis, V0, N, h, record)

    def test_block_is_the_dense_oracle_bitwise_at_solve_wave_shape(self):
        # m = 2: each entry of R(hC) and its squares sums the same two
        # products as the dense matmul, whose other terms are exact zeros
        ref, states = self._dense_and_block(builtin_system("m2-wave"), 1024)
        assert states.tobytes() == ref.tobytes()

    # The largest deviation at grid 1,024, relative to each state's largest
    # |entry|, read 8.6e-14 / 6.3e-13 / 1.2e-12 at m = 3 / 4 / 6.
    @pytest.mark.parametrize("m, n", [(3, 1024), (4, 256), (6, 256)])
    def test_block_matches_the_dense_oracle(self, m, n):
        # Not bitwise: the dense matmul rounds its complex products and sums
        # in another order, through about log2(N) squarings.
        ref, states = self._dense_and_block(CONSTANT_COMPANIONS[m], n)
        assert states[0].tobytes() == ref[0].tobytes()
        scale = np.abs(ref).max(axis=-1, keepdims=True)
        assert (np.abs(states - ref) <= 5e-12 * scale).all()

    def test_sweep_holds_one_square_at_a_time(self):
        # An m = 6 companion stack at grid 1,024, modes last: the block C and
        # each state take C.nbytes.  The sweep peaked at 8.0 C.nbytes: R, hC,
        # y0 and the two recorded states, a product being formed and its term,
        # and at the end the stacked result.  Holding the 14 squares of
        # N = 10,241 at once would add 13 C.nbytes.
        from hyposym.energy import _rk4_propagate

        rng = np.random.default_rng(4)
        shape = (6, 6, 1024)
        C = 1e-3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        V0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        N = 10241
        _, peak = traced_peak(_rk4_propagate, C, V0, N, 1.0 / N, [0, N // 2, N])
        assert peak < 9 * C.nbytes

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
        A = eval_symbol_path(S, [0.0], k[:, None])[0]
        exact_h = np.stack([expm(1j * T * A[q]) @ u0h[:, q] for q in range(n)], axis=1)
        exact = np.fft.ifft(exact_h, axis=1)
        err = np.abs(field.fields[0] - exact).max() / np.abs(exact).max()
        assert err <= 1e-8
