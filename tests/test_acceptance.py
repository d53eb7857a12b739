"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Two
clauses are known-red and kept as written: the eps-scaling exponent of the
integrated first energy term (the theoretical bound is an upper bound, not an
asymptotic; measured trajectories saturate) and the eps-stability of the
near-diagonality minimum (the exact worst case over the separation set scales
with eps).  Both carry their measured values in the failure message.
"""

import time

import numpy as np

from hyposym import (
    SamplingGrid,
    SolverConfig,
    direct_integrate,
    energy_inequality_check,
    frequency_sweep,
    growth_fit,
    integral_K_sweep,
    reduced_integrate,
    reduction_residual,
    solve_cauchy_1d,
    verify_properties,
)
from hyposym.examples import builtin_system
from hyposym.quasisym import sample_separation_set
from hyposym.reduction import PathAssembler
from hyposym.symbols import faddeev_leverrier
from oracles import (
    conditions_table,
    difference_identity_residual_of,
    near_diagonal_constant,
    q_eps,
    table_parts,
)

# Frozen after the first run: m2-glaeser growth exponent with the default
# uniform data on geomspace(10, 1000, 7); reruns must stay within +-10%.
FROZEN_GLAESER_KAPPA = 0.4926

GROWTH_GRID = tuple(np.geomspace(10.0, 1000.0, 7))


def announce(n, ok, msg):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {msg}")


def test_criterion_1_algebraic_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = {"adjugate": 0.0, "cayley_hamilton": 0.0, "difference_identity": 0.0,
             "recursion": 0.0, "factorization": 0.0, "determinant": 0.0}
    for m in (2, 3, 4):
        for _ in range(200):
            A = rng.uniform(-1, 1, (m, m))
            tau = rng.uniform(-2, 2)
            c = faddeev_leverrier(A)
            powers = [np.eye(m)]
            for _ in range(m):
                powers.append(powers[-1] @ A)
            adj = np.zeros((m, m))
            for i in range(m):
                coeff = sum(c[h] * powers[m - (i + 1) - h] for h in range(m - i))
                adj += coeff * tau ** i
            det = np.linalg.det(tau * np.eye(m) - A)
            res = np.abs(adj @ (tau * np.eye(m) - A) - det * np.eye(m)).max() / (1 + abs(det))
            worst["adjugate"] = max(worst["adjugate"], res)

            ch = sum(c[h] * powers[m - h] for h in range(m + 1))
            worst["cayley_hamilton"] = max(
                worst["cayley_hamilton"],
                np.abs(ch).max() / (np.linalg.norm(A) ** m + 1.0),
            )

            lam = rng.uniform(-1, 1, m)
            worst["difference_identity"] = max(
                worst["difference_identity"], difference_identity_residual_of(lam)
            )
            rep = verify_properties(lam, rng.uniform(0.05, 1.0))
            scale = 1.0 + abs(lam).max() ** (2 * (m - 1))
            worst["recursion"] = max(worst["recursion"], rep.recursion_residual / scale)
            worst["factorization"] = max(
                worst["factorization"], rep.factorization_residual / scale
            )
            worst["determinant"] = max(worst["determinant"], rep.det_identity_rel)
    elapsed = time.monotonic() - start
    ok = all(v <= 1e-8 for v in worst.values()) and elapsed < 10.0
    announce(1, ok, f"residuals {worst} in {elapsed:.1f}s (< 10 s)")
    assert all(v <= 1e-8 for v in worst.values()), worst
    assert elapsed < 10.0, elapsed


def test_criterion_2_closed_form_regression():
    rng = np.random.default_rng(1002)
    worst_q = 0.0
    for _ in range(50):
        lam2 = rng.uniform(-2, 2, 2)
        eps = rng.uniform(0.01, 1.0)
        l1, l2 = lam2
        Q2 = np.array([[l1 ** 2 + l2 ** 2 + 2 * eps ** 2, -(l1 + l2)], [-(l1 + l2), 2.0]])
        worst_q = max(worst_q, np.abs(q_eps(lam2, eps) - Q2).max())

        lam3 = rng.uniform(-2, 2, 3)
        Q3 = np.zeros((3, 3))
        for i in range(3):
            for j in range(i + 1, 3):
                li, lj = lam3[i], lam3[j]
                Q3 += 2.0 * np.array(
                    [[(li * lj) ** 2, -li * lj * (li + lj), li * lj],
                     [-li * lj * (li + lj), (li + lj) ** 2, -(li + lj)],
                     [li * lj, -(li + lj), 1.0]]
                )
        for li in lam3:
            Q3 += 2.0 * eps ** 2 * np.array(
                [[li ** 2, -li, 0.0], [-li, 1.0, 0.0], [0.0, 0.0, 0.0]]
            )
        Q3 += 6.0 * eps ** 4 * np.diag([1.0, 0.0, 0.0])
        worst_q = max(worst_q, np.abs(q_eps(lam3, eps) - Q3).max())

    # adjugate expansions: tau-coefficients [I, A - tr(A) I] and
    # [I, A - tr(A) I, A^2 + c1 A + c2 I]
    worst_adj = 0.0
    for _ in range(50):
        for m in (2, 3):
            A = rng.uniform(-2, 2, (m, m))
            c = faddeev_leverrier(A)
            coeffs = [np.eye(m), A - np.trace(A) * np.eye(m)]
            if m == 3:
                coeffs.append(A @ A + c[1] * A + c[2] * np.eye(m))
            for i, B in enumerate(coeffs):
                expect = sum(c[h] * np.linalg.matrix_power(A, i - h) for h in range(i + 1))
                worst_adj = max(worst_adj, np.abs(B - expect).max())
    ok = worst_q <= 1e-12 and worst_adj <= 1e-12
    announce(2, ok, f"closed-form gaps: quasi-symmetriser {worst_q:.2e}, adjugate {worst_adj:.2e}")
    assert ok


def test_criterion_3_reduction_oracle():
    start = time.monotonic()
    xi = np.array([np.sqrt(99.0)])  # bracket exactly 10
    messages = []
    ok = True
    for name, u0 in (("m2-glaeser", np.array([1.0, 1.0])),
                     ("m3-tracezero", np.array([1.0, 0.5, -0.25]))):
        S = builtin_system(name)
        residuals = []
        for h in (4e-3, 2e-3, 1e-3):
            ts, traj = direct_integrate(S, xi, u0, SolverConfig(t_step=h))
            residuals.append(reduction_residual(S, xi, ts, traj))
        orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        messages.append(f"{name}: residuals {['%.2e' % r for r in residuals]} orders {['%.2f' % o for o in orders]}")
        ok = ok and min(orders) >= 3.5 and residuals[-1] <= 1e-6
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    announce(3, ok, "; ".join(messages) + f"; {elapsed:.1f}s (< 30 s)")
    assert ok, messages


def test_criterion_4_condition_constants():
    S3 = builtin_system("m3-tracezero")
    parts3 = table_parts(conditions_table(S3, SamplingGrid.default(S3)), S3.m)
    ks = float(parts3[0].max())
    ks_ok = abs(ks - 1.0) <= 1e-9

    S2 = builtin_system("m2-glaeser")
    grid2 = SamplingGrid.default(S2)
    parts2 = table_parts(conditions_table(S2, grid2), S2.m)
    levi2 = parts2[2]
    window = grid2.ts >= 0.1
    levi_sup = float(levi2[window].max())
    levi_ok = np.isfinite(levi2[window]).all() and abs(levi_sup - 2.0) <= 0.05 * 2.0

    # derivative-norm condition finite at a point forces the lower-order
    # ratios finite there, on both shipped systems
    impl_ok = True
    for S, (_, thm2, levi) in ((S2, parts2), (S3, parts3)):
        for l in range(S.m - 1):
            live = np.isfinite(thm2[..., l])
            for j in range(S.m):
                impl_ok = impl_ok and bool(np.isfinite(levi[..., l, j][live]).all())

    ok = ks_ok and levi_ok and impl_ok
    announce(4, ok, f"tracezero ks={ks!r}; glaeser windowed levi sup={levi_sup!r}; "
                    f"implication pointwise={impl_ok}")
    assert ks_ok, ks
    assert levi_ok, levi_sup
    assert impl_ok


def glaeser_traces():
    S = builtin_system("m2-glaeser")
    cfg = SolverConfig()
    out = []
    for xi_mag in (10.0, 100.0, 1000.0):
        xi = np.array([xi_mag])
        u0 = np.ones((1, 1, 2), dtype=complex) / np.sqrt(2)
        V0 = PathAssembler(S, xi[None]).lift([0.0], u0)[0, 0]
        out.append(reduced_integrate(S, xi, V0, cfg))
    return S, out


def test_criterion_5_energy_inequality():
    S, traces = glaeser_traces()
    rep = energy_inequality_check(traces)
    ok = rep.passed
    announce("5 (inequality)", ok,
             f"fitted C2={rep.C2:.4f} C3={rep.C3:.4f}, slack margins {['%.3g' % m for m in rep.margins]}")
    assert ok, rep


def test_criterion_5_integral_K_scaling():
    # Criterion as stated: the fitted exponent of int_0^T K_eps dt across a
    # 3-point eps sweep should sit within 25% of -2(m-1)/k (k = 2 by
    # default).  The measured integrals saturate in eps (the trajectory
    # energy is carried by components on which the eps^0 part of the
    # quasi-symmetriser is already coercive), so this is kept as written and
    # is expected to fail; the bound itself, int K <= C1 eps^{-2(m-1)/k},
    # holds with large headroom and is checked in the unit suite.  Not even
    # worst-case data reaches that exponent: the data-independent bound
    # int rho(Q_eps^-1 dQ_eps/dt) over [0, T] (tests/test_energy.py,
    # test_data_independent_bound) reads 4.615 / 9.211 / 13.897 at eps =
    # 1e-1 / 1e-2 / 1e-3, linear in log(1/eps), against int K = 2.516 /
    # 3.034 / 3.041 for this trace.
    S = builtin_system("m2-glaeser")
    rep = integral_K_sweep(frequency_sweep(S, SolverConfig(xi_grid=(100.0,)),
                                           sweep_eps=(1e-1, 1e-2, 1e-3))[0], k_regularity=2.0)
    target = rep.theoretical_exponent
    ok = abs(rep.fitted_exponent - target) <= 0.25 * abs(target)
    announce("5 (K-scaling)", ok,
             f"fitted exponent {rep.fitted_exponent:.3f} vs {target:.1f} +- 25%; "
             f"integrals {['%.4f' % v for v in rep.K_integrals]}")
    assert ok, (rep.fitted_exponent, rep.K_integrals)


def test_criterion_6_growth_dichotomy():
    start = time.monotonic()
    cfg = SolverConfig(xi_grid=GROWTH_GRID)

    rep_g = growth_fit(frequency_sweep(builtin_system("m2-glaeser"), cfg, collect_energy=False))
    glaeser_ok = (rep_g.classification == "polynomial"
                  and abs(rep_g.kappa - FROZEN_GLAESER_KAPPA) <= 0.1 * FROZEN_GLAESER_KAPPA)

    rep_c = growth_fit(frequency_sweep(builtin_system("m2-nonhyp-control"), cfg,
                                       collect_energy=False))
    # cosh oracle: exp(i t A xi) with A = [[0,1],[-1,0]] xi has modes
    # exp(+- xi t), so the top growth rate equals the horizon T = 1
    control_ok = (rep_c.classification == "exponential"
                  and abs(rep_c.rate - 1.0) <= 0.1)

    S = builtin_system("m2-wave")
    n = 1024
    x = 2 * np.pi * np.arange(n) / n
    u0 = np.stack([np.cos(x) + 0.5 * np.sin(2 * x), 0.25 * np.cos(3 * x)]).astype(complex)
    field = solve_cauchy_1d(S, u0, SolverConfig(), [0.5, 1.0])
    u0h = np.fft.fft(u0, axis=1)
    k = np.fft.fftfreq(n, d=1.0 / n)
    wave_err = 0.0
    for s, t in enumerate(field.snapshot_ts):
        wp = np.fft.ifft((u0h[0] + u0h[1]) * np.exp(1j * k * t))
        wm = np.fft.ifft((u0h[0] - u0h[1]) * np.exp(-1j * k * t))
        exact = np.stack([(wp + wm) / 2.0, (wp - wm) / 2.0])
        wave_err = max(wave_err, np.abs(field.fields[s] - exact).max() / np.abs(exact).max())
    wave_ok = wave_err <= 1e-6

    elapsed = time.monotonic() - start
    ok = glaeser_ok and control_ok and wave_ok and elapsed < 120.0
    announce(6, ok,
             f"glaeser {rep_g.classification} kappa={rep_g.kappa:.4f} "
             f"(frozen {FROZEN_GLAESER_KAPPA}); control {rep_c.classification} "
             f"rate={rep_c.rate:.4f}; wave err={wave_err:.2e}; {elapsed:.1f}s (< 2 min)")
    assert glaeser_ok, rep_g
    assert control_ok, rep_c
    assert wave_ok, wave_err
    assert elapsed < 120.0, elapsed


def near_diagonal_minima():
    minima = {}
    for m in (2, 3):
        lams = sample_separation_set(m, bound=10.0, count=1000, seed=1007)
        for eps in (1.0, 0.1, 0.01):
            minima[(m, eps)] = min(near_diagonal_constant(Q) for Q in q_eps(lams, eps))
    return minima


def test_criterion_7_near_diagonality_positive():
    minima = near_diagonal_minima()
    ok = all(v > 0.0 for v in minima.values())
    announce("7 (positivity)", ok,
             "minima " + str({k: f"{v:.5f}" for k, v in minima.items()}))
    assert ok, minima


def test_criterion_7_near_diagonality_eps_stability():
    # Criterion as stated: the sample minimum should be stable to +-20%
    # across eps in {1, 0.1, 0.01}.  The exact worst case over the
    # separation set scales with eps (for m = 2 it is
    # 1 - max|l1+l2| / sqrt(2 (l1^2+l2^2+2 eps^2)), about 0.39 at eps=1 and
    # 0.026 at eps=0.01), so this clause is kept as written and is expected
    # to fail; only the uniform positivity above is mathematically available.
    minima = near_diagonal_minima()
    ok = True
    spreads = {}
    for m in (2, 3):
        vals = [minima[(m, eps)] for eps in (1.0, 0.1, 0.01)]
        spread = (max(vals) - min(vals)) / max(vals)
        spreads[m] = spread
        ok = ok and max(vals) <= 1.2 / 0.8 * min(vals)
    announce("7 (eps-stability)", ok,
             "minima " + str({k: f"{v:.5f}" for k, v in minima.items()})
             + f" relative spreads {spreads}")
    assert ok, minima
