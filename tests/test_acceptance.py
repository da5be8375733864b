"""Acceptance suite: one test per advertised guarantee, each printing a
single PASS/FAIL line with the measured quantity and its budget.

Run with -s to see the lines; every tolerance is asserted, so a red test
is a genuine violation.
"""

import time

import numpy as np
import pytest

from torus_control import (GramianSpec, NLSParams, admissible_amplitude,
                           constants_from_observability, default_lambda_grid,
                           evolve, feasible_m, fit_decay_rate, full_window,
                           global_control, local_control_nls, make_grid,
                           make_window, mass_decay_residual, miller_cost_bound,
                           observability_constant, random_state, solve_hum,
                           strip_observability_constant, sweep,
                           verify_resolvent, drive_linear)
from torus_control.hum import (hum_regularity_ratio, lambda_min_dense,
                               lambda_min_iterative)
from torus_control.operators import commutator_operator_norm
from torus_control.resolvent import best_resolvent_constant


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_full_torus_observability_is_unit():
    t0 = time.time()
    g = make_grid(1, 64)
    spec = GramianSpec(T=1.0, window=full_window(g))
    c_t = observability_constant(spec)
    elapsed = time.time() - t0
    ok = abs(c_t - 1.0) <= 1e-8 and elapsed < 1.0
    report("full-torus constant", ok,
           f"C_T = {c_t:.12f} (target 1 +- 1e-8), {elapsed:.2f}s < 1s")


def test_02_closed_loop_linear_control_20_seeds():
    t0 = time.time()
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.2), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    worst = 0.0
    for seed in range(20):
        u0 = random_state(g, np.random.default_rng(seed), norm=1.0)
        sol = solve_hum(spec, u0, tol=1e-9)
        _, final_norm = drive_linear(u0, spec, sol.phi0)
        worst = max(worst, final_norm / u0.norm_l2())
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report("closed-loop control", ok,
           f"worst residual {worst:.2e} <= 1e-6 over 20 seeds, "
           f"{elapsed:.1f}s < 30s")


def test_03_gramian_dense_vs_iterative():
    t0 = time.time()
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.25), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    dense = lambda_min_dense(spec)
    iterative = lambda_min_iterative(spec)
    rel = abs(dense - iterative) / dense
    elapsed = time.time() - t0
    ok = rel <= 1e-8 and elapsed < 10.0
    report("Gramian oracle", ok,
           f"lambda_min dense {dense:.10e} vs iterative {iterative:.10e}, "
           f"rel {rel:.2e} <= 1e-8, {elapsed:.1f}s < 10s")


def test_04_forward_observability_to_resolvent():
    t0 = time.time()
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.2), 0.05, "smooth")
    c_t = observability_constant(GramianSpec(T=1.0, window=w))
    m_big, m_small = constants_from_observability(c_t, 1.0)
    rng = np.random.default_rng(0)
    lam_samples = rng.uniform(-1.2 * (2 * np.pi * 32) ** 2, 50.0, size=50)
    states = [random_state(g, rng) for _ in range(1000)]
    # vectorized evaluation of the estimate over the full 1000 x 50 grid
    coeffs = np.stack([u.coeffs for u in states])          # (1000, 64)
    power = np.abs(coeffs) ** 2
    lhs = power.sum(axis=1)
    phys = np.fft.ifft(coeffs, axis=1) * g.n_points
    observed = (np.abs(phys) ** 2 @ w.samples ** 2) / g.n_points
    sym = g.laplacian_symbol()
    violations = 0
    for lam in lam_samples:
        rhs = m_big * (power @ (sym - lam) ** 2) + m_small * observed
        violations += int(np.sum(lhs > rhs * (1.0 + 1e-10)))
    # spot-check that the vectorization matches the reference evaluator
    for u in states[:5]:
        l_ref, r_ref, holds = verify_resolvent(u, lam_samples[0], m_big,
                                               m_small, w)
        assert holds
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 60.0
    report("observability -> resolvent", ok,
           f"{violations} violations over 1000 states x 50 lambdas, "
           f"M = {m_big:.3f}, m = {m_small:.3f}, {elapsed:.1f}s < 60s")


def test_05_resolvent_to_observability_time():
    t0 = time.time()
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.25), 0.05, "smooth")
    m = feasible_m(w, g)
    result = sweep(default_lambda_grid(g, 512), m, w, g)
    t_obs = 1.05 * result.miller_time
    bound = miller_cost_bound(result.M_sup, m, t_obs)
    c_t = 1.0 / lambda_min_dense(GramianSpec(T=t_obs, window=w))
    elapsed = time.time() - t0
    ok = np.isfinite(c_t) and c_t <= 1.5 * bound and elapsed < 120.0
    report("resolvent -> observability", ok,
           f"C_T({t_obs:.4f}) = {c_t:.4f} <= 1.5 x bound {bound:.4f}, "
           f"{elapsed:.1f}s < 120s")


def test_06_spectral_gap_resolvent_oracle():
    t0 = time.time()
    g = make_grid(1, 32)
    w = make_window(g, (0.41, 0.42), kind="sharp")  # chi == 0 everywhere
    assert w.samples.sum() == 0.0
    eigs = np.unique(g.laplacian_symbol())
    rng = np.random.default_rng(1)
    worst = 0.0
    for lam in rng.uniform(-1.1 * (2 * np.pi * 16) ** 2, 50.0, size=100):
        m_best = best_resolvent_constant(lam, 0.0, w, g)
        expect = 1.0 / np.min(np.abs(eigs - lam)) ** 2
        worst = max(worst, abs(m_best - expect) / expect)
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report("spectral-gap oracle", ok,
           f"max relative error {worst:.2e} <= 1e-10 over 100 samples, "
           f"{elapsed:.1f}s < 5s")


def test_07_tensor_transfer_strip():
    t0 = time.time()
    g = make_grid(1, 16)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    c_2d, c_1d = strip_observability_constant(spec)
    gap = abs(c_2d - c_1d) / c_1d
    elapsed = time.time() - t0
    ok = gap <= 1e-6 and elapsed < 60.0
    report("tensor transfer", ok,
           f"C_2d = {c_2d:.8f}, C_1d = {c_1d:.8f}, gap {gap:.2e} <= 1e-6, "
           f"{elapsed:.1f}s < 60s")


def test_08_nls_conservation():
    t0 = time.time()
    g = make_grid(1, 64)
    u0 = random_state(g, np.random.default_rng(7), norm=1.0, max_mode=4)
    worst_mass = 0.0
    ratios = []
    for sigma in (-1, 1):
        errs = []
        for dt in (1e-3, 5e-4):
            params = NLSParams(sigma=sigma, dt=dt, dealias=False)
            _, rec = evolve(u0, 1.0, params, record_stride=int(round(1.0 / dt)))
            if dt == 1e-3:
                worst_mass = max(worst_mass,
                                 abs(rec.mass[-1] - rec.mass[0]) / rec.mass[0])
            errs.append(abs(rec.energy[-1] - rec.energy[0]))
        ratios.append(errs[0] / errs[1])
    elapsed = time.time() - t0
    ok = (worst_mass <= 1e-10 and all(abs(r - 4.0) <= 0.5 for r in ratios)
          and elapsed < 30.0)
    report("NLS conservation", ok,
           f"mass drift {worst_mass:.2e} <= 1e-10, energy ratios "
           f"{[f'{r:.2f}' for r in ratios]} in 4 +- 0.5, {elapsed:.1f}s < 30s")


def test_09_mass_decay_identity():
    t0 = time.time()
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    dt, horizon = 1e-3, 10.0
    worst = 0.0
    for seed in range(3):
        u0 = random_state(g, np.random.default_rng(seed), norm=1.0, max_mode=4)
        params = NLSParams(sigma=-1, dt=dt, damping=w)
        _, rec = evolve(u0, horizon, params, record_stride=1)
        res = mass_decay_residual(rec)
        tol = 5.0 * dt ** 2 * horizon * rec.observed.max()
        worst = max(worst, res / tol)
    # broadband data whose oscillation the dt = 1e-3 sampling resolves
    # (mode gaps up to ~2.5e3 rad/s): absolute residual on the unit horizon
    u0 = random_state(g, np.random.default_rng(11), norm=1.0, max_mode=8)
    _, rec = evolve(u0, 1.0, NLSParams(sigma=-1, dt=dt, damping=w),
                    record_stride=1)
    broadband = mass_decay_residual(rec)
    elapsed = time.time() - t0
    ok = worst <= 1.0 and broadband <= 1e-4 and elapsed < 30.0
    report("mass-decay identity", ok,
           f"residual/tolerance {worst:.2f} <= 1 (3 seeds), broadband "
           f"residual {broadband:.2e} <= 1e-4, {elapsed:.1f}s < 30s")


def test_10_exponential_stabilization():
    t0 = time.time()
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(1), norm=0.5, max_mode=16)
    params = NLSParams(sigma=1, dt=1e-3, damping=w)
    target = 1e-3 * u0.norm_l2() ** 2
    u, rec = evolve(u0, 10.0, params, record_stride=10)
    gamma = fit_decay_rate(rec)
    t_reached = None
    t_total = 10.0
    while t_total <= 50.0 / max(gamma, 1e-6):
        if u.norm_l2() ** 2 <= target:
            t_reached = t_total
            break
        u, _ = evolve(u, 10.0, params, record_stride=10)
        t_total += 10.0
    elapsed = time.time() - t0
    ok = gamma > 0.0 and t_reached is not None and elapsed < 120.0
    report("stabilization", ok,
           f"gamma = {gamma:.4f} > 0, mass below 1e-3 x initial at "
           f"t = {t_reached} <= 50/gamma = {50.0 / gamma:.0f}, "
           f"{elapsed:.1f}s < 120s")


def test_11_picard_local_control():
    t0 = time.time()
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    u0 = random_state(g, np.random.default_rng(0), norm=0.05, max_mode=16)
    _, residual, _ = local_control_nls(u0, spec, sigma=-1, tol=1e-8)
    rel = residual / u0.norm_l2()
    amp = admissible_amplitude(g, spec, -1, np.random.default_rng(2))
    u_half = random_state(g, np.random.default_rng(3), norm=amp / 2,
                          max_mode=16)
    _, _, hist = local_control_nls(u_half, spec, sigma=-1, tol=1e-8)
    ratio = max(hist["contraction_ratios"])
    elapsed = time.time() - t0
    ok = rel <= 1e-5 and ratio < 0.5 and elapsed < 120.0
    report("Picard local control", ok,
           f"residual {rel:.2e} <= 1e-5 x ||u0||, contraction {ratio:.3f} "
           f"< 0.5 at amplitude {amp / 2}, {elapsed:.1f}s < 120s")


def test_12_global_strategy_end_to_end():
    t0 = time.time()
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    rng = np.random.default_rng(0)
    u0 = random_state(g, rng, norm=1.0, max_mode=16)
    u1 = random_state(g, rng, norm=1.0, max_mode=16)
    sched = global_control(u0, u1, spec, NLSParams(sigma=-1, dt=1e-3),
                           mass_threshold=0.05, tol=1e-8)
    elapsed = time.time() - t0
    ok = (sched.endpoint_error_to_zero <= 1e-4
          and sched.endpoint_error_to_target <= 1e-4 and elapsed < 600.0)
    report("global strategy", ok,
           f"endpoint errors {sched.endpoint_error_to_zero:.2e} / "
           f"{sched.endpoint_error_to_target:.2e} <= 1e-4, "
           f"{len(sched.phases)} phases, {elapsed:.1f}s < 600s")


def test_13_commutator_smoothing_uniformity():
    t0 = time.time()
    spreads = {}
    for r, s in [(1.0, 0.0), (2.0, 1.0), (-1.0, 0.0)]:
        norms = []
        for n in (32, 64, 128, 256):
            g = make_grid(1, n)
            w = make_window(g, (0.0, 0.3), 0.05, "smooth")
            norms.append(commutator_operator_norm(g, r, s, w))
        spreads[(r, s)] = max(norms) / min(norms)
    elapsed = time.time() - t0
    ok = all(v < 2.0 for v in spreads.values()) and elapsed < 60.0
    report("commutator smoothing", ok,
           f"spreads {[f'{k}: {v:.2f}' for k, v in spreads.items()]} all < 2, "
           f"{elapsed:.1f}s < 60s")


def test_14_hum_regularity_uniform_in_resolution():
    t0 = time.time()
    means = []
    for n in (32, 64, 128):
        g = make_grid(1, n)
        w = make_window(g, (0.0, 0.2), 0.05, "smooth")
        spec = GramianSpec(T=1.0, window=w)
        out = hum_regularity_ratio(spec, s=1.0, n_samples=40,
                                   rng=np.random.default_rng(0))
        means.append(out["mean"])
    spread = max(means) / min(means)
    elapsed = time.time() - t0
    ok = spread <= 1.2 and elapsed < 120.0
    report("HUM regularity", ok,
           f"H^1 amplification means {[f'{m:.3f}' for m in means]}, "
           f"spread {spread:.3f} <= 1.2, {elapsed:.1f}s < 120s")
