"""Split-step NLS solver, damping/decay, nonlinear control."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from torus_control import (GramianSpec, NLSParams, admissible_amplitude, evolve,
                           fit_decay_rate, global_control, local_control_nls,
                           make_grid, make_window, mass_decay_residual,
                           random_state, solve_hum)
from torus_control import nls
from torus_control.grid import FourierState, plane_wave, zero_state
from torus_control.hum import _centred_kernel
from torus_control.nls import (DecayRecord, PicardDivergenceError,
                               StabilizationStallError, _stabilize_to_threshold,
                               energy)
from torus_control.operators import free_propagate

from conftest import traced_peak
from oracles import dense_gramian, window_mode_matrix


def test_params_validation():
    with pytest.raises(ValueError):
        NLSParams(sigma=2)
    with pytest.raises(ValueError):
        NLSParams(dt=0.0)


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_params_reject_non_finite_dt(dt):
    with pytest.raises(ValueError, match="finite"):
        NLSParams(dt=dt)


def test_mass_conserved_without_damping():
    g = make_grid(1, 64)
    u0 = random_state(g, np.random.default_rng(0), norm=1.0, max_mode=16)
    for sigma in (-1, 1):
        params = NLSParams(sigma=sigma, dt=1e-3, dealias=False)
        _, rec = evolve(u0, 1.0, params, record_stride=100)
        drift = abs(rec.mass[-1] - rec.mass[0]) / rec.mass[0]
        assert drift <= 1e-12


def test_energy_drift_is_second_order():
    g = make_grid(1, 64)
    u0 = random_state(g, np.random.default_rng(7), norm=1.0, max_mode=4)
    errs = []
    for dt in (1e-3, 5e-4):
        params = NLSParams(sigma=-1, dt=dt, dealias=False)
        _, rec = evolve(u0, 1.0, params, record_stride=int(round(1.0 / dt)))
        errs.append(abs(rec.energy[-1] - rec.energy[0]))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.5)


def test_plane_wave_dispersion_relation():
    # exact solution A exp(i(2 pi k x - omega t)), omega = (2 pi k)^2 + sigma A^2
    g = make_grid(1, 64)
    amp, k, sigma, dt = 0.7, 2, 1, 1e-3
    params = NLSParams(sigma=sigma, dt=dt, dealias=False)
    u, rec = evolve(plane_wave(g, k, amp), 1000 * dt, params, record_stride=1000)
    assert rec.times[-1] == pytest.approx(1.0)
    omega = (2 * np.pi * k) ** 2 + sigma * amp ** 2
    assert abs(u.coeffs[k] - amp * np.exp(-1j * omega)) < 1e-12


@pytest.mark.parametrize("n", [64, 128])
def test_evolve_matches_repeated_steps(n):
    g = make_grid(1, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(9), norm=1.0, max_mode=16)
    params = NLSParams(sigma=-1, dt=1e-3, damping=w, dealias=True)
    u_evolved, _ = evolve(u0, 0.2, params, record_stride=50)
    step, c = nls._StrangStep(g, params), u0.coeffs
    for _ in range(200):
        c = step(c)
    assert np.max(np.abs(u_evolved.coeffs - c)) <= 1e-14


def test_evolve_rejects_invalid_stride():
    g = make_grid(1, 32)
    u0 = random_state(g, np.random.default_rng(9), max_mode=8)
    for stride in (0, -1, 2.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="record_stride"):
            evolve(u0, 0.1, NLSParams(), record_stride=stride)
    # an integral float runs as its int
    final, rec = evolve(u0, 0.1, NLSParams(), record_stride=2.0)
    final_int, rec_int = evolve(u0, 0.1, NLSParams(), record_stride=2)
    assert np.array_equal(final.coeffs, final_int.coeffs)
    assert np.array_equal(rec.times, rec_int.times)
    assert np.array_equal(rec.mass, rec_int.mass)


def test_evolve_refuses_a_horizon_below_one_step():
    g = make_grid(1, 32)
    u0 = random_state(g, np.random.default_rng(9), max_mode=8)
    with pytest.raises(ValueError, match="shorter than one step"):
        evolve(u0, 1e-12, NLSParams(dt=1e-3))
    # within the 1e-9 rounding of one step: one step, ending at dt
    _, rec = evolve(u0, 1e-3 * (1 - 1e-12), NLSParams(dt=1e-3))
    assert rec.times.tolist() == [0.0, 1e-3]


def test_evolve_rounds_a_fractional_step_count_up():
    # T / dt = 10.5 ends 5e-4 from T after 10 steps, so 11 steps run and the
    # last record is at 11 dt, past T
    g = make_grid(1, 32)
    u0 = random_state(g, np.random.default_rng(9), max_mode=8)
    _, rec = evolve(u0, 0.0105, NLSParams(dt=1e-3), record_stride=5)
    assert rec.times.tolist() == pytest.approx([0.0, 5e-3, 10e-3, 11e-3], abs=1e-15)


def _one_step_records(u0, T, params, stride):
    """The reference of `evolve`: one step at a time, modes to grid values
    and back in each, every record's quantities taken state by state."""
    g, step = u0.grid, nls._StrangStep(u0.grid, params)
    n_steps = int(round(T / params.dt))
    c, rows = u0.coeffs, []
    for i in range(n_steps + 1):
        if i % stride == 0 or i == n_steps:
            u = FourierState(g, c)
            observed = (0.0 if params.damping is None else
                        np.sum(params.damping.samples ** 2 * np.abs(u.physical()) ** 2)
                        / g.n_points)
            rows.append((u.norm_l2() ** 2, energy(u, params.sigma), observed))
        if i < n_steps:
            c = step(c)
    return c, np.array(rows).T


# dense transforms at 1D N = 64, FFTs at 1D N = 128 and 2D N = 16; 70 steps
# make 71 records at stride 1, more than one sampling buffer on each grid
@pytest.mark.parametrize("dim,n", [(1, 64), (1, 128), (2, 16)])
def test_records_from_grid_values_match_one_step_at_a_time(dim, n):
    g = make_grid(dim, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(17), max_mode=n // 4)
    for damping in (None, w):
        for sigma in (-1, 0, 1):
            params = NLSParams(sigma=sigma, dt=1e-3, damping=damping)
            for stride in (1, 7, 10):
                final, rec = evolve(u0, 0.07, params, record_stride=stride)
                c, want = _one_step_records(u0, 0.07, params, stride)
                assert np.max(np.abs(final.coeffs - c)) <= 1e-14 * np.max(np.abs(c))
                for got, expect in zip((rec.mass, rec.energy, rec.observed), want):
                    assert len(got) == len(expect)
                    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


@pytest.mark.parametrize("value", [1e200, 1e160])
def test_evolve_raises_at_the_first_record_that_is_not_finite(value):
    # at 1e200 the mass overflows at once; at 1e160 the quartic energy does
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(9), norm=value, max_mode=8)
    with pytest.raises(nls.NonFiniteStateError, match="t = 0;"):
        evolve(u0, 0.1, NLSParams(dt=1e-3, damping=w), record_stride=10)


def _advance(step, c, n):
    """n >= 1 steps of coefficients c on grid values: `start`, `run` and
    `to_modes`."""
    return step.to_modes(step.run(step.start(c), n - 1))


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 16), (2, 48)])
def test_batched_step_matches_single_steps(dim, n):
    g = make_grid(dim, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    rng = np.random.default_rng(12)
    batch = np.stack([random_state(g, rng, max_mode=n // 4).coeffs for _ in range(3)])
    step = nls._StrangStep(g, NLSParams(sigma=-1, dt=1e-2, damping=w, dealias=True))
    out, run = step(batch), _advance(step, batch, 10)
    for b in range(3):
        assert np.max(np.abs(out[b] - step(batch[b]))) <= 1e-15
        assert np.max(np.abs(run[b] - _advance(step, batch[b], 10))) <= 1e-15


# dense transforms at 1D N = 64, FFTs at 1D N = 128 and 2D N = 16 and 48
@pytest.mark.parametrize("dim,n", [(1, 64), (1, 128), (2, 16), (2, 48)])
def test_advance_matches_single_steps(dim, n):
    # a run of n fused steps against n calls of the one-step form: the same
    # step for n = 1, and within roundoff of the regrouped linear halves after
    g = make_grid(dim, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(16), max_mode=n // 4).coeffs
    for damping in (None, w):
        for sigma in (-1, 0, 1):
            for dealias in (True, False):
                step = nls._StrangStep(g, NLSParams(sigma=sigma, dt=1e-3,
                                                    damping=damping, dealias=dealias))
                assert np.array_equal(_advance(step, u0, 1), step(u0))
                c, done = u0, 0
                for k in (2, 10, 500):
                    for _ in range(k - done):
                        c = step(c)
                    done = k
                    run = _advance(step, u0, k)
                    assert np.max(np.abs(run - c)) <= 1e-13 * np.max(np.abs(c))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8), (1, 128)])
def test_bulk_sampling_matches_per_state_quantities(dim, n):
    # 500 steps at stride 7: 73 records, more than one sampling buffer, and
    # a last record at step 500 off the stride
    g = make_grid(dim, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(13), max_mode=n // 4)
    params = NLSParams(sigma=-1, dt=1e-3, damping=w)
    final, rec = evolve(u0, 0.5, params, record_stride=7)
    assert len(rec.times) == 73 > nls._RECORD_BUFFER_POINTS // g.n_points
    # the reference runs all 500 steps on grid values, as `evolve` does,
    # and takes each record's state from them one at a time
    step = nls._StrangStep(g, params)
    phys, done, expect = step.start(u0.coeffs), 1, []
    for i in [*range(0, 500, 7), 500]:
        if i:
            phys, done = step.run(phys, i - done), i
        c = step.to_modes(phys) if i else u0.coeffs
        u = FourierState(g, c)
        observed = np.sum(w.samples ** 2 * np.abs(u.physical()) ** 2) / g.n_points
        expect.append((i * params.dt, u.norm_l2() ** 2, energy(u, -1), observed))
    expect = np.array(expect).T
    assert np.array_equal(rec.times, expect[0])
    for got, want in zip((rec.mass, rec.energy, rec.observed), expect[1:]):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(final.coeffs, c)


# dense transforms at 1D N = 64, FFTs at 1D N = 128 and in 2D; B states in
# a batch, and one run with a control source
@pytest.mark.parametrize("dim,n,b,sourced", [
    (1, 64, 1, False), (1, 64, 2, False), (1, 64, 8, False), (1, 128, 1, False),
    (2, 16, 1, False), (2, 48, 1, False), (2, 48, 2, False), (1, 64, 1, True)])
def test_step_loop_allocates_nothing_per_step(dim, n, b, sourced):
    # the buffers of a batch shape are kept from the untraced first call,
    # so a run, however long, holds the copy of its input and a few kB of
    # numpy's call overhead, and no array of grid values per step.  The
    # sourced run also takes the controlled solve's linear limit (sigma = 0,
    # undamped, not dealiased), whose steps fill the sub-flow's buffers too
    g = make_grid(dim, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    rng = np.random.default_rng(5)
    c = np.stack([random_state(g, rng, max_mode=n // 4).coeffs for _ in range(b)])
    steppers = [NLSParams(sigma=-1, dt=1e-3, damping=w)]
    if sourced:
        steppers.append(NLSParams(sigma=0, dt=1e-3, dealias=False))
    for params in steppers:
        step = nls._StrangStep(g, params)
        phys = step.start(c)
        sources = np.full((2000,) + phys.shape, 1e-3 + 0j) if sourced else None
        short, long = (traced_peak(lambda: step.run(phys.copy(), k, sources))
                       for k in (10, 2000))
        assert long - short <= 1024
        assert long <= phys.nbytes + 4096


@pytest.mark.parametrize("dim,n,b", [(1, 64, 8), (2, 16, 2)])
def test_linear_damped_step_loop_allocates_nothing_per_step(dim, n, b):
    # sigma = 0 with damping: the fused sub-flow at kappa = 0, whose
    # exponent keeps its real part -chi^2 dt per batch shape, so numpy
    # buffers no copy of a factor broadcast along the batch on any step
    g = make_grid(dim, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    rng = np.random.default_rng(5)
    c = np.stack([random_state(g, rng, max_mode=n // 4).coeffs for _ in range(b)])
    step = nls._StrangStep(g, NLSParams(sigma=0, dt=1e-3, damping=w))
    phys = step.start(c)
    short, long = (traced_peak(lambda: step.run(phys.copy(), k)) for k in (10, 2000))
    assert long - short <= 1024
    assert long <= phys.nbytes + 4096


def test_small_grids_step_without_fft(monkeypatch):
    # the gate: dense DFT products at 1D N = 64, FFTs at 1D N = 512
    calls = []

    def counted(transform):
        def call(*args, **kwargs):
            calls.append(transform)
            return transform(*args, **kwargs)
        return call

    monkeypatch.setitem(nls._TRANSFORMS, 1, tuple(map(counted, nls._TRANSFORMS[1])))
    # one step, then a fused run of 10: at 1D N = 512 each step transforms
    # once each way
    for n, expected in ((64, (0, 0)), (512, (2, 20))):
        g = make_grid(1, n)
        w = make_window(g, (0.0, 0.3), 0.05, "smooth")
        step = nls._StrangStep(g, NLSParams(sigma=-1, dt=1e-3, damping=w))
        c = random_state(g, np.random.default_rng(15), max_mode=8).coeffs
        step(c)
        assert len(calls) == expected[0]
        _advance(step, c, 10)
        assert len(calls) == sum(expected)
        calls.clear()


def test_linear_limit_matches_free_flow():
    g = make_grid(1, 32)
    u0 = random_state(g, np.random.default_rng(1), max_mode=8)
    params = NLSParams(sigma=0, dt=1e-2, dealias=False)
    u, _ = evolve(u0, 0.5, params, record_stride=50)
    expect = free_propagate(u0, 0.5)
    assert np.allclose(u.coeffs, expect.coeffs, atol=1e-12)


def test_energy_conserved_exactly_in_linear_limit():
    g = make_grid(1, 32)
    u0 = random_state(g, np.random.default_rng(2), max_mode=8)
    params = NLSParams(sigma=0, dt=1e-2, dealias=False)
    _, rec = evolve(u0, 1.0, params, record_stride=10)
    assert abs(rec.energy[-1] - rec.energy[0]) < 1e-10


def test_monotone_mass_decay_with_damping():
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(3), norm=1.0, max_mode=16)
    params = NLSParams(sigma=-1, dt=1e-3, damping=w)
    _, rec = evolve(u0, 1.0, params, record_stride=1)
    assert np.all(np.diff(rec.mass) <= 1e-12)
    assert rec.mass[-1] < rec.mass[0]


def test_mass_decay_identity_scales_with_dt():
    g = make_grid(1, 64)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(3), norm=1.0, max_mode=4)
    res = []
    for dt in (1e-3, 5e-4):
        params = NLSParams(sigma=-1, dt=dt, damping=w)
        _, rec = evolve(u0, 1.0, params, record_stride=1)
        res.append(mass_decay_residual(rec))
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.35)


def test_fit_decay_rate_on_synthetic_exponential():
    t = np.linspace(0.0, 10.0, 501)
    z = np.zeros_like(t)
    rec = DecayRecord(times=t, mass=np.exp(-2 * 0.37 * t), energy=z, observed=z)
    assert fit_decay_rate(rec) == pytest.approx(0.37, rel=1e-10)
    with pytest.raises(ValueError):
        fit_decay_rate(rec, tail_fraction=1.5)
    short = DecayRecord(times=t[:5], mass=np.exp(-t[:5]), energy=z[:5],
                        observed=z[:5])
    with pytest.raises(ValueError):
        fit_decay_rate(short)


def test_stabilization_stall_raises():
    g = make_grid(1, 32)
    # window so small the decay rate is negligible
    w = make_window(g, (0.40, 0.44), 0.01, "smooth")
    u0 = random_state(g, np.random.default_rng(1), norm=0.5, max_mode=8)
    with pytest.raises(StabilizationStallError):
        _stabilize_to_threshold([u0], NLSParams(sigma=1, dt=1e-2, damping=w), 1e-6)


def test_stabilization_stalls_at_the_horizon_cap():
    # the decay rate stays above its floor, but the norm cannot reach a
    # threshold of 1e-300 within 50 / gamma
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.5), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(1), max_mode=8)
    with pytest.raises(StabilizationStallError, match="not reached within horizon cap"):
        _stabilize_to_threshold([u0], NLSParams(sigma=-1, dt=1e-2, damping=w), 1e-300)


def test_stabilization_stops_at_first_check_below_threshold():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(1), norm=0.5, max_mode=8)
    params = NLSParams(sigma=-1, dt=1e-3, damping=w)
    [(u, t_damp)] = _stabilize_to_threshold([u0], params, 0.05)
    assert u.norm_l2() <= 0.05
    assert t_damp > 10.0  # the leg runs past one refit of the decay rate
    replay, _ = evolve(u0, t_damp, params, record_stride=1000)
    assert np.max(np.abs(replay.coeffs - u.coeffs)) <= 1e-12
    # one check (10 steps) earlier the state was still above the threshold
    before, _ = evolve(u0, t_damp - 10 * params.dt, params, record_stride=1000)
    assert before.norm_l2() > 0.05


def test_batched_legs_stop_at_their_solo_times():
    # two legs of one batch cross the threshold at different checks; each
    # stops where it would alone
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.5), 0.05, "smooth")
    params = NLSParams(sigma=-1, dt=1e-3, damping=w)
    rng = np.random.default_rng(14)
    legs = [random_state(g, rng, norm=norm, max_mode=8) for norm in (0.4, 0.2)]
    batched = _stabilize_to_threshold(legs, params, 0.1)
    assert batched[0][1] > batched[1][1]
    for u0, (u, t_damp) in zip(legs, batched):
        [(solo, t_solo)] = _stabilize_to_threshold([u0], params, 0.1)
        assert t_damp == t_solo
        assert np.max(np.abs(u.coeffs - solo.coeffs)) <= 1e-15


@pytest.mark.parametrize("n,norms", [(32, (0.5,)), (64, (0.8, 0.2))])
def test_damped_leg_is_evolve_stopped_at_its_check(n, norms):
    # a leg stays on grid values between its norm checks, so its state at
    # the check where it stops is `evolve`'s after as many steps, bit for
    # bit: one leg, and each member of a batched pair at global control's
    # shape in the nls-steer benchmark
    g = make_grid(1, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    params = NLSParams(sigma=-1, dt=1e-3, damping=w)
    rng = np.random.default_rng(3)
    legs = [random_state(g, rng, norm=norm, max_mode=8) for norm in norms]
    for u0, (u, t_damp) in zip(legs, _stabilize_to_threshold(legs, params, 0.05)):
        replay, _ = evolve(u0, t_damp, params, record_stride=1000)
        assert np.array_equal(replay.coeffs, u.coeffs)


def test_stabilization_refits_when_dt_does_not_divide_the_span(monkeypatch):
    # 10 / dt is not an integer; the rate is still re-fit after the first
    # 10-unit span, so a floor far above the true rate (about 0.2) stops the
    # leg there.  Without the refit it would reach the threshold near t = 29.
    steps = []

    class CountingStep(nls._StrangStep):
        def start(self, c):
            steps.append(1)
            return super().start(c)

        def run(self, phys, n):
            steps.append(n)
            return super().run(phys, n)

    monkeypatch.setattr(nls, "_StrangStep", CountingStep)
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(1), norm=0.5, max_mode=8)
    dt = 3e-3
    with pytest.raises(StabilizationStallError, match="below floor"):
        _stabilize_to_threshold([u0], NLSParams(sigma=-1, dt=dt, damping=w), 1e-2,
                                gamma_floor=10.0)
    assert 10.0 <= sum(steps) * dt < 10.0 + 10 * dt


def test_local_control_reaches_zero():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    u0 = random_state(g, np.random.default_rng(4), norm=0.05, max_mode=8)
    phi0, residual, hist = local_control_nls(u0, spec, sigma=-1, tol=1e-8)
    assert residual <= 1e-6 * u0.norm_l2()
    assert hist["iterations"] <= 10
    assert max(hist["contraction_ratios"]) < 0.5


@pytest.mark.parametrize("dim,n", [pytest.param(1, 32, id="32"), pytest.param(1, 64, id="64"),
                                   pytest.param(2, 16, id="2d-16")])
def test_local_control_linear_limit_is_exact(dim, n):
    # sigma = 0: one solve with the factored exact-time Gramian closes the
    # discrete linear problem to roundoff, and since the sources of the
    # steps sum to that Gramian, the control is solve_hum's
    g = make_grid(dim, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    u0 = random_state(g, np.random.default_rng(10), norm=0.05, max_mode=8)
    phi0, residual, _ = local_control_nls(u0, spec, sigma=0, tol=1e-8)
    assert residual <= 1e-12 * u0.norm_l2()
    hum = solve_hum(spec, u0).phi0
    assert np.linalg.norm(phi0.coeffs - hum.coeffs) <= 1e-12 * hum.norm_l2()


def test_local_control_zero_data_is_trivial():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    phi0, residual, _ = local_control_nls(zero_state(g), spec, sigma=-1)
    assert phi0.norm_l2() == 0.0 and residual == 0.0


def test_picard_divergence_for_large_data():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.2), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    u0 = random_state(g, np.random.default_rng(5), norm=4.0, max_mode=8)
    with pytest.raises(PicardDivergenceError):
        local_control_nls(u0, spec, sigma=-1, tol=1e-8)


@pytest.mark.parametrize("sigma", [-1, 1])
def test_picard_refuses_expanding_iterates(sigma):
    # a narrow window at a short horizon: an update outgrows the last by
    # more than 1.5 (3.57 at sigma = -1, 1.97 at +1), while the large data
    # of the test above end in "no convergence in 30" instead
    g = make_grid(1, 32)
    spec = GramianSpec(T=0.05, window=make_window(g, (0.0, 0.1), 0.01, "smooth"))
    u0 = random_state(g, np.random.default_rng(0), norm=5.0, max_mode=8)
    with pytest.raises(PicardDivergenceError, match="iterates expanding"):
        local_control_nls(u0, spec, sigma=sigma, tol=1e-8)


def test_admissible_amplitude_refuses_when_no_candidate_contracts():
    # T = 0.01 on a narrow window: no candidate from 0.4 down to 0.05
    # converges with a contracting iteration
    g = make_grid(1, 32)
    spec = GramianSpec(T=0.01, window=make_window(g, (0.0, 0.1), 0.01, "smooth"))
    with pytest.raises(PicardDivergenceError, match="no admissible amplitude"):
        admissible_amplitude(spec, -1, np.random.default_rng(0))


def test_admissible_amplitude_contracts_at_half():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    amp = admissible_amplitude(spec, -1, np.random.default_rng(6))
    assert amp > 0.0
    u0 = random_state(g, np.random.default_rng(7), norm=amp / 2, max_mode=8)
    _, _, hist = local_control_nls(u0, spec, sigma=-1, tol=1e-8)
    assert max(hist["contraction_ratios"]) < 0.5


def _controlled_forward_in_modes(u0, spec, phi0, sigma, n_steps):
    """The controlled solve one step at a time in modes: each step goes to
    grid values and back, and the source's exact increment over the step,
    -i exp(i dt Lap) S_dt exp(i t Lap) phi0 from t to t + dt (S_dt the
    oracle's exact-time Gramian over one step, per k_2 column in 2D), is
    added in modes."""
    g, dt = spec.grid, spec.T / n_steps
    step = nls._StrangStep(g, NLSParams(sigma=sigma, dt=dt, dealias=False))
    lap = g.laplacian_symbol()
    gramian = dense_gramian(GramianSpec(T=dt, window=spec.window))
    c = u0.coeffs
    for j in range(n_steps):
        free = (np.exp(1j * j * dt * lap) * phi0.coeffs).reshape(len(gramian), -1)
        c = step(c) - 1j * np.exp(1j * dt * lap) * (gramian @ free).reshape(g.shape)
    return c


def _controlled_forward_on_grid_values(u0, spec, phi0, n_steps, step, phases, source):
    """The controlled solve's step loop written out on the stepper's
    transforms and sub-flow: each step's source is added just before the
    propagator that ends the step."""
    n = spec.grid.modes_per_axis
    modes = source @ (phases * phi0.coeffs).reshape(n_steps, n, -1)
    sources = nls._TRANSFORMS[spec.grid.dim][1](modes.reshape(phases.shape), norm="forward")
    phys = step.start(u0.coeffs)
    for s in sources[:-1]:
        phys += s
        phys = step.across(phys)
        step._nonlinear(phys)
    phys += sources[-1]
    return step.to_modes(phys)


# dense transforms at 1D N = 32, FFTs at 1D N = 128 and 2D N = 24 and 48
@pytest.mark.parametrize("dim,n", [(1, 32), (2, 24), (1, 128), (2, 48)])
def test_controlled_solve_on_grid_values_matches_steps_in_modes(dim, n):
    g = make_grid(dim, n)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.3), 0.05, "smooth"))
    rng = np.random.default_rng(18)
    u0 = random_state(g, rng, norm=0.3, max_mode=8)
    phi0 = random_state(g, rng, norm=2.0, max_mode=8)
    for sigma in (-1, 0, 1):
        _, step, phases, source, _, n_steps = nls._control_tables(spec, sigma)
        assert n_steps == max(256, 4 * n)
        final = nls._controlled_forward(u0, phi0, n_steps=n_steps,
                                        step=step, phases=phases, source=source)
        assert np.array_equal(final.coeffs, _controlled_forward_on_grid_values(
            u0, spec, phi0, n_steps, step, phases, source))
        c = _controlled_forward_in_modes(u0, spec, phi0, sigma, n_steps)
        # the propagator across a step boundary is one rounded factor, the
        # same in every step, so the two solves part by up to about 1e-16
        # per step (0.6-1.0e-14 seen at 256 steps, 1.7e-14 at 512)
        assert np.linalg.norm(final.coeffs - c) <= 1e-16 * n_steps * np.linalg.norm(c)


@pytest.mark.parametrize("n", [32, 64])
def test_control_closes_on_a_finer_time_grid(n):
    # the control solves the continuous-time problem, not its own time
    # grid alone: run through the mode-space reference at 4 times the
    # steps, it still steers u0 to within 1e-4 ||u0|| of zero (what is left
    # is the splitting error of the nonlinear term)
    g = make_grid(1, n)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.3), 0.05, "smooth"))
    u0 = random_state(g, np.random.default_rng(19), norm=0.05, max_mode=n // 4)
    phi0, residual, _ = local_control_nls(u0, spec, sigma=-1)
    assert residual <= 1e-12 * u0.norm_l2()
    refined = _controlled_forward_in_modes(u0, spec, phi0, -1, 4 * max(256, 4 * n))
    assert np.linalg.norm(refined) <= 1e-4 * u0.norm_l2()


def test_tracer_counts_every_controlled_step():
    # perfbench/spans.py wraps `_controlled_forward` and reads its n_steps
    # (the fifth positional argument, or the keyword), and the "iterations"
    # of the history `local_control_nls` returns: a change to either breaks
    # a traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    g = make_grid(1, 32)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.3), 0.05, "smooth"))
    u0 = random_state(g, np.random.default_rng(4), norm=0.05, max_mode=8)
    with tracer.instrument(0):
        _, _, hist = nls.local_control_nls(u0, spec, sigma=-1)
    solves = sum(span[2] == "nls._controlled_forward" for span in tracer.spans)
    metrics = tracer.layer_metrics(1.0)
    assert solves == hist["iterations"] + 1
    assert metrics["nls.forward_steps"] == 256 * solves
    assert metrics["nls.picard_iters"] == hist["iterations"]


def test_global_control_builds_one_control_stepper(monkeypatch):
    # both legs are damped first: one stepper for the batched damped legs,
    # one for every controlled solve of both control legs
    built = []

    class CountingStep(nls._StrangStep):
        def __init__(self, grid, params):
            built.append(params)
            super().__init__(grid, params)

    monkeypatch.setattr(nls, "_StrangStep", CountingStep)
    g = make_grid(1, 32)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.3), 0.05, "smooth"))
    rng = np.random.default_rng(8)
    u0, u1 = (random_state(g, rng, norm=0.3, max_mode=8) for _ in range(2))
    sched = global_control(u0, u1, spec, NLSParams(sigma=-1, dt=1e-3))
    assert [ph.kind for ph in sched.phases] == ["damped", "control", "control", "damped"]
    assert [p.damping is None for p in built] == [False, True]
    built.clear()
    admissible_amplitude(spec, -1, np.random.default_rng(6))
    assert len(built) == 1


@pytest.mark.parametrize("kind", ["smooth", "sharp"])
@pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (1, 256), (2, 16)])
def test_step_source_is_the_centred_one_step_gramian(dim, n, kind):
    # -i G, built from the real form at T = dt, against the dense reference
    # -i W * K(dt) in the mode basis, entry by entry (3.7-5.8e-16 of max|G|
    # seen)
    spec = GramianSpec(T=1.0, window=make_window(make_grid(dim, n), (0.0, 0.3), 0.05, kind))
    *_, source, _, n_steps = nls._control_tables(spec, -1)
    mu = (2.0 * np.pi * spec.grid.mode_indices()) ** 2
    reference = -1j * window_mode_matrix(spec.window) * _centred_kernel(mu, 1.0 / n_steps)
    assert np.max(np.abs(source - reference)) <= 1e-15 * np.max(np.abs(source))


def test_control_tables_memory_is_bounded():
    # the midpoint phase table (4.2 MB at 1D N = 256 and at 2D N = 32) is
    # exponentiated in place, beside G and the factor: about 6.1 and 4.5 MB
    # in all.  Out of place it takes a second table, as the mode-space build
    # of G did (9.99 and 8.48 MB), which the bounds refuse
    for dim, n, bound in ((1, 256, 7.0e6), (2, 32, 5.5e6)):
        spec = GramianSpec(T=1.0, window=make_window(make_grid(dim, n), (0.0, 0.3), 0.05,
                                                     "smooth"))
        assert traced_peak(lambda: nls._control_tables(spec, -1)) <= bound


def test_admissible_amplitude_factors_gramian_once(monkeypatch):
    # the three larger candidates diverge: all four share one factor of the
    # exact-time Gramian
    factored = []
    cholesky, picard = nls._cholesky, nls._picard

    def counting(*args):
        factored.append(args)
        return cholesky(*args)

    def small_only(u0, *args):
        if u0.norm_l2() > 0.06:
            raise PicardDivergenceError("too large")
        return picard(u0, *args)

    monkeypatch.setattr(nls, "_cholesky", counting)
    monkeypatch.setattr(nls, "_picard", small_only)
    g = make_grid(1, 32)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.3), 0.05, "smooth"))
    assert admissible_amplitude(spec, -1, np.random.default_rng(6)) == 0.05
    assert len(factored) == 1


def test_global_control_small_case():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    rng = np.random.default_rng(8)
    u0 = random_state(g, rng, norm=0.5, max_mode=8)
    u1 = random_state(g, rng, norm=0.5, max_mode=8)
    sched = global_control(u0, u1, spec, NLSParams(sigma=-1, dt=1e-3),
                           mass_threshold=0.05, tol=1e-8)
    assert sched.endpoint_error_to_zero <= 1e-6
    assert sched.endpoint_error_to_target <= 1e-6
    kinds = [ph.kind for ph in sched.phases]
    assert "control" in kinds
    assert any(ph.conjugate_reversed for ph in sched.phases)
    # schedule timelines abut
    for a, b in zip(sched.phases, sched.phases[1:]):
        assert b.t_start == pytest.approx(a.t_end)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
def test_conjugate_start_is_exact(dim, n):
    g = make_grid(dim, n)
    u = random_state(g, np.random.default_rng(16), norm=1.0)
    reversed_coeffs = np.roll(np.flip(u.coeffs), 1, axis=tuple(range(dim)))
    v = nls._conjugate(u)
    assert np.array_equal(v.coeffs, reversed_coeffs.conj())
    assert np.max(np.abs(v.physical() - np.conj(u.physical()))) <= 1e-15


def test_global_control_trivial_targets():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    sched = global_control(zero_state(g), zero_state(g), spec)
    assert sched.phases == []
    assert sched.endpoint_error_to_zero == 0.0


def test_energy_definition():
    g = make_grid(1, 16)
    u = plane_wave(g, 1, 1.0)
    # |u| == 1 pointwise: gradient term (2 pi)^2, quartic term sigma/2
    assert energy(u, 0) == pytest.approx((2 * np.pi) ** 2)
    assert energy(u, 1) == pytest.approx((2 * np.pi) ** 2 + 0.5)


def test_unresolved_nonlinear_phase_is_refused():
    # dt * max|u|^2 is about 6e7 rad per step, past pi: evolve and the
    # damped legs refuse the state; without the nonlinearity it runs
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    u0 = random_state(g, np.random.default_rng(3), norm=1e5, max_mode=8)
    with pytest.raises(ValueError, match="nonlinear phase dt"):
        evolve(u0, 0.01, NLSParams(sigma=-1, dt=1e-3, damping=w))
    with pytest.raises(ValueError, match="nonlinear phase dt"):
        global_control(u0, zero_state(g), GramianSpec(T=1.0, window=w),
                       NLSParams(sigma=1, dt=1e-3))
    _, record = evolve(u0, 0.01, NLSParams(sigma=0, dt=1e-3))
    assert record.mass[-1] == pytest.approx(u0.norm_l2() ** 2, rel=1e-12)
    # a coarse dt runs while its nonlinear phase stays within pi (2.7 rad
    # per step at norm 0.3), and is refused past it (30 rad at norm 1),
    # though its largest linear phase dt * (pi N)^2 is 5e4 rad either way
    coarse = NLSParams(sigma=-1, dt=5.0)
    _, record = evolve(random_state(g, np.random.default_rng(3), norm=0.3, max_mode=8),
                       10.0, coarse)
    assert len(record.times) == 3
    with pytest.raises(ValueError, match="exceeds pi"):
        evolve(random_state(g, np.random.default_rng(3), max_mode=8), 10.0, coarse)
