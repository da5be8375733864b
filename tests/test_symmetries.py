"""The torus's exact symmetries as metamorphic tests (Hypothesis; profile in
conftest): the answers for a moved, reflected or re-phased problem against
the answers for the original, with no reference implementation.

- Translating window and state together by a whole grid step j/N shifts
  the samples exactly, so lambda_min (C_T = 1/lambda_min) and
  `feasible_m` stay the same, and the HUM control of the moved target is
  the moved control.  (The sweep's M(lambda) and M_sup under translation
  and reflection are checked in test_properties.)
- Reflecting x -> -x leaves lambda_min the same.
- The cubic NLS commutes with the gauge u -> exp(i theta) u, so the
  local control of exp(i theta) u0 is exp(i theta) phi0, and global
  control of (exp(i theta) u0, exp(i theta) u1) keeps its phase times,
  with the forward leg's phi0 rotated by exp(i theta) and the
  conjugate-reversed leg's (the control of conj(u1)) by exp(-i theta).

Each comparison is at roundoff, with the tolerance stated where it is made.
A sub-grid translation is not a symmetry of the sampled window convention
(ROADMAP item 1) and is not tested here.
"""

from dataclasses import replace

import numpy as np
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from torus_control import (GramianSpec, NLSParams, evolve, global_control,
                           local_control_nls, make_grid, make_window, random_state,
                           solve_hum)
from torus_control.hum import lambda_min_dense
from torus_control.resolvent import InfeasibleResolventError, feasible_m

from conftest import any_windows, horizons, seeds, windows

# The controls rerun up to 30 controlled solves per example, so a failing
# example is reported as drawn: no shrink phase (nor the explain phase
# that follows it), the profile's examples otherwise
unshrunk = settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])


def translated(window, j):
    """The window moved by j/N along the first axis: samples rolled by j."""
    n = window.grid.modes_per_axis
    return replace(window, samples=np.roll(window.samples, j, axis=0),
                   omega=tuple((a + j / n, b + j / n) for a, b in window.omega))


def reflected(window):
    """The window at -x along the first axis: sample i is sample -i mod N."""
    return replace(window, samples=np.roll(window.samples[::-1], 1, axis=0),
                   omega=tuple((1.0 - b, 1.0 - a) for a, b in window.omega))


def moved_coeffs(state, j):
    """Coefficients of u(x - j/N): u_k exp(-2 pi i k_1 j/N)."""
    k = state.grid.mode_indices()
    phase = np.exp(-2j * np.pi * k * j / state.grid.modes_per_axis)
    return state.coeffs * phase.reshape((-1,) + (1,) * (state.grid.dim - 1))


def steps(window):
    return st.integers(1, window.grid.modes_per_axis - 1)


def lambda_scale(window, T):
    """T * c(0) = T * mean chi^2 >= lambda_max of the Gramian: the scale of
    an eigenvalue's roundoff."""
    return T * float(np.mean(window.samples ** 2))


@given(any_windows, horizons, st.data())
def test_translation_by_grid_steps_keeps_lambda_min(window, T, data):
    # to 1e-13 of the Gramian's scale T * c(0)
    moved = translated(window, data.draw(steps(window)))
    lam = lambda_min_dense(GramianSpec(T=T, window=window))
    lam_moved = lambda_min_dense(GramianSpec(T=T, window=moved))
    assert abs(lam_moved - lam) <= 1e-13 * lambda_scale(window, T)


@given(windows(1), st.data())
def test_translation_by_grid_steps_keeps_feasible_m(window, data):
    # m = 2 / min_k (c(0) - |c(2k)|): |c(2k)| moves by about 1e-16 c(0), so
    # m by about m^2 c(0) 1e-16; the bound is 1e-13 m^2 c(0)
    moved = translated(window, data.draw(steps(window)))
    try:
        m = feasible_m(window)
    except InfeasibleResolventError:
        m = None
    assume(m is not None and m < 1e6)
    c0 = float(np.mean(window.samples ** 2))
    assert abs(feasible_m(moved) - m) <= 1e-13 * m * m * c0


@given(st.sampled_from([1, 2]).flatmap(lambda dim: windows(dim, min_length=0.5)),
       st.floats(0.5, 2.0), seeds, st.data())
def test_translated_target_has_the_translated_hum_control(window, T, seed, data):
    # the HUM solve is linear in the target, with error at most about
    # 1e-16 * cond(S) * ||phi0||; the bound is 1e-14 * cond(S) * ||phi0||
    spec = GramianSpec(T=T, window=window)
    lam = lambda_min_dense(spec)
    cond = lambda_scale(window, T) / lam
    assume(0.0 < lam and cond < 1e6)
    j = data.draw(steps(window))
    target = random_state(window.grid, np.random.default_rng(seed))
    phi0 = solve_hum(spec, target, tol=1e-6).phi0
    moved_target = replace(target, coeffs=moved_coeffs(target, j))
    moved = solve_hum(GramianSpec(T=T, window=translated(window, j)), moved_target,
                      tol=1e-6).phi0
    err = np.linalg.norm(moved.coeffs - moved_coeffs(phi0, j))
    assert err <= 1e-14 * cond * np.linalg.norm(phi0.coeffs)


@given(any_windows, horizons)
def test_reflection_keeps_lambda_min(window, T):
    # to 1e-13 of the Gramian's scale T * c(0)
    lam = lambda_min_dense(GramianSpec(T=T, window=window))
    lam_reflected = lambda_min_dense(GramianSpec(T=T, window=reflected(window)))
    assert abs(lam_reflected - lam) <= 1e-13 * lambda_scale(window, T)


@given(any_windows, st.sampled_from([-1, 0, 1]), st.booleans(), st.booleans(),
       st.floats(0.0, 2.0 * np.pi), seeds)
def test_evolve_commutes_with_the_gauge(window, sigma, damped, dealias, theta, seed):
    # 50 steps of dt = 1e-3 from a state of norm 1: |exp(i theta) u|^2
    # rounds as |u|^2 to about 1e-16, so the final states agree to 1e-13 of
    # their largest coefficient and the records to 1e-13 relative
    params = NLSParams(sigma=sigma, dt=1e-3, damping=window if damped else None,
                       dealias=dealias)
    u0 = random_state(window.grid, np.random.default_rng(seed),
                      max_mode=window.grid.modes_per_axis // 4)
    gauge = np.exp(1j * theta)
    final, record = evolve(u0, 0.05, params)
    final_g, record_g = evolve(u0 * gauge, 0.05, params)
    assert np.max(np.abs(final_g.coeffs - gauge * final.coeffs)) <= \
        1e-13 * np.max(np.abs(final.coeffs))
    for got, want in ((record_g.mass, record.mass), (record_g.energy, record.energy),
                      (record_g.observed, record.observed)):
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@unshrunk
@given(st.sampled_from([(1, 32), (2, 16)]), st.sampled_from([-1, 1]),
       st.floats(0.0, 2.0 * np.pi), seeds)
def test_local_control_nls_commutes_with_the_gauge(shape, sigma, theta, seed):
    # every Picard iterate of the rotated data is the rotated iterate up to
    # roundoff (up to 3.5e-15 of ||phi0|| seen); the bound is 1e-13 ||phi0||
    dim, n = shape
    grid = make_grid(dim, n)
    spec = GramianSpec(T=1.0, window=make_window(grid, (0.0, 0.3), 0.05, "smooth"))
    u0 = random_state(grid, np.random.default_rng(seed), norm=0.05, max_mode=n // 4)
    gauge = np.exp(1j * theta)
    phi0, _, history = local_control_nls(u0, spec, sigma)
    phi0_g, _, history_g = local_control_nls(u0 * gauge, spec, sigma)
    assert history_g["iterations"] == history["iterations"]
    assert np.linalg.norm(phi0_g.coeffs - gauge * phi0.coeffs) <= \
        1e-13 * np.linalg.norm(phi0.coeffs)


@unshrunk
@given(st.floats(0.0, 2.0 * np.pi), seeds)
def test_global_control_commutes_with_the_gauge(theta, seed):
    # the damped legs stop at the same 10-step checks, so the phase times
    # are equal; the controls agree as those of `local_control_nls` do, to
    # roundoff (up to 1.8e-14 of ||phi0|| seen); the bound is 1e-12 ||phi0||
    grid = make_grid(1, 32)
    spec = GramianSpec(T=1.0, window=make_window(grid, (0.0, 0.3), 0.05, "smooth"))
    rng = np.random.default_rng(seed)
    u0, u1 = (random_state(grid, rng, norm=0.1, max_mode=8) for _ in range(2))
    gauge = np.exp(1j * theta)
    params = NLSParams(sigma=-1, dt=1e-3)
    sched = global_control(u0, u1, spec, params, mass_threshold=0.05)
    sched_g = global_control(u0 * gauge, u1 * gauge, spec, params, mass_threshold=0.05)
    assert [(ph.kind, ph.t_start, ph.t_end, ph.conjugate_reversed) for ph in sched_g.phases] \
        == [(ph.kind, ph.t_start, ph.t_end, ph.conjugate_reversed) for ph in sched.phases]
    controls = [(ph, ph_g) for ph, ph_g in zip(sched.phases, sched_g.phases)
                if ph.kind == "control"]
    assert [ph.conjugate_reversed for ph, _ in controls] == [False, True]
    for ph, ph_g in controls:
        rotation = np.conj(gauge) if ph.conjugate_reversed else gauge
        assert np.linalg.norm(ph_g.phi0.coeffs - rotation * ph.phi0.coeffs) <= \
            1e-12 * np.linalg.norm(ph.phi0.coeffs)
