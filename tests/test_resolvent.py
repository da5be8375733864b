"""Resolvent-estimate constants, feasibility, time/frequency cost maps."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torus_control import (GramianSpec, constants_from_observability,
                           default_lambda_grid, feasible_m, make_grid,
                           make_window, miller_cost_bound,
                           observability_constant, random_state, sweep,
                           verify_resolvent)
from torus_control.hum import DenseSizeError, _level_slots, lambda_min_dense
from torus_control import resolvent
from torus_control.resolvent import (InfeasibleResolventError, _best_constant,
                                     _crossings, _level_laplacian, _real_form,
                                     best_resolvent_constant, sup_resolvent_constant)
from torus_control.windows import full_window

from conftest import traced_peak
from oracles import window_mode_matrix


def complex_reference(lam, m, window, grid):
    """The resolvent constant from the complex mode basis, rebuilt per lambda:
    (M, ||g||_2), g = D^-1 Q D^-1 on the complement of the kernel after the
    Schur elimination of its negative directions (the reference the real
    form of the sweep is checked against)."""
    n = grid.modes_per_axis
    d = grid.laplacian_symbol() - lam
    q = np.eye(n) - m * window_mode_matrix(window)
    q = 0.5 * (q + q.conj().T)
    scale = max(abs(lam), (2.0 * np.pi * n / 2.0) ** 2, 1.0)
    kernel = np.abs(d) <= 1e-9 * scale
    comp = ~kernel
    q_eff = q
    if kernel.any():
        vals, vecs = np.linalg.eigh(q[np.ix_(kernel, kernel)])
        if vals.max() > 1e-12:
            raise InfeasibleResolventError(f"lambda = {lam:.6g}: kernel block not <= 0")
        if not comp.any():
            return 0.0, 0.0
        q_ck = q[np.ix_(comp, kernel)]
        neg = vals < -1e-12
        if (~neg).any() and np.linalg.norm(q_ck @ vecs[:, ~neg]) > 1e-10:
            raise InfeasibleResolventError(f"lambda = {lam:.6g}: flat kernel couples")
        q_eff = q[np.ix_(comp, comp)]
        if neg.any():
            c = q_ck @ vecs[:, neg]
            q_eff = q_eff - c @ np.diag(1.0 / vals[neg]) @ c.conj().T
    inv_d = 1.0 / d[comp]
    g = inv_d[:, None] * q_eff * inv_d[None, :]
    vals = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    return max(0.0, float(vals[-1])), float(np.max(np.abs(vals)))


@pytest.fixture
def setup32():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.25), 0.05, "smooth")
    return g, w


def test_spectral_gap_formula_for_zero_window():
    # with chi == 0 the best constant is exactly dist(lambda, spec)^-2
    g = make_grid(1, 16)
    w = make_window(g, (0.41, 0.42), kind="sharp")  # empty: chi == 0
    eigs = np.unique(g.laplacian_symbol())
    rng = np.random.default_rng(0)
    for lam in rng.uniform(-500.0, 30.0, size=25):
        m_best = best_resolvent_constant(lam, 0.0, w)
        expect = 1.0 / np.min(np.abs(eigs - lam)) ** 2
        assert m_best == pytest.approx(expect, rel=1e-12)


def test_infeasible_at_eigenvalue_with_zero_window():
    g = make_grid(1, 16)
    w = make_window(g, (0.41, 0.42), kind="sharp")
    with pytest.raises(InfeasibleResolventError):
        best_resolvent_constant(-((2 * np.pi) ** 2), 0.0, w)


def test_vanishing_margin_that_couples_is_infeasible(setup32):
    # at lambda = -(2 pi l)^2 the kernel is level l, where the real window
    # form has the eigenvalues c(0) +- |c(2l)|; m = 1 / (c(0) - |c(2l)|)
    # leaves the kernel block <= 0 with one direction of zero margin, which
    # couples to the rest of the form: no finite M
    _, w = setup32
    level = 3
    c0, c2l = w.coefficients(np.array([0, 2 * level]))
    m = 1.0 / (c0.real - abs(c2l))
    with pytest.raises(InfeasibleResolventError, match="vanishing margin"):
        best_resolvent_constant(-(2 * np.pi * level) ** 2, m, w)


def test_feasible_m_unlocks_eigenvalues(setup32):
    g, w = setup32
    m = feasible_m(w)
    # at an eigenvalue the kernel block must be dominated by m * chi^2
    lam = -((2 * np.pi * 3) ** 2)
    m_best = best_resolvent_constant(lam, m, w)
    assert np.isfinite(m_best) and m_best >= 0.0
    # far from the spectrum even m = 0 works
    assert best_resolvent_constant(-10.0, 0.0, w) > 0.0


def test_verify_resolvent_with_best_constant(setup32):
    g, w = setup32
    m = feasible_m(w)
    rng = np.random.default_rng(1)
    for lam in (-50.0, -((2 * np.pi * 2) ** 2) + 0.3, 5.0):
        m_best = best_resolvent_constant(lam, m, w)
        for _ in range(20):
            u = random_state(g, rng)
            assert verify_resolvent(u, lam, m_best, m, w)[2]


def test_best_constant_is_tight(setup32):
    # shrinking M below the computed best must break the estimate for
    # some state (the top eigenvector of the defect)
    g, w = setup32
    m = feasible_m(w)
    lam = -50.0
    m_best = best_resolvent_constant(lam, m, w)
    # build the worst state: top eigenvector of A^-1 (I - m W) A^-1
    from torus_control.grid import FourierState

    d = g.laplacian_symbol() - lam
    q = np.eye(32) - m * window_mode_matrix(w)
    q = 0.5 * (q + q.conj().T)
    mat = q / d[:, None] / d[None, :]
    mat = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(mat)
    u = FourierState(g, vecs[:, -1] / d)
    assert verify_resolvent(u, lam, m_best, m, w)[2]
    assert not verify_resolvent(u, lam, 0.8 * m_best, m, w)[2]


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("omega,kind", [((0.0, 0.2), "smooth"),
                                        (((0.1, 0.35), (0.6, 0.7)), "sharp")])
def test_sweep_matches_complex_reference(n, omega, kind):
    # the real cos/sin form is exact: chi^2 is real and mu even in k; the
    # default grid includes the kernel points, so the Schur path runs too
    g = make_grid(1, n)
    w = make_window(g, omega, 0.05, kind)
    m = feasible_m(w)
    lam_grid = default_lambda_grid(g, 512)
    result = sweep(lam_grid, m, w)
    ref = np.array([complex_reference(lam, m, w, g) for lam in lam_grid])
    assert np.all(np.abs(result.M_of_lambda - ref[:, 0]) <= 1e-13 * ref[:, 1])
    assert result.M_sup == pytest.approx(ref[:, 0].max(), rel=1e-12, abs=0.0)
    assert best_resolvent_constant(lam_grid[7], m, w) == result.M_of_lambda[7]


def test_default_lambda_grid_structure(setup32):
    g, _ = setup32
    lam = default_lambda_grid(g, 200)
    eigs = np.unique(g.laplacian_symbol())
    assert lam.min() <= eigs.min()
    assert np.all(np.diff(lam) > 0)
    # every eigenvalue is represented in the grid
    for e in eigs:
        assert np.min(np.abs(lam - e)) < 1e-9


@pytest.mark.parametrize("n,n_points,size", [(32, 128, 179), (96, 128, 299),
                                             (32, 400, 449)])
def test_default_lambda_grid_make_up(n, n_points, size):
    # every eigenvalue; in each of the N/2 + 2 gaps from 1.1 times the
    # lowest eigenvalue to (2 pi)^2, max(3, n_points // gaps) Chebyshev
    # points and one point 1e-2 of the gap from each of its ends; nothing else
    lam = default_lambda_grid(make_grid(1, n), n_points)
    eigs = -(2.0 * np.pi * np.arange(n // 2, -1, -1)) ** 2
    ends = np.concatenate(([1.1 * eigs[0]], eigs, [(2.0 * np.pi) ** 2]))
    per_gap = max(3, n_points // (ends.size - 1))
    cos = np.cos(np.pi * np.arange(1, per_gap + 1) / (per_gap + 1))
    expect = [eigs]
    for a, b in zip(ends[:-1], ends[1:]):
        expect += [0.5 * (a + b) + 0.5 * (b - a) * cos,
                   [a + 1e-2 * (b - a), b - 1e-2 * (b - a)]]
    expect = np.sort(np.concatenate(expect))
    assert lam.size == expect.size == size
    np.testing.assert_allclose(lam, expect, rtol=1e-13, atol=1e-12)


def test_sweep_and_reverse_time_map(setup32):
    g, w = setup32
    m = feasible_m(w)
    lam_grid = default_lambda_grid(g, 400)
    result = sweep(lam_grid, m, w)
    assert result.M_sup > 0.0
    assert result.miller_time == pytest.approx(np.pi * np.sqrt(result.M_sup))
    t_obs = 1.05 * result.miller_time
    bound = miller_cost_bound(result.M_sup, m, t_obs)
    c_t = 1.0 / lambda_min_dense(GramianSpec(T=t_obs, window=w))
    assert c_t <= 1.5 * bound
    with pytest.raises(ValueError):
        miller_cost_bound(result.M_sup, m, 0.9 * result.miller_time)


def test_constants_from_observability_forward_map(setup32):
    g, w = setup32
    t_obs = 0.4
    c_t = observability_constant(GramianSpec(T=t_obs, window=w))
    m_big, m_small = constants_from_observability(c_t, t_obs)
    assert m_big == pytest.approx(2.0 * c_t * t_obs ** 3 / 3.0)
    assert m_small == pytest.approx(2.0 * c_t * t_obs)
    rng = np.random.default_rng(2)
    for lam in np.linspace(-900.0, 30.0, 15):
        for _ in range(10):
            u = random_state(g, rng)
            assert verify_resolvent(u, lam, m_big, m_small, w)[2]


def test_full_window_resolvent_near_spectrum():
    # chi == 1: at an eigenvalue any m >= 1 absorbs the kernel
    g = make_grid(1, 16)
    w = full_window(g)
    lam = -((2 * np.pi * 2) ** 2)
    m_best = best_resolvent_constant(lam, 1.5, w)
    assert np.isfinite(m_best)


def per_point_sweep(lam_grid, m, window):
    """M(lambda) from `_best_constant` one lambda at a time, in grid order,
    raising as a sweep does; the symbol in the form's level order."""
    q = _real_form(m, window)
    lap = window.grid.laplacian_symbol()[_level_slots(window.grid.modes_per_axis)]
    best = np.empty(len(lam_grid))
    for i, lam in enumerate(lam_grid):
        try:
            best[i] = _best_constant(lam, q, lap)
        except InfeasibleResolventError as exc:
            raise InfeasibleResolventError(
                f"infeasible at lambda = {lam:.6g}, m = {m:.6g}: {exc}") from exc
    return best


@pytest.mark.parametrize("n", [8, 32, 64, 96])
def test_stacked_sweep_matches_per_point_loop(n):
    # stacked off-spectrum eigensolves give the per-lambda loop's M(lambda)
    # bit for bit: on the default grid (with its eigenvalues and their close
    # neighbours) and on a uniform grid crossing the eigenvalues
    g = make_grid(1, n)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    m = feasible_m(w)
    top = (2.0 * np.pi * n / 2.0) ** 2
    for lam_grid in (default_lambda_grid(g, 512), np.linspace(-1.1 * top, 50.0, 301)):
        expect = per_point_sweep(lam_grid, m, w)
        assert np.array_equal(sweep(lam_grid, m, w).M_of_lambda, expect)


def test_stacked_sweep_raises_the_per_point_infeasibility():
    # the first infeasible eigenvalue in grid order raises, with the same
    # message, although the off-spectrum points are now solved after it
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    lam_grid = default_lambda_grid(g, 512)
    with pytest.raises(InfeasibleResolventError) as expect:
        per_point_sweep(lam_grid, 0.5, w)
    with pytest.raises(InfeasibleResolventError) as got:
        sweep(lam_grid, 0.5, w)
    assert str(got.value) == str(expect.value)


@pytest.mark.parametrize("lam", [-50.0, -((2 * np.pi) ** 2)])
def test_nan_resolvent_constant_raises(monkeypatch, lam):
    # an infinite zero-mode entry of the form makes eigvalsh return NaN
    # without a LAPACK error; M(lambda) = max(0, NaN) must not read 0, off
    # the spectrum (stacked path) or on it (kernel elimination)
    g = make_grid(1, 16)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    q = _real_form(feasible_m(w), w)
    q[0, 0] = np.inf
    monkeypatch.setattr(resolvent, "_real_form", lambda *args: q)
    with pytest.raises(np.linalg.LinAlgError, match="NaN"):
        sweep([lam], 1.0, w)


def test_library_rejects_invalid_arguments():
    g = make_grid(1, 16)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    for lam_grid in ([np.inf], [np.nan], [-10.0, np.nan, 5.0]):
        with pytest.raises(ValueError, match="^lambda_grid must be finite"):
            sweep(lam_grid, 1.0, w)
    for lam in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^lam must be finite"):
            best_resolvent_constant(lam, 1.0, w)
    for m in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="^m must be finite and >= 0"):
            sweep([-10.0], m, w)
        with pytest.raises(ValueError, match="^m must be finite and >= 0"):
            best_resolvent_constant(-10.0, m, w)


def test_sweep_memory_is_bounded():
    # Q_r, one stacked block of at most 2^16 entries (512 kB) and O(N)
    # vectors per lambda: 0.7 MB at N = 96
    g = make_grid(1, 96)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    m, lam_grid = feasible_m(w), default_lambda_grid(g, 512)
    assert traced_peak(lambda: sweep(lam_grid, m, w)) <= 2.5e6


LEVEL_SET_WINDOWS = {"smooth": ((0.0, 0.2), "smooth"), "sharp": ((0.0, 0.2), "sharp"),
                     "two-interval": (((0.1, 0.35), (0.6, 0.7)), "sharp")}


def golden_section_max(f, a, b, width=1e-6):
    """The largest f on [a, b] by golden section, f unimodal there."""
    r = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = f(d)
    return max(fc, fd)


@pytest.fixture(scope="module", params=[(n, kind) for n in (32, 64, 96)
                                        for kind in LEVEL_SET_WINDOWS],
                ids=lambda p: f"{p[1]}-{p[0]}")
def level_set(request):
    n, kind = request.param
    omega, shape = LEVEL_SET_WINDOWS[kind]
    w = make_window(make_grid(1, n), omega, 0.05, shape)
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    return w, m, lam, sup_resolvent_constant(w, m, lam[0], lam[-1])


def test_level_set_bounds_a_denser_grid_and_golden_section(level_set):
    # the supremum is at least M on every point of a grid 4.5x denser than
    # the default, and a golden-section search between the neighbours of
    # that grid's best point agrees with it to 1e-10
    w, m, lam, sup = level_set
    dense = default_lambda_grid(w.grid, 4 * lam.size)
    curve = sweep(dense, m, w).M_of_lambda
    assert curve.max() <= sup.M_sup
    i = curve.argmax()
    golden = golden_section_max(lambda x: best_resolvent_constant(x, m, w),
                                dense[i - 1], dense[i + 1])
    assert abs(sup.M_sup - golden) <= 1e-10 * golden
    assert sup.M_sup <= sup.upper == pytest.approx(sup.M_sup, rel=2e-8)
    # cold, from the best gap midpoint refined to its peak: one solve
    assert sup.iterations == 1


def test_level_set_value_is_attained_and_no_crossing_lies_above(level_set):
    # M(lambda*) = theta; the linearization of the quadratic problem
    # (Q - theta (Lap - lambda)^2) v = 0, built here unscaled, has no real
    # eigenvalue in the interval at theta (1 + 1e-8), and two real ones
    # around lambda* at theta (1 - 1e-10)
    w, m, lam, sup = level_set
    assert sweep([sup.lam_star], m, w).M_of_lambda[0] == sup.M_sup
    q, lap = _real_form(m, w), _level_laplacian(w.grid)
    n = lap.size

    def real_crossings(theta):
        lin = np.block([[np.diag(lap), -np.eye(n)], [-q / theta, np.diag(lap)]])
        ev = np.linalg.eigvals(lin)
        return ev.real[(ev.imag == 0.0) & (lam[0] < ev.real) & (ev.real < lam[-1])]

    assert real_crossings(sup.M_sup * (1.0 + 1e-8)).size == 0
    below = real_crossings(sup.M_sup * (1.0 - 1e-10))
    assert below[below < sup.lam_star].max() > sup.lam_star - 1e-3
    assert below[below > sup.lam_star].min() < sup.lam_star + 1e-3


@pytest.mark.parametrize("n,printed", [(32, 0.0028376020), (64, 0.0028379598),
                                       (96, 0.0028376535)])
def test_level_set_supremum_on_the_benchmark_window(n, printed):
    # smooth (0, 0.2) at m = feasible_m, over the default grid's range: the
    # supremum to its 10th decimal (the largest of the 512-budget grid read
    # 0.0028359 / 0.0028341 / 0.0028238)
    w = make_window(make_grid(1, n), (0.0, 0.2), 0.05, "smooth")
    lam = default_lambda_grid(w.grid)
    assert abs(sup_resolvent_constant(w, feasible_m(w), lam[0], lam[-1]).M_sup
               - printed) <= 5e-11


@pytest.mark.parametrize("rel", [1e-6, 1e-10, 1e-14, -1e-8])
def test_crossings_keep_the_pair_at_a_peak(rel):
    # a level just below the peak crosses twice near lambda*, and roundoff
    # may turn the pair complex; just above it the pair is complex.  Either
    # way both count, so a midpoint lands on the peak
    w = make_window(make_grid(1, 64), (0.0, 0.2), 0.05, "smooth")
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    sup = sup_resolvent_constant(w, m, lam[0], lam[-1])
    x = _crossings(sup.M_sup * (1.0 - rel), _real_form(m, w), _level_laplacian(w.grid),
                   lam[0], lam[-1])
    assert np.sum(np.abs(x - sup.lam_star) < 0.1) == 2


def test_level_set_starts_from_a_given_point(setup32):
    # a start at the sampled argmax gives the same supremum in as few steps
    # as the cold start from the gap midpoints; a start outside the interval
    # is refused
    _, w = setup32
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    sampled = sweep(lam, m, w).M_of_lambda
    cold = sup_resolvent_constant(w, m, lam[0], lam[-1])
    warm = sup_resolvent_constant(w, m, lam[0], lam[-1], start=lam[sampled.argmax()])
    assert warm.M_sup == pytest.approx(cold.M_sup, rel=1e-14)
    assert warm.iterations == cold.iterations == 1
    with pytest.raises(ValueError, match="outside"):
        sup_resolvent_constant(w, m, lam[0], lam[-1], start=lam[-1] + 1.0)
    with pytest.raises(ValueError, match="lam_lo < lam_hi"):
        sup_resolvent_constant(w, m, 0.0, 0.0)


@pytest.mark.parametrize("n", [32, 64, 96])
@pytest.mark.parametrize("kind", LEVEL_SET_WINDOWS)
def test_level_set_certifies_the_refined_sampled_peak_in_one_solve(monkeypatch, n, kind):
    # from the CLI's start (the argmax of the default grid's curve) the
    # local refinement lands on the peak, so the first crossing solve is the
    # certifying one; the refinement evaluates M only inside the interval
    omega, shape = LEVEL_SET_WINDOWS[kind]
    w = make_window(make_grid(1, n), omega, 0.05, shape)
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    start = lam[sweep(lam, m, w).M_of_lambda.argmax()]
    levels, seen = [], []
    crossings, constants = resolvent._crossings, resolvent._constants
    monkeypatch.setattr(resolvent, "_crossings",
                        lambda level, *args: levels.append(level) or crossings(level, *args))
    monkeypatch.setattr(resolvent, "_constants",
                        lambda lams, *args: seen.extend(lams) or constants(lams, *args))
    sup = sup_resolvent_constant(w, m, lam[0], lam[-1], start=start)
    assert len(levels) == sup.iterations == 1
    assert lam[0] <= min(seen) and max(seen) <= lam[-1]


COLD_START_WINDOWS = dict(LEVEL_SET_WINDOWS, wide=((0.0, 0.25), "smooth"))


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("kind", COLD_START_WINDOWS)
def test_cold_level_set_starts_from_every_gap_midpoint(monkeypatch, n, kind):
    # without a start, M at lam_lo, lam_hi and the midpoint of every gap
    # between them comes from one stacked call; the best of them, refined
    # to the peak in its gap, is certified by one crossing solve, and the
    # supremum is the one from the sampled argmax
    omega, shape = COLD_START_WINDOWS[kind]
    w = make_window(make_grid(1, n), omega, 0.05, shape)
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    lo, hi = lam[0], lam[-1]
    levels, calls = [], []
    crossings, constants = resolvent._crossings, resolvent._constants
    monkeypatch.setattr(resolvent, "_crossings",
                        lambda level, *args: levels.append(level) or crossings(level, *args))
    monkeypatch.setattr(resolvent, "_constants",
                        lambda lams, *args: calls.append(lams) or constants(lams, *args))
    cold = sup_resolvent_constant(w, m, lo, hi)
    assert len(levels) == cold.iterations == 1
    ends = np.concatenate(([lo], np.unique(_level_laplacian(w.grid)), [hi]))
    gaps = 0.5 * (ends[1:] + ends[:-1])
    assert np.array_equal(np.sort(calls[0]), np.sort(np.concatenate(([lo, hi], gaps))))
    start = lam[sweep(lam, m, w).M_of_lambda.argmax()]
    warm = sup_resolvent_constant(w, m, lo, hi, start=start)
    assert abs(cold.M_sup - warm.M_sup) <= 1e-12 * warm.M_sup


def grid_with_near_offsets(grid):
    """The default grid plus a point 1e-4 of the gap from each end of each
    gap."""
    eigs = np.unique(grid.laplacian_symbol())
    ends = np.concatenate(([1.1 * eigs[0]], eigs, [(2.0 * np.pi) ** 2]))
    a, b = ends[:-1], ends[1:]
    return np.union1d(default_lambda_grid(grid),
                      np.concatenate((a + 1e-4 * (b - a), b - 1e-4 * (b - a))))


@pytest.mark.parametrize("n", [32, 64, 96])
def test_near_offsets_give_the_same_supremum(n):
    # M is continuous across a feasible eigenvalue, so offsets of 1e-4 of a
    # gap only repeat the eigenvalue's own M: the grid with them, swept and
    # certified as the CLI does, gives M_sup, lambda*, the level and
    # M_sup_sampled bit for bit, and the same M on every lambda it shares
    # with the default grid
    w = make_window(make_grid(1, n), (0.0, 0.2), 0.05, "smooth")
    m = feasible_m(w)
    runs = []
    for lam in (default_lambda_grid(w.grid), grid_with_near_offsets(w.grid)):
        sampled = sweep(lam, m, w)
        sup = sup_resolvent_constant(w, m, lam[0], lam[-1],
                                     start=lam[sampled.M_of_lambda.argmax()])
        runs.append((sampled, sup))
    (plain, plain_sup), (near, near_sup) = runs
    assert near.lambda_grid.size == plain.lambda_grid.size + 2 * (n // 2 + 2)
    assert (plain_sup.M_sup, plain_sup.lam_star, plain_sup.upper, plain.M_sup) == (
        near_sup.M_sup, near_sup.lam_star, near_sup.upper, near.M_sup)
    shared = np.isin(near.lambda_grid, plain.lambda_grid)
    assert shared.sum() == plain.lambda_grid.size
    assert np.array_equal(near.M_of_lambda[shared], plain.M_of_lambda)


@given(st.sampled_from([16, 32]), st.sampled_from(sorted(LEVEL_SET_WINDOWS)),
       st.floats(0.0, 1.0), st.floats(1e-3, 1.0), st.data())
def test_level_set_on_any_sub_interval(n, kind, at, width, data):
    # on [lo, hi] inside the default range (its ends inside gaps, or the
    # whole range), from a start anywhere in it or on an eigenvalue: M_sup is
    # at least the largest of 200 uniform samples, no midpoint between the
    # crossings of the certified level exceeds it, every M the level set
    # evaluates lies in [lo, hi], and warm and cold starts agree
    omega, shape = LEVEL_SET_WINDOWS[kind]
    w = make_window(make_grid(1, n), omega, 0.05, shape)
    m = feasible_m(w)
    full = default_lambda_grid(w.grid)
    lo = full[0] + (full[-1] - full[0]) * (1.0 - width) * at
    hi = min(lo + (full[-1] - full[0]) * width, full[-1])
    eigs = np.unique(_level_laplacian(w.grid))
    inside = eigs[(lo <= eigs) & (eigs <= hi)].tolist()
    start = data.draw(st.sampled_from(inside) | st.floats(lo, hi) if inside
                      else st.floats(lo, hi))
    seen = []
    constants = resolvent._constants
    with mock.patch.object(resolvent, "_constants",
                           lambda lams, *args: seen.extend(lams) or constants(lams, *args)):
        warm = sup_resolvent_constant(w, m, lo, hi, start=start)
    assert lo <= min(seen) and max(seen) <= hi
    assert warm.M_sup >= sweep(np.linspace(lo, hi, 200), m, w).M_sup
    x = _crossings(warm.upper, _real_form(m, w), _level_laplacian(w.grid), lo, hi)
    mids = 0.5 * (x[1:] + x[:-1])
    assert not mids.size or sweep(mids, m, w).M_sup <= warm.upper
    cold = sup_resolvent_constant(w, m, lo, hi)
    assert abs(warm.M_sup - cold.M_sup) <= 1e-12 * cold.M_sup


def test_level_set_of_a_vanishing_constant():
    # chi == 1 and m > 1: Q = (1 - m) I < 0, so M = 0 everywhere and the
    # level set returns at once, with no linearization to divide by theta
    w = full_window(make_grid(1, 16))
    sup = sup_resolvent_constant(w, 1.5, -2000.0, 50.0)
    assert (sup.M_sup, sup.upper, sup.iterations) == (0.0, 0.0, 0)


def test_level_set_reaches_an_infeasible_eigenvalue_between_samples():
    # m = 0 fails at every eigenvalue, where M is unbounded; ten samples on
    # [-100, -1] miss -(2 pi)^2 and read at most 1, but the level set climbs
    # to that eigenvalue and raises
    w = make_window(make_grid(1, 32), (0.0, 0.2), 0.05, "smooth")
    assert sweep(np.linspace(-100.0, -1.0, 10), 0.0, w).M_sup <= 1.0
    with pytest.raises(InfeasibleResolventError, match="-39.4784"):
        sup_resolvent_constant(w, 0.0, -100.0, -1.0)


def test_level_set_refuses_the_linearization_past_the_dense_cap():
    # 2N x 2N entries above 2048**2: N = 1026 is refused before the form
    w = make_window(make_grid(1, 1026), (0.0, 0.3), 0.05, "smooth")
    with pytest.raises(DenseSizeError, match="level-set linearization"):
        sup_resolvent_constant(w, 1.0, -100.0, 0.0)
    peak = traced_peak(lambda: pytest.raises(DenseSizeError, sup_resolvent_constant,
                                              w, 1.0, -100.0, 0.0))
    assert peak <= 1e5


def off_spectrum(lam, grid):
    """The lambda of lam that no kernel elimination touches."""
    return lam[~resolvent._on_spectrum(lam, np.unique(_level_laplacian(grid)))]


@pytest.mark.parametrize("n", [64, 96])
def test_each_lambda_has_the_bits_of_its_own_row(n):
    # the Lanczos rows of a block share one matrix product per step; M at a
    # lambda is the same bit for bit swept alone, in a pair, in a grid whose
    # last block holds one lambda, and in the whole default grid
    w = make_window(make_grid(1, n), (0.0, 0.2), 0.05, "smooth")
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    full = dict(zip(lam, sweep(lam, m, w).M_of_lambda))
    off = off_spectrum(lam, w.grid)
    picks = off[[0, 7, off.size // 2, -1]]
    q, lap = _real_form(m, w), _level_laplacian(w.grid)
    top, upper = resolvent._top_eigenvalues(picks, q, lap)
    assert np.all(upper > top)  # certified Lanczos values, not the dense fallback
    for x in picks:
        assert sweep([x], m, w).M_of_lambda[0] == full[x]
    pair = picks[1:3]
    assert np.array_equal(sweep(pair, m, w).M_of_lambda, [full[x] for x in pair])
    ragged = off[:resolvent._LANCZOS_ROWS + 1]
    assert np.array_equal(sweep(ragged, m, w).M_of_lambda, [full[x] for x in ragged])


@pytest.mark.parametrize("n", [64, 96])
def test_too_few_lanczos_steps_fall_back_to_the_dense_eigensolve(monkeypatch, n):
    # two steps certify nothing: every lambda goes to eigvalsh, and the sweep
    # is the dense one (the kernel switched off) bit for bit
    w = make_window(make_grid(1, n), ((0.1, 0.35), (0.6, 0.7)), 0.05, "sharp")
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    with monkeypatch.context() as patch:
        patch.setattr(resolvent, "_LANCZOS_MIN_N", n + 1)
        dense = sweep(lam, m, w).M_of_lambda
    monkeypatch.setattr(resolvent, "_LANCZOS_STEPS", 2)
    off = off_spectrum(lam, w.grid)
    q, lap = _real_form(m, w), _level_laplacian(w.grid)
    top, upper = resolvent._top_eigenvalues(off, q, lap)
    assert np.array_equal(top, upper)
    assert np.array_equal(sweep(lam, m, w).M_of_lambda, dense)


@given(st.sampled_from([48, 64]), st.sampled_from(["smooth", "sharp"]),
       st.floats(0.0, 0.8), st.floats(0.15, 0.6), st.integers(0, 2 ** 32 - 1))
def test_certified_bracket_holds_the_top_eigenvalue(n, kind, a, width, seed):
    # on a random window and 12 random lambda off the spectrum, a certified
    # value theta comes with upper = theta + delta, delta = max(1e-13 theta,
    # 0.1 n eps ||G||), and the dense top eigenvalue lies in [theta, upper]
    # up to eigvalsh's own backward error n eps ||G||; M(lambda) = max(0, theta)
    w = make_window(make_grid(1, n), (a, min(a + width, 0.99)), 0.05, kind)
    m = feasible_m(w)
    q, lap = _real_form(m, w), _level_laplacian(w.grid)
    lo = -1.1 * (np.pi * n) ** 2
    lam = np.random.default_rng(seed).uniform(lo, (2.0 * np.pi) ** 2, 12)
    lam = off_spectrum(lam, w.grid)
    top, upper = resolvent._top_eigenvalues(lam, q, lap)
    eps = np.finfo(float).eps
    for x, theta, up in zip(lam, top, upper):
        inv = 1.0 / (lap - x)
        ev = np.linalg.eigvalsh(inv[:, None] * q * inv[None, :])
        norm = np.abs(ev).max()
        if up > theta:
            delta = max(1e-13 * abs(theta), 0.1 * n * eps * norm)
            assert up - theta <= delta + np.spacing(up)
            assert theta - n * eps * norm <= ev[-1] <= up + n * eps * norm
        else:
            assert theta == ev[-1]
    assert np.array_equal(sweep(lam, m, w).M_of_lambda, np.maximum(top, 0.0))


def test_level_set_upper_covers_the_last_certified_ends(monkeypatch):
    # the level set stops when no midpoint exceeds the level; its upper bound
    # is the larger of the level and the certified upper ends of those
    # midpoints, which a wider bracket (inflated here) shows
    w = make_window(make_grid(1, 64), (0.0, 0.2), 0.05, "smooth")
    m = feasible_m(w)
    lam = default_lambda_grid(w.grid)
    for widen in (1.0, 1.0 + 1e-6):
        calls, top_eigenvalues = [], resolvent._top_eigenvalues

        def widened(*args):
            top, upper = top_eigenvalues(*args)
            return top, upper * widen

        monkeypatch.setattr(resolvent, "_top_eigenvalues", widened)
        constants = resolvent._constants
        monkeypatch.setattr(resolvent, "_constants",
                            lambda *args: calls.append(constants(*args)) or calls[-1])
        sup = sup_resolvent_constant(w, m, lam[0], lam[-1])
        monkeypatch.undo()
        last_upper = calls[-1][1]
        assert sup.upper >= last_upper.max() >= sup.M_sup
    # the level is at most M_sup (1 + 1e-8): here the widened end is the bound
    assert sup.upper == last_upper.max() > sup.M_sup * (1.0 + 1e-7)


def test_nan_form_raises_past_the_lanczos_crossover(monkeypatch):
    # an infinite entry of the form leaves every Lanczos row NaN: no factor
    # certifies it, the dense fallback returns NaN, and M(lambda) raises
    w = make_window(make_grid(1, 64), (0.0, 0.3), 0.05, "smooth")
    q = _real_form(feasible_m(w), w)
    q[0, 0] = np.inf
    monkeypatch.setattr(resolvent, "_real_form", lambda *args: q)
    with pytest.raises(np.linalg.LinAlgError, match="NaN"):
        sweep([-50.0, -20.0, 5.0], 1.0, w)
