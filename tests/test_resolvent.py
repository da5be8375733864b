"""Resolvent-estimate constants, feasibility, time/frequency cost maps."""

import numpy as np
import pytest

from torus_control import (GramianSpec, constants_from_observability,
                           default_lambda_grid, feasible_m, make_grid,
                           make_window, miller_cost_bound,
                           observability_constant, random_state, sweep,
                           verify_resolvent)
from torus_control.hum import _level_slots, lambda_min_dense, window_mode_matrix
from torus_control import resolvent
from torus_control.resolvent import (InfeasibleResolventError, _best_constant,
                                     _real_form, best_resolvent_constant)
from torus_control.windows import full_window

from conftest import traced_peak


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
    lam_grid = default_lambda_grid(g)
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
    for lam_grid in (default_lambda_grid(g), np.linspace(-1.1 * top, 50.0, 301)):
        expect = per_point_sweep(lam_grid, m, w)
        assert np.array_equal(sweep(lam_grid, m, w).M_of_lambda, expect)


def test_stacked_sweep_raises_the_per_point_infeasibility():
    # the first infeasible eigenvalue in grid order raises, with the same
    # message, although the off-spectrum points are now solved after it
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.3), 0.05, "smooth")
    lam_grid = default_lambda_grid(g)
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
    m, lam_grid = feasible_m(w), default_lambda_grid(g)
    assert traced_peak(lambda: sweep(lam_grid, m, w)) <= 2.5e6
