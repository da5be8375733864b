"""Gramian assembly, observability constants, control synthesis."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from torus_control import (GramianSpec, drive_linear, full_window, global_control,
                           local_control_nls, make_grid, make_window,
                           observability_constant, random_state, solve_hum,
                           synthesize_control)
from torus_control import hum
from torus_control.grid import FourierState, zero_state
from torus_control.hum import (MAX_DENSE_POINTS, DenseSizeError,
                               GramianSingularError, HUMConvergenceError,
                               _centred_kernel, _floored_inverse, _real_gramian,
                               _real_window_form, check_dense_size,
                               hum_regularity_ratio, lambda_min_dense,
                               lambda_min_iterative, quadrature_gramian,
                               quadrature_nodes, resolved_n_quad)
from torus_control.operators import free_propagate
from torus_control.resolvent import feasible_m
from torus_control.tensor import _transverse_form, strip_observability_constant
from torus_control.windows import CutoffWindow

from conftest import on_mode_range, pair_form, traced_peak
from oracles import (dense_gramian, dense_gramian_2d, level_basis, pair_columns,
                     window_mode_matrix)


@pytest.fixture
def small_setup():
    g = make_grid(1, 32)
    w = make_window(g, (0.0, 0.25), 0.05, "smooth")
    return g, w, GramianSpec(T=1.0, window=w)


def test_quadrature_nodes_rules():
    # a node count rounds up to whole panels of 20 nodes
    t, wts = quadrature_nodes(2.0, 16)
    assert len(t) == 20 and np.all((t > 0) & (t < 2.0))
    assert np.sum(wts) == pytest.approx(2.0)
    t, wts = quadrature_nodes(2.0, 41)
    assert len(t) == len(wts) == 60 and np.all(np.diff(t) > 0)
    assert np.sum(wts) == pytest.approx(2.0)
    with pytest.raises(ValueError, match="n_quad"):
        quadrature_nodes(2.0, 0)


@pytest.mark.parametrize("dim,n,T", [(1, 32, 1.0), (1, 64, 1.0), (1, 64, 0.3),
                                     (2, 8, 1.0), (2, 22, 1.0)])
def test_resolved_nodes_integrate_every_mode_pair_frequency(dim, n, T):
    # the resolved panels integrate exp(i d t) over [0, T] at every phase
    # difference d = mu_a - mu_b of the grid to roundoff, and 1D N = 64 and
    # 2D N = 22 at T = 1 fit under the oracle's phase table cap.  The rule's
    # own error is below 4e-17 T (`resolved_n_quad`); rounding a node t
    # turns its phase by about eps d t, which averages down over the nodes:
    # 1e-17 d T^2 allows for it (3.3e-14 measured at 1D N = 64, T = 1)
    g = make_grid(dim, n)
    t, wts = quadrature_nodes(T, resolved_n_quad(g, T))
    assert len(t) * g.n_points <= MAX_DENSE_POINTS ** 2
    lam = np.unique(-g.laplacian_symbol())
    d = np.unique(np.subtract.outer(lam, lam))
    d = d[d > 0]
    for part in np.array_split(d, -(-len(d) // 16)):  # 16 x nodes at a time
        exact = (np.exp(1j * part * T) - 1.0) / (1j * part)
        ruled = np.exp(1j * np.outer(part, t)) @ wts
        assert np.all(np.abs(ruled - exact) <= 1e-14 * T + 1e-17 * part * T ** 2)


def test_gramian_spec_validation(small_setup):
    _, w, spec = small_setup
    with pytest.raises(ValueError):
        GramianSpec(T=0.0, window=w)
    with pytest.raises(ValueError):
        quadrature_gramian(spec, n_quad=0)


@pytest.mark.parametrize("T", [float("nan"), float("inf")])
def test_gramian_spec_rejects_non_finite_horizon(small_setup, T):
    _, w, _ = small_setup
    with pytest.raises(ValueError, match="finite"):
        GramianSpec(T=T, window=w)


def test_full_window_gramian_is_t_times_identity():
    g = make_grid(1, 32)
    spec = GramianSpec(T=0.7, window=full_window(g))
    s = dense_gramian(spec)
    assert np.allclose(s, 0.7 * np.eye(32), atol=1e-12)


def window_matrix(c, modes):
    """W_ab = c(k_a - k_b) over the given modes (one row per mode), the
    differences aliased per axis: W from its definition."""
    n = c.shape[0]
    diff = (modes[:, None, :] - modes[None, :, :]) % n
    return c[tuple(np.moveaxis(diff, -1, 0))]


@pytest.mark.parametrize("dim,n", [(1, 6), (1, 8), (2, 4), (2, 6)])
def test_real_window_form_is_the_paired_basis_form(dim, n):
    # U from `level_basis`, W from its definition; in 2D every transverse
    # pair's block, for samples that are not a strip's
    samples = np.random.default_rng(n).random((n,) * dim)
    c = np.fft.fftn(samples ** 2) / samples.size
    modes = np.indices((n,) * dim).reshape(dim, -1).T
    u = level_basis(n, dim)
    reference = u.conj().T @ window_matrix(c, modes) @ u
    # |c| <= 1: a product over n**dim terms is good to about n**dim * eps
    assert np.max(np.abs(reference.imag)) <= 1e-14
    if dim == 1:
        blocks = [(_real_window_form(on_mode_range(c)), np.arange(n))]
    else:
        blocks = [(pair_form(on_mode_range(c), q), pair_columns(n, q))
                  for q in range(n // 2 + 1)]
    for q, columns in blocks:
        assert np.array_equal(q, q.T)
        assert np.max(np.abs(q - reference.real[np.ix_(columns, columns)])) <= 1e-14


class IndicatorCoefficients(CutoffWindow):
    """A sharp window on one interval (a, b) whose `coefficients` are those
    of the indicator itself (any p: chi^p = chi),
    (exp(-2 pi i m a) - exp(-2 pi i m b)) / (2 pi i m) and b - a at m = 0,
    and zero off m_2 = 0 on a strip: not N-periodic, so a reader that
    passes slot indices or wraps a mode index reads another value."""

    def coefficients(self, *modes, p=2):
        ((a, b),) = self.omega
        m = np.asarray(modes[0], dtype=float)
        safe = 2j * np.pi * np.where(m == 0, 1.0, m)
        c = np.where(m == 0, b - a, (np.exp(-safe * a) - np.exp(-safe * b)) / safe)
        return c if len(modes) == 1 else np.where(np.asarray(modes[1]) == 0, c, 0.0)


class RampCoefficients(CutoffWindow):
    """`coefficients` 1 at m = 0 and |m| / (10 N) elsewhere."""

    def coefficients(self, *modes, p=2):
        m = np.abs(np.asarray(modes[0]))
        return np.where(m == 0, 1.0, m / (10.0 * self.grid.modes_per_axis)) + 0j


def paired_form(w, dim):
    """Re(U^H W U) over the N**dim modes, U of `level_basis` and W_ab the
    window's coefficients at the true mode differences k_a - k_b, and which
    columns of U have no component on a mode with a component -N/2."""
    n = w.grid.modes_per_axis
    u = level_basis(n, dim)
    k = w.grid.mode_indices()[np.indices((n,) * dim).reshape(dim, -1).T]
    w_ab = w.coefficients(*(np.subtract.outer(k[:, i], k[:, i]) for i in range(dim)))
    nyquist = np.any(k == -(n // 2), axis=1)
    return (u.conj().T @ w_ab @ u).real, ~np.any(u[nyquist] != 0, axis=0)


@pytest.mark.parametrize("n", [8, 12])
def test_every_reader_takes_the_window_coefficients_at_true_modes(monkeypatch, n):
    # coefficients that are not N-periodic: a reader that passes slot
    # indices, or wraps a mode index, reads other values.  The mode -N/2
    # has no partner +N/2 among the N modes, so U^H W U is real only for
    # N-periodic coefficients: the real forms are compared off the levels
    # whose column has a component on -N/2
    grid = make_grid(1, n)
    sharp = make_window(grid, (0.1, 0.45), kind="sharp")
    w = IndicatorCoefficients(grid, sharp.samples, sharp.omega, 0.0, "sharp")
    c, k = w.coefficients, grid.mode_indices()
    assert np.array_equal(window_mode_matrix(w), c(np.subtract.outer(k, k)))
    # feasible_m: W_kk = c(0), W_k,-k = c(2k); |c| grows with |m| here, so
    # the least eigenvalue is at the largest 2k, which a wrapped read misses
    ramp = RampCoefficients(grid, sharp.samples, sharp.omega, 0.0, "sharp")
    half = np.arange(n // 2 + 1)
    paired = (half > 0) & (half < n // 2)
    lam = 1.0 - np.where(paired, np.abs(ramp.coefficients(2 * half)), 0.0)
    assert feasible_m(ramp) == 2.0 * float(np.max(1.0 / lam))

    def close(q, ref, keep):  # |c| <= 0.35 and the kernel <= T = 1
        assert np.all(np.abs(q - ref)[np.ix_(keep, keep)] <= 1e-14)

    spec = GramianSpec(T=1.0, window=w)
    form, keep = paired_form(w, 1)
    levels = np.r_[:n // 2 + 1, 1:n // 2]
    close(_real_gramian(spec), form * _centred_kernel((2.0 * np.pi * levels) ** 2, 1.0),
          keep)
    # the strip check's blocks as built, before its kernel multiplies them
    seen = []

    def recording(coeffs, q):
        block = _transverse_form(coeffs, q)
        seen.append((q, block.copy()))
        return block

    monkeypatch.setattr("torus_control.tensor._transverse_form", recording)
    strip_observability_constant(spec)
    form, keep = paired_form(w, 2)
    assert [q for q, _ in seen] == list(range(1, n // 2))
    for q, block in seen:
        columns = pair_columns(n, q)
        close(block, form[np.ix_(columns, columns)], keep[columns])


@pytest.mark.parametrize("n", [32, 96, 256])
@pytest.mark.parametrize("T", [1.0, 1e-3, 0.37])
def test_centred_kernel_has_the_bits_of_sinc(n, T):
    # the in-place kernel replays np.sinc step by step: T sinc(d T / 2 / pi)
    # bit for bit on the level energies, and on energies with repeats
    for mu in (hum._level_energies(n), np.repeat(hum._level_energies(8), 2)):
        x = np.subtract.outer(mu, mu) * (T / 2.0)
        assert _centred_kernel(mu, T).tobytes() == (T * np.sinc(x / np.pi)).tobytes()


@pytest.mark.parametrize("n", [10, 14, 20])
def test_strip_blocks_ignore_fft_rounding(n):
    # for N with a prime factor above 3 the FFT leaves about 1e-17 off
    # k_2 = 0; those coefficients are rounding, not coupling, so the
    # transverse pairs give the lambda_min of the whole 2D Gramian
    profile = np.random.default_rng(n).random(n)
    strip = CutoffWindow(make_grid(2, n), np.tile(profile[:, None], n), ((0.0, 1.0),), 0.0)
    m = np.arange(-n, n + 1)
    c = strip.coefficients(m[:, None], m[None, :])
    assert np.count_nonzero(c[:, m != 0]) > 0
    whole = dense_gramian_2d(GramianSpec(T=1.0, window=strip))
    window = CutoffWindow(make_grid(1, n), profile, ((0.0, 1.0),), 0.0)
    c_2d, _ = strip_observability_constant(GramianSpec(T=1.0, window=window))
    assert c_2d == pytest.approx(1.0 / np.linalg.eigvalsh(whole)[0], rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_lambda_min_and_strip_check_run_real_eigensolves(monkeypatch, dim):
    # the eigensolves take float64 matrices of order N (lambda_min, in 1D
    # and 2D alike), and 2N (the strip check: one per transverse pair
    # {k_2, -k_2}, 0 < k_2 < N/2, then C_1d's of order N): a fall-back to
    # the complex Gramian changes the dtype, a fall-back to the whole 2D
    # form the order
    eigvalsh, calls = np.linalg.eigvalsh, []

    def recorder(a, *args, **kwargs):
        calls.append((a.dtype, a.shape))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorder)
    n = 8
    window = make_window(make_grid(dim, n), (0.0, 0.4), 0.05, "smooth")
    observability_constant(GramianSpec(T=1.0, window=window))
    assert calls == [(np.float64, (n, n))]
    if dim == 1:
        calls.clear()
        strip_observability_constant(GramianSpec(T=1.0, window=window))
        assert calls == [(np.float64, (m, m)) for m in [2 * n] * (n // 2 - 1) + [n]]


def test_dense_gramian_hermitian_psd(small_setup):
    _, _, spec = small_setup
    s = dense_gramian(spec)
    assert np.allclose(s, s.conj().T)
    eigs = np.linalg.eigvalsh(s)
    assert eigs.min() > 0.0


def test_quadrature_gramian_converges_to_exact(small_setup):
    # with no node count the oracle takes resolved_n_quad nodes
    _, _, spec = small_setup
    s_quad = quadrature_gramian(spec)
    s_exact = dense_gramian(spec)
    assert np.max(np.abs(s_quad - s_exact)) < 1e-10 * np.max(np.abs(s_exact))


def test_window_mode_matrix_is_convolution(small_setup):
    g, w, _ = small_setup
    mat = window_mode_matrix(w)
    u = random_state(g, np.random.default_rng(1))
    direct = np.fft.fft(w.samples ** 2 * u.physical()) / g.n_points
    assert np.allclose(mat @ u.coeffs, direct)


def test_window_mode_matrix_2d_is_convolution():
    # on a strip the N x N first-axis W, applied to every transverse mode
    # (column k2) alike, is the full 2D product chi^2 u
    g = make_grid(2, 8)
    w = make_window(g, (0.1, 0.6), 0.05, "smooth")
    u = random_state(g, np.random.default_rng(7))
    direct = np.fft.fftn(w.samples ** 2 * u.physical()) / g.n_points
    assert window_mode_matrix(w).shape == (8, 8)
    assert np.allclose(window_mode_matrix(w) @ u.coeffs, direct)


@pytest.mark.parametrize("dim,n", [(1, 4), (1, 6), (1, 32), (1, 256), (2, 4), (2, 16)])
def test_window_mode_matrix_is_the_gathered_circulant(dim, n):
    # the strided view's copy holds the same values as the gather through
    # the N x N index table c[(a - b) % N], bit for bit
    w = make_window(make_grid(dim, n), (0.1, 0.6), 0.05, "smooth")
    c = w.coefficients(np.arange(n))
    gathered = c[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    assert np.array_equal(window_mode_matrix(w), gathered)


def test_eigensolve_memory_is_bounded():
    # lambda_min holds the real form R (0.5 MB at N = 256) and eigvalsh's
    # workspace, about 1.75 MB in all; the strip check at N = 32 holds one
    # transverse pair (2N x 2N) at a time, about 0.37 MB
    w = make_window(make_grid(1, 256), (0.0, 0.25), 0.05, "smooth")
    assert traced_peak(lambda: lambda_min_dense(GramianSpec(T=1.0, window=w))) <= 2.0e6
    w = make_window(make_grid(1, 32), (0.0, 0.25), 0.05, "smooth")
    spec = GramianSpec(T=1.0, window=w)
    assert traced_peak(lambda: strip_observability_constant(spec)) <= 0.45e6


def test_dense_size_guard():
    # refused before any n_points x n_points allocation
    # (2**20 modes: an n x n array could not be allocated at all)
    huge = GramianSpec(T=1.0, window=full_window(make_grid(1, 2 ** 20)))
    with pytest.raises(ValueError, match="2048"):
        _real_gramian(huge)
    # the oracle refuses its node-by-mode phase table before allocating it
    # (N = 256 at T = 1 resolves with about 4e5 nodes)
    wide = GramianSpec(T=1.0, window=full_window(make_grid(1, 256)))
    with pytest.raises(DenseSizeError, match="phases"):
        lambda_min_iterative(wide)
    with pytest.raises(ValueError):
        observability_constant(GramianSpec(T=1.0, window=full_window(make_grid(2, 162))))
    check_dense_size(make_grid(1, MAX_DENSE_POINTS))
    check_dense_size(make_grid(2, 160))


def test_lambda_min_dense_vs_iterative(small_setup):
    _, _, spec = small_setup
    dense = lambda_min_dense(spec)
    iterative = lambda_min_iterative(spec)
    assert iterative == pytest.approx(dense, rel=1e-8)


def test_lambda_min_iterative_is_reproducible():
    # a dense eigensolve of the oracle's own matrix: no start vector, and
    # repeated calls agree bit for bit
    g = make_grid(1, 16)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.25), 0.05, "smooth"))
    assert lambda_min_iterative(spec) == lambda_min_iterative(spec)


def test_quadrature_oracles_load_no_scipy():
    # the oracle's nodes and its eigensolve run on numpy alone
    code = "\n".join([
        "import sys",
        "from torus_control import GramianSpec, make_grid, make_window",
        "from torus_control.hum import lambda_min_iterative, quadrature_gramian",
        "w = make_window(make_grid(1, 16), (0.0, 0.3), 0.05, 'smooth')",
        "spec = GramianSpec(T=1.0, window=w)",
        "assert quadrature_gramian(spec).shape == (16, 16)",
        "assert lambda_min_iterative(spec) > 0.0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(hum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_observability_constant_methods_agree(small_setup):
    _, _, spec = small_setup
    c_dense = observability_constant(spec)
    c_iter = 1.0 / lambda_min_iterative(spec)
    assert c_iter == pytest.approx(c_dense, rel=1e-8)
    assert c_dense > 1.0  # partial observation costs more than the full torus


def test_observability_constant_full_window_is_inverse_t():
    g = make_grid(1, 32)
    spec = GramianSpec(T=0.5, window=full_window(g))
    assert observability_constant(spec) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("dim,n,omega", [(1, 32, (0.0, 0.25)), (2, 8, (0.0, 0.4))])
def test_lambda_min_iterative_applies_the_gramian_once_per_mode(monkeypatch, dim, n,
                                                                omega):
    # the oracle's own matrix: the quadrature operator applied to each of
    # the N**dim basis vectors once, and no inner solve
    g = make_grid(dim, n)
    spec = GramianSpec(T=1.0, window=make_window(g, omega, 0.05, "smooth"))
    inner, columns = hum._GramianApplier.apply_batch, []

    def counting(self, batch, chunk=256):
        columns.append(len(batch))
        return inner(self, batch, chunk)

    monkeypatch.setattr(hum._GramianApplier, "apply_batch", counting)
    lam = lambda_min_iterative(spec)
    assert columns == [g.n_points]
    assert lam == pytest.approx(lambda_min_dense(spec), rel=1e-8)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_dense_solves_match_scipy_reference(n):
    # numpy.linalg against the scipy calls the production path used before:
    # the subset eigensolve for lambda_min, and a closed loop at roundoff
    from scipy.linalg import eigh

    g = make_grid(1, n)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.2), 0.05, "smooth"))
    ref = eigh(dense_gramian(spec), eigvals_only=True, subset_by_index=[0, 0])[0]
    assert lambda_min_dense(spec) == pytest.approx(ref, rel=1e-12)
    u0 = random_state(g, np.random.default_rng(n))
    assert solve_hum(spec, u0).residual_l2 <= 1e-12 * u0.norm_l2()


def test_singular_gramian_raises():
    g = make_grid(1, 32)
    # sharp window containing no grid point: chi == 0 identically
    w = make_window(g, (0.41, 0.42), kind="sharp")
    assert w.samples.sum() == 0.0
    spec = GramianSpec(T=1.0, window=w)
    with pytest.raises(GramianSingularError):
        observability_constant(spec)


def test_solve_hum_certified_closed_loop(small_setup):
    g, w, _ = small_setup
    spec = GramianSpec(T=1.0, window=w)
    u0 = random_state(g, np.random.default_rng(2))
    sol = solve_hum(spec, u0, tol=1e-9)
    record, final_norm = drive_linear(u0, spec, sol.phi0)
    assert final_norm <= 1e-7 * u0.norm_l2()
    assert sol.residual_l2 <= 1e-7 * u0.norm_l2()
    assert record.times[0] == 0.0
    assert record.times[-1] == pytest.approx(1.0)
    assert record.mass[0] == pytest.approx(u0.norm_l2() ** 2)
    # the direct solve still enforces its residual bound
    with pytest.raises(HUMConvergenceError):
        solve_hum(spec, u0, tol=1e-20)


def test_solve_hum_exact_against_quadrature_oracle(small_setup):
    # the control leaves u(T) at roundoff when the Duhamel integral is
    # evaluated by the independent, resolved time quadrature
    g, _, spec = small_setup
    oracle = quadrature_gramian(spec)
    for seed in range(3):
        u0 = random_state(g, np.random.default_rng(10 + seed))
        sol = solve_hum(spec, u0, tol=1e-9)
        assert sol.iterations == 0
        final = u0.coeffs - 1j * (oracle @ sol.phi0.coeffs)
        assert np.linalg.norm(final) <= 1e-10 * u0.norm_l2()


def test_drive_linear_is_exact_in_time(monkeypatch):
    # 1D N = 32 and 128 take the whole trajectory in one and in 4 time
    # blocks; 2D N = 16 sums over the k_2 columns, all at once and in
    # chunks of 5, 5, 5 and 1 columns
    for dim, n, chunk in ((1, 32, 1), (1, 64, 1), (1, 128, 1), (2, 16, 16), (2, 16, 5)):
        monkeypatch.setattr(hum, "_LEVEL_BLOCK", chunk * n * (n // 2 + 1))
        g = make_grid(dim, n)
        w = make_window(g, (0.0, 0.25), 0.05, "smooth")
        rng = np.random.default_rng(11)
        u0, phi0 = random_state(g, rng), random_state(g, rng)
        record, final_norm = drive_linear(u0, GramianSpec(T=1.0, window=w), phi0)
        # max(32, 4N) uniform samples on [0, T], endpoints included
        assert np.array_equal(record.times, np.linspace(0.0, 1.0, max(32, 4 * n)))
        assert final_norm == np.sqrt(record.mass[-1])
        # u(t) = exp(i t Lap)(u0 - i S(t) phi0), S(t) the Gramian over [0, t]
        for j in (0, 1, len(record.times) // 2, len(record.times) - 1):
            t = record.times[j]
            v = u0.coeffs.copy()
            if t > 0:
                v -= 1j * (dense_gramian(GramianSpec(T=t, window=w)) @ phi0.coeffs)
            assert record.mass[j] == pytest.approx(np.sum(np.abs(v) ** 2), rel=1e-12)
            phys = free_propagate(FourierState(g, v), t).physical()
            expect = np.mean(w.samples ** 2 * np.abs(phys) ** 2)
            assert record.observed_mass[j] == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 24)])
def test_drive_linear_blocks_match_one_block(monkeypatch, dim, n):
    # time blocks of 2^14 state entries (1D N = 128: 4 blocks of 128 times;
    # 2D N = 24: 28, 28, 28 and 12 times) give the samples of the whole
    # trajectory in one block, and of the smallest blocks (4 times), bit
    # for bit
    g = make_grid(dim, n)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.25), 0.05, "smooth"))
    rng = np.random.default_rng(13)
    u0, phi0 = random_state(g, rng), random_state(g, rng)
    blocked, final = drive_linear(u0, spec, phi0)
    for entries in (1, 1 << 30):
        monkeypatch.setattr(hum, "_SAMPLE_BLOCK", entries)
        other, other_final = drive_linear(u0, spec, phi0)
        assert np.array_equal(blocked.mass, other.mass)
        assert np.array_equal(blocked.observed_mass, other.observed_mass)
        assert final == other_final


def test_drive_linear_memory_is_bounded():
    # one time block at a time and the N x (N/2 + 1) level sums: 1.2 MB at
    # N = 128 and 1.6 MB at N = 256 (the whole trajectory held 4.2 MB at
    # N = 128, and the N x N matrix A 2.1 MB at N = 256).  In 2D at N = 64
    # the level sums of 15 k_2 columns at a time: 1.8 MB (of all 64, 4.6 MB)
    for dim, n in ((1, 128), (1, 256), (2, 64)):
        g = make_grid(dim, n)
        spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.25), 0.05, "smooth"))
        rng = np.random.default_rng(14)
        u0, phi0 = random_state(g, rng), random_state(g, rng)
        assert traced_peak(lambda: drive_linear(u0, spec, phi0)) <= 2.5e6


def test_solve_hum_memory_is_bounded():
    # the real form R and its Cholesky factor, inverted in place (0.5 MB
    # each at N = 256), and the block products' temporaries: 1.3 MB.  LU's
    # inverse held 1.6 MB, and a block inverse that builds each level in
    # new arrays 2.6 MB
    g = make_grid(1, 256)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.25), 0.05, "smooth"))
    u0 = random_state(g, np.random.default_rng(14))
    assert traced_peak(lambda: solve_hum(spec, u0)) <= 1.6e6


def test_solve_hum_singular_gramian_raises():
    g = make_grid(1, 32)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.41, 0.42), kind="sharp"))
    with pytest.raises(GramianSingularError):
        solve_hum(spec, random_state(g, np.random.default_rng(12)))


def test_solve_hum_nan_gramian_raises(small_setup):
    # at T = 1e305 the time kernel overflows to NaN entries, the Cholesky
    # factor comes back NaN without raising, and so does the residual
    _, w, _ = small_setup
    spec = GramianSpec(T=1e305, window=w)
    with np.errstate(all="ignore"), pytest.raises(HUMConvergenceError, match="nan"):
        solve_hum(spec, random_state(w.grid, np.random.default_rng(12)))
    with pytest.raises(GramianSingularError, match="nan"):
        _floored_inverse(np.nan, spec)


def test_solve_hum_zero_target(small_setup):
    g, _, spec = small_setup
    sol = solve_hum(spec, zero_state(g))
    assert sol.phi0.norm_l2() == 0.0


def test_synthesize_control_is_observed_free_flow(small_setup):
    g, w, spec = small_setup
    phi0 = random_state(g, np.random.default_rng(4))
    t = 0.4
    ctrl = synthesize_control(spec, phi0, t)
    expect = w.samples ** 2 * free_propagate(phi0, t).physical()
    assert np.allclose(ctrl.physical(), expect)
    with pytest.raises(ValueError):
        synthesize_control(spec, phi0, 1.5)


def test_regularity_ratio_statistics(small_setup):
    _, _, spec = small_setup
    out = hum_regularity_ratio(spec, s=1.0, n_samples=10,
                               rng=np.random.default_rng(5))
    assert out["max"] >= out["mean"] > 0.0
    assert len(out["ratios"]) == 10
    # an integral float runs as its int
    again = hum_regularity_ratio(spec, s=1.0, n_samples=10.0,
                                 rng=np.random.default_rng(5))
    assert again["n_samples"] == 10 and type(again["n_samples"]) is int
    assert np.array_equal(again["ratios"], out["ratios"])
    with pytest.raises(ValueError):
        hum_regularity_ratio(spec, s=-1.0, n_samples=2,
                             rng=np.random.default_rng(6))


@pytest.mark.parametrize("call,name", [
    pytest.param(lambda spec, u: solve_hum(spec, u, tol=np.nan), "tol", id="solve-tol-nan"),
    pytest.param(lambda spec, u: solve_hum(spec, u, tol=np.inf), "tol", id="solve-tol-inf"),
    pytest.param(lambda spec, u: solve_hum(spec, u, tol=0.0), "tol", id="solve-tol-0"),
    pytest.param(lambda spec, u: local_control_nls(u, spec, tol=np.nan), "tol",
                 id="local-tol-nan"),
    pytest.param(lambda spec, u: local_control_nls(u, spec, tol=np.inf), "tol",
                 id="local-tol-inf"),
    pytest.param(lambda spec, u: global_control(u, u, spec, tol=np.nan), "tol",
                 id="global-tol-nan"),
    pytest.param(lambda spec, u: global_control(u, u, spec, tol=np.inf), "tol",
                 id="global-tol-inf"),
    *[pytest.param(lambda spec, u, s=s: hum_regularity_ratio(
        spec, s, 2, np.random.default_rng(0)), "s", id=f"regularity-s-{s}")
      for s in (np.nan, np.inf, -1.0)],
    *[pytest.param(lambda spec, u, n=n: hum_regularity_ratio(
        spec, 1.0, n, np.random.default_rng(0)), "n_samples", id=f"regularity-n-{n}")
      for n in (0, 2.5, np.nan, np.inf)],
])
def test_library_rejects_invalid_arguments(small_setup, call, name):
    # an input error, raised before any numerical work, naming its argument
    g, _, spec = small_setup
    u = random_state(g, np.random.default_rng(0), norm=0.05, max_mode=8)
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(spec, u)


def test_resolved_n_quad_scales_with_bandwidth():
    g32, g64 = make_grid(1, 32), make_grid(1, 64)
    assert resolved_n_quad(g64, 1.0) > 3 * resolved_n_quad(g32, 1.0)
    assert resolved_n_quad(g32, 2.0) > 1.5 * resolved_n_quad(g32, 1.0)


def test_oracle_explicit_node_count_past_phase_ceiling():
    # at N = 128, T = 1 the resolved default (about 1e5 nodes) exceeds the
    # oracle's phase table, and an explicit node count still runs
    g = make_grid(1, 128)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.3), 0.05, "smooth"))
    with pytest.raises(DenseSizeError, match="phases"):
        quadrature_gramian(spec)
    # 512 Gauss-Legendre nodes resolve the frequencies of the modes |k| <= 4
    low = np.ix_(*[np.abs(g.mode_indices()) <= 4] * 2)
    oracle = quadrature_gramian(spec, n_quad=512)[low]
    closed = dense_gramian(spec)[low]
    assert np.linalg.norm(closed - oracle) <= 1e-12 * np.linalg.norm(oracle)
