"""Property tests of the core identities (Hypothesis; profile in conftest)."""

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from torus_control import GramianSpec, NLSParams, make_grid, make_window, nls, tensor
from torus_control.grid import FourierState
from torus_control.hum import (GramianSingularError, _cholesky, _pair, _real_gramian,
                               _real_window_form, _solve, lambda_min_dense)
from torus_control.operators import commutator_operator_norm, free_propagate
from torus_control.resolvent import (InfeasibleResolventError, best_resolvent_constant,
                                     default_lambda_grid, feasible_m, sweep)
from torus_control.io import state_from_json, state_to_json
from torus_control.windows import CutoffWindow

from conftest import any_windows, even_n, horizons, on_mode_range, pair_form, seeds, windows
from oracles import (commutator_norm, dense_gramian, dense_gramian_2d, level_basis,
                     pair_columns, window_mode_matrix)

# real chi^2 samples of any sign on a 1D or 2D grid
real_samples = st.sampled_from([1, 2]).flatmap(
    lambda dim: even_n.flatmap(lambda n: arrays(
        float, (n,) * dim, elements=st.floats(-1e3, 1e3, allow_subnormal=False))))


@given(st.sampled_from([1, 2]).flatmap(windows), st.sampled_from([1, 2]), st.data())
def test_window_coefficients_are_the_sampled_sums(window, p, data):
    # (chi^p)^(m) = N^-d sum_j chi^p(x_j) exp(-2 pi i m.x_j), x_j = j/N, at
    # any integer m, the phase reduced exactly as (m.j mod N)/N; N-periodic
    # in m bit for bit; a strip's profile is its whole window at m_2 = 0
    n, dim = window.grid.modes_per_axis, window.grid.dim
    draw_modes = st.lists(st.integers(-3 * n, 3 * n), min_size=6, max_size=6)
    modes = [np.array(data.draw(draw_modes)) for _ in range(dim)]
    chi_p = window.samples ** p
    j = np.indices(window.grid.shape)
    direct = [np.sum(chi_p * np.exp(-2j * np.pi * (np.tensordot(m, j, 1) % n) / n)) / n ** dim
              for m in np.transpose(modes)]
    scale = np.sum(chi_p) / n ** dim  # the largest |coefficient|, at m = 0
    c = window.coefficients(*modes, p=p)
    assert np.all(np.abs(c - direct) <= 1e-13 * scale)
    shifts = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    shifted = [m + s * n for m, s in zip(modes, shifts)]
    assert np.array_equal(window.coefficients(*shifted, p=p), c)
    if dim == 2:
        profile = window.coefficients(modes[0], p=p)
        assert np.all(np.abs(profile - window.coefficients(modes[0], 0 * modes[0], p=p))
                      <= 1e-14 * scale)


@given(windows(2), horizons)
def test_strip_gramian_is_1d_factor_times_identity(window, T):
    spec = GramianSpec(T=T, window=window)
    s_2d = dense_gramian_2d(spec)
    n = window.grid.modes_per_axis
    kron = np.kron(dense_gramian(spec), np.eye(n))
    assert np.max(np.abs(kron - s_2d)) <= 1e-12 * np.max(np.abs(s_2d))


@given(windows(1), horizons)
def test_gramian_is_hermitian_psd(window, T):
    s = dense_gramian(GramianSpec(T=T, window=window))
    scale = np.max(np.abs(s))
    assert np.array_equal(s, s.conj().T)
    assert np.linalg.eigvalsh(s)[0] >= -1e-12 * scale


def aliased_window_matrix(c):
    """The complex window matrix W_ab = c(k_a - k_b) over all N**dim modes,
    the mode differences aliased per axis, in row-major FFT order."""
    n = c.shape[0]
    diff = np.subtract.outer(np.arange(n), np.arange(n)) % n
    if c.ndim == 1:
        return c[diff]
    return c[diff[:, None, :, None], diff[None, :, None, :]].reshape(n * n, n * n)


def pair_slots(n, q):
    """The row-major slots of the 2D modes (k_1, +-q): the transverse pair
    {q, -q}."""
    k2 = np.arange(n * n) % n
    return np.flatnonzero((k2 == q) | (k2 == -q % n))


@given(real_samples)
def test_real_window_form_has_the_spectrum_of_w(chi2):
    # the level basis is unitary and chi^2 is real, so the real form is W in
    # another basis, for any real samples; in 2D each transverse pair's form
    # is W compressed to the pair's modes
    c = np.fft.fftn(chi2) / chi2.size
    w = aliased_window_matrix(c)
    n = c.shape[0]
    if c.ndim == 1:
        pairs = [(_real_window_form(on_mode_range(c)), w)]
    else:
        pairs = [(pair_form(on_mode_range(c), q),
                  w[np.ix_(pair_slots(n, q), pair_slots(n, q))]) for q in range(n // 2 + 1)]
    for q, sub in pairs:
        assert q.dtype == np.float64 and q.shape == sub.shape
        err = np.max(np.abs(np.linalg.eigvalsh(q) - np.linalg.eigvalsh(sub)))
        assert err <= 1e-12 * np.max(np.abs(w))


def table_window(c):
    """A 1D window whose `coefficients` are the table c on the modes -N .. N
    (a `CutoffWindow` of zero samples, which no reader here uses)."""
    n = len(c) // 2

    class Table(CutoffWindow):
        def coefficients(self, *modes, p=2):
            return c[np.asarray(modes[0]) + n]

    return Table(make_grid(1, n), np.zeros(n), ((0.0, 0.5),), 0.0, "sharp")


@given(even_n, seeds)
def test_real_window_form_is_u_h_w_u_for_hermitian_coefficients(n, seed):
    # random Hermitian c(-m) = conj c(m) on -N .. N, not N-periodic, W from
    # `window_mode_matrix` and U from `level_basis`: U^H W U is real, and is
    # the form, off the level N/2, whose mode -N/2 has no partner +N/2 for
    # such coefficients; a product over N terms is good to N * eps * max|c|
    g = np.random.default_rng(seed).standard_normal((2, 2 * n + 1))
    c = g[0] + 1j * g[1]
    c = 0.5 * (c + np.conj(c[::-1]))
    u = level_basis(n)
    reference = u.conj().T @ window_mode_matrix(table_window(c)) @ u
    keep = np.ix_(*[np.arange(n) != n // 2] * 2)
    scale = 1e-14 * np.max(np.abs(c))
    assert np.max(np.abs(reference.imag[keep])) <= scale
    assert np.max(np.abs(_real_window_form(c) - reference.real)[keep]) <= scale


@given(real_samples, st.data())
def test_real_window_forms_are_the_dense_sub_blocks(chi2, data):
    # against Re(U^H W U), U of `level_basis`: the 1D form on any set of
    # its levels, and in 2D the form of any transverse pair, for samples of
    # any sign that need not be a strip's; W has |entries| <= max|w|, and
    # the dense products are good to about N**dim * eps of that
    c = np.fft.fftn(chi2) / chi2.size
    n, dim = c.shape[0], c.ndim
    w = aliased_window_matrix(c)
    u = level_basis(n, dim)
    dense = (u.conj().T @ w @ u).real
    if dim == 1:
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))
        form = _real_window_form(on_mode_range(c))[np.ix_(rows, rows)]
    else:
        q = data.draw(st.integers(0, n // 2))
        rows, form = pair_columns(n, q), pair_form(on_mode_range(c), q)
    assert np.max(np.abs(form - dense[np.ix_(rows, rows)])) <= 1e-12 * np.max(np.abs(w))


@given(windows(1), horizons)
def test_block_lambda_min_matches_the_whole_form(window, T):
    # the strip check's least lambda_min over the transverse pairs, read
    # before its floor, against one eigvalsh of the whole 2D Gramian
    n = window.grid.modes_per_axis
    strip = replace(window, grid=make_grid(2, n), samples=np.tile(window.samples[:, None], n))
    q = dense_gramian_2d(GramianSpec(T=T, window=strip))
    with mock.patch.object(tensor, "_floored_inverse", lambda lam, spec: lam), \
            mock.patch.object(tensor, "observability_constant", lambda spec: None):
        lam, _ = tensor.strip_observability_constant(GramianSpec(T=T, window=window))
    assert abs(lam - np.linalg.eigvalsh(q)[0]) <= 1e-12 * np.linalg.norm(q, 2)


@given(windows(2))
def test_strip_pairs_decouple_the_2d_form(window):
    # a strip's chi^2 vanishes off k_2 = 0 up to FFT rounding, so the 2D
    # real form, Re(U^H W U) in the basis of `level_basis`, couples a column
    # only to the columns of its own transverse pair {k_2, -k_2}, k_2 the
    # level of the column's second-axis factor
    n = window.grid.modes_per_axis
    k = window.grid.mode_indices()[np.indices((n, n)).reshape(2, -1).T]
    w = window.coefficients(*(np.subtract.outer(k[:, i], k[:, i]) for i in range(2)))
    u = level_basis(n, 2)
    q = (u.conj().T @ w @ u).real
    pair = np.tile(np.r_[:n // 2 + 1, 1:n // 2], n)
    across = np.not_equal.outer(pair, pair)
    assert np.max(np.abs(q[across])) <= 1e-15 * np.max(np.abs(q))


@given(st.sampled_from([1, 2]).flatmap(windows), horizons)
def test_centred_real_lambda_min_matches_the_phased_gramian(window, T):
    spec = GramianSpec(T=T, window=window)
    s = dense_gramian(spec)
    err = abs(lambda_min_dense(spec) - np.linalg.eigvalsh(s)[0])
    assert err <= 1e-12 * np.max(np.abs(s))


def random_columns(grid, seed):
    """Complex coefficients of shape (N, N**(dim-1)), one column per k_2."""
    n = grid.modes_per_axis
    g = np.random.default_rng(seed).standard_normal((2, n, n ** (grid.dim - 1)))
    return g[0] + 1j * g[1]


@given(any_windows, horizons, seeds)
def test_pair_round_trip_is_the_identity_and_keeps_the_norm(window, T, seed):
    spec = GramianSpec(T=T, window=window)
    v = random_columns(window.grid, seed)
    paired = _pair(spec, v)
    assert abs(np.linalg.norm(paired) - np.linalg.norm(v)) <= 1e-15 * np.linalg.norm(v)
    assert np.linalg.norm(_pair(spec, paired, back=True) - v) <= 1e-15 * np.linalg.norm(v)


@given(any_windows, horizons, seeds)
def test_paired_real_form_is_the_phased_gramian(window, T, seed):
    # S = P R P^H with P = `_pair` back on the unit vectors; a 2D strip's S
    # acts on each k_2 column, as the N^2 x N^2 Gramian does
    spec = GramianSpec(T=T, window=window)
    n = window.grid.modes_per_axis
    p = _pair(spec, np.eye(n, dtype=complex), back=True)
    r = _real_gramian(spec)
    s = dense_gramian(spec)
    assert r.dtype == np.float64
    scale = np.linalg.norm(s, 2)
    assert np.max(np.abs(p @ r @ p.conj().T - s)) <= 1e-13 * scale
    if window.grid.dim == 2:
        v = random_columns(window.grid, seed)
        by_column = _pair(spec, r @ _pair(spec, v), back=True)
        whole = dense_gramian_2d(spec) @ v.ravel()
        assert np.linalg.norm(by_column.ravel() - whole) <= 1e-13 * scale * np.linalg.norm(v)


@given(st.sampled_from([1, 2]).flatmap(lambda dim: windows(dim, min_length=0.5)),
       st.floats(0.5, 2.0), seeds)
def test_real_solve_is_the_complex_solve(window, T, seed):
    spec = GramianSpec(T=T, window=window)
    s = dense_gramian(spec)
    cond = np.linalg.cond(s)
    assume(cond < 1e6)
    b = random_columns(window.grid, seed)
    factor = _cholesky(_real_gramian(spec), spec)
    x = _pair(spec, _solve(factor, _pair(spec, b)), back=True)
    ref = np.linalg.solve(s, b)
    assert np.linalg.norm(x - ref) <= 1e-14 * cond * np.linalg.norm(ref)


# orders 1 .. 300, and on either side of the triangular inverse's base
# block (hum._TRIANGLE_BLOCK = 32) and of its first splits
orders = st.one_of(st.sampled_from([1, 2, 3, 31, 32, 33, 63, 64, 65, 129, 299, 300]),
                   st.integers(1, 300))


@given(orders, st.floats(0.0, 6.0), seeds)
def test_inverse_cholesky_factor_is_the_lu_inverse(n, log_cond, seed):
    # R = Q diag(lambda) Q^T, lambda from 1 down to 10^-log_cond: the
    # in-place inverse is lower triangular with exact zeros above the
    # diagonal and is inv(cholesky(R)) to roundoff; an indefinite R is
    # refused with the factorization's message
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.logspace(0.0, -log_cond, n)
    r = (q * lam) @ q.T
    r = 0.5 * (r + r.T)
    spec = GramianSpec(T=1.0, window=make_window(make_grid(1, 32), (0.0, 0.3)))
    factor = _cholesky(r, spec)
    assert np.all(np.triu(factor, 1) == 0.0)
    ref = np.linalg.inv(np.linalg.cholesky(r))
    assert np.linalg.norm(factor - ref) <= 1e-12 * np.linalg.norm(ref)
    lam[rng.integers(n)] = -0.5
    with pytest.raises(GramianSingularError, match=r"^Gramian not numerically positive "
                       r"definite at N=32 \(1D\), T=1.0: "):
        _cholesky((q * lam) @ q.T, spec)


@given(windows(1), horizons, st.floats(0.0, 2.0))
def test_observability_constant_nonincreasing_in_T(window, T, dT):
    # S_{T+dT} - S_T is the Gramian over [T, T + dT], positive semidefinite,
    # so lambda_min grows with T and C_T = 1 / lambda_min does not
    lam = lambda_min_dense(GramianSpec(T=T, window=window))
    lam_later = lambda_min_dense(GramianSpec(T=T + dT, window=window))
    scale = np.max(np.abs(window_mode_matrix(window)))
    assert lam_later >= lam - 1e-12 * (T + dT) * scale


@given(windows(1), horizons)
def test_lambda_min_below_eigenspace_bound(window, T):
    # mu_k = mu_-k, so S compressed onto span{e_k, e_-k} is T * B_k,
    # B_k = [[W_kk, W_k,-k], [W_-k,k, W_kk]]; Cauchy interlacing gives
    # lambda_min(S) <= T * min_k (W_kk - |W_k,-k|), W_kk alone at k = 0, N/2
    w = window_mode_matrix(window)
    n = len(w)
    k = np.arange(n // 2 + 1)
    pair_min = w[k, k].real - np.where(k == -k % n, 0.0, np.abs(w[k, -k]))
    lam = lambda_min_dense(GramianSpec(T=T, window=window))
    assert lam <= T * pair_min.min() + 1e-12 * T * np.max(np.abs(w))


@given(windows(1, sizes=st.sampled_from([8, 16, 32, 64])), st.floats(-1.0, 2.0),
       st.floats(0.0, 2.0))
def test_commutator_norm_is_the_svd_norm(window, r, s):
    # Lanczos has converged to the top singular value, not stalled below
    # it, and a second call gives the same bits
    norm = commutator_operator_norm(window.grid, r, s, window)
    ref = commutator_norm(window.grid, r, s, window)
    assert abs(norm - ref) <= 1e-12 * ref
    assert commutator_operator_norm(window.grid, r, s, window) == norm


@st.composite
def states(draw):
    grid = make_grid(draw(st.sampled_from([1, 2])), draw(even_n))
    parts = draw(arrays(float, (2,) + grid.shape,
                        elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    return FourierState(grid, parts[0] + 1j * parts[1])


@given(states())
def test_state_json_round_trip(u):
    back = state_from_json(json.loads(json.dumps(state_to_json(u))))
    assert back.grid == u.grid
    assert np.array_equal(back.coeffs, u.coeffs)


@given(st.sampled_from([1, 2]).flatmap(windows))
def test_window_samples_lie_in_unit_interval(window):
    assert np.all((window.samples >= 0.0) & (window.samples <= 1.0))


@given(states())
def test_plancherel(u):
    # ||u||^2 = sum_k |u_hat(k)|^2 = mean_j |u(x_j)|^2 on the grid
    physical = np.sum(np.abs(u.physical()) ** 2) / u.grid.n_points
    assert physical == pytest.approx(u.norm_l2() ** 2, rel=1e-12, abs=0.0)


@given(states(), st.floats(-10.0, 10.0))
def test_free_propagator_is_isometry(u, t):
    assert free_propagate(u, t).norm_l2() == pytest.approx(u.norm_l2(), rel=1e-12, abs=0.0)


@given(windows(1), st.floats(0.0, 4.0), st.integers(0, 5), st.floats(0.1, 0.9),
       st.integers(1, 11))
def test_resolvent_constant_invariant_under_translation_and_reflection(window, m, j, frac,
                                                                       shift):
    # chi^2(x - 1/N) conjugates W by diag(exp(-2 pi i k / N)) and chi^2(-x) by
    # the permutation k -> -k; both commute with Lap - lambda, so M(lambda)
    # is unchanged.  lambda sits in a spectral gap, a tenth of a mode away
    # from either eigenvalue, where ||g||_2 <= (1 + m) / dist(lambda, spec)^2.
    grid = window.grid
    lam = -(2.0 * np.pi * (j % (grid.modes_per_axis // 2) + frac)) ** 2
    tol = 1e-12 * (1.0 + m) / np.min(np.abs(grid.laplacian_symbol() - lam)) ** 2
    base = best_resolvent_constant(lam, m, window)
    for samples in (np.roll(window.samples, 1), np.roll(window.samples[::-1], 1)):
        moved = replace(window, samples=samples)
        assert abs(best_resolvent_constant(lam, m, moved) - base) <= tol
    # the same on a 64-point default grid, near-spectrum points included,
    # for a shift by `shift` grid steps and the reflection, at the feasible
    # m: each M(lambda) moves by about 1e-16 (1 + m) / d^2, d the least
    # |Lap - lambda| off the kernel, which near the spectrum is large next
    # to M(lambda) itself.  Every M(lambda) is held to 1e-13 (1 + m) / d^2,
    # and M_sup to that bound at its lambda
    try:
        m = feasible_m(window)
    except InfeasibleResolventError:
        return  # no m holds on the spectrum
    lams = default_lambda_grid(grid, 64)
    lap = grid.laplacian_symbol()
    d = np.abs(lap - lams[:, None])
    scale = np.maximum(np.abs(lams), max(-lap.min(), 1.0))  # as `sweep` takes it
    d = np.where(d > 1e-9 * scale[:, None], d, np.inf)
    bound = 1e-13 * (1.0 + m) / np.min(d, axis=1) ** 2
    base = sweep(lams, m, window)
    for samples in (np.roll(window.samples, shift), np.roll(window.samples[::-1], 1)):
        other = sweep(lams, m, replace(window, samples=samples))
        assert np.all(np.abs(other.M_of_lambda - base.M_of_lambda) <= bound)
        assert abs(other.M_sup - base.M_sup) <= bound[np.argmax(base.M_of_lambda)]


def three_sub_step_reference(c, params):
    """The Strang step with damp(dt/2), rotate(dt), damp(dt/2) applied one
    after the other on the physical grid."""
    grid = params.damping.grid
    half = np.exp(1j * grid.laplacian_symbol() * (params.dt / 2.0))
    damp = np.exp(-params.damping.samples ** 2 * (params.dt / 2.0))
    phys = np.fft.ifftn(c * half, norm="forward")
    phys *= damp
    phys *= np.exp(-1j * params.sigma * params.dt * np.abs(phys) ** 2)
    phys *= damp
    c = np.fft.fftn(phys, norm="forward")
    if params.dealias:
        c *= nls._dealias_mask(grid)
    return c * half


@given(st.sampled_from([1, 2]).flatmap(windows), st.floats(1e-4, 0.1),
       st.sampled_from([-1, 0, 1]), st.booleans(), st.data())
def test_fused_damping_matches_three_sub_steps(window, dt, sigma, dealias, data):
    # physical values of modulus <= 2: the rotation phase stays below 1
    grid = window.grid
    parts = data.draw(arrays(float, (2,) + grid.shape,
                             elements=st.floats(-1.4, 1.4, allow_subnormal=False)))
    c = np.fft.fftn(parts[0] + 1j * parts[1], norm="forward")
    params = NLSParams(sigma=sigma, dt=dt, damping=window, dealias=dealias)
    fused = nls._StrangStep(grid, params)(c)
    assert np.max(np.abs(fused - three_sub_step_reference(c, params))) <= 1e-14


def step_on_each_path(grid, params):
    """The Strang step of params built with dense DFT transforms and with
    FFTs, by moving the gate to either side of the grid's N."""
    steps = []
    for gate in (grid.modes_per_axis, grid.modes_per_axis - 1):
        with mock.patch.object(nls, "_DFT_MAX_N", gate):
            steps.append(nls._StrangStep(grid, params))
    return steps


# 1D grids below and above the dense-transform gate `nls._DFT_MAX_N`; each
# grid builds both paths
@pytest.mark.parametrize("dim,n", [(1, 32), (1, 96), (1, 192)])
@given(st.sampled_from([(), (1,), (2,), (3,)]), st.sampled_from([-1, 0, 1]),
       st.booleans(), st.booleans(), st.floats(1e-4, 0.1), st.integers(0, 2 ** 32 - 1))
def test_dense_and_fft_transforms_give_one_step(dim, n, batch, sigma, damped, dealias,
                                                dt, seed):
    grid = make_grid(dim, n)
    window = make_window(grid, (0.1, 0.5), 0.05, "smooth") if damped else None
    params = NLSParams(sigma=sigma, dt=dt, damping=window, dealias=dealias)
    rng = np.random.default_rng(seed)
    # physical values of modulus <= 2, as in the fused-damping test
    phys = rng.uniform(-1.4, 1.4, (2,) + batch + grid.shape)
    c = np.fft.fftn(phys[0] + 1j * phys[1], axes=range(-grid.dim, 0), norm="forward")
    dense, fft = step_on_each_path(grid, params)
    err = np.max(np.abs(dense(c) - fft(c)))
    assert err <= 1e-14 * np.max(np.abs(c))
