"""Observability transfer from T^1 to strips on T^2.

For a control region omega_1 x T the 2D flow decomposes along the second
axis: writing u0(x1, x2) = sum_k c_k(x1) e^{2 pi i k x2}, each slice
evolves under the 1D flow times a unimodular phase, and the windowed norm
is x2-independent, so the observability constant transfers exactly:
lambda_min(S_2d) = lambda_min(S_1d) at truncation.  The production
Gramian in `hum` relies on this and is N x N in 2D too.

tensor-check verifies the identity on the genuinely 2D exact-time
Gramian over all N^2 modes, in a real form of `hum`'s kind, from the
whole strip's `coefficients` on (-N .. N)^2.  A strip's chi^2 vanishes
off k_2 = 0 (up to FFT rounding; `CutoffWindow` refuses 2D samples that
vary along the second axis), so the form couples a mode only to modes of
the same transverse pair {k_2, -k_2}: one real `eigvalsh` per pair, N/2 + 1
of them, of at most 2N modes each, in the real basis phi(x_1) psi(x_2),
phi over the first-axis levels of `hum._real_window_form` and psi the cos
and sin of 2 pi k_2 x_2 (`_transverse_form`).  No N^2 x N^2 matrix is
built.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .grid import FourierState, _check_same_grid, make_grid
from .hum import (GramianSpec, _check_entries, _floored_inverse, _pair, _real_gramian,
                  _real_window_form, _times, _times_kernel, observability_constant)


def decompose_modes(u2d: FourierState) -> list[FourierState]:
    """Second-axis mode slices c_k of a 2D state (k in FFT order).

    Plancherel: sum_k ||c_k||^2 = ||u2d||^2.
    """
    if u2d.grid.dim != 2:
        raise ValueError("decompose_modes expects a 2D state")
    grid1 = make_grid(1, u2d.grid.modes_per_axis)
    return [FourierState(grid1, column.copy()) for column in u2d.coeffs.T]


def compose_modes(slices: list[FourierState]) -> FourierState:
    """Inverse of decompose_modes."""
    return FourierState(make_grid(2, len(slices)),
                        np.stack([s.coeffs for s in slices], axis=1))


def _transverse_form(c: np.ndarray, q: int) -> np.ndarray:
    """The real form of chi^2 on the transverse pair {q, -q}, 0 <= q <= N/2,
    for c the whole window's coefficients on (-N .. N)^2, in the basis
    phi(x_1) psi(x_2): phi over the levels of `_real_window_form` (F) and
    psi the cos, then the sin, of 2 pi q x_2.  With c_0 = c(., 0),
    e = (c(., 2q) + c(., -2q))/2 and o = i (c(., 2q) - c(., -2q))/2, it is
    [[F(c_0 + e), F(o)], [F(o), F(c_0 - e)]], 2N x 2N; at q = 0 and N/2,
    where psi is e_q alone, F(c_0)."""
    n = len(c) // 2
    if q in (0, n // 2):
        return _real_window_form(c[:, n])
    up, down = c[:, n + 2 * q], c[:, n - 2 * q]
    even = 0.5 * (up + down)
    cos, cross, sin = _real_window_form(np.stack([c[:, n] + even, 0.5j * (up - down),
                                                  c[:, n] - even]))
    return np.block([[cos, cross], [cross, sin]])


def strip_observability_constant(base_spec: GramianSpec) -> tuple[float, float]:
    """(C_2d, C_1d) for the strip omega_1 x T versus its 1D base window.

    C_2d is the least lambda_min of the 2D real form over the transverse
    pairs {k_2, -k_2} (`_transverse_form`; NaN passes through), under the
    N^2 x N^2 size guard (N <= 44); C_1d comes from the 1D Gramian, and
    both go through the conditioning floor of `observability_constant`.
    The contract is |C_2d - C_1d| / C_1d at roundoff (exact transfer at
    truncation).  The time kernel is built once: the transverse share of
    mu_a - mu_b cancels within a pair, so each of a pair's N x N blocks
    takes that of the first-axis levels (`_times_kernel`).
    """
    if base_spec.grid.dim != 1:
        raise ValueError("base_spec must be a 1D Gramian spec")
    base = base_spec.window
    n = base.grid.modes_per_axis
    strip = replace(base, grid=make_grid(2, n), samples=np.tile(base.samples[:, None], n))
    spec2d = replace(base_spec, window=strip)
    grid = spec2d.grid
    _check_entries(grid, grid.n_points, "Gramian entries")
    kernel = _times_kernel(np.ones((n, n)), spec2d.T)
    kernels = {1: kernel, 2: np.tile(kernel, (2, 2))}
    m = np.arange(-n, n + 1)
    c = strip.coefficients(*np.ix_(m, m))
    lams = []
    for q in range(n // 2 + 1):
        block = _transverse_form(c, q)
        block *= kernels[len(block) // n]
        lams.append(np.linalg.eigvalsh(block)[0])
    return _floored_inverse(float(np.min(lams)), spec2d), observability_constant(base_spec)


def observed_energy_1d(spec: GramianSpec, c: FourierState) -> float:
    """int_0^T ||chi exp(i t Lap) c||^2 dt = <S c, c> = <R v, v>, exact in
    time, with v = P^H c in the paired basis of `hum._pair`, c on spec's grid."""
    _check_same_grid(spec, c)
    v = _pair(spec, c.coeffs.reshape(spec.grid.modes_per_axis, -1))
    return float(np.real(np.vdot(v, _times(_real_gramian(spec), v))))
