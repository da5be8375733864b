"""Observability transfer from T^1 to strips on T^2.

For a control region omega_1 x T the 2D flow decomposes along the second
axis: writing u0(x1, x2) = sum_k c_k(x1) e^{2 pi i k x2}, each slice
evolves under the 1D flow times a unimodular phase, and the windowed norm
is x2-independent, so the observability constant transfers exactly:
lambda_min(S_2d) = lambda_min(S_1d) at truncation.  The production
Gramian in `hum` relies on this and is N x N in 2D too.

tensor-check verifies the identity on the genuinely 2D exact-time
Gramian over all N^2 modes, in the real form of `hum` (each mode (k_1, k_2)
paired with (-k_1, -k_2)), from the whole strip's `coefficients` on
(-N .. N)^2.  A strip's chi^2 vanishes off k_2 = 0 (up to FFT
rounding; `CutoffWindow` refuses 2D samples that vary along the second
axis), so the form couples a slot only to slots of the same transverse
pair {k_2, -k_2}: one real `eigvalsh` per pair, N/2 + 1 of them, of at
most 2N modes each.  No N^2 x N^2 matrix is built.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .grid import FourierState, _check_same_grid, make_grid
from .hum import (GramianSpec, _check_entries, _floored_inverse, _pair, _real_gramian,
                  _real_window_blocks, _times, _times_kernel, observability_constant)


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


def strip_observability_constant(base_spec: GramianSpec) -> tuple[float, float]:
    """(C_2d, C_1d) for the strip omega_1 x T versus its 1D base window.

    C_2d is the least lambda_min of the 2D real form over the transverse
    pairs (the slots whose row-major index is k_2 or -k_2 mod N; NaN passes
    through), under the N^2 x N^2 size guard (N <= 44); C_1d comes from the
    1D Gramian, and both go through the conditioning floor of
    `observability_constant`.  The contract is |C_2d - C_1d| / C_1d at
    roundoff (exact transfer at truncation).  The time kernel is built once
    per pair size: the transverse share of mu_a - mu_b cancels within a
    pair, so it is that of the first-axis energies (`_times_kernel`), taken
    twice over in a pair of 2N slots.
    """
    if base_spec.grid.dim != 1:
        raise ValueError("base_spec must be a 1D Gramian spec")
    base = base_spec.window
    n = base.grid.modes_per_axis
    strip = replace(base, grid=make_grid(2, n), samples=np.tile(base.samples[:, None], n))
    spec2d = replace(base_spec, window=strip)
    grid = spec2d.grid
    _check_entries(grid, grid.n_points, "Gramian entries")
    pairs = [sorted({q, -q % n}) for q in range(n // 2 + 1)]
    slots = ((np.arange(n)[:, None] * n + k2).ravel() for k2 in pairs)
    # the time kernel of a pair of 1 or 2 transverse modes, built once
    kernels = {p: _times_kernel(np.ones((p * n, p * n)), n, spec2d.T) for p in (1, 2)}
    m = np.arange(-n, n + 1)
    lams = []
    for block in _real_window_blocks(strip.coefficients(*np.ix_(m, m)), slots):
        block *= kernels[len(block) // n]
        lams.append(np.linalg.eigvalsh(block)[0])
    return _floored_inverse(float(np.min(lams)), spec2d), observability_constant(base_spec)


def observed_energy_1d(spec: GramianSpec, c: FourierState) -> float:
    """int_0^T ||chi exp(i t Lap) c||^2 dt = <S c, c> = <R v, v>, exact in
    time, with v = P^H c in the paired basis of `hum._pair`, c on spec's grid."""
    _check_same_grid(spec, c)
    v = _pair(spec, c.coeffs.reshape(spec.grid.modes_per_axis, -1))
    return float(np.real(np.vdot(v, _times(_real_gramian(spec), v))))
