"""Observability transfer from T^1 to strips on T^2.

For a control region omega_1 x T the 2D flow decomposes along the second
axis: writing u0(x1, x2) = sum_k c_k(x1) e^{2 pi i k x2}, each slice
evolves under the 1D flow times a unimodular phase, and the windowed norm
is x2-independent, so the observability constant transfers exactly:
lambda_min(S_2d) = lambda_min(S_1d) at truncation.

The 2D constant is still computed from a genuinely 2D Gramian (the
exact-time dense Gramian on the 2D grid, whose block-circulant window
matrix couples all N^2 modes), so the identity is verified, not assumed.
The time quadrature survives only as the oracle in `hum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FourierState, make_grid
from .hum import GramianSpec, dense_gramian, observability_constant
from .windows import CutoffWindow


@dataclass(frozen=True)
class StripWindow:
    """A 1D window extended constantly along the second torus axis."""

    base: CutoffWindow

    def __post_init__(self):
        if self.base.grid.dim != 1:
            raise ValueError("StripWindow base must live on a 1D grid")

    def to_2d(self) -> CutoffWindow:
        n = self.base.grid.modes_per_axis
        grid2 = make_grid(2, n)
        samples = np.repeat(self.base.samples[:, None], n, axis=1)
        return CutoffWindow(grid=grid2, samples=samples, omega=self.base.omega,
                            transition_width=self.base.transition_width,
                            kind=self.base.kind)


def decompose_modes(u2d: FourierState) -> list[FourierState]:
    """Second-axis mode slices c_k of a 2D state (k in FFT order).

    Plancherel: sum_k ||c_k||^2 = ||u2d||^2.
    """
    if u2d.grid.dim != 2:
        raise ValueError("decompose_modes expects a 2D state")
    n = u2d.grid.modes_per_axis
    grid1 = make_grid(1, n)
    return [FourierState(grid1, u2d.coeffs[:, k].copy()) for k in range(n)]


def compose_modes(slices: list[FourierState]) -> FourierState:
    """Inverse of decompose_modes."""
    n = len(slices)
    grid2 = make_grid(2, n)
    coeffs = np.stack([s.coeffs for s in slices], axis=1)
    return FourierState(grid2, coeffs)


def strip_observability_constant(base_spec: GramianSpec) -> tuple[float, float]:
    """(C_2d, C_1d) for the strip omega_1 x T versus its 1D base window.

    Both come from exact-time dense Gramians, C_2d from the one on the 2D
    grid, and both go through the conditioning floor of
    `observability_constant`.  The contract is |C_2d - C_1d| / C_1d at
    roundoff (exact transfer at truncation).
    """
    if base_spec.grid.dim != 1:
        raise ValueError("base_spec must be a 1D Gramian spec")
    spec2d = GramianSpec(T=base_spec.T, window=StripWindow(base_spec.window).to_2d())
    return observability_constant(spec2d), observability_constant(base_spec)


def observed_energy_1d(spec: GramianSpec, c: FourierState) -> float:
    """int_0^T ||chi exp(i t Lap) c||^2 dt = <S c, c>, exact in time."""
    out = dense_gramian(spec) @ c.coeffs.ravel()
    return float(np.real(np.vdot(c.coeffs.ravel(), out)))
