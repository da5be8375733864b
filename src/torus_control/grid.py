"""Fourier grids and states on the torus T^1 = R/Z and T^2.

Conventions
-----------
A function is represented by its Fourier coefficients u_hat(k) with

    u(x) = sum_k u_hat(k) exp(2*pi*i*k.x),   x in [0,1)^dim

Coefficients are stored in numpy FFT order (k = 0, 1, ..., N/2-1,
-N/2, ..., -1 along each axis).  With unit-measure torus the Plancherel
identity reads ||u||_L2^2 = sum_k |u_hat(k)|^2, equal to the physical
quadrature (1/N^dim) * sum_j |u(x_j)|^2 on the equispaced grid x_j = j/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Equispaced periodic grid with N Fourier modes per axis.

    Mode indices run over {-N/2, ..., N/2 - 1}; the set is symmetric
    around 0 except for the single Nyquist mode -N/2.
    """

    dim: int
    modes_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        n = self.modes_per_axis
        if n % 2 != 0 or n < 4:
            raise ValueError(f"modes_per_axis must be even and >= 4, got {n}")

    @property
    def shape(self):
        return (self.modes_per_axis,) * self.dim

    @property
    def n_points(self) -> int:
        return self.modes_per_axis ** self.dim

    def mode_indices(self) -> np.ndarray:
        """Integer mode indices along one axis, in FFT storage order."""
        n = self.modes_per_axis
        return np.fft.fftfreq(n, d=1.0 / n).astype(int)

    def points(self) -> np.ndarray:
        """Physical grid points along one axis: j/N for j = 0..N-1."""
        n = self.modes_per_axis
        return np.arange(n) / n

    def laplacian_symbol(self) -> np.ndarray:
        """Eigenvalues of the Laplacian, -(2*pi*k)^2, in FFT order.

        Shape (N,) in 1D, (N, N) in 2D.
        """
        k = self.mode_indices().astype(float)
        if self.dim == 1:
            return -((2.0 * np.pi * k) ** 2)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        return -((2.0 * np.pi) ** 2) * (k1 ** 2 + k2 ** 2)


def make_grid(dim: int, n: int) -> GridSpec:
    """Build a GridSpec; rejects odd or too-small N."""
    return GridSpec(dim=dim, modes_per_axis=n)


@dataclass(frozen=True)
class FourierState:
    """Complex mode coefficients of a function on the torus."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != self.grid.shape:
            raise ValueError(
                f"coeffs shape {c.shape} does not match grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "coeffs", c)

    def physical(self) -> np.ndarray:
        """Values u(x_j) on the physical grid."""
        return np.fft.ifftn(self.coeffs) * self.grid.n_points

    def norm_l2(self) -> float:
        """L2 norm via Plancherel."""
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "FourierState") -> "FourierState":
        _check_same_grid(self, other)
        return FourierState(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierState") -> "FourierState":
        _check_same_grid(self, other)
        return FourierState(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: complex) -> "FourierState":
        return FourierState(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(*objects):
    """Raise ValueError unless every object's `.grid` is the first's."""
    for other in objects[1:]:
        if other.grid != objects[0].grid:
            raise ValueError(f"grid mismatch: {objects[0].grid} vs {other.grid}")


def state_from_physical(grid: GridSpec, values: np.ndarray) -> FourierState:
    """Build a state from physical samples on the equispaced grid."""
    values = np.asarray(values, dtype=complex)
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
    return FourierState(grid, np.fft.fftn(values) / grid.n_points)


def zero_state(grid: GridSpec) -> FourierState:
    return FourierState(grid, np.zeros(grid.shape, dtype=complex))


def plane_wave(grid: GridSpec, k, amplitude: complex = 1.0) -> FourierState:
    """State amplitude * exp(2*pi*i*k.x) for an integer mode index k."""
    c = np.zeros(grid.shape, dtype=complex)
    if grid.dim == 1:
        c[int(k) % grid.modes_per_axis] = amplitude
    else:
        k1, k2 = k
        c[int(k1) % grid.modes_per_axis, int(k2) % grid.modes_per_axis] = amplitude
    return FourierState(grid, c)


def random_state(grid: GridSpec, rng: np.random.Generator, norm: float = 1.0,
                 max_mode: int | None = None) -> FourierState:
    """Random state with prescribed L2 norm.

    max_mode restricts the support to |k| <= max_mode along each axis.
    """
    c = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    if max_mode is not None:
        far = np.abs(grid.mode_indices()) > max_mode
        c[far] = 0.0  # along the first axis,
        c[..., far] = 0.0  # and along the last (the same one in 1D)
    u = FourierState(grid, c)
    current = u.norm_l2()
    if current == 0.0:
        raise ValueError("degenerate random draw with zero norm")
    return u * (norm / current)
