"""Spatial cutoff windows: sharp indicators 1_omega and smooth chi_omega.

The smooth profile is built from the classical exp(-1/x) bump, so the
window is C-infinity: it equals 1 on the eroded core of omega, 0 outside
omega, and transitions monotonically over a band of the requested width
just inside each interval endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FourierState, GridSpec, state_from_physical

Interval = tuple[float, float]


def _bump_ramp(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class CutoffWindow:
    """Sampled cutoff chi_omega on the physical grid.

    samples lie in [0, 1]; for the sharp kind they are exactly 0 or 1.
    In 2D the window is a strip: omega acts on the first axis, and samples
    varying along the second are refused, so chi^2 acts as W_1d ⊗ I.
    """

    grid: GridSpec
    samples: np.ndarray
    omega: tuple[Interval, ...]
    transition_width: float
    kind: str = "smooth"

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != self.grid.shape:
            raise ValueError("samples shape does not match grid")
        if not np.all((s >= -1e-15) & (s <= 1.0 + 1e-15)):
            raise ValueError("window samples must lie in [0, 1]")
        if s.ndim == 2 and np.any(s != s[:, :1]):
            raise ValueError("2D window samples must be constant along axis 2 (a strip)")
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "omega", tuple(tuple(iv) for iv in self.omega))

    def coefficients(self, *modes, p: int = 2) -> np.ndarray:
        """Fourier coefficients (chi^p)^(m) at integer modes m: of the first-axis
        profile given one index array, of the whole window given one per axis
        (broadcast together).  Every mode-space reader takes them here alone,
        at true mode differences and sums k_a -+ k_b, k in -N/2 .. N/2 - 1.
        This body is the convention: chi^p sampled on the N-point grid,
        N^-d sum_j chi^p(x_j) exp(-2 pi i m.x_j), the FFT of the samples read
        at m mod N; N-periodic in m, so W_ab = c(k_a - k_b) is the aliased
        circulant, not the Galerkin truncation (ROADMAP item 1)."""
        n = self.grid.modes_per_axis
        samples = self.samples if len(modes) > 1 else self.samples.reshape(n, -1)[:, 0]
        c = np.fft.fftn(samples ** p) / samples.size
        return c[tuple(np.asarray(m) % n for m in modes)]


def _interval_profile(x: np.ndarray, a: float, b: float, width: float,
                      kind: str) -> np.ndarray:
    """Window profile of a single interval (a, b), evaluated with torus wrap."""
    length = b - a
    # Position within the interval, wrapped onto the torus.
    rel = np.mod(x - a, 1.0)
    inside = rel < length
    if kind == "sharp":
        return np.where(inside & (rel > 0.0), 1.0, 0.0)
    rise = _bump_ramp(rel / width)
    fall = _bump_ramp((length - rel) / width)
    return np.where(inside, np.minimum(rise, fall), 0.0)


def make_window(grid: GridSpec, omega, transition_width: float = 0.05,
                kind: str = "smooth") -> CutoffWindow:
    """Build a cutoff window for a union of intervals on the first axis.

    omega: a single (a, b) pair or a list of them, with 0 <= a < b <= 1.
    For the smooth kind the transition band of the given width sits just
    inside each endpoint, so samples == 1 on [a + width, b - width].
    """
    if kind not in ("sharp", "smooth"):
        raise ValueError(f"kind must be 'sharp' or 'smooth', got {kind!r}")
    if isinstance(omega, tuple) and len(omega) == 2 and np.isscalar(omega[0]):
        omega = [omega]
    omega = [tuple(map(float, iv)) for iv in omega]
    if not omega:
        raise ValueError("omega must be a nonempty union of intervals")
    total = 0.0
    for a, b in omega:
        if not (0.0 <= a < b <= 1.0):
            raise ValueError(f"invalid interval ({a}, {b})")
        total += b - a
    if total >= 1.0 and len(omega) > 1:
        raise ValueError("omega total length must be < 1")
    transition_width = float(transition_width)
    if not np.isfinite(transition_width):
        raise ValueError(f"transition_width must be finite, got {transition_width}")
    if kind == "smooth":
        if transition_width <= 0.0:
            raise ValueError("transition_width must be positive")
        shortest = min(b - a for a, b in omega)
        if transition_width >= shortest / 2.0:
            raise ValueError(
                f"transition_width {transition_width} leaves no plateau in an "
                f"interval of length {shortest}"
            )
    x = grid.points()
    prof = np.zeros_like(x)
    for a, b in omega:
        if (a, b) == (0.0, 1.0):
            prof = np.ones_like(x)
            break
        prof = np.maximum(prof, _interval_profile(x, a, b, transition_width, kind))
    if grid.dim == 2:
        prof = np.repeat(prof[:, None], grid.modes_per_axis, axis=1)
    return CutoffWindow(grid=grid, samples=prof, omega=tuple(omega),
                        transition_width=transition_width, kind=kind)


def full_window(grid: GridSpec) -> CutoffWindow:
    """The constant-one window (chi == 1 on the whole torus)."""
    return CutoffWindow(grid=grid, samples=np.ones(grid.shape), omega=((0.0, 1.0),),
                        transition_width=0.0, kind="sharp")


def multiply_window(u: FourierState, w: CutoffWindow) -> FourierState:
    """Pointwise product chi * u, computed in physical space."""
    if u.grid != w.grid:
        raise ValueError("grid mismatch between state and window")
    return state_from_physical(u.grid, u.physical() * w.samples)
