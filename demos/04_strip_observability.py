"""Observability from a vertical strip on the 2D torus.

A window of the form omega_1 x T couples the two axes only trivially:
slicing a 2D state along the second-axis Fourier modes block-diagonalizes
the control Gramian into copies of the 1D Gramian, one per transverse
mode.  So the 2D observability constant for the strip equals the 1D
constant of its base window -- observability transfers across dimension
at no cost.
"""

import numpy as np

from torus_control import (GramianSpec, decompose_modes, make_grid,
                           make_window, random_state,
                           strip_observability_constant)
from torus_control.tensor import compose_modes, observed_energy_1d

n = 8
g1 = make_grid(1, n)
base = make_window(g1, (0.0, 0.4), transition_width=0.08, kind="smooth")
spec1 = GramianSpec(T=1.0, window=base)

# ---- slicing is unitary -----------------------------------------------
g2 = make_grid(2, n)
u = random_state(g2, np.random.default_rng(5), norm=1.0)
slices = decompose_modes(u)
total = sum(s.norm_l2() ** 2 for s in slices)
back = compose_modes(slices)
print(f"Plancherel across slices: sum ||c_k||^2 = {total:.12f} "
      f"(state norm^2 = {u.norm_l2() ** 2:.12f})")
print(f"round trip error: {np.max(np.abs(back.coeffs - u.coeffs)):.2e}")

# each slice sees the same 1D observed energy operator
e_slices = sum(observed_energy_1d(spec1, s) for s in slices)
print(f"sum of per-slice 1D observed energies: {e_slices:.10f}")

# ---- the constants match ----------------------------------------------
c2d, c1d = strip_observability_constant(spec1)
print(f"\nC_T on the strip (2D, N = {n} per axis): {c2d:.10f}")
print(f"C_T for the base window (1D):            {c1d:.10f}")
print(f"relative gap: {abs(c2d - c1d) / c1d:.2e}")
