"""Observability and resolvent estimates imply each other, with
explicit constants in both directions.

Forward: an observability constant C_T at time T yields resolvent
constants (M, m) = (2 C_T T^3 / 3, 2 C_T T) valid for every frequency.
Reverse: a uniform-in-frequency resolvent estimate with constants
(M_sup, m) yields observability for every T > pi * sqrt(M_sup), at cost
C_T <= 2 m T / (T^2 - M_sup pi^2).
"""

import numpy as np

from torus_control import (GramianSpec, constants_from_observability,
                           default_lambda_grid, feasible_m, make_grid,
                           make_window, miller_cost_bound,
                           observability_constant, random_state, sweep,
                           verify_resolvent)

g = make_grid(1, 32)
w = make_window(g, (0.0, 0.25), transition_width=0.05, kind="smooth")

# ---- forward direction -------------------------------------------------
T = 1.0
c_t = observability_constant(GramianSpec(T=T, window=w))
M, m = constants_from_observability(c_t, T)
print(f"observability: C_T = {c_t:.4f} at T = {T}")
print(f"forward map:   M = {M:.4f}, m = {m:.4f}")

rng = np.random.default_rng(0)
bad = 0
for lam in np.linspace(-1.1 * (2 * np.pi * 16) ** 2, 50.0, 40):
    for _ in range(25):
        if not verify_resolvent(random_state(g, rng), lam, M, m, w)[2]:
            bad += 1
print(f"spot check: {bad} violations over 1000 state/frequency pairs")

# ---- reverse direction -------------------------------------------------
m_fixed = feasible_m(w)
result = sweep(default_lambda_grid(g, 512), m_fixed, w)
print(f"\nsweep: M(lambda) sup = {result.M_sup:.6f} at fixed m = {m_fixed:.2f}")
print(f"minimal control time from the estimate: pi*sqrt(M_sup) = "
      f"{result.miller_time:.4f}")

T_obs = 1.05 * result.miller_time
bound = miller_cost_bound(result.M_sup, m_fixed, T_obs)
c_obs = observability_constant(GramianSpec(T=T_obs, window=w))
print(f"just above it, T = {T_obs:.4f}:")
print(f"  predicted  C_T <= {bound:.2f}")
print(f"  computed   C_T  = {c_obs:.2f}")
