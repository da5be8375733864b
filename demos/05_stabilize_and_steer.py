"""Damped cubic NLS: exponential decay, local exact control, and a
global stabilize-then-control schedule.

The damped equation i u_t + Lap u = sigma |u|^2 u - i chi^2 u dissipates
mass at a rate set by the observability of chi.  Once the state is small,
a Picard iteration around the linear HUM control steers it exactly to
zero; chaining one such leg forward and one time-reversed leg steers any
small state to any other.  In the global schedule each damped phase stops
at the first 10-step check with ||u|| <= mass_threshold, and the control
phases run with the same NLSParams.
"""

import numpy as np

from torus_control import (GramianSpec, NLSParams, evolve, fit_decay_rate,
                           global_control, local_control_nls, make_grid,
                           make_window, random_state)

g = make_grid(1, 32)
w = make_window(g, (0.0, 0.3), transition_width=0.05, kind="smooth")
rng = np.random.default_rng(7)

# ---- damped decay ------------------------------------------------------
u0 = random_state(g, rng, norm=1.0, max_mode=8)
params = NLSParams(sigma=1, dt=1e-3, damping=w, dealias=True)
uT, rec = evolve(u0, 20.0, params, record_stride=20)
gamma = fit_decay_rate(rec)
print(f"damped focusing NLS, T = 20: mass {rec.mass[0]:.4f} -> "
      f"{rec.mass[-1]:.3e}")
print(f"fitted exponential decay rate gamma = {gamma:.4f}")

# ---- local exact control ----------------------------------------------
spec = GramianSpec(T=1.0, window=w)
small = random_state(g, rng, norm=0.2, max_mode=8)
phi0, residual, hist = local_control_nls(small, spec, sigma=-1, tol=1e-9)
print(f"\nlocal control of a small state (||u0|| = {small.norm_l2():.3f}):")
print(f"  Picard iterations: {hist['iterations']}, "
      f"endpoint residual {residual:.2e}")
print(f"  contraction ratios: "
      + ", ".join(f"{r:.3f}" for r in hist["contraction_ratios"]))

# ---- global schedule ---------------------------------------------------
u_start = random_state(g, rng, norm=0.8, max_mode=8)
u_target = random_state(g, np.random.default_rng(99), norm=0.2, max_mode=8)
sched = global_control(u_start, u_target, spec, NLSParams(sigma=-1, dt=1e-3),
                       mass_threshold=0.05)
print(f"\nglobal schedule {u_start.norm_l2():.2f} -> target "
      f"{u_target.norm_l2():.2f}:")
for ph in sched.phases:
    tag = " (reversed/conjugated)" if ph.conjugate_reversed else ""
    print(f"  [{ph.t_start:7.2f}, {ph.t_end:7.2f}]  {ph.kind}{tag}")
print(f"endpoint error on the leg to zero:   {sched.endpoint_error_to_zero:.2e}")
print(f"endpoint error on the leg to target: {sched.endpoint_error_to_target:.2e}")
