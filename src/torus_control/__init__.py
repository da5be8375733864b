"""Spectral laboratory for controllability and stabilization of the
linear and cubic Schrodinger equation on the torus; the package exports
what the demos and the acceptance gate use, all else stays in its module."""

from .grid import make_grid, random_state
from .windows import full_window, make_window
from .hum import (GramianSpec, drive_linear, observability_constant, solve_hum,
                  synthesize_control)
from .resolvent import (constants_from_observability, default_lambda_grid,
                        feasible_m, miller_cost_bound, sup_resolvent_constant, sweep,
                        verify_resolvent)
from .tensor import decompose_modes, strip_observability_constant
from .nls import (NLSParams, admissible_amplitude, evolve, fit_decay_rate,
                  global_control, local_control_nls, mass_decay_residual)

__version__ = "0.1.0"
