"""Spectral laboratory for controllability and stabilization of the
linear and cubic Schrodinger equation on the torus."""

from .grid import (FourierState, GridSpec, make_grid, plane_wave, random_state,
                   state_from_physical, zero_state)
from .operators import (commutator_apply, commutator_operator_norm,
                        fractional_derivative, free_propagate, sobolev_norm)
from .windows import CutoffWindow, full_window, make_window, multiply_window
from .hum import (ControlSolution, GramianSpec, GramianSingularError,
                  HUMConvergenceError, apply_gramian, dense_gramian,
                  drive_linear, hum_regularity_ratio, observability_constant,
                  solve_hum, synthesize_control)
from .resolvent import (InfeasibleResolventError, ResolventSweepResult,
                        best_resolvent_constant, constants_from_observability,
                        default_lambda_grid, feasible_m, miller_cost_bound,
                        sweep, verify_resolvent, wave_resolvent_check)
from .tensor import decompose_modes, strip_observability_constant
from .nls import (DecayRecord, NLSParams, PicardDivergenceError,
                  StabilizationStallError, admissible_amplitude, energy,
                  evolve, fit_decay_rate, global_control, local_control_nls,
                  mass_decay_residual, nls_step)

__version__ = "0.1.0"
