"""Cubic NLS on the torus: split-step solver, damping, decay fitting,
and control of the nonlinear equation.

The equation is i u_t + Lap u + i chi^2 u = sigma |u|^2 u (the damping
term present only when a damping window is configured).  One Strang step
composes exact sub-flows:

    linear(dt/2) . damp(dt/2) . phase-rotation(dt) . damp(dt/2) . linear(dt/2)

where the nonlinear sub-flow is the exact pointwise rotation
u -> u * exp(-i*sigma*|u|^2*dt) and the damping sub-flow the pointwise
factor exp(-chi^2 * dt/2).  Without damping every sub-step is an
isometry, so mass is conserved to roundoff; energy drifts at O(dt^2).
`nls_step`, `evolve`, the damped legs of global control and the
controlled solve all run this one step, built once per (grid, dt, sigma,
damping, dealias); the controlled solve adds its source, integrated over
the step at the midpoint, after the nonlinear sub-flow.  A damped leg
stops at the first 10-step check with ||u|| at or below its threshold.

With damping the mass obeys d/dt ||u||^2 = -2 ||chi u||^2, checked
against the trapezoid integral of the recorded observed series.

Local exact control near zero follows the fixed-point construction
phi0 <- S^{-1}(rhs(u0) - nonlinear drift(phi0)), with S the Gramian of
the stepper's own midpoint source, assembled in closed form and
Cholesky-factored once: the linear part of the discrete stepper is then
inverted exactly, so at the fixed point the discrete final state
vanishes up to roundoff and the Picard tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import cho_solve

from .grid import FourierState, GridSpec, zero_state
from .hum import GramianSpec, _cholesky, check_dense_size, dense_gramian
from .windows import CutoffWindow


class PicardDivergenceError(RuntimeError):
    """The control fixed-point iteration expanded instead of contracting:
    the initial data is too large for the admissible ball."""


class StabilizationStallError(RuntimeError):
    """Damped evolution failed to reach the mass threshold within the
    horizon cap (decay rate below floor)."""


@dataclass(frozen=True)
class NLSParams:
    """Cubic NLS integration parameters."""

    sigma: int = -1
    dt: float = 1e-3
    damping: CutoffWindow | None = None
    dealias: bool = True

    def __post_init__(self):
        if self.sigma not in (-1, 0, 1):
            raise ValueError("sigma must be -1, 0 or +1 (0 disables the nonlinearity)")
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")


@dataclass
class DecayRecord:
    """Time series of mass, energy and observed mass under evolution."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if not (len(self.mass) == len(self.energy) == len(self.observed) == n):
            raise ValueError("record arrays must have equal length")


def _dealias_mask(grid: GridSpec) -> np.ndarray:
    """2/3-rule mask: keep |k| <= N/3 along each axis."""
    keep = np.abs(grid.mode_indices()) <= grid.modes_per_axis // 3
    return keep if grid.dim == 1 else keep[:, None] & keep


def energy(u: FourierState, sigma: int) -> float:
    """H^1 energy: sum_k (2 pi k)^2 |u_hat|^2 + (sigma/2) * int |u|^4."""
    grad = float(np.sum(-u.grid.laplacian_symbol() * np.abs(u.coeffs) ** 2))
    phys = u.physical()
    quartic = float(np.sum(np.abs(phys) ** 4)) / u.grid.n_points
    return grad + 0.5 * sigma * quartic


class _StrangStep:
    """The Strang step of `NLSParams` on one grid, with its half-step
    phases, damping factors and dealias mask computed once."""

    def __init__(self, grid: GridSpec, params: NLSParams):
        self.rotation = -params.sigma * params.dt
        self.half = np.exp(1j * grid.laplacian_symbol() * (params.dt / 2.0))
        self.damp = (None if params.damping is None
                     else np.exp(-params.damping.samples ** 2 * (params.dt / 2.0)))
        self.mask = _dealias_mask(grid) if params.dealias else None

    def __call__(self, c: np.ndarray, source: np.ndarray | None = None) -> np.ndarray:
        """Advance coefficients c by one step; `source` (Fourier space) is
        added after the nonlinear sub-flow."""
        c = c * self.half
        if self.damp is not None or self.rotation != 0.0:
            phys = np.fft.ifftn(c, norm="forward")
            if self.damp is not None:
                phys *= self.damp
            if self.rotation != 0.0:
                phys *= np.exp(1j * self.rotation * np.abs(phys) ** 2)
            if self.damp is not None:
                phys *= self.damp
            c = np.fft.fftn(phys, norm="forward")
        if self.mask is not None:
            c *= self.mask
        if source is not None:
            c += source
        c *= self.half
        return c


def nls_step(u: FourierState, params: NLSParams) -> FourierState:
    """One Strang split step of the (damped) cubic NLS."""
    return FourierState(u.grid, _StrangStep(u.grid, params)(u.coeffs))


def evolve(u0: FourierState, T: float, params: NLSParams,
           record_stride: int = 1) -> tuple[FourierState, DecayRecord]:
    """Evolve for time T, recording mass, energy and observed mass."""
    if not 0.0 < T < np.inf:
        raise ValueError("T must be positive and finite")
    n_steps = int(round(T / params.dt))
    if abs(n_steps * params.dt - T) > 1e-9 * max(T, 1.0):
        n_steps = int(np.ceil(T / params.dt))
    times, mass, en, obs = [], [], [], []

    def sample(t, u):
        times.append(t)
        mass.append(u.norm_l2() ** 2)
        en.append(energy(u, params.sigma))
        if params.damping is not None:
            phys = u.physical()
            obs.append(float(np.sum(params.damping.samples ** 2 * np.abs(phys) ** 2))
                       / u.grid.n_points)
        else:
            obs.append(0.0)

    step = _StrangStep(u0.grid, params)
    u = u0
    sample(0.0, u)
    c = u0.coeffs
    for i in range(n_steps):
        c = step(c)
        if (i + 1) % record_stride == 0 or i == n_steps - 1:
            u = FourierState(u0.grid, c)
            sample((i + 1) * params.dt, u)
    record = DecayRecord(times=np.array(times), mass=np.array(mass),
                         energy=np.array(en), observed=np.array(obs))
    return u, record


def fit_decay_rate(record: DecayRecord, tail_fraction: float = 0.5) -> float:
    """Exponential decay rate gamma from ||u(t)|| <= C e^{-gamma t}:
    least-squares slope of log(mass)/2 over the record's tail."""
    return _decay_rate(record.times, record.mass, tail_fraction)


def _decay_rate(times: np.ndarray, mass: np.ndarray, tail_fraction: float) -> float:
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must lie in (0, 1]")
    n = len(times)
    start = max(0, n - max(10, int(np.ceil(tail_fraction * n))))
    t, m = times[start:], mass[start:]
    if len(t) < 10:
        raise ValueError("need at least 10 samples in the tail window")
    if np.any(m <= 0.0):
        raise ValueError("non-positive mass in the tail window")
    slope = np.polyfit(t, np.log(m), 1)[0]
    return max(0.0, -slope / 2.0)


def mass_decay_residual(record: DecayRecord) -> float:
    """|Delta mass + 2 * trapz(observed)| for the damped mass identity."""
    integral = np.trapezoid(record.observed, record.times)
    return abs((record.mass[-1] - record.mass[0]) + 2.0 * integral)


def _controlled_forward(u0: FourierState, spec: GramianSpec, phi0: FourierState,
                        sigma: int, n_steps: int):
    """Integrate i u_t + Lap u = sigma|u|^2 u + chi^2 exp(i t Lap) phi0.

    Strang steps without dealiasing (the truncation mask acts linearly on
    the state, which would leak an amplitude-independent term into the
    drift and stall the Picard iteration), the source taken at each step's
    midpoint t_j and integrated over the step.  Returns the final state
    and the interaction-picture nonlinear drift, the discrete K phi0 of the
    fixed point: sum_j exp(-i Lap t_j) * (nonlinear increment of step j).
    """
    grid = spec.grid
    dt = spec.T / n_steps
    step = _StrangStep(grid, NLSParams(sigma=sigma, dt=dt, dealias=False))
    axes = tuple(range(1, grid.dim + 1))
    t_mid = (np.arange(n_steps) + 0.5) * dt
    # exp(i t_j Lap) for every midpoint, shape (n_steps, *grid.shape)
    phases = np.exp(1j * t_mid.reshape((-1,) + (1,) * grid.dim)
                    * grid.laplacian_symbol())
    sources = np.fft.ifftn(phases * phi0.coeffs, axes=axes, norm="forward")
    sources *= -1j * dt * spec.window.samples ** 2
    sources = np.fft.fftn(sources, axes=axes, norm="forward")

    c = u0.coeffs
    drift = np.zeros(grid.shape, dtype=complex)
    for j in range(n_steps):
        c_new = step(c, sources[j])
        drift += phases[j].conj() * (c_new / step.half - sources[j] - step.half * c)
        c = c_new
    return FourierState(grid, c), FourierState(grid, drift)


def local_control_nls(u0: FourierState, spec: GramianSpec, sigma: int = -1,
                      tol: float = 1e-8, max_iter: int = 30,
                      n_steps: int | None = None) -> tuple[FourierState, float, dict]:
    """Exact control of the cubic NLS to zero by Picard iteration.

    Iterates phi0 <- S^{-1}(-i*(u0 + drift(phi0))) where drift collects the
    interaction-picture nonlinear increments of the controlled forward
    solve.  S is the Gramian of the stepper's own midpoint source, in
    closed form (N x N, one column per transverse mode in 2D); it is
    Cholesky-factored once, and each iteration is one triangular solve.
    The linear problem thus closes exactly and the certified forward
    residual reduces to roundoff and the Picard tol.
    The controlled solve takes n_steps midpoint steps, max(256, 4N) by
    default.

    Returns (phi0, forward residual, history dict).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if u0.grid != spec.grid:
        raise ValueError("grid mismatch")
    if n_steps is None:
        n_steps = max(256, 4 * spec.grid.modes_per_axis)
    grid = spec.grid
    u0_norm = u0.norm_l2()
    history = {"update_norms": [], "contraction_ratios": [], "iterations": 0}
    if u0_norm == 0.0:
        return zero_state(grid), 0.0, history

    factor = _cholesky(dense_gramian(spec, n_steps), spec)
    phi0 = zero_state(grid)
    prev_update = None
    for it in range(1, max_iter + 1):
        _, drift = _controlled_forward(u0, spec, phi0, sigma, n_steps)
        rhs = -1j * (u0.coeffs + drift.coeffs).reshape(grid.modes_per_axis, -1)
        phi_new = FourierState(grid, cho_solve(factor, rhs).reshape(grid.shape))
        update = (phi_new - phi0).norm_l2()
        history["update_norms"].append(update)
        if prev_update is not None and prev_update > 0:
            ratio = update / prev_update
            history["contraction_ratios"].append(ratio)
            if ratio > 1.5 and update > 10.0 * tol * u0_norm:
                raise PicardDivergenceError(
                    f"iterates expanding (ratio {ratio:.3g}); initial data too "
                    f"large for the admissible ball"
                )
        phi0 = phi_new
        history["iterations"] = it
        if update <= tol * u0_norm:
            break
        prev_update = update
    else:
        raise PicardDivergenceError(
            f"no convergence in {max_iter} Picard iterations "
            f"(last update {history['update_norms'][-1]:.3e})"
        )
    final, _ = _controlled_forward(u0, spec, phi0, sigma, n_steps)
    residual = final.norm_l2()
    return phi0, residual, history


def admissible_amplitude(grid: GridSpec, spec: GramianSpec, sigma: int,
                         rng: np.random.Generator,
                         candidates=(0.4, 0.2, 0.1, 0.05),
                         tol: float = 1e-8) -> float:
    """Largest tested amplitude at which the control fixed point converges
    with a contracting iteration.  Measured, never assumed."""
    from .grid import random_state

    for amp in candidates:
        u0 = random_state(grid, rng, norm=amp, max_mode=grid.modes_per_axis // 4)
        try:
            _, _, hist = local_control_nls(u0, spec, sigma=sigma, tol=tol)
        except PicardDivergenceError:
            continue
        ratios = hist["contraction_ratios"]
        if not ratios or max(ratios) < 1.0:
            return amp
    raise PicardDivergenceError("no admissible amplitude among the candidates")


@dataclass
class ControlPhase:
    """One leg of a control schedule."""

    kind: str  # "damped" or "control"
    t_start: float
    t_end: float
    phi0: FourierState | None = None
    conjugate_reversed: bool = False


@dataclass
class ControlSchedule:
    phases: list[ControlPhase]
    endpoint_error_to_zero: float
    endpoint_error_to_target: float


def _stabilize_to_threshold(u0: FourierState, params: NLSParams, threshold: float,
                            gamma_floor: float = 1e-4) -> tuple[FourierState, float]:
    """Damped evolution under `params` until ||u|| <= threshold, checked
    every 10 steps; returns the state and the time of the first check at or
    below the threshold.  The decay rate is re-fit over each completed span
    of 10 time units; the leg stalls when it drops below `gamma_floor` or
    the time passes the horizon cap 50 / gamma."""
    stride = 10
    h = stride * params.dt
    span = int(np.ceil(10.0 / h - 1e-9))  # checks per 10-time-unit span
    step = _StrangStep(u0.grid, params)
    c = u0.coeffs
    norms = [np.linalg.norm(c)]
    checks = 0
    while norms[-1] > threshold:
        if len(norms) > span:
            gamma = _decay_rate(h * np.arange(len(norms)), np.square(norms), 0.9)
            if gamma < gamma_floor:
                raise StabilizationStallError(
                    f"decay rate {gamma:.3e} below floor {gamma_floor:.1e}")
            if checks * h > 50.0 / gamma:
                raise StabilizationStallError(
                    f"threshold {threshold} not reached within horizon cap "
                    f"50/gamma = {50.0 / gamma:.1f}")
            norms = norms[-1:]
        for _ in range(stride):
            c = step(c)
        checks += 1
        norms.append(np.linalg.norm(c))
    return FourierState(u0.grid, c), checks * h


def _drive_to_zero(u0: FourierState, spec: GramianSpec, params: NLSParams,
                   mass_threshold: float, tol: float):
    """Phases (1)+(2): damp under `params` below the threshold, then local
    control to zero."""
    phases, t, u = [], 0.0, u0
    if u.norm_l2() > mass_threshold:
        u, t = _stabilize_to_threshold(u, params, mass_threshold)
        phases.append(ControlPhase(kind="damped", t_start=0.0, t_end=t))
    phi0, residual, _ = local_control_nls(u, spec, sigma=params.sigma, tol=tol)
    phases.append(ControlPhase(kind="control", t_start=t, t_end=t + spec.T,
                               phi0=phi0))
    return phases, residual


def global_control(u0: FourierState, u1: FourierState, spec: GramianSpec,
                   params: NLSParams = NLSParams(), mass_threshold: float = 0.05,
                   tol: float = 1e-8) -> ControlSchedule:
    """Stabilize-then-control schedule steering u0 to u1.

    Leg A drives u0 to zero: a damped phase that stops at the first
    10-step check with ||u|| <= mass_threshold (an L2 norm, not a mass),
    then local control.  The damped phases run `params` (sigma, dt,
    dealias) with its damping replaced by spec.window; the control phases
    take its sigma.  Leg B drives conj(u1) to zero the same way; since
    v(t, x) = conj(u(T - t, x)) maps solutions of the cubic NLS to
    solutions of the same equation, that leg reversed and conjugated is a
    valid 0 -> u1 trajectory and is emitted as such.  Grids past
    check_dense_size raise DenseSizeError before any damped leg runs.
    """
    check_dense_size(spec.grid)
    params = replace(params, damping=spec.window)
    if u0.norm_l2() == 0.0 and u1.norm_l2() == 0.0:
        return ControlSchedule(phases=[], endpoint_error_to_zero=0.0,
                               endpoint_error_to_target=0.0)
    phases_a, err_a = ([], 0.0)
    if u0.norm_l2() > 0.0:
        phases_a, err_a = _drive_to_zero(u0, spec, params, mass_threshold, tol)
    phases_b, err_b = ([], 0.0)
    if u1.norm_l2() > 0.0:
        # pointwise complex conjugate in physical space
        conj_target = FourierState(u1.grid, np.fft.fftn(np.conj(np.fft.ifftn(u1.coeffs))))
        raw, err_b = _drive_to_zero(conj_target, spec, params, mass_threshold, tol)
        t_off = (phases_a[-1].t_end if phases_a else 0.0)
        total_b = raw[-1].t_end
        for ph in reversed(raw):
            phases_b.append(ControlPhase(
                kind=ph.kind,
                t_start=t_off + total_b - ph.t_end,
                t_end=t_off + total_b - ph.t_start,
                phi0=ph.phi0, conjugate_reversed=True,
            ))
    return ControlSchedule(phases=phases_a + phases_b,
                           endpoint_error_to_zero=err_a,
                           endpoint_error_to_target=err_b)
