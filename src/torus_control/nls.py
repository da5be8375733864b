"""Cubic NLS on the torus: split-step solver, damping, decay fitting,
and control of the nonlinear equation.

The equation is i u_t + Lap u + i chi^2 u = sigma |u|^2 u (the damping
term present only when a damping window is configured).  One Strang step
composes exact sub-flows:

    linear(dt/2) . damp(dt/2) . phase-rotation(dt) . damp(dt/2) . linear(dt/2)

where the nonlinear sub-flow is the exact pointwise rotation
u -> u * exp(-i*sigma*|u|^2*dt) and the damping sub-flow the pointwise
factor exp(-chi^2 * dt/2).  The three middle sub-flows are applied as one
exact pointwise factor, u -> d2 * u * exp(-i*sigma*dt*d2*|u|^2) with
d2 = exp(-chi^2 * dt).  Without damping every sub-step is an isometry, so
mass is conserved to roundoff; energy drifts at O(dt^2).
`evolve`, the damped legs of global control and the controlled solve
all run this one step, built once per (grid, dt, sigma, damping,
dealias); the controlled solve adds its source, integrated over the step
at the midpoint, after the nonlinear sub-flow.  Between two sourceless
steps linear(dt/2) . linear(dt/2) = linear(dt), so a run of steps stays
on grid values: `evolve` between records and the damped legs between
their 10-step norm checks apply one propagator (both halves and the
dealias mask) between consecutive nonlinear sub-flows, and go back to
modes only at records and checks.  The step
transforms over the last grid.dim axes only, so coefficients of shape
(B, *grid.shape) advance B states at once: global control runs the
damped legs of u0 and conj(u1) as one batch, each member leaving it at
its first 10-step check with ||u|| at or below the threshold.  Its
transforms, modes to grid values, back, and across a step boundary, take
one of two paths fixed by the grid alone: on small grids (N <=
_DFT_MAX_N[dim] per axis) products with dense matrices per axis that also
carry the half-step phases, the dealias mask and 1/N, on larger grids
FFTs.

`evolve` holds the coefficients of its records in a buffer of 4096
coefficients (64 records at 1D N = 64, at least one record) and computes
their mass, energy and observed mass in bulk, with one batched inverse FFT;
`energy` is the one-record case of the same sampler.  With damping the
mass obeys d/dt ||u||^2 = -2 ||chi u||^2, checked against the trapezoid
integral of the recorded observed series.

Local exact control near zero follows the fixed-point construction
phi0 <- S^{-1}(rhs(u0) - nonlinear drift(phi0)), with S the Gramian of
the stepper's own midpoint source, assembled in closed form and
Cholesky-factored once (one factor serves both control legs of global
control): the linear part of the discrete stepper is then
inverted exactly, so at the fixed point the discrete final state
vanishes up to roundoff and the Picard tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import FourierState, GridSpec, random_state, zero_state
from .hum import (MAX_DENSE_POINTS, GramianSpec, _cholesky, _solve, check_dense_size,
                  dense_gramian)
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


# forward and inverse transforms over the last grid.dim axes, by dimension
_TRANSFORMS = {1: (np.fft.fft, np.fft.ifft), 2: (np.fft.fft2, np.fft.ifft2)}
# largest N per axis, by dimension, at which the Strang step transforms by
# products with dense matrices rather than FFTs.  On a ladder of fused
# 10-step runs and single steps (B = 1 and 2, damped, dealiased; 2-core
# x86_64) a dense run took 0.2-0.8 of the FFT run's time up to the gate, a
# single step at most 1.05 of it; above, single steps at B = 2 took 1.02-1.49
# times as long at 1D N = 128, and 1.19 at 2D N = 48
_DFT_MAX_N = {1: 96, 2: 40}
# coefficients `evolve` holds before sampling them in bulk
_RECORD_BUFFER_POINTS = 4096


def _sample(grid: GridSpec, coeffs: np.ndarray, sigma: int,
            damping: CutoffWindow | None = None) -> np.ndarray:
    """Mass, energy and observed mass ||chi u||^2 of a batch of states
    (coefficients of shape (B, *grid.shape)), as rows of a (3, B) array,
    from one batched inverse FFT."""
    axes = tuple(range(-grid.dim, 0))
    power = (coeffs * coeffs.conj()).real
    phys = _TRANSFORMS[grid.dim][1](coeffs, norm="forward")
    dens = (phys * phys.conj()).real
    out = np.zeros((3, len(coeffs)))
    out[0] = power.sum(axis=axes)
    out[1] = ((-grid.laplacian_symbol() * power).sum(axis=axes)
              + 0.5 * sigma * (dens ** 2).sum(axis=axes) / grid.n_points)
    if damping is not None:
        out[2] = (damping.samples ** 2 * dens).sum(axis=axes) / grid.n_points
    return out


def energy(u: FourierState, sigma: int) -> float:
    """H^1 energy: sum_k (2 pi k)^2 |u_hat|^2 + (sigma/2) * int |u|^4."""
    return float(_sample(u.grid, u.coeffs[None], sigma)[1, 0])


def _axis_half_and_tail(n: int, params: NLSParams) -> tuple[np.ndarray, np.ndarray]:
    """Along one axis of n modes: the half-step phase exp(i Lap dt/2) and,
    for after the nonlinear sub-flow, the same phase times the dealias mask
    when params.dealias."""
    axis = GridSpec(1, n)
    half = np.exp(1j * axis.laplacian_symbol() * (params.dt / 2.0))
    return half, (half * _dealias_mask(axis) if params.dealias else half)


def _fft_transforms(grid: GridSpec, half: np.ndarray, tail: np.ndarray):
    """Modes -> grid values (half-step phase first), grid values -> modes
    (tail / N^dim after) and grid values -> grid values across the boundary
    of two steps (tail / N^dim and the next half-step phase as one factor),
    by FFT over the last grid.dim axes."""
    fft, ifft = _TRANSFORMS[grid.dim]
    tail_nl = tail / grid.n_points
    across = tail_nl * half
    return ((lambda c: ifft(c * half, norm="forward")),
            (lambda phys: fft(phys) * tail_nl),
            (lambda phys: ifft(fft(phys) * across, norm="forward")))


def _dft_transforms(dim: int, half: np.ndarray, tail: np.ndarray):
    """The transforms of `_fft_transforms` as products with N x N
    matrices, given the per-axis phase `half` and `tail`:
    to_phys[k, j] = half_k e^{2 pi i jk/N}, to_modes[j, k] = e^{-2 pi i jk/N}
    tail_k / N, and across = to_modes @ to_phys, both halves of the linear
    flow between two nonlinear sub-flows in one matrix.  All three factors
    are separable, so in 2D each side of the coefficient array takes one
    matrix."""
    n = len(half)
    dft = np.exp(2j * np.pi / n * (np.outer(np.arange(n), np.arange(n)) % n))
    to_phys, to_modes = half[:, None] * dft, dft.conj() * (tail / n)
    # row by row, as vector-matrix products like the steps': a 1D run then
    # makes no matrix-matrix product, whose first call grows the BLAS
    # buffers (peak RSS +0.3 MB at 1D N = 64)
    across = (to_modes[:, None, :] @ to_phys)[:, 0, :]
    if dim == 1:
        # one vector-matrix product per state, so a batch rounds as its
        # members do alone (a (B, N) matrix product would not); grid values
        # keep a unit axis before the grid axis
        return ((lambda c: c[..., None, :] @ to_phys),
                (lambda phys: (phys @ to_modes)[..., 0, :]),
                (lambda phys: phys @ across))
    return ((lambda c: to_phys.T @ c @ to_phys),
            (lambda phys: to_modes.T @ phys @ to_modes),
            (lambda phys: across.T @ phys @ across))


class _StrangStep:
    """The Strang step of `NLSParams` on one grid, with its half-step
    phases, fused damping-rotation factors and dealias mask computed once.
    It acts on the last grid.dim axes, so coefficients of shape
    (B, *grid.shape) advance B states at once.

    `advance` runs n steps on grid values: it moves there once, and
    between two nonlinear sub-flows applies the linear flow that ends one
    step and begins the next, linear(dt/2) . linear(dt/2) with the dealias
    mask, as one propagator; it goes back to modes after the last step
    only.  The three transforms (to grid values, to modes, and across a
    step boundary) take one of two paths chosen here from the grid alone.
    Up to N = _DFT_MAX_N[dim] per axis they are products with dense N x N
    matrices that carry the half-step phases, the dealias mask and 1/N, so
    those cost nothing per step; in 2D both sides of the coefficient array
    take one matrix, since the phase and the mask are separable.  Above the
    gate they are FFTs.  At small N an `np.fft` call costs mostly its
    Python wrapper, while a dense product costs O(N^2) per axis and grows
    faster, so the gate sits where timed 10-step runs and single steps
    stop gaining (see `_DFT_MAX_N`).  The two paths give one step to about 2e-15 relative."""

    def __init__(self, grid: GridSpec, params: NLSParams):
        half, tail = _axis_half_and_tail(grid.modes_per_axis, params)
        # the phase and the mask are separable: in 2D, outer products
        self.half, self.tail = ((half, tail) if grid.dim == 1
                                else (np.outer(half, half), np.outer(tail, tail)))
        # damp(dt/2) . rotate(dt) . damp(dt/2) in one exact factor:
        # u -> d2 u exp(-i sigma dt d2 |u|^2), d2 = exp(-chi^2 dt), complex
        # so that the product with grid values casts nothing
        self.d2 = (None if params.damping is None
                   else np.exp(-params.damping.samples ** 2 * params.dt).astype(complex))
        rotation = -params.sigma * params.dt
        self.kick = (None if rotation == 0.0
                     else 1j * rotation * (1.0 if self.d2 is None else self.d2.real))
        transforms = (_dft_transforms(grid.dim, half, tail)
                      if grid.modes_per_axis <= _DFT_MAX_N[grid.dim]
                      else _fft_transforms(grid, self.half, self.tail))
        self.to_phys, self.to_modes, self.across = transforms

    def _nonlinear(self, phys: np.ndarray) -> None:
        """The fused damping-rotation sub-flow on grid values, in place."""
        if self.kick is not None:
            phys *= np.exp(self.kick * (phys * phys.conj()).real)
        if self.d2 is not None:
            phys *= self.d2

    def advance(self, c: np.ndarray, n: int) -> np.ndarray:
        """Advance coefficients c by n >= 0 steps; c itself is not written."""
        if n == 0:
            return c
        if self.d2 is None and self.kick is None:
            for _ in range(n):
                c = c * self.half
                c *= self.tail
            return c
        phys = self.to_phys(c)
        self._nonlinear(phys)
        for _ in range(n - 1):
            phys = self.across(phys)
            self._nonlinear(phys)
        return self.to_modes(phys)

    def __call__(self, c: np.ndarray, source: np.ndarray | None = None) -> np.ndarray:
        """Advance coefficients c by one step; `source` (Fourier space) is
        added after the nonlinear sub-flow and the dealias mask."""
        c = self.advance(c, 1)
        if source is not None:
            c += source * self.half
        return c


def evolve(u0: FourierState, T: float, params: NLSParams,
           record_stride: int = 1) -> tuple[FourierState, DecayRecord]:
    """Evolve for time T, recording mass, energy and observed mass every
    `record_stride` steps and at the final step; past MAX_DENSE_POINTS**2
    records it raises ValueError, before allocating."""
    if not 0.0 < T < np.inf:
        raise ValueError("T must be positive and finite")
    if int(record_stride) != record_stride or record_stride < 1:
        raise ValueError(f"record_stride must be a positive integer, got {record_stride!r}")
    steps = float(T) / float(params.dt)  # inf past the float range
    if steps / record_stride > MAX_DENSE_POINTS ** 2:
        raise ValueError(f"{steps:.3g} steps at stride {record_stride} exceed "
                         f"{MAX_DENSE_POINTS}**2 records")
    n_steps = int(round(steps))
    if abs(n_steps * params.dt - T) > 1e-9 * max(T, 1.0):
        n_steps = int(np.ceil(steps))
    rec_steps = np.arange(0, n_steps + 1, record_stride)
    if rec_steps[-1] != n_steps:
        rec_steps = np.append(rec_steps, n_steps)

    grid = u0.grid
    step = _StrangStep(grid, params)
    samples = np.empty((3, len(rec_steps)))
    n_buf = min(len(rec_steps), max(1, _RECORD_BUFFER_POINTS // grid.n_points))
    buf = np.empty((n_buf,) + grid.shape, dtype=complex)
    c, done = u0.coeffs, 0
    for start in range(0, len(rec_steps), len(buf)):
        chunk = rec_steps[start:start + len(buf)]
        for j, target in enumerate(chunk):
            c, done = step.advance(c, target - done), target
            buf[j] = c
        samples[:, start:start + len(chunk)] = _sample(
            grid, buf[:len(chunk)], params.sigma, params.damping)
    record = DecayRecord(times=rec_steps * params.dt, mass=samples[0],
                         energy=samples[1], observed=samples[2])
    return FourierState(grid, c), record


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
    Step j maps c_j to c_{j+1} = half * (half * c_j + increment_j + s_j),
    and exp(-i Lap t_j) = E_{j+1} * half = E_j / half with E_j =
    exp(-i Lap j dt), so E_{j+1} c_{j+1} = E_j c_j + exp(-i Lap t_j) *
    (increment_j + s_j) and the sum telescopes: the drift is E_n c_n - c_0
    - sum_j exp(-i Lap t_j) s_j, the last term linear in phi0 and summed
    in bulk after the steps.
    """
    grid = spec.grid
    dt = spec.T / n_steps
    step = _StrangStep(grid, NLSParams(sigma=sigma, dt=dt, dealias=False))
    axes = range(grid.dim, 0, -1)
    t_mid = (np.arange(n_steps) + 0.5) * dt
    # exp(i t_j Lap) for every midpoint, shape (n_steps, *grid.shape)
    phases = np.exp(1j * t_mid.reshape((-1,) + (1,) * grid.dim)
                    * grid.laplacian_symbol())
    # transformed one axis at a time, last first as fftn does, each input
    # freed as its output is made: three such tables at most are alive,
    # where fftn holds four
    sources = phases * phi0.coeffs
    for axis in axes:
        sources = np.fft.ifft(sources, axis=axis, norm="forward")
    sources *= -1j * dt * spec.window.samples ** 2
    for axis in axes:
        sources = np.fft.fft(sources, axis=axis, norm="forward")

    c = u0.coeffs
    for j in range(n_steps):
        c = step(c, sources[j])
    # sum_j exp(-i Lap t_j) s_j, in place over the phase table
    np.conjugate(phases, out=phases)
    phases *= sources
    pulled_back = np.exp(-1j * (n_steps * dt) * grid.laplacian_symbol()) * c
    drift = pulled_back - u0.coeffs - phases.sum(axis=0)
    return FourierState(grid, c), FourierState(grid, drift)


def _control_steps(grid: GridSpec) -> int:
    """Number of midpoint steps of the controlled solve."""
    return max(256, 4 * grid.modes_per_axis)


def _control_factor(spec: GramianSpec):
    """Inverse Cholesky factor of the controlled solve's midpoint Gramian."""
    return _cholesky(dense_gramian(spec, _control_steps(spec.grid)), spec)


def local_control_nls(u0: FourierState, spec: GramianSpec, sigma: int = -1,
                      tol: float = 1e-8) -> tuple[FourierState, float, dict]:
    """Exact control of the cubic NLS to zero by Picard iteration.

    Iterates phi0 <- S^{-1}(-i*(u0 + drift(phi0))) where drift collects the
    interaction-picture nonlinear increments of the controlled forward
    solve.  S is the Gramian of the stepper's own midpoint source, in
    closed form (N x N, one column per transverse mode in 2D); it is
    Cholesky-factored once, and each iteration costs two O(N^2) products
    with the inverse factor.
    The linear problem thus closes exactly and the certified forward
    residual reduces to roundoff and the Picard tol.
    The controlled solve takes max(256, 4N) midpoint steps, and the
    iteration at most 30 updates.

    Returns (phi0, forward residual, history dict).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if u0.grid != spec.grid:
        raise ValueError("grid mismatch")
    if u0.norm_l2() == 0.0:
        history = {"update_norms": [], "contraction_ratios": [], "iterations": 0}
        return zero_state(spec.grid), 0.0, history
    return _picard(u0, spec, _control_factor(spec), sigma, tol)


def _picard(u0: FourierState, spec: GramianSpec, factor, sigma: int,
            tol: float) -> tuple[FourierState, float, dict]:
    """The Picard iteration of `local_control_nls` on a nonzero u0, given
    the `_control_factor` of spec."""
    grid = spec.grid
    n_steps, max_iter = _control_steps(grid), 30
    u0_norm = u0.norm_l2()
    history = {"update_norms": [], "contraction_ratios": [], "iterations": 0}
    phi0 = zero_state(grid)
    prev_update = None
    for it in range(1, max_iter + 1):
        _, drift = _controlled_forward(u0, spec, phi0, sigma, n_steps)
        rhs = -1j * (u0.coeffs + drift.coeffs).reshape(grid.modes_per_axis, -1)
        phi_new = FourierState(grid, _solve(factor, rhs).reshape(grid.shape))
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
    return phi0, final.norm_l2(), history


def admissible_amplitude(grid: GridSpec, spec: GramianSpec, sigma: int,
                         rng: np.random.Generator) -> float:
    """Largest of the amplitudes 0.4, 0.2, 0.1, 0.05 at which the control
    fixed point (Picard tol 1e-8) converges with a contracting iteration.
    Measured, never assumed; the midpoint Gramian is factored once."""
    if grid != spec.grid:
        raise ValueError("grid mismatch")
    factor = _control_factor(spec)
    for amp in (0.4, 0.2, 0.1, 0.05):
        u0 = random_state(grid, rng, norm=amp, max_mode=grid.modes_per_axis // 4)
        try:
            _, _, hist = _picard(u0, spec, factor, sigma, 1e-8)
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


def _refit_span(dt: float) -> int:
    """Checks, 10 steps of dt apart, in each 10-time-unit span over which
    `_stabilize_to_threshold` re-fits a decay rate; at least the 10 samples
    a fit needs.  A span past MAX_DENSE_POINTS**2 checks (dt below about
    2.4e-7) raises ValueError."""
    checks = 10.0 / (10 * dt)
    if checks > MAX_DENSE_POINTS ** 2:
        raise ValueError(f"{checks:.3g} checks per decay fit exceed "
                         f"{MAX_DENSE_POINTS}**2")
    return max(10, int(np.ceil(checks - 1e-9)))


def _stabilize_to_threshold(states: list[FourierState], params: NLSParams,
                            threshold: float, gamma_floor: float = 1e-4
                            ) -> list[tuple[FourierState, float]]:
    """Damped evolution of a batch of states under `params` until each has
    ||u|| <= threshold, checked every 10 steps; returns, per state, the state
    and the time of its first check at or below the threshold.  A member
    leaves the batch at that check.  Each member's decay rate is re-fit over
    each completed span of 10 time units (`_refit_span`); its leg stalls
    when the rate drops below `gamma_floor` or the time passes the horizon
    cap 50 / gamma."""
    stride = 10
    h = stride * params.dt
    span = _refit_span(params.dt)
    grid = states[0].grid
    step = _StrangStep(grid, params)
    c = np.stack([u.coeffs for u in states])
    axes = tuple(range(1, c.ndim))  # the grid axes of each row
    norms = [[norm] for norm in np.linalg.norm(c, axis=axes)]
    active = list(range(len(states)))  # member index of each row of c
    results = [None] * len(states)
    checks = 0
    while True:
        keep = []
        for row, b in enumerate(active):
            if norms[b][-1] <= threshold:
                results[b] = (FourierState(grid, c[row].copy()), checks * h)
                continue
            keep.append(row)
            if len(norms[b]) > span:
                gamma = _decay_rate(h * np.arange(len(norms[b])),
                                    np.square(norms[b]), 0.9)
                if gamma < gamma_floor:
                    raise StabilizationStallError(
                        f"decay rate {gamma:.3e} below floor {gamma_floor:.1e}")
                if checks * h > 50.0 / gamma:
                    raise StabilizationStallError(
                        f"threshold {threshold} not reached within horizon cap "
                        f"50/gamma = {50.0 / gamma:.1f}")
                norms[b] = norms[b][-1:]
        if not keep:
            return results
        if len(keep) < len(active):
            c, active = c[keep], [active[row] for row in keep]
        c = step.advance(c, stride)
        checks += 1
        for b, norm in zip(active, np.linalg.norm(c, axis=axes)):
            norms[b].append(norm)


def _conjugate(u: FourierState) -> FourierState:
    """The pointwise complex conjugate of u, exactly in Fourier space:
    conj(u)^(k) = conj(u^(-k)), with -k taken mod N on every axis."""
    n = u.grid.modes_per_axis
    reverse = -np.arange(n) % n
    return FourierState(u.grid, u.coeffs[np.ix_(*(reverse,) * u.grid.dim)].conj())


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
    valid 0 -> u1 trajectory and is emitted as such.  The damped phases of
    both legs run as one batch, and both control phases share one factor
    of the midpoint Gramian.  Grids past check_dense_size raise
    DenseSizeError before any damped leg runs.
    """
    check_dense_size(spec.grid)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if u0.grid != spec.grid or u1.grid != spec.grid:
        raise ValueError("grid mismatch")
    params = replace(params, damping=spec.window)
    starts = []  # (leg start state, conjugate_reversed)
    if u0.norm_l2() > 0.0:
        starts.append((u0, False))
    if u1.norm_l2() > 0.0:
        starts.append((_conjugate(u1), True))
    if not starts:
        return ControlSchedule(phases=[], endpoint_error_to_zero=0.0,
                               endpoint_error_to_target=0.0)
    above = [u for u, _ in starts if u.norm_l2() > mass_threshold]
    damped = iter(_stabilize_to_threshold(above, params, mass_threshold) if above else [])
    factor = _control_factor(spec)

    phases, errors = [], {False: 0.0, True: 0.0}  # by conjugate_reversed
    for u, reverse in starts:
        leg, t = [], 0.0
        if u.norm_l2() > mass_threshold:
            u, t = next(damped)
            leg.append(ControlPhase(kind="damped", t_start=0.0, t_end=t))
        phi0, errors[reverse], _ = _picard(u, spec, factor, params.sigma, tol)
        leg.append(ControlPhase(kind="control", t_start=t, t_end=t + spec.T, phi0=phi0))
        if reverse:
            t_off, total = (phases[-1].t_end if phases else 0.0), leg[-1].t_end
            leg = [ControlPhase(kind=ph.kind, t_start=t_off + total - ph.t_end,
                                t_end=t_off + total - ph.t_start, phi0=ph.phi0,
                                conjugate_reversed=True)
                   for ph in reversed(leg)]
        phases += leg
    return ControlSchedule(phases=phases, endpoint_error_to_zero=errors[False],
                           endpoint_error_to_target=errors[True])
