"""Cubic NLS on the torus: split-step solver, damping, decay fitting,
and control of the nonlinear equation.

The equation is i u_t + Lap u + i chi^2 u = sigma |u|^2 u (the damping
term present only when a damping window is configured).  One Strang step
composes exact sub-flows:

    linear(dt/2) . damp(dt/2) . phase-rotation(dt) . damp(dt/2) . linear(dt/2)

where the nonlinear sub-flow is the exact pointwise rotation
u -> u * exp(-i*sigma*|u|^2*dt) and the damping sub-flow the pointwise
factor exp(-chi^2 * dt/2).  The three middle sub-flows are applied as one
exact pointwise factor, u -> u * exp(-chi^2 dt + i kappa |u|^2) with
kappa = -sigma dt exp(-chi^2 dt).  Without damping every sub-step is an
isometry, so mass is conserved to roundoff; energy drifts at O(dt^2).
`evolve`, the damped legs of global control and the controlled solve all
run this one step through one loop, `_StrangStep.run`, on grid values:
since linear(dt/2) . linear(dt/2) = linear(dt), one propagator joins
consecutive nonlinear sub-flows, and the loop allocates nothing per step.
`evolve` goes back to modes in batched transforms at its records; the
damped legs stay on grid values too, taking a copy to modes at each
10-step norm check, so a leg stopped at a check holds exactly the state of
`evolve` after as many steps; the controlled solve hands `run` its
control source, added before each propagator.
Coefficients of shape (B, *grid.shape) advance B states at once: global
control runs the damped legs of u0 and conj(u1) as one batch, each
member leaving it at its first 10-step check with ||u|| at or below the
threshold.

`evolve` holds the grid values of its records in a buffer of 4096 values
(64 records at 1D N = 64), and takes a full buffer to modes and samples
its mass, energy and observed mass in bulk; `energy` is the one-record
case of the same sampler.  A record, or a damped leg's norm check, that
is not finite raises NonFiniteStateError.  With damping the mass obeys
d/dt ||u||^2 = -2 ||chi u||^2, checked against the trapezoid integral of
the recorded observed series.

Local exact control near zero is a fixed point around the linear HUM
control: phi0 <- phi0 - i S^{-1} exp(-i T Lap) u_phi0(T), with u_phi0(T)
the final state of the controlled solve and S the exact-time Gramian of
`solve_hum`.  Each step of the controlled solve adds the exact increment
of the source (an integrating-factor step), built from S's real form at
T = dt, and these sum to S, so the linear part of the discrete stepper is
inverted exactly for every dt (at sigma = 0 phi0 is the HUM control).  A
control run (both legs of global control, every candidate of
`admissible_amplitude`) factors S and builds its tables once.  Control takes its grid from the Gramian spec alone, and
refuses a state on another grid (`grid._check_same_grid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .grid import FourierState, GridSpec, _check_same_grid, random_state, zero_state
from .hum import (MAX_DENSE_POINTS, GramianSpec, _check_tol, _cholesky, _mode_energies,
                  _pair, _positive_int, _real_gramian, _solve, check_dense_size)
from .windows import CutoffWindow


class PicardDivergenceError(RuntimeError):
    """The control fixed-point iteration expanded instead of contracting:
    the initial data is too large for the admissible ball."""


class NonFiniteStateError(RuntimeError):
    """An evolved state left the finite floats: a record's mass, energy or
    observed mass, or a damped leg's norm, is infinite or NaN."""


class _UnresolvedPhaseError(ValueError):
    """The nonlinear phase of one step, dt * max|u|^2, exceeds pi (see
    `_check_phase`)."""


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


# forward and inverse transforms over the last grid.dim axes, by dimension;
# the 2D inverse is ifftn over the last two axes, as np.fft.ifft2 ignores
# its `out` (numpy 2.4) and `_fft_transforms` writes into buffers
_TRANSFORMS = {1: (np.fft.fft, np.fft.ifft),
               2: (np.fft.fft2, partial(np.fft.ifftn, axes=(-2, -1)))}
# largest 1D N at which the Strang step transforms by products with dense
# matrices rather than FFTs.  On a ladder of fused 10-step runs and single
# steps (B = 1 and 2, damped, dealiased; 2-core x86_64) a dense run took
# 0.2-0.8 of the FFT run's time up to the gate, a single step at most 1.05
# of it; above, single steps at B = 2 took 1.02-1.49 times as long at
# N = 128.  2D grids take FFTs at every N
_DFT_MAX_N = 96
# grid values of records `evolve` holds before sampling them in bulk
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
    by FFT over the last grid.dim axes, given the per-axis `half` and
    `tail` (separable: in 2D, outer products), and the propagator's factor
    (tail / N^dim times half).  `across(phys, out, work, factor)` writes its
    spectrum into `work` and its result into `out` when given, and takes
    `factor` in place of the propagator's factor when given: the factor
    broadcast to the batch shape of phys, as `_StrangStep` keeps it."""
    fft, ifft = _TRANSFORMS[grid.dim]
    if grid.dim == 2:
        half, tail = np.outer(half, half), np.outer(tail, tail)
    tail_nl = tail / grid.n_points
    propagator = tail_nl * half

    def across(phys, out=None, work=None, factor=propagator):
        spectrum = fft(phys, out=work)
        spectrum *= factor
        return ifft(spectrum, norm="forward", out=out)

    return ((lambda c: ifft(c * half, norm="forward")),
            (lambda phys: fft(phys) * tail_nl), across, propagator)


def _dft_transforms(half: np.ndarray, tail: np.ndarray):
    """The 1D transforms of `_fft_transforms` as products with N x N
    matrices, given the phase `half` and `tail`:
    to_phys[k, j] = half_k e^{2 pi i jk/N}, to_modes[j, k] = e^{-2 pi i jk/N}
    tail_k / N, and across = to_modes @ to_phys, both halves of the linear
    flow between two nonlinear sub-flows in one matrix.  Grid values keep a
    unit axis before the grid axis.  `across(phys, out, work, factor)`
    writes into `out` as `_fft_transforms`' does and ignores `work` and
    `factor`.  The propagator factor returned last is None: the matrices
    carry it."""
    n = len(half)
    dft = np.exp(2j * np.pi / n * (np.outer(np.arange(n), np.arange(n)) % n))
    to_phys, to_modes = half[:, None] * dft, dft.conj() * (tail / n)
    # row by row, as vector-matrix products like the steps': a run then
    # makes no matrix-matrix product, whose first call grows the BLAS
    # buffers (peak RSS +0.3 MB at N = 64)
    across = (to_modes[:, None, :] @ to_phys)[:, 0, :]
    # one vector-matrix product per state, so a batch rounds as its members
    # do alone (a (B, N) matrix product would not).  One state's (1, N)
    # values take np.dot, matmul's BLAS product at less call overhead (dot's
    # loop over 3D values skips BLAS)
    def propagate(phys, out=None, work=None, factor=None):
        return (np.dot if phys.ndim == 2 else np.matmul)(phys, across, out)

    return ((lambda c: c[..., None, :] @ to_phys),
            (lambda phys: (phys @ to_modes)[..., 0, :]), propagate, None)


class _StrangStep:
    """The Strang step of `NLSParams` on one grid, with its half-step
    phases, damping-rotation exponent and dealias mask computed once.  It
    acts on the last grid.dim axes, so coefficients of shape
    (B, *grid.shape) advance B states at once.

    `start` moves coefficients to grid values and applies the first
    nonlinear sub-flow; `run` takes further steps, each the propagator
    `across` (linear(dt/2) . linear(dt/2) and the dealias mask), preceded
    by a control source when one is given, and one nonlinear sub-flow;
    `to_modes` ends the last step, into a new array.  Every step runs the
    one fused sub-flow u * exp(-chi^2 dt + i kappa |u|^2): without damping
    the real part of the exponent is 0, and at sigma = 0 kappa is 0.  It is
    five numpy calls into buffers kept per batch shape: |u|, its square,
    kappa |u|^2 into the imaginary part of the exponent, one complex
    exponential and one product.  Each batch shape also keeps a spare array
    of grid values, the propagator's scratch and the FFT propagator's
    factor broadcast to it, so that `run` allocates nothing per step.

    The transforms take one of two paths chosen from the grid alone.  On a
    1D grid of N <= _DFT_MAX_N they are products with dense N x N matrices
    that carry the half-step phases, the dealias mask and 1/N; on larger 1D
    grids and on every 2D grid, FFTs.  At small N an `np.fft` call costs
    mostly its Python wrapper, while a dense product grows as N^2 (see
    `_DFT_MAX_N`).  The two paths give one step to about 2e-15 relative."""

    def __init__(self, grid: GridSpec, params: NLSParams):
        half, tail = _axis_half_and_tail(grid.modes_per_axis, params)
        # -chi^2 dt, never log(exp(-chi^2 dt)): that underflows at a coarse dt
        decay = 0.0 if params.damping is None else -params.damping.samples ** 2 * params.dt
        self.kappa = -params.sigma * params.dt * np.exp(decay)
        self._decay, self._buffers = decay, {}
        transforms = (_dft_transforms(half, tail)
                      if grid.dim == 1 and grid.modes_per_axis <= _DFT_MAX_N
                      else _fft_transforms(grid, half, tail))
        self.to_phys, self.to_modes, self.across, self._propagator = transforms

    def _buffers_for(self, shape: tuple) -> list:
        """For one batch shape of grid values: |u|^2 and its flat view,
        kappa broadcast to the batch and the exponent's imaginary part (both
        flat: a product into a strided output takes numpy's fast path only
        in 1D), the exponent, the factor and its flat view, the FFT
        propagator's factor broadcast to the batch (a product with an
        operand broadcast along the batch makes numpy buffer a copy of it,
        on every step), the propagator's scratch and the spare array `run`
        swaps with its input."""
        buffers = self._buffers.get(shape)
        if buffers is None:
            power, factor = np.empty(shape), np.empty(shape, dtype=complex)
            exponent = np.empty(shape, dtype=complex)
            exponent.real = self._decay
            exponent = exponent.reshape(-1)
            propagator = self._propagator
            if propagator is not None and propagator.shape != shape:
                propagator = np.broadcast_to(propagator, shape).copy()
            buffers = self._buffers[shape] = [
                power, power.reshape(-1), np.broadcast_to(self.kappa, shape).reshape(-1),
                exponent.imag, exponent, factor, factor.reshape(-1), propagator,
                np.empty_like(factor), np.empty_like(factor)]
        return buffers

    def _nonlinear(self, phys: np.ndarray) -> None:
        """The fused damping-rotation sub-flow on grid values, in place."""
        power, flat_power, kappa, phase, exponent, factor, flat_factor = (
            self._buffers_for(phys.shape)[:7])
        np.abs(phys, out=power)
        np.square(power, out=power)
        np.multiply(flat_power, kappa, out=phase)
        np.exp(exponent, out=flat_factor)
        phys *= factor

    def start(self, c: np.ndarray) -> np.ndarray:
        """Grid values of coefficients c after the first step's nonlinear
        sub-flow; c itself is not written."""
        phys = self.to_phys(c)
        self._nonlinear(phys)
        return phys

    def run(self, phys: np.ndarray, n: int, sources=None) -> np.ndarray:
        """n >= 0 further steps on the grid values of `start` or `run`;
        with `sources`, sources[j] (grid values) is added to step j just
        before its propagator.  The propagator writes into the spare array
        of the batch shape, which then swaps roles with its input, and the
        sub-flow of `_nonlinear` runs inline, so no step allocates.  `phys`
        is consumed: it may be written, and it may come back as the output
        of a later run of the same shape; copy what must outlive the call."""
        buffers = self._buffers_for(phys.shape)
        (power, flat_power, kappa, phase, exponent, factor, flat_factor, propagator,
         work, out) = buffers
        across = self.across
        # ufuncs bound here, outputs passed positionally: numpy's cheapest call
        absolute, square, multiply, exp = np.absolute, np.square, np.multiply, np.exp
        for j in range(n):
            if sources is not None:
                phys += sources[j]
            across(phys, out, work, propagator)
            absolute(out, power)
            square(power, power)
            multiply(flat_power, kappa, phase)
            exp(exponent, flat_factor)
            out *= factor
            phys, out = out, phys
        buffers[-1] = out
        return phys

    def __call__(self, c: np.ndarray) -> np.ndarray:
        """Advance coefficients c by one step; c itself is not written."""
        return self.to_modes(self.start(c))


def evolve(u0: FourierState, T: float, params: NLSParams,
           record_stride: int = 1) -> tuple[FourierState, DecayRecord]:
    """Evolve for time T, recording mass, energy and observed mass every
    `record_stride` steps and at the final step.

    The step count is T / dt rounded to the nearest integer when that
    many steps end within 1e-9 * T of T, and rounded up otherwise; a T
    shorter than one step (T / dt < 1 - 1e-9) raises ValueError, as do more
    than MAX_DENSE_POINTS**2 records and a record_stride that is not a
    positive integer (an integral float runs as its int), before anything
    is allocated.  The steps run on grid values from the first to the last;
    each record keeps its grid values, and a full buffer of them goes back
    to modes in one batched transform.  A record whose mass, energy or observed mass is
    not finite raises NonFiniteStateError, checked a buffer at a time.
    For sigma != 0 a u0 whose nonlinear phase per step is unresolved
    (`_check_phase`) raises ValueError, after the t = 0 record's check.
    """
    if not 0.0 < T < np.inf:
        raise ValueError("T must be positive and finite")
    record_stride = _positive_int(record_stride, "record_stride")
    steps = float(T) / float(params.dt)  # inf past the float range
    if steps < 1.0 - 1e-9:
        raise ValueError(f"T = {T!r} is shorter than one step of dt = {params.dt!r}")
    if steps / record_stride > MAX_DENSE_POINTS ** 2:
        raise ValueError(f"{steps:.3g} steps at stride {record_stride} exceed "
                         f"{MAX_DENSE_POINTS}**2 records")
    n_steps = int(round(steps))
    if abs(n_steps * params.dt - T) > 1e-9 * T:
        n_steps = int(np.ceil(steps))
    rec_steps = np.arange(0, n_steps + 1, record_stride)
    if rec_steps[-1] != n_steps:
        rec_steps = np.append(rec_steps, n_steps)

    grid = u0.grid
    step = _StrangStep(grid, params)
    samples = np.empty((3, len(rec_steps)))
    n_buf = min(len(rec_steps) - 1, max(1, _RECORD_BUFFER_POINTS // grid.n_points))
    # overflow is caught at its record, as a non-finite sample
    with np.errstate(over="ignore", invalid="ignore"):
        samples[:, :1] = _finite_samples(grid, u0.coeffs[None], params, rec_steps[:1])
        _check_phase(grid, u0.coeffs, params)
        phys, done = step.start(u0.coeffs), 1
        values = np.empty((n_buf,) + phys.shape, dtype=complex)
        for start in range(1, len(rec_steps), n_buf):
            chunk = rec_steps[start:start + n_buf]
            for j, target in enumerate(chunk):
                phys, done = step.run(phys, target - done), target
                values[j] = phys
            coeffs = step.to_modes(values[:len(chunk)])
            samples[:, start:start + len(chunk)] = _finite_samples(grid, coeffs, params,
                                                                   chunk)
    record = DecayRecord(times=rec_steps * params.dt, mass=samples[0],
                         energy=samples[1], observed=samples[2])
    return FourierState(grid, coeffs[-1].copy()), record


def _finite_samples(grid: GridSpec, coeffs: np.ndarray, params: NLSParams,
                    steps: np.ndarray) -> np.ndarray:
    """`_sample` of records taken after `steps` steps; a record whose
    samples are not all finite raises NonFiniteStateError."""
    block = _sample(grid, coeffs, params.sigma, params.damping)
    finite = np.isfinite(block).all(axis=0)
    if not finite.all():
        t = steps[np.argmin(finite)] * params.dt
        raise NonFiniteStateError(f"mass, energy or observed mass not finite at "
                                  f"t = {t:.6g}; the state overflowed")
    return block


def _check_phase(grid: GridSpec, c: np.ndarray, params: NLSParams) -> None:
    """For sigma != 0, refuse with `_UnresolvedPhaseError` (a ValueError)
    coefficients c (one state or a batch) whose nonlinear phase per step,
    dt * max|u|^2 over the grid values, exceeds pi: past it the rotation
    exp(i kappa |u|^2) is aliased modulo 2 pi, whatever the linear
    sub-flow (exact at any dt) does."""
    if params.sigma == 0:
        return
    values = np.fft.ifftn(c, axes=tuple(range(-grid.dim, 0)), norm="forward")
    phase = params.dt * float(np.max(np.abs(values) ** 2))
    if phase > np.pi:
        raise _UnresolvedPhaseError(
            f"the nonlinear phase dt * max|u|^2 = {phase:.3g} rad per step exceeds pi")


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


def _controlled_forward(u0: FourierState, phi0: FourierState, *, n_steps: int,
                        step: _StrangStep, phases: np.ndarray,
                        source: np.ndarray) -> FourierState:
    """Final state of i u_t + Lap u = sigma|u|^2 u + chi^2 exp(i t Lap) phi0.

    Strang steps without dealiasing (the truncation mask acts linearly on
    the state and would leak an amplitude-independent term into the fixed
    point), each with the exact increment of the source: in modes, step j
    maps c_j to half * (nonlinear sub-flow of half * c_j + s_j),
    s_j = -i G exp(i t_j Lap) phi0 at its midpoint t_j, G the Gramian of the
    step centred on it; pulled back to t = 0 the s_j sum to -i S phi0.  On
    grid values `step.run` adds s_j just before the propagator that ends
    step j (`to_modes` after the last step): all sources come from one
    product of `source` = -i G with the table `phases` of exp(i t_j Lap)
    times phi0 (per k_2 column in 2D), then one batched inverse transform.
    `phases`, `source` and `step` (of sigma) come from `_control_tables` on u0's grid.
    """
    grid, n = u0.grid, u0.grid.modes_per_axis
    # in 1D one matrix-vector product per step, for `_dft_transforms`' reason
    modes = source @ (phases * phi0.coeffs).reshape(n_steps, n, -1)
    sources = _TRANSFORMS[grid.dim][1](modes.reshape(phases.shape), norm="forward")
    phys = step.start(u0.coeffs)
    # shaped as the grid values, so that each add is one of equal shapes
    sources = sources.reshape((n_steps,) + phys.shape)
    phys = step.run(phys, n_steps - 1, sources)
    phys += sources[-1]
    return FourierState(grid, step.to_modes(phys))


def _control_tables(spec: GramianSpec, sigma: int):
    """What the controlled solves of one control run share, built once: the
    inverse Cholesky factor of `solve_hum`'s real form, the stepper, the
    midpoint phases exp(i t_j Lap) of shape (n_steps, *grid.shape), the
    source table -i G, the end phase exp(-i T Lap) and n_steps = max(256, 4N).

    G, the Gramian of one step centred on its midpoint (N x N, FFT order),
    is U R(dt) U^H = E^H S_dt E: the real form of `solve_hum` at T = dt,
    with S_dt = P R(dt) P^H and E = diag(exp(i mu dt/2)) as in `hum`.
    `_pair` applies P to R and then to (U R)^H = R U^H (R is symmetric),
    and each E^H takes a centring phase back."""
    grid = spec.grid
    n_steps = max(256, 4 * grid.modes_per_axis)
    dt, lap = spec.T / n_steps, grid.laplacian_symbol()
    step_spec = replace(spec, T=dt)
    back = np.exp(-0.5j * dt * _mode_energies(grid))[:, None]
    source = _pair(step_spec, _real_gramian(step_spec), back=True) * back
    source = _pair(step_spec, source.conj().T, back=True)
    source *= -1j * back
    factor = _cholesky(_real_gramian(spec), spec)
    phases = 1j * ((np.arange(n_steps) + 0.5) * dt).reshape((-1,) + (1,) * grid.dim) * lap
    np.exp(phases, out=phases)
    return (factor, _StrangStep(grid, NLSParams(sigma=sigma, dt=dt, dealias=False)),
            phases, source, np.exp(-1j * spec.T * lap), n_steps)


def local_control_nls(u0: FourierState, spec: GramianSpec, sigma: int = -1,
                      tol: float = 1e-8) -> tuple[FourierState, float, dict]:
    """Exact control of the cubic NLS to zero by Picard iteration.

    Iterates phi0 <- phi0 - i S^{-1} exp(-i T Lap) u_phi0(T), u_phi0(T) the
    final state of the controlled forward solve (`_controlled_forward`)
    from u0.  By Duhamel over the discrete steps, exp(-i T Lap) u_phi0(T) =
    u0 - i S phi0 + the nonlinear increments pulled back to t = 0, with S
    the exact-time Gramian of `solve_hum` (N x N, one column per transverse
    mode in 2D): the update is the linear HUM control of what the
    nonlinearity adds.  S's real form is factored once, and each iteration
    costs one controlled solve and two real O(N^2) products.  The linear
    problem thus closes exactly (at sigma = 0 phi0 is `solve_hum`'s) and
    the certified forward residual reduces to roundoff and the Picard tol.
    The controlled solve takes max(256, 4N) steps, and the iteration at
    most 30 updates.

    Returns (phi0, forward residual, history dict).
    """
    _check_tol(tol)
    _check_same_grid(spec, u0)
    if u0.norm_l2() == 0.0:
        history = {"update_norms": [], "contraction_ratios": [], "iterations": 0}
        return zero_state(spec.grid), 0.0, history
    return _picard(u0, spec, _control_tables(spec, sigma), tol)


def _picard(u0: FourierState, spec: GramianSpec, tables,
            tol: float) -> tuple[FourierState, float, dict]:
    """The Picard iteration of `local_control_nls` on a nonzero u0, given
    the `_control_tables` of spec and sigma."""
    grid, (factor, step, phases, source, end, n_steps) = spec.grid, tables
    max_iter = 30
    u0_norm = u0.norm_l2()
    history = {"update_norms": [], "contraction_ratios": [], "iterations": 0}
    phi0 = zero_state(grid)
    prev_update = None
    for it in range(1, max_iter + 1):
        final = _controlled_forward(u0, phi0, n_steps=n_steps, step=step,
                                    phases=phases, source=source)
        rhs = _pair(spec, -1j * (end * final.coeffs).reshape(grid.modes_per_axis, -1))
        delta = _pair(spec, _solve(factor, rhs), back=True).reshape(grid.shape)
        delta = FourierState(grid, delta)
        update = delta.norm_l2()
        history["update_norms"].append(update)
        if prev_update is not None and prev_update > 0:
            ratio = update / prev_update
            history["contraction_ratios"].append(ratio)
            if ratio > 1.5 and update > 10.0 * tol * u0_norm:
                raise PicardDivergenceError(
                    f"iterates expanding (ratio {ratio:.3g}); initial data too "
                    f"large for the admissible ball"
                )
        phi0 = phi0 + delta
        history["iterations"] = it
        if update <= tol * u0_norm:
            break
        prev_update = update
    else:
        raise PicardDivergenceError(
            f"no convergence in {max_iter} Picard iterations "
            f"(last update {history['update_norms'][-1]:.3e})"
        )
    final = _controlled_forward(u0, phi0, n_steps=n_steps, step=step,
                                phases=phases, source=source)
    return phi0, final.norm_l2(), history


def admissible_amplitude(spec: GramianSpec, sigma: int,
                         rng: np.random.Generator) -> float:
    """Largest of the amplitudes 0.4, 0.2, 0.1, 0.05 at which the control
    fixed point (Picard tol 1e-8) converges with a contracting iteration.
    Measured, never assumed; the exact-time Gramian is factored, and the
    stepper and its tables are built, once for all candidates, on spec's grid."""
    tables = _control_tables(spec, sigma)
    for amp in (0.4, 0.2, 0.1, 0.05):
        u0 = random_state(spec.grid, rng, norm=amp, max_mode=spec.grid.modes_per_axis // 4)
        try:
            _, _, hist = _picard(u0, spec, tables, 1e-8)
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
    cap 50 / gamma.  The batch stays on grid values from its first step,
    as in `evolve`: `start` once, then `run` to each check, where
    `to_modes` writes the batch's coefficients to a new array, so a leg's
    state at a check is exactly `evolve`'s after as many steps.  A leaving
    member's row is dropped from the grid values.  A norm that is not
    finite, at t = 0 or at a later check, raises NonFiniteStateError; after
    the t = 0 check, a batch whose nonlinear phase per step is unresolved
    (`_check_phase`) raises ValueError."""
    stride = 10
    h = stride * params.dt
    span = _refit_span(params.dt)
    grid = states[0].grid
    step = _StrangStep(grid, params)
    c = np.stack([u.coeffs for u in states])
    norms = [[] for _ in states]
    active = list(range(len(states)))  # member index of each row of c and phys
    results = [None] * len(states)
    checks, to_check = 0, stride - 1  # steps `run` takes to the next check
    # overflow is caught at its check, as a norm that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        phys = step.start(c)
        while True:
            row_norms = _row_norms(c).tolist()
            if not all(map(math.isfinite, row_norms)):
                raise NonFiniteStateError(f"norm not finite at t = {checks * h:.6g}; "
                                          f"the state overflowed")
            if not checks:
                _check_phase(grid, c, params)
            keep = []
            for row, (b, norm) in enumerate(zip(active, row_norms)):
                norms[b].append(norm)
                if norm <= threshold:
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
                phys, active = phys[keep], [active[row] for row in keep]
            phys = step.run(phys, to_check)
            c, checks, to_check = step.to_modes(phys), checks + 1, stride


def _row_norms(c: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a batch of coefficients."""
    rows = c.reshape(len(c), -1)
    return np.sqrt(np.vecdot(rows, rows).real)


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
    both legs run as one batch, and both control phases share one
    `_control_tables` build (the factor of the exact-time Gramian, the
    stepper, its tables).  Grids past check_dense_size raise DenseSizeError
    before any damped leg runs.
    """
    check_dense_size(spec.grid)
    _check_tol(tol)
    _check_same_grid(spec, u0, u1)
    params = replace(params, damping=spec.window)
    # (leg start state, conjugate_reversed, norm); an overflowed norm reads
    # inf, and its damped leg raises NonFiniteStateError at t = 0
    with np.errstate(over="ignore"):
        starts = [(u, reverse, u.norm_l2()) for u, reverse in ((u0, False),
                                                               (_conjugate(u1), True))]
    starts = [start for start in starts if start[2] > 0.0]
    if not starts:
        return ControlSchedule(phases=[], endpoint_error_to_zero=0.0,
                               endpoint_error_to_target=0.0)
    above = [u for u, _, norm in starts if norm > mass_threshold]
    damped = iter(_stabilize_to_threshold(above, params, mass_threshold) if above else [])
    tables = _control_tables(spec, params.sigma)

    phases, errors = [], {False: 0.0, True: 0.0}  # by conjugate_reversed
    for u, reverse, norm in starts:
        leg, t = [], 0.0
        if norm > mass_threshold:
            u, t = next(damped)
            leg.append(ControlPhase(kind="damped", t_start=0.0, t_end=t))
        phi0, errors[reverse], _ = _picard(u, spec, tables, tol)
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
