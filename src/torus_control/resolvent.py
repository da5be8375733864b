"""Hautus-type resolvent constants and their link with observability.

The estimate under study is, for every truncated state u and real lambda,

    ||u||^2 <= M ||(Lap - lambda) u||^2 + m ||chi u||^2.

For fixed m the best (smallest) M is an extremal eigenvalue problem:
with Q = I - m*W (W the windowed quadratic form) and A = Lap - lambda
diagonal, M is the largest eigenvalue of A^{-1} Q A^{-1} on the
orthogonal complement of ker(A), clamped at zero.  When lambda hits a
Laplacian eigenvalue the kernel block must satisfy m <chi phi, chi phi>
>= ||phi||^2, otherwise no finite M exists; a strictly negative kernel
block is eliminated by its Schur complement.

In the real basis {1, sqrt2 cos 2 pi k x, sqrt2 sin 2 pi k x}, Q_r = Re(U^H Q U)
is exact (chi^2 is real) and A stays diagonal (mu = (2 pi k)^2 is even in k), so
a sweep builds Q_r = I - m * `hum._real_window_form` once, in the level order
that lambda_min uses (cos levels 0 .. N/2, then sin levels 1 .. N/2 - 1),
takes the Laplacian symbol in the same order (`hum._level_slots`), and runs one
real eigensolve per lambda (see `sweep`).  The complex formula survives only
as the test reference.  The constants describe one truncation, whose grid
every entry point takes from the window.

Observability and resolvent constants convert both ways:
forward  (M, m) = (2*C_T*T^3/3, 2*C_T*T);
reverse  controllability holds for T > pi*sqrt(M) with cost
         C_T = 2*m*T / (T^2 - M*pi^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FourierState, GridSpec
from .hum import _level_slots, _real_window_form, check_dense_size
from .windows import CutoffWindow, multiply_window


class InfeasibleResolventError(RuntimeError):
    """Some eigenfunction phi with (Lap - lambda) phi = 0 violates
    m ||chi phi||^2 >= ||phi||^2: no finite M exists at this lambda."""


@dataclass
class ResolventSweepResult:
    """Best constants M(lambda) over a lambda grid, with Miller bounds."""

    lambda_grid: np.ndarray
    m_fixed: float
    M_of_lambda: np.ndarray

    @property
    def M_sup(self) -> float:
        return float(np.max(self.M_of_lambda))

    @property
    def miller_time(self) -> float:
        return float(np.pi * np.sqrt(self.M_sup))


def _real_form(m: float, window: CutoffWindow) -> np.ndarray:
    """Q_r = Re(U^H (I - m W) U) = I - m * Re(U^H W U), in the level order
    of `hum._real_window_form`."""
    if not 0.0 <= m < np.inf:
        raise ValueError(f"m must be finite and >= 0, got {m}")
    if window.grid.dim != 1:
        raise ValueError("resolvent constants support 1D grids")
    check_dense_size(window.grid)
    n = window.grid.modes_per_axis
    q = _real_window_form(window.coefficients(np.arange(-n, n + 1)))
    q *= -m
    q[np.diag_indices_from(q)] += 1.0
    return q


def _best_constant(lam: float, q: np.ndarray, lap: np.ndarray) -> float:
    """Smallest M >= 0 at lambda, from the real form q and the symbol lap,
    both in level order."""
    d = lap - lam  # Lap - lambda, diagonal in either basis
    scale = max(abs(lam), -lap.min(), 1.0)  # (2 pi N/2)^2 at the Nyquist mode
    kernel = np.abs(d) <= 1e-9 * scale
    comp = ~kernel
    if kernel.any():
        q_kk = q[np.ix_(kernel, kernel)]
        vals, vecs = np.linalg.eigh(q_kk)
        # feasibility: m <W phi, phi> >= ||phi||^2 on the kernel, i.e. Q_kk <= 0
        if vals.max() > 1e-12:
            raise InfeasibleResolventError(
                f"lambda = {lam:.6g} hits the spectrum and m fails "
                f"m*||chi phi||^2 >= ||phi||^2 on the eigenspace "
                f"(max kernel eigenvalue {vals.max():.3e})"
            )
        if not comp.any():
            return 0.0
        q_ck = q[np.ix_(comp, kernel)]
        # eliminate strictly negative kernel directions by Schur complement;
        # near-zero directions must decouple or M is unbounded
        neg = vals < -1e-12
        flat = ~neg
        if flat.any():
            coupling = q_ck @ vecs[:, flat]
            if np.linalg.norm(coupling) > 1e-10:
                raise InfeasibleResolventError(
                    f"lambda = {lam:.6g}: kernel direction with vanishing "
                    f"margin couples to the complement; no finite M"
                )
        q_eff = q[np.ix_(comp, comp)]
        if neg.any():
            v_neg = vecs[:, neg]
            q_eff = q_eff - (q_ck @ v_neg) @ np.diag(1.0 / vals[neg]) @ (q_ck @ v_neg).T
    else:
        q_eff = q

    inv_d = 1.0 / d[comp]
    g = inv_d[:, None] * q_eff * inv_d[None, :]  # eigvalsh reads one triangle
    return float(_clamped(np.linalg.eigvalsh(g)[-1], lam)[0])


def _clamped(top, lam) -> np.ndarray:
    """max(0, top), top the top eigenvalues at lam; NaN raises LinAlgError."""
    top, lam = np.atleast_1d(top), np.atleast_1d(lam)
    bad = np.isnan(top)
    if bad.any():
        raise np.linalg.LinAlgError(
            f"M(lambda) is NaN at lambda = {lam[bad][0]:.6g}: the form overflows")
    return np.where(top > 0.0, top, 0.0)


def _on_spectrum(lam: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """Which lambda lie within 1e-9 * scale of an eigenvalue of Lap: the
    points where `_best_constant` finds a kernel."""
    eigs = np.unique(lap)  # at least two: N >= 4
    i = np.clip(np.searchsorted(eigs, lam), 1, len(eigs) - 1)
    dist = np.minimum(np.abs(eigs[i - 1] - lam), np.abs(eigs[i] - lam))
    return dist <= 1e-9 * np.maximum(np.abs(lam), max(-lap.min(), 1.0))


def best_resolvent_constant(lam: float, m: float, window: CutoffWindow) -> float:
    """Smallest M >= 0 making the estimate hold for all states: a one-point sweep."""
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    return float(sweep([lam], m, window).M_of_lambda[0])


def default_lambda_grid(grid: GridSpec, n_points: int = 512) -> np.ndarray:
    """lambda samples concentrated near the truncated Laplacian spectrum.

    Places points at each eigenvalue -(2*pi*k)^2, at small offsets around
    it, and fills every spectral gap, from 10% below the lowest eigenvalue
    to (2*pi)^2 above zero; M(lambda) peaks between eigenvalues, so uniform
    grids miss the sup.  n_points is a budget shared by the N/2 + 2 gaps:
    each takes max(3, n_points // gaps) Chebyshev points, and the
    eigenvalues and 4 offsets per gap come on top, so the default gives
    593 points at N = 32 and 2063 at N = 512.
    """
    mu = np.unique(-grid.laplacian_symbol())  # 0 ... (2 pi N/2)^2
    eigs = np.sort(-mu)  # negative eigenvalues, ascending
    pts = set(eigs.tolist())
    lo = eigs[0] * 1.1
    hi = (2.0 * np.pi) ** 2  # positive side: M(lambda) decays like 1/lambda^2
    anchors = np.concatenate(([lo], eigs, [hi]))
    per_gap = max(3, n_points // max(1, len(anchors) - 1))
    for a, b in zip(anchors[:-1], anchors[1:]):  # strictly increasing
        # Chebyshev-like clustering toward both gap ends
        theta = np.linspace(0.0, np.pi, per_gap + 2)[1:-1]
        pts.update((0.5 * (a + b) + 0.5 * (b - a) * np.cos(theta)).tolist())
        gap = b - a
        for off in (1e-4, 1e-2):
            pts.add(a + off * gap)
            pts.add(b - off * gap)
    return np.array(sorted(pts))


def feasible_m(window: CutoffWindow) -> float:
    """An m for which every Laplacian eigenspace satisfies the kernel
    feasibility constraint, with a multiplicative margin of 2.

    For eigenvalue -(2*pi*k)^2 the eigenspace is span{e^{+-2*pi*i*k*x}};
    the constraint is m * (W_kk - |W_k,-k|) >= 1, or m * W_kk >= 1 at k = 0, N/2.
    With the window's coefficients c, W_kk = c(0) and W_k,-k = c(2k).
    """
    k = np.arange(window.grid.modes_per_axis // 2 + 1)
    c = window.coefficients(2 * k)
    lam_min = c[0].real - np.where((k == 0) | (k == k[-1]), 0.0, np.abs(c))
    if lam_min.min() <= 0.0:
        raise InfeasibleResolventError("window does not observe the eigenspace of "
                                       f"mode |k| = {np.argmax(lam_min <= 0.0)}")
    return 2.0 * float(np.max(1.0 / lam_min))


def sweep(lambda_grid: np.ndarray, m: float, window: CutoffWindow) -> ResolventSweepResult:
    """best_resolvent_constant over a lambda grid, on one real form Q_r.

    The lambda on the spectrum run first, one at a time through the kernel
    elimination of `_best_constant`, so an infeasible lambda raises before
    any other work.  Every other lambda needs only the top eigenvalue of
    D^-1 Q_r D^-1: blocks of them, of at most 2^16 entries (one matrix
    past N = 256), are filled in place in one buffer and go through one
    stacked `eigvalsh`, with the bits of one lambda at a time.  Beside Q_r
    and the few N x N arrays of one kernel elimination, the sweep holds
    that buffer (512 kB) and O(N) numbers per lambda.  A NaN M(lambda),
    from a form that overflows, raises LinAlgError.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if not np.isfinite(lambda_grid).all():
        raise ValueError("lambda_grid must be finite")
    q = _real_form(m, window)
    # the Laplacian symbol in the form's level order
    lap = window.grid.laplacian_symbol()[_level_slots(window.grid.modes_per_axis)]
    best = np.empty_like(lambda_grid)
    on = _on_spectrum(lambda_grid, lap)
    for i in np.flatnonzero(on):
        lam = lambda_grid[i]
        try:
            best[i] = _best_constant(lam, q, lap)
        except InfeasibleResolventError as exc:
            raise InfeasibleResolventError(
                f"infeasible at lambda = {lam:.6g}, m = {m:.6g}: {exc}"
            ) from exc
    off = np.flatnonzero(~on)
    per = max(1, 2 ** 16 // q.size)
    buf = np.empty((min(per, off.size),) + q.shape)
    for start in range(0, off.size, per):
        idx = off[start:start + per]
        g = buf[:len(idx)]
        inv_d = 1.0 / (lap - lambda_grid[idx, None])  # no kernel: d != 0
        g[...] = q
        g *= inv_d[:, :, None]
        g *= inv_d[:, None, :]
        best[idx] = _clamped(np.linalg.eigvalsh(g)[:, -1], lambda_grid[idx])
    return ResolventSweepResult(lambda_grid=lambda_grid, m_fixed=m, M_of_lambda=best)


def miller_cost_bound(M: float, m: float, T: float) -> float:
    """Observability cost 2*m*T / (T^2 - M*pi^2), valid for T > pi*sqrt(M)."""
    if T <= np.pi * np.sqrt(M):
        raise ValueError(
            f"T = {T} is at or below the Miller time pi*sqrt(M) = {np.pi * np.sqrt(M):.6g}"
        )
    return 2.0 * m * T / (T ** 2 - M * np.pi ** 2)


def constants_from_observability(c_t: float, T: float) -> tuple[float, float]:
    """Resolvent constants from an observability constant:
    M = 2*C_T*T^3/3 and m = 2*C_T*T."""
    if c_t < 0.0 or T <= 0.0:
        raise ValueError("need C_T >= 0 and T > 0")
    return 2.0 * c_t * T ** 3 / 3.0, 2.0 * c_t * T


def verify_resolvent(u: FourierState, lam: float, M: float, m: float,
                     window: CutoffWindow) -> tuple[float, float, bool]:
    """Evaluate both sides of the resolvent estimate for one state."""
    lhs = u.norm_l2() ** 2
    resolvent_term = float(np.sum(np.abs((u.grid.laplacian_symbol() - lam) * u.coeffs) ** 2))
    observed = multiply_window(u, window).norm_l2() ** 2
    rhs = M * resolvent_term + m * observed
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-10)

