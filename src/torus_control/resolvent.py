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
that lambda_min uses (cos levels 0 .. N/2, then sin levels 1 .. N/2 - 1): the
kernel at -(2 pi k)^2 is the cos row k and the sin row N/2 + k, and its 2 x 2
block decides feasibility in closed form (`_kernel_tops`).  Off the spectrum
`_top_eigenvalues` takes the top eigenvalue of D^-1 Q_r D^-1 (see `sweep`).
The complex formula survives only as the test reference.  The constants
describe one truncation, whose grid every entry point takes from the window.

The supremum of M(lambda) over an interval comes from a level set, not from
a grid (`sup_resolvent_constant`).  Off the spectrum D = Lap - lambda is
invertible and D^-1 Q D^-1 - theta I = D^-1 (Q - theta D^2) D^-1, so by
Sylvester's law of inertia M(lambda) >= theta > 0 exactly when
Q - theta (Lap - lambda)^2 has an eigenvalue >= 0 (on the spectrum, with
Q_kk < 0, the same holds for `_best_constant`'s Schur complement).  The
lambda where an eigenvalue curve crosses theta are therefore the real
eigenvalues of (Q - theta (Lap - lambda)^2) v = 0, that is (with
w = (Lap - lambda) v / sqrt(theta)) of the real 2N x 2N matrix
[[Lap, -I/sqrt(theta)], [-Q/sqrt(theta), Lap]].  Q has no eigenvalue
above 1 (W >= 0), so M(lambda) <= 1 / dist(lambda, spec)^2 everywhere.

Observability and resolvent constants convert both ways:
forward  (M, m) = (2*C_T*T^3/3, 2*C_T*T);
reverse  controllability holds for T > pi*sqrt(M) with cost
         C_T = 2*m*T / (T^2 - M*pi^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FourierState, GridSpec
from .hum import _check_entries, _level_slots, _real_window_form, check_dense_size
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

    def with_point(self, lam: float, M: float) -> ResolventSweepResult:
        """This curve with (lam, M) in its ascending grid, unless lam is on it."""
        i = np.searchsorted(self.lambda_grid, lam)
        if i < self.lambda_grid.size and self.lambda_grid[i] == lam:
            return self
        return ResolventSweepResult(np.insert(self.lambda_grid, i, lam), self.m_fixed,
                                    np.insert(self.M_of_lambda, i, M))


@dataclass(frozen=True)
class ResolventSup:
    """The supremum of M(lambda) over an interval, from the level set:
    M_sup = M(lam_star) is attained, and M(lambda) <= upper on the whole
    interval."""

    M_sup: float
    lam_star: float
    upper: float
    iterations: int


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
        # feasibility: m <W phi, phi> >= ||phi||^2 on the kernel, i.e. Q_kk <= 0;
        # the kernel's first row is the cos row of its level
        top = _kernel_tops(q)[np.flatnonzero(kernel)[0]]
        if top > 1e-12:
            raise InfeasibleResolventError(
                f"lambda = {lam:.6g} hits the spectrum and m fails "
                f"m*||chi phi||^2 >= ||phi||^2 on the eigenspace "
                f"(max kernel eigenvalue {top:.3e})")
        vals, vecs = np.linalg.eigh(q[np.ix_(kernel, kernel)])
        q_ck = q[np.ix_(comp, kernel)]
        # eliminate strictly negative kernel directions by Schur complement;
        # near-zero directions must decouple or M is unbounded
        neg = vals < -1e-12
        if (~neg).any() and np.linalg.norm(q_ck @ vecs[:, ~neg]) > 1e-10:
            raise InfeasibleResolventError(
                f"lambda = {lam:.6g}: kernel direction with vanishing "
                f"margin couples to the complement; no finite M")
        q_eff = q[np.ix_(comp, comp)]
        if neg.any():
            v_neg = vecs[:, neg]
            q_eff = q_eff - (q_ck @ v_neg) @ np.diag(1.0 / vals[neg]) @ (q_ck @ v_neg).T
        inv_d = 1.0 / d[comp]
        g = inv_d[:, None] * q_eff * inv_d[None, :]  # eigvalsh reads one triangle
        return float(_clamped(np.linalg.eigvalsh(g)[-1], lam)[0])
    return float(_clamped(_top_eigenvalues(np.array([lam]), q, lap)[0], lam)[0])


def _kernel_tops(q: np.ndarray) -> np.ndarray:
    """The top eigenvalue of q's block on each Laplacian eigenspace, by level
    k = 0 .. N/2: q[k, k] at levels 0 and N/2 (one cos row), and between them
    that of the 2 x 2 block on the cos row k and sin row N/2 + k, in closed
    form.  m passes where it is at most 1e-12: the one feasibility rule."""
    h = q.shape[0] // 2
    k = np.arange(1, h)
    a, c, b = q[k, k], q[h + k, h + k], q[k, h + k]
    tops = np.diagonal(q)[:h + 1].copy()
    tops[1:h] = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    return tops


def _check_feasible(window: CutoffWindow, m: float, lam_lo: float, lam_hi: float) -> None:
    """Raise what a sweep through every Laplacian eigenvalue in [lam_lo,
    lam_hi] would raise, with no eigensolve where m passes: a level whose
    kernel block is negative definite (`_kernel_tops` below -1e-12) passes at
    once, and the others, infeasible or with a flat direction that may couple
    to the rest of the form, go through `_best_constant` in ascending order."""
    q, lap = _real_form(m, window), _level_laplacian(window.grid)
    levels = np.arange(lap.size // 2, -1, -1)  # cos rows of the eigenvalues, ascending
    lams = lap[levels]
    doubt = (lam_lo <= lams) & (lams <= lam_hi) & (_kernel_tops(q)[levels] >= -1e-12)
    if doubt.any():
        _constants(lams[doubt], m, q, lap, np.unique(lap))


def _clamped(top, lam) -> np.ndarray:
    """max(0, top), top the top eigenvalues at lam; NaN raises LinAlgError."""
    top, lam = np.atleast_1d(top), np.atleast_1d(lam)
    bad = np.isnan(top)
    if bad.any():
        raise np.linalg.LinAlgError(
            f"M(lambda) is NaN at lambda = {lam[bad][0]:.6g}: the form overflows")
    return np.where(top > 0.0, top, 0.0)


def _on_spectrum(lam: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """Which lambda lie within 1e-9 * scale of an eigenvalue of Lap: the
    points where `_best_constant` finds a kernel.  eigs = np.unique(lap),
    ascending, taken once per sweep or level set."""
    i = np.clip(np.searchsorted(eigs, lam), 1, len(eigs) - 1)  # N >= 4: two eigs or more
    dist = np.minimum(np.abs(eigs[i - 1] - lam), np.abs(eigs[i] - lam))
    return dist <= 1e-9 * np.maximum(np.abs(lam), max(-eigs[0], 1.0))


def best_resolvent_constant(lam: float, m: float, window: CutoffWindow) -> float:
    """Smallest M >= 0 making the estimate hold for all states: a one-point sweep."""
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam}")
    return float(sweep([lam], m, window).M_of_lambda[0])


# The default grid samples a gap densely only below this level: from level 15 on
# M ~ c_hf / |lambda| is below 1e-3 of its peak (N = 256; smooth, sharp, two-interval).
_DENSE_LEVELS = 16


def default_lambda_grid(grid: GridSpec, n_points: int = 128) -> np.ndarray:
    """lambda samples of the curve M(lambda), which peaks between eigenvalues.

    The gaps run from 10% below the lowest eigenvalue -(2*pi*N/2)^2 to
    (2*pi)^2 above zero; the gap at level k lies between the eigenvalues of
    levels k + 1 and k (k = -1: the positive side).  A gap below level
    `_DENSE_LEVELS` takes max(3, n_points // (N/2 + 2)) Chebyshev points and
    one point 1e-2 of the gap from each of its ends; a gap from that level up
    takes its midpoint, which still draws the tail M ~ c_hf / |lambda| on a
    log-log plot, and the lowest also its point 1e-2 above its lower end, so
    the range stays.  The default gives 155 / 103 / 119 / 199 / 327 points at
    N = 32 / 64 / 96 / 256 / 512.  No eigenvalue is a sample: where its
    kernel block is feasible M is continuous across it (at 1e-4 of a gap M
    matched it to 1.2e-3 relative), and feasibility is `_check_feasible`'s.
    The supremum comes from `sup_resolvent_constant`, not from these samples.

    At the 1e-2 offsets D^-1 Q D^-1 reaches (1 + m) / d^2 while M is far
    smaller, so M there keeps 9 to 10 of the CSV's 12 digits: under 12 whole
    grid-step shifts of smooth (0, 0.2) it moved by up to 4.4e-11 / 4.8e-11 /
    9.3e-11 / 2.5e-10 relative at N = 32 / 64 / 96 / 256, against 2e-12 /
    2.1e-13 / 1.4e-13 / 7.8e-13 at the Chebyshev points."""
    mu = np.unique(-grid.laplacian_symbol())  # 0 ... (2 pi N/2)^2
    eigs = np.sort(-mu)  # negative eigenvalues, ascending
    anchors = np.concatenate(([eigs[0] * 1.1], eigs, [(2.0 * np.pi) ** 2]))
    per_gap = max(3, n_points // (len(anchors) - 1))
    cos = np.cos(np.linspace(0.0, np.pi, per_gap + 2)[1:-1])  # clusters toward both ends
    pts = {anchors[0] + 1e-2 * (anchors[1] - anchors[0])}
    for level, a, b in zip(range(grid.modes_per_axis // 2, -2, -1), anchors[:-1], anchors[1:]):
        if level >= _DENSE_LEVELS:
            pts.add(0.5 * (a + b))
        else:
            pts.update((0.5 * (a + b) + 0.5 * (b - a) * cos).tolist())
            pts.update((a + 1e-2 * (b - a), b - 1e-2 * (b - a)))
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
    D^-1 Q_r D^-1, which `_top_eigenvalues` takes for all at once: from
    N = 48 on by Lanczos on blocks of 2^14 / N lambda, each certified by a
    Cholesky factor to a stated delta (at most 4e-12 relative at the default
    grid's Chebyshev points) or else, and below N = 48, by a dense `eigvalsh`.
    Each M(lambda) has the bits that lambda gets alone.  Beside Q_r and one
    kernel elimination's few N x N arrays, the sweep holds one buffer of at
    most 2^16 entries (512 kB; one matrix past N = 256), six Lanczos vectors
    per lambda of a block and O(N) numbers per lambda.  A NaN M(lambda), from
    a form that overflows, raises LinAlgError.
    """
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    if lambda_grid.size == 0:
        raise ValueError("lambda grid must be nonempty")
    if not np.isfinite(lambda_grid).all():
        raise ValueError("lambda_grid must be finite")
    q, lap = _real_form(m, window), _level_laplacian(window.grid)
    best = _constants(lambda_grid, m, q, lap, np.unique(lap))[0]
    return ResolventSweepResult(lambda_grid=lambda_grid, m_fixed=m, M_of_lambda=best)


def _level_laplacian(grid: GridSpec) -> np.ndarray:
    """The Laplacian symbol in the real form's level order."""
    return grid.laplacian_symbol()[_level_slots(grid.modes_per_axis)]


def _constants(lambda_grid: np.ndarray, m: float, q: np.ndarray, lap: np.ndarray,
               eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, upper): M(lambda) on a 1D array of finite lambda, from the real
    form q and the symbol lap in level order, eigs = np.unique(lap), and an
    upper end of each M: the certified theta + delta of `_top_eigenvalues`
    off the spectrum, M itself where a dense eigensolve gave it."""
    best = np.empty_like(lambda_grid)
    on = _on_spectrum(lambda_grid, eigs)
    for i in np.flatnonzero(on):
        lam = lambda_grid[i]
        try:
            best[i] = _best_constant(lam, q, lap)
        except InfeasibleResolventError as exc:
            raise InfeasibleResolventError(
                f"infeasible at lambda = {lam:.6g}, m = {m:.6g}: {exc}") from exc
    upper = best.copy()
    off = np.flatnonzero(~on)
    if off.size:
        top, top_upper = _top_eigenvalues(lambda_grid[off], q, lap)
        best[off] = _clamped(top, lambda_grid[off])
        upper[off] = np.maximum(top_upper, 0.0)
    return best, upper


# The top eigenvalue of G(lambda) = D^-1 Q_r D^-1 off the spectrum.  From
# N = 48 on, Lanczos on blocks of lambda beats one dense eigvalsh per lambda
# (time per off-spectrum lambda of the default grid, smooth (0, 0.2), 2-core
# x86_64: 0.8x at N = 32, 1.4x at 48, 1.7-3x at 64 ... 256).
_LANCZOS_MIN_N = 48
_LANCZOS_STEPS = 24  # the first round; the rows it leaves get half as many again
_LANCZOS_ENTRIES = 1 << 14  # lambda per block times N: 256 lambda at N = 64, 64 at 256


def _top_eigenvalues(lams: np.ndarray, q: np.ndarray,
                     lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(top, upper): the top eigenvalue of G = D^-1 q D^-1, D = lap - lambda
    != 0, at each lambda, and an upper end of it.

    Below N = `_LANCZOS_MIN_N` every G goes through one dense `eigvalsh`,
    and upper = top.  From there on, blocks of 2^14 / N lambda run
    three-term Lanczos together from one fixed start vector (Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 13): each step is one product
    (V o D^-1) @ q of at least two rows and a second Gram-Schmidt pass, and
    theta is the top eigenvalue of the tridiagonal.  A lambda keeps theta
    only where `np.linalg.cholesky` factors (theta + delta) D^2 - q, that is
    (Sylvester) where (theta + delta) I - G is positive definite, with
    delta = max(1e-13 |theta|, 0.1 n eps ||G||), ||G|| estimated by the
    largest |Ritz value|.  Then top = theta, and upper = theta + delta bounds
    the top eigenvalue up to the factor's backward error, which is invariant
    under the diagonal scaling D (Demmel, Applied Numerical Linear Algebra,
    1997, sec. 2.7); a converged Ritz value lies above it by at most a few
    eps ||G||, inside the dense eigensolve's own n eps ||G||.  The rows left
    uncertified go on for half as many steps again, then to the dense
    `eigvalsh`.  Every row is computed from its own lambda alone (a one-row
    product rounds differently from a block, so a lone row runs twice).
    """
    n = lap.size
    top, upper = np.empty_like(lams), np.empty_like(lams)
    # one buffer for the stacked forms, tridiagonals and factors of a block
    buf = np.empty(min(max(2 ** 16, n * n), max(2, lams.size) * n * n))
    todo = np.arange(lams.size)
    if n >= _LANCZOS_MIN_N:
        done = np.zeros(lams.size, dtype=bool)
        per = _LANCZOS_ENTRIES // n
        for start in range(0, lams.size, per):
            rows = np.arange(start, min(start + per, lams.size))
            _lanczos_block(lams, _two_rows(rows), q, lap, buf, top, upper, done)
        todo = np.flatnonzero(~done)
    for start, stop, g in _stacks(buf, todo.size, n):
        idx = todo[start:stop]
        inv_d = 1.0 / (lap - lams[idx, None])
        g[...] = q
        g *= inv_d[:, :, None]
        g *= inv_d[:, None, :]
        top[idx] = upper[idx] = np.linalg.eigvalsh(g)[:, -1]
    return top, upper


def _two_rows(rows: np.ndarray) -> np.ndarray:
    """rows, with a lone row repeated: a block product needs two rows to
    round as it does in any larger block."""
    return np.repeat(rows, 2) if rows.size == 1 else rows


def _stacks(buf: np.ndarray, count: int, side: int):
    """(start, stop, view): the flat buffer as stacks of side x side
    matrices, covering count of them."""
    per = buf.size // (side * side)
    for start in range(0, count, per):
        stop = min(start + per, count)
        yield start, stop, buf[:(stop - start) * side * side].reshape(-1, side, side)


def _lanczos_block(lams: np.ndarray, rows: np.ndarray, q: np.ndarray, lap: np.ndarray,
                   buf: np.ndarray, top: np.ndarray, upper: np.ndarray,
                   done: np.ndarray) -> None:
    """Lanczos on G(lambda) for lams[rows] at once (at least two rows),
    writing top, upper and done for every row it certifies."""
    n = lap.size
    d2 = lap - lams[rows, None]
    inv_d = 1.0 / d2
    d2 *= d2
    v = np.empty((rows.size, n))
    v[...] = np.cos(np.arange(1.0, n + 1.0) ** 2)  # fixed, and in no symmetry class
    v /= np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
    v_old = np.zeros_like(v)
    w, t = np.empty_like(v), np.empty_like(v)
    steps = (_LANCZOS_STEPS, _LANCZOS_STEPS * 3 // 2)
    alpha, beta = np.empty((rows.size, steps[-1])), np.empty((rows.size, steps[-1]))
    first = 0
    with np.errstate(all="ignore"):  # a breakdown leaves NaN, which no factor certifies
        for stop in steps:
            for j in range(first, stop):
                np.multiply(v, inv_d, out=t)
                np.matmul(t, q, out=w)
                w *= inv_d
                if j:
                    np.multiply(v_old, beta[:, j - 1, None], out=t)
                    w -= t
                alpha[:, j] = 0.0
                for _ in range(2):  # the second pass restores w's orthogonality to v
                    a = np.einsum("ij,ij->i", w, v)
                    alpha[:, j] += a
                    np.multiply(v, a[:, None], out=t)
                    w -= t
                beta[:, j] = np.sqrt(np.einsum("ij,ij->i", w, w))
                np.divide(w, beta[:, j, None], out=v_old)
                v, v_old = v_old, v
            first = stop
            theta, norm = _ritz(alpha[:, :stop], beta[:, :stop - 1], buf)
            eps_norm = np.finfo(float).eps * norm
            bound = theta + np.maximum(1e-13 * np.abs(theta), 0.1 * n * eps_norm)
            good = _factors(bound, d2, q, buf)
            kept = rows[good]
            top[kept], upper[kept], done[kept] = theta[good], bound[good], True
            left = _two_rows(np.flatnonzero(~good))
            if not left.size:
                return
            rows, d2, inv_d, v, v_old, alpha, beta = (
                x[left] for x in (rows, d2, inv_d, v, v_old, alpha, beta))
            w, t = w[:left.size], t[:left.size]


def _ritz(alpha: np.ndarray, beta: np.ndarray,
          buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, norm): the top eigenvalue and the largest |eigenvalue| of
    each tridiagonal (diagonal alpha, subdiagonal beta), stacked in buf.
    A row with a non-finite entry reads NaN."""
    k = alpha.shape[1]
    finite = np.isfinite(alpha).all(axis=1) & np.isfinite(beta).all(axis=1)
    theta, norm = np.full(len(alpha), np.nan), np.full(len(alpha), np.nan)
    for start, stop, t in _stacks(buf, len(alpha), k):
        ok = finite[start:stop]
        t[...] = 0.0
        t.reshape(-1, k * k)[:, ::k + 1] = np.where(ok[:, None], alpha[start:stop], 0.0)
        t.reshape(-1, k * k)[:, k::k + 1] = np.where(ok[:, None], beta[start:stop], 0.0)
        ev = np.linalg.eigvalsh(t)  # reads the lower triangle
        theta[start:stop] = np.where(ok, ev[:, -1], np.nan)
        norm[start:stop] = np.where(ok, np.maximum(-ev[:, 0], ev[:, -1]), np.nan)
    return theta, norm


def _factors(bound: np.ndarray, d2: np.ndarray, q: np.ndarray,
             buf: np.ndarray) -> np.ndarray:
    """Which rows' bound * D^2 - q (D^2 = d2, one row per lambda) has a
    Cholesky factor; each is built in the buffer's first n^2 entries."""
    n = q.shape[0]
    h = buf[:n * n].reshape(n, n)
    good = np.isfinite(bound)
    for i in np.flatnonzero(good):
        np.negative(q, out=h)
        h.flat[::n + 1] += bound[i] * d2[i]
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            good[i] = False
    return good


def _check_linearization(grid: GridSpec) -> None:
    """Refuse the level set's 2N x 2N matrix above the dense cap."""
    _check_entries(grid, 4 * grid.modes_per_axis, "level-set linearization entries")


def _crossings(level: float, q: np.ndarray, lap: np.ndarray, lam_lo: float,
               lam_hi: float) -> np.ndarray:
    """Where an eigenvalue curve of D^-1 Q D^-1 may cross level > 0 inside
    (lam_lo, lam_hi): the sorted real parts of the eigenvalues of the
    linearization [[Lap, -sI], [-sQ, Lap]], s = 1/sqrt(level), that lie
    within 1e-6 of (a bound on) its infinity norm of the real axis."""
    n = lap.size
    s = 1.0 / np.sqrt(level)
    lin = np.zeros((2 * n, 2 * n))
    lin[np.diag_indices(2 * n)] = np.tile(lap, 2)
    lin[:n, n:][np.diag_indices(n)] = -s
    np.multiply(q, -s, out=lin[n:, :n])
    ev = np.linalg.eigvals(lin)
    norm_bound = -lap.min() + s * max(1.0, np.abs(q).sum(axis=1).max())
    near = np.abs(ev.imag) <= 1e-6 * norm_bound
    return np.sort(ev.real[near & (ev.real > lam_lo) & (ev.real < lam_hi)])


def _local_peak(f, a: float, b: float, x: float, fx: float) -> tuple[float, float]:
    """A local maximum of f on [a, b] from x in it (f(x) = fx): the best
    point found and its value.  f takes the one or two points of a round,
    strictly inside (a, b), as an array: a Lanczos block costs the same for
    two lambda as for one, which it runs twice.  The best point x lies
    between its nearest evaluated neighbours l < x < r (an end of [a, b]
    where none is).  With both evaluated, a round takes the vertex u of the
    parabola through l, x, r and the point 2 tol beyond u, away from x;
    otherwise, or where u falls outside (l, r), the golden points of (l, x)
    and (x, r).  With tol = 1e-6 |x| + 1e-10 (b - a), it stops when r - l <=
    4 tol, or when a neighbour within 3 tol fixes the slope at x and the
    parabola rises less than 1e-13 fx above x (or is flat to roundoff): M
    carries about that much roundoff.  At most 50 rounds run."""
    golden = 0.5 * (3.0 - np.sqrt(5.0))
    xs, fs = np.array([x]), np.array([fx])
    for _ in range(50):
        i = int(fs.argmax())
        x, fx = xs[i], fs[i]
        tol = 1e-6 * abs(x) + 1e-10 * (b - a)
        lo = xs[i - 1] if i > 0 else a
        hi = xs[i + 1] if i + 1 < xs.size else b
        if hi - lo <= 4.0 * tol:
            break
        u = np.nan
        if 0 < i < xs.size - 1:
            u, gain = _vertex(xs[i - 1:i + 2], fs[i - 1:i + 2])
            if min(x - lo, hi - x) <= 3.0 * tol and not gain > 1e-13 * abs(fx):
                break
        pair = [p for p in (u, u + np.copysign(2.0 * tol, u - x)) if lo < p < hi and p != x]
        pair = np.array(pair or [p for p in (x - golden * (x - lo), x + golden * (hi - x))
                                 if p != x])
        xs, fs = np.append(xs, pair), np.append(fs, f(pair))
        order = np.argsort(xs)
        xs, fs = xs[order], fs[order]
    i = int(fs.argmax())
    return float(xs[i]), float(fs[i])


def _vertex(x: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """(u, gain): the vertex of the parabola through (x_i, f_i), x_0 < x_1 < x_2,
    and how far it rises there above f_1; NaN where it is not strictly concave."""
    s0, s1 = (f[1] - f[0]) / (x[1] - x[0]), (f[2] - f[1]) / (x[2] - x[1])
    if not s1 < s0:
        return np.nan, np.nan
    u = 0.5 * (x[0] + x[1]) - 0.5 * s0 * (x[2] - x[0]) / (s1 - s0)
    return float(u), float((s0 - s1) / (x[2] - x[0]) * (u - x[1]) ** 2)


def sup_resolvent_constant(window: CutoffWindow, m: float, lam_lo: float,
                           lam_hi: float, start: float | None = None) -> ResolventSup:
    """The supremum of M(lambda) over [lam_lo, lam_hi], by the Boyd-Balakrishnan
    level set on the module's 2N x 2N linearization.

    theta starts from the best of M at lam_lo, at lam_hi and at the
    midpoint of every spectral gap in the interval, taken in one stacked
    evaluation, so that it starts in the gap of the highest peak.  A
    `start` (a lambda in the interval where M is known to be large, such as
    a grid's argmax) replaces every midpoint but the first gap's.  That point
    is refined to the local peak of M in its gap, clipped to [lam_lo, lam_hi]
    (`_local_peak`, two points a round through the sweep's own body: 4 or 5
    rounds from the CLI's start on the windows tried, where one point a round
    took 8 or 9), so that theta is the supremum to roundoff and the first
    crossing solve certifies it.  The certificate does not rest on the
    refinement, which only raises theta to a value M attains: where it stops
    short, the iteration goes on as from any attained theta.  Each iteration
    takes the crossings of the level theta (1 + 1e-8) (`_crossings`), and M
    at the midpoints between consecutive ones raises theta to the largest
    value found.  Near-real eigenvalues count as crossings: they only add
    midpoints, a double crossing that roundoff splits stays among them, and
    the pair a level just above a peak leaves puts a midpoint on the peak,
    to O(level - peak).  When no midpoint exceeds the level, M <= level on
    the interval: M is continuous, M(lam_lo), M(lam_hi) <= theta, so each
    component of {M > level} lies between two crossings and holds their
    midpoint.  A midpoint's M may carry a certified bracket [M, M + delta]
    (`_top_eigenvalues`), so `upper` is the larger of the level and the last
    midpoints' upper ends; with delta near 1e-13 M the level is the larger.

    M = 0 at the first gap's midpoint only if Q <= 0, and then everywhere:
    the result is 0 after no iteration.  An interval reaching an infeasible
    eigenvalue, where M is unbounded, raises InfeasibleResolventError once a
    midpoint lands on it (`_check_feasible` raises it before any eigensolve,
    as the CLI does); no convergence in 50 iterations raises LinAlgError.
    The linearization counts against the dense cap before anything is
    allocated (DenseSizeError above N = 1024).
    """
    if not (np.isfinite(lam_lo) and np.isfinite(lam_hi) and lam_lo < lam_hi):
        raise ValueError(f"need finite lam_lo < lam_hi, got {lam_lo}, {lam_hi}")
    if start is not None and not lam_lo <= start <= lam_hi:
        raise ValueError(f"start = {start} lies outside [{lam_lo}, {lam_hi}]")
    _check_linearization(window.grid)
    q, lap = _real_form(m, window), _level_laplacian(window.grid)
    eigs = np.unique(lap)
    ends = np.concatenate(([lam_lo], eigs[(lam_lo < eigs) & (eigs < lam_hi)], [lam_hi]))
    gaps = 0.5 * (ends[1:] + ends[:-1])  # the midpoint of each gap in the interval
    pts = np.concatenate(([lam_lo, lam_hi], gaps if start is None else [gaps[0], start]))
    vals = _constants(pts, m, q, lap, eigs)[0]
    theta, lam = vals.max(), pts[vals.argmax()]
    if theta == 0.0:
        return ResolventSup(0.0, float(lam), 0.0, 0)
    a = max(lam_lo, eigs[eigs <= lam].max(initial=lam_lo))  # lam's gap
    b = min(lam_hi, eigs[eigs > lam].min(initial=lam_hi))
    lam, theta = _local_peak(lambda xs: _constants(xs, m, q, lap, eigs)[0], a, b, lam, theta)
    for it in range(1, 51):
        level = theta * (1.0 + 1e-8)
        x = _crossings(level, q, lap, lam_lo, lam_hi)
        mids = 0.5 * (x[1:] + x[:-1])
        vals, uppers = _constants(mids, m, q, lap, eigs)
        if mids.size and vals.max() > theta:
            theta, lam = vals.max(), mids[vals.argmax()]
        if not mids.size or theta <= level:
            return ResolventSup(float(theta), float(lam),
                                float(uppers.max(initial=level)), it)
    raise np.linalg.LinAlgError(
        f"the level set for sup M(lambda) did not converge in 50 iterations "
        f"(theta = {theta:.6g} at lambda = {lam:.6g})")


def miller_cost_bound(M: float, m: float, T: float) -> float:
    """Observability cost 2*m*T / (T^2 - M*pi^2), valid for T > pi*sqrt(M)."""
    if T <= np.pi * np.sqrt(M):
        raise ValueError(
            f"T = {T} is at or below the Miller time pi*sqrt(M) = {np.pi * np.sqrt(M):.6g}")
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

