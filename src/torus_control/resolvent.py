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
takes the Laplacian symbol in the same order (`hum._level_slots`), and takes
the top eigenvalue of D^-1 Q_r D^-1 at every lambda off the spectrum from
one kernel (`_top_eigenvalues`): from N = 48 on, Lanczos on a block of
lambda at once, every value certified by a Cholesky factor or else taken
from a dense eigensolve, and below N = 48 the dense eigensolve alone (see
`sweep`).  The complex formula survives only as the test reference.  The
constants describe one truncation, whose grid every entry point takes
from the window.

The supremum of M(lambda) over an interval comes from a level set, not from
a grid (`sup_resolvent_constant`).  Off the spectrum D = Lap - lambda is
invertible and D^-1 Q D^-1 - theta I = D^-1 (Q - theta D^2) D^-1, so by
Sylvester's law of inertia M(lambda) >= theta > 0 exactly when
Q - theta (Lap - lambda)^2 has an eigenvalue >= 0.  On the spectrum, with
the kernel block Q_kk < 0 that feasibility asks for, the same holds for
the Schur complement that `_best_constant` keeps.  The lambda where some
eigenvalue curve crosses theta are therefore the real eigenvalues of the
quadratic problem (Q - theta (Lap - lambda)^2) v = 0, that is (with
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
        """This curve with (lam, M) inserted in its ascending lambda grid,
        unless lam is already on it."""
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
        inv_d = 1.0 / d[comp]
        g = inv_d[:, None] * q_eff * inv_d[None, :]  # eigvalsh reads one triangle
        return float(_clamped(np.linalg.eigvalsh(g)[-1], lam)[0])
    return float(_clamped(_top_eigenvalues(np.array([lam]), q, lap)[0], lam)[0])


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


def default_lambda_grid(grid: GridSpec, n_points: int = 128) -> np.ndarray:
    """lambda samples concentrated near the truncated Laplacian spectrum.

    Places points at each eigenvalue -(2*pi*k)^2 and fills every spectral
    gap, from 10% below the lowest eigenvalue to (2*pi)^2 above zero: the
    curve M(lambda), which peaks between eigenvalues.  Its supremum comes
    from `sup_resolvent_constant`, not from these samples.  n_points is a
    budget shared by the N/2 + 2 gaps: each takes max(3, n_points // gaps)
    Chebyshev points and one point 1e-2 of the gap from each of its ends,
    and the eigenvalues come on top, so the default gives 179 / 203 / 299
    points at N = 32 / 64 / 96, 779 at N = 256 and 1547 at N = 512.

    Nearer offsets would only repeat the eigenvalue's own M: where the
    kernel block is feasible M is continuous across it (at 1e-4 of a gap
    M matched it to 1.2e-3 relative).  At the 1e-2 offsets the entries of
    D^-1 Q D^-1 reach (1 + m) / d^2 while M(lambda) is far smaller, so M
    there carries 9 to 10 of the 12 significant digits the CSV prints: it
    moved by up to 4.4e-11 / 4.8e-11 / 9.3e-11 / 2.5e-10 relative under 12
    exact shifts of the window by whole grid steps at N = 32 / 64 / 96 /
    256, against 2e-12 / 2.1e-13 / 1.4e-13 / 7.8e-13 at the Chebyshev
    points (smooth (0, 0.2)).
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
    D^-1 Q_r D^-1, which `_top_eigenvalues` takes for all of them at once:
    from N = 48 on by Lanczos on blocks of 48 lambda, each value kept only
    where a Cholesky factor certifies it to a stated delta (at most
    4e-12 relative at the Chebyshev points of the default grid), and otherwise
    (and below N = 48) by a dense `eigvalsh`.  Each M(lambda) has the bits
    that lambda gets alone.  Beside Q_r and the few N x N arrays of one
    kernel elimination, the sweep holds one buffer of at most 2^16 entries
    (512 kB; one matrix past N = 256), six Lanczos vectors per lambda of a
    block and O(N) numbers per lambda.  A NaN M(lambda), from a form that
    overflows, raises LinAlgError.
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
    form q and the symbol lap in level order, with eigs = np.unique(lap),
    and an upper end of each M: the certified theta + delta of
    `_top_eigenvalues` off the spectrum, M itself where a dense eigensolve
    gave it.  The body of `sweep`."""
    best = np.empty_like(lambda_grid)
    on = _on_spectrum(lambda_grid, eigs)
    for i in np.flatnonzero(on):
        lam = lambda_grid[i]
        try:
            best[i] = _best_constant(lam, q, lap)
        except InfeasibleResolventError as exc:
            raise InfeasibleResolventError(
                f"infeasible at lambda = {lam:.6g}, m = {m:.6g}: {exc}"
            ) from exc
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
_LANCZOS_ROWS = 48   # lambda per block


def _top_eigenvalues(lams: np.ndarray, q: np.ndarray,
                     lap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(top, upper): the top eigenvalue of G = D^-1 q D^-1, D = lap - lambda
    != 0, at each lambda, and an upper end of it.

    Below N = `_LANCZOS_MIN_N` every G goes through one dense `eigvalsh`,
    and upper = top.  From there on, blocks of `_LANCZOS_ROWS` lambda run
    three-term Lanczos together from one fixed start vector (Parlett, The
    Symmetric Eigenvalue Problem, 1998, ch. 13): each step is one product
    (V o D^-1) @ q of at least two rows, a second Gram-Schmidt pass against
    the last vector, and theta is the top eigenvalue of the tridiagonal,
    from one stacked `eigvalsh`.  A lambda keeps theta only where
    `np.linalg.cholesky` factors (theta + delta) D^2 - q, which by
    Sylvester's law is where (theta + delta) I - G is positive definite,
    with

        delta = max(1e-13 |theta|, 0.1 n eps ||G||),

    ||G|| estimated by the largest |Ritz value|.  Then top = theta, and
    upper = theta + delta bounds the top eigenvalue up to the factor's
    backward error, which is invariant under the diagonal scaling D
    (Demmel, Applied Numerical Linear Algebra, 1997, sec. 2.7).  A Ritz
    value approaches the top eigenvalue from below; rounding can leave a
    converged one above it by a few eps ||G||, well inside n eps ||G||,
    the dense eigensolve's own backward error.  The rows that the first
    `_LANCZOS_STEPS` steps leave uncertified go on for half as many steps
    again, and the rest go to the dense `eigvalsh`.  Every row is computed
    from its own lambda alone (a one-row product rounds differently from a
    block, so a lone row runs twice), so no value depends on the other
    lambda of its block.
    """
    n = lap.size
    top, upper = np.empty_like(lams), np.empty_like(lams)
    # one buffer for the stacked forms, tridiagonals and factors of a block
    buf = np.empty(min(max(2 ** 16, n * n), max(2, lams.size) * n * n))
    todo = np.arange(lams.size)
    if n >= _LANCZOS_MIN_N:
        done = np.zeros(lams.size, dtype=bool)
        for start in range(0, lams.size, _LANCZOS_ROWS):
            rows = np.arange(start, min(start + _LANCZOS_ROWS, lams.size))
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
    """A local maximum of f on [a, b] from x in it (f(x) = fx), by Brent's
    golden section with parabolic steps (Algorithms for Minimization
    without Derivatives, 1973, ch. 5), to 1e-6 relative in x: the best
    point found and its value.  f is called only strictly inside (a, b).

    Within 1e-6 relative in lambda of a smooth peak of M(lambda), M lies
    within about 1e-13 relative of the peak value, so a finer tolerance
    only spends evaluations on roundoff."""
    golden = 0.5 * (3.0 - np.sqrt(5.0))
    w = v = x
    fw = fv = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        tol = 1e-6 * abs(x) + 1e-10 * (b - a)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol:  # a parabola through x, w, v (minimizing -f)
            r = (x - w) * (fv - fx)
            q = (x - v) * (fw - fx)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < mid else -tol
        else:  # golden section into the larger part
            e = (b if x < mid else a) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else np.copysign(tol, d))
        fu = f(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu


def sup_resolvent_constant(window: CutoffWindow, m: float, lam_lo: float,
                           lam_hi: float, start: float | None = None) -> ResolventSup:
    """The supremum of M(lambda) over [lam_lo, lam_hi], by the Boyd-Balakrishnan
    level set on the module's 2N x 2N linearization.

    theta starts from the best of M at lam_lo, at lam_hi and at the
    midpoint of every spectral gap in the interval, taken in one stacked
    evaluation, so that it starts in the gap of the highest peak.  A
    `start` (a lambda in the interval where M is known to be large, such as
    a grid's argmax, which has sampled the gaps already) replaces every
    midpoint but the first gap's, saving N/2 + 1 eigensolves.  That point is
    then refined to the local peak of M in its spectral gap, clipped to
    [lam_lo, lam_hi] (`_local_peak`, Brent's golden section with parabolic
    steps, to 1e-6 relative in lambda, each M from the sweep's own body), so
    that from a start in the peak's gap theta is already the supremum to
    roundoff and the first crossing solve is the certifying one.  The
    refinement only raises theta to a value M attains in the interval; the
    certificate does not rest on it: where it stops short of the supremum,
    the iteration below goes on as from any attained theta.  Each iteration
    takes the crossings of the level theta (1 + 1e-8) (`_crossings`), and M
    at the midpoints between consecutive ones raises theta to the largest
    value found.  Near-real eigenvalues count as crossings: they only add
    midpoints, a double crossing that roundoff splits stays among them, and
    the pair a level just above a peak leaves puts a midpoint at its real
    part, on the peak to O(level - peak).  When no midpoint exceeds the level,
    M <= level on the interval: every component of {M > level} is bounded
    by two crossings, since M is continuous and M(lam_lo), M(lam_hi) <=
    theta, and the midpoint of the first two holds M > level.  A midpoint's
    M may carry a certified bracket [M, M + delta] (`_top_eigenvalues`), so
    `upper` is the larger of the level and the upper ends of the last
    midpoints; with delta near 1e-13 M the level is the larger.

    At the first gap's midpoint, off the spectrum, M = 0 only if Q <= 0,
    and then M vanishes everywhere: the result is 0 after no iteration.  An
    interval reaching an infeasible eigenvalue, where M is unbounded, raises
    InfeasibleResolventError once a midpoint lands on it; no convergence in
    50 iterations raises LinAlgError.  The linearization counts against the
    dense cap before anything is allocated (DenseSizeError above N = 1024).
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
    lam, theta = _local_peak(lambda x: _constants(np.array([x]), m, q, lap, eigs)[0][0],
                             a, b, lam, theta)
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

