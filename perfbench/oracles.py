"""Independent accuracy oracles, evaluated outside the timed region.

None of these reuse the program's time-quadrature nodes: the CLI's own
closed-loop certificate (`drive_linear`) shares the nodes of the CG solve,
so its residual equals the CG residual by construction and cannot reveal
a quadrature error.  Here the time integral of the Gramian is done in
closed form per matrix element, from the window samples alone.
"""

from __future__ import annotations

import csv
from functools import lru_cache

import numpy as np

from torus_control.nls import DecayRecord, mass_decay_residual
from torus_control.windows import make_window
from torus_control.grid import make_grid

#: Accuracy metrics below these levels read as the floor, so jitter never
#: counts as a regression.  C_T and control errors jitter at roundoff.
#: The mass identity is read from CSV records: `stabilize` samples every
#: 10 steps, which aliases the fast oscillation of the observed mass, so
#: the trapezoid integral is off by 5e-4 to 1e-2 of mass_0 depending on
#: the state (measured over 26 seeds); below 2e-2 the identity counts as
#: holding, and the per-op table still shows the raw value.
CT_ERR_FLOOR = 1e-9
CONTROL_ERR_FLOOR = 1e-9
MASS_IDENTITY_FLOOR = 2e-2


def window_samples(n: int, omega, width: float) -> np.ndarray:
    """chi on the n-point grid; the window definition is an input, so the
    program's own constructor is used to sample it."""
    return make_window(make_grid(1, n), [tuple(iv) for iv in omega],
                       transition_width=width, kind="smooth").samples


@lru_cache(maxsize=None)
def exact_gramian(n: int, omega: tuple, width: float, T: float) -> np.ndarray:
    """Dense 1D Gramian, exact in time.

    S_ab = W_ab * int_0^T exp(i (mu_a - mu_b) t) dt with mu = (2 pi k)^2 and
    W_ab = (chi^2)^(k_a - k_b), the Fourier coefficient of chi^2 at the mode
    difference (aliased, as on the program's grid).  Every mu difference is
    0 or at least 4 pi^2, so the closed form has no cancellation.
    """
    chi2_hat = np.fft.fft(window_samples(n, omega, width) ** 2) / n
    idx = np.arange(n)
    w = chi2_hat[(idx[:, None] - idx[None, :]) % n]
    mu = (2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)) ** 2
    d = mu[:, None] - mu[None, :]
    nz = d != 0.0
    time_integral = np.full(d.shape, T, dtype=complex)
    time_integral[nz] = (np.exp(1j * d[nz] * T) - 1.0) / (1j * d[nz])
    s = w * time_integral
    return 0.5 * (s + s.conj().T)


@lru_cache(maxsize=None)
def exact_ct(n: int, omega: tuple, width: float, T: float) -> float:
    """Observability constant 1 / lambda_min of the exact-time Gramian."""
    return 1.0 / float(np.linalg.eigvalsh(exact_gramian(n, omega, width, T))[0])


def relative_error(value: float, truth: float) -> float:
    return abs(value - truth) / abs(truth)


def control_error(u0_fft: np.ndarray, phi0_fft: np.ndarray, omega: tuple,
                  width: float, T: float) -> float:
    """||u0 - i S_exact phi0|| / ||u0||: the final state of the closed loop
    driven by phi0, with the Duhamel integral evaluated exactly in time."""
    s = exact_gramian(len(u0_fft), omega, width, T)
    return float(np.linalg.norm(u0_fft - 1j * (s @ phi0_fft))
                 / np.linalg.norm(u0_fft))


def read_decay_csv(path) -> DecayRecord:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "mass", "energy", "observed"]:
        raise ValueError(f"unexpected header {rows[0]} in {path}")
    cols = np.array(rows[1:], dtype=float).T
    return DecayRecord(times=cols[0], mass=cols[1], energy=cols[2],
                       observed=cols[3])


def mass_identity_error(record: DecayRecord) -> float:
    """|Delta mass + 2 int ||chi u||^2 dt| / mass_0 of a damped record."""
    return float(mass_decay_residual(record) / record.mass[0])
