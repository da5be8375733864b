"""JSON / CSV serialization of states, windows, records and results.

States serialize as {dim, N, coeffs: [[re, im], ...]} with coefficients
listed in ascending mode order (k = -N/2 .. N/2-1), row-major over
(k1, k2) in 2D.  Windows serialize as {kind, omega, transition_width,
samples}.
A state is read strictly: `dim` and `N` are JSON integers and every
coefficient a pair of finite real JSON numbers (booleans refused); each
error message starts with the offending key ("dim", "N" or "coeffs").
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .grid import FourierState, GridSpec, make_grid
from .windows import CutoffWindow


def state_to_json(u: FourierState) -> dict:
    c = np.fft.fftshift(u.coeffs).reshape(-1)
    return {
        "dim": u.grid.dim,
        "N": u.grid.modes_per_axis,
        "coeffs": [[float(z.real), float(z.imag)] for z in c],
    }


def _real(x) -> bool:
    """A JSON number: an int or float, not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer_field(obj: dict, key: str) -> int:
    value = obj.get(key)
    whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _coefficients(pairs) -> np.ndarray:
    """[[re, im], ...] as complex numbers, each part a finite real number."""
    if not isinstance(pairs, list):
        raise ValueError(f"coeffs: expected a list of [re, im] pairs, got {pairs!r}")
    flat = np.full(len(pairs), np.nan, dtype=complex)
    for j, pair in enumerate(pairs):
        if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_real, pair)):
            try:
                flat[j] = complex(*pair)
            except OverflowError:  # an integer past the float range
                pass
        if not np.isfinite(flat[j]):
            raise ValueError(f"coeffs[{j}]: expected a pair of finite real "
                             f"numbers, got {pair!r}")
    return flat


def state_from_json(obj: dict) -> FourierState:
    dim, n = _integer_field(obj, "dim"), _integer_field(obj, "N")
    if dim not in (1, 2):
        raise ValueError(f"dim: expected 1 or 2, got {dim}")
    try:
        grid = make_grid(dim, n)
    except ValueError as exc:
        raise ValueError(f"N: {exc}") from exc
    flat = _coefficients(obj.get("coeffs"))
    if flat.size != grid.n_points:
        raise ValueError(f"coeffs: expected {grid.n_points} pairs for dim = {dim}, "
                         f"N = {n}, got {flat.size}")
    return FourierState(grid, np.fft.ifftshift(flat.reshape(grid.shape)))


def window_to_json(w: CutoffWindow) -> dict:
    return {
        "kind": w.kind,
        "omega": [list(iv) for iv in w.omega],
        "transition_width": w.transition_width,
        "samples": np.asarray(w.samples).reshape(-1).tolist(),
    }


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_trajectory_csv(path: Path, times, mass, observed) -> None:
    write_csv(path, ["t", "mass", "observed_mass"],
              [[f"{t:.12g}", f"{m:.12g}", f"{o:.12g}"]
               for t, m, o in zip(times, mass, observed)])


def write_decay_csv(path: Path, record) -> None:
    write_csv(path, ["t", "mass", "energy", "observed"],
              [[f"{t:.12g}", f"{m:.12g}", f"{e:.12g}", f"{o:.12g}"]
               for t, m, e, o in zip(record.times, record.mass,
                                     record.energy, record.observed)])


def write_sweep_csv(path: Path, result) -> None:
    write_csv(path, ["lambda", "M_best"],
              [[f"{lam:.12g}", f"{mm:.12g}"]
               for lam, mm in zip(result.lambda_grid, result.M_of_lambda)])


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
