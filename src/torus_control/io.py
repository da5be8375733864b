"""JSON / CSV serialization of states, records and results.

States serialize as {dim, N, coeffs: [[re, im], ...]} with coefficients
listed in ascending mode order (k = -N/2 .. N/2-1), row-major over
(k1, k2) in 2D.
A state is read strictly: `dim` and `N` are JSON integers and every
coefficient a pair of finite real JSON numbers (booleans refused); each
error message starts with the offending key ("dim", "N" or "coeffs").
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .grid import FourierState, make_grid


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


def _integral(x) -> bool:
    """A JSON integer: an int or an integral float, not a boolean."""
    return _real(x) and (isinstance(x, int) or x.is_integer())


def _integer_field(obj: dict, key: str) -> int:
    value = obj.get(key)
    if not _integral(value):
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


def write_csv(path: Path, header: list[str], columns) -> None:
    """One row per sample of the equal-length `columns`, each value as %.12g,
    with the csv module's header and CRLF line ends.  The values are
    formatted as Python floats and written as one string."""
    values = [np.asarray(column, dtype=float).tolist() for column in columns]
    row = ",".join(["%.12g"] * len(values)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write("".join([row % sample for sample in zip(*values)]))


def write_trajectory_csv(path: Path, times, mass, observed) -> None:
    write_csv(path, ["t", "mass", "observed_mass"], [times, mass, observed])


def write_decay_csv(path: Path, record) -> None:
    write_csv(path, ["t", "mass", "energy", "observed"],
              [record.times, record.mass, record.energy, record.observed])


def write_sweep_csv(path: Path, result) -> None:
    write_csv(path, ["lambda", "M_best"], [result.lambda_grid, result.M_of_lambda])


def write_json(path: Path, obj: dict) -> None:
    """`obj` as indented JSON with sorted keys, written in one call."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
