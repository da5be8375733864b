"""JSON / CSV serialization of states, windows, records and results.

States serialize as {dim, N, coeffs: [[re, im], ...]} with coefficients
listed in ascending mode order (k = -N/2 .. N/2-1), row-major over
(k1, k2) in 2D.  Windows serialize as {kind, omega, transition_width,
samples}.
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


def state_from_json(obj: dict) -> FourierState:
    grid = make_grid(int(obj["dim"]), int(obj["N"]))
    flat = np.array([complex(re, im) for re, im in obj["coeffs"]])
    if flat.size != grid.n_points:
        raise ValueError("coefficient count does not match grid")
    if not np.all(np.isfinite(flat)):
        raise ValueError("coefficients must be finite")
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
