"""JSON / CSV serialization of states, records and results.

States serialize as {dim, N, coeffs: [[re, im], ...]} with coefficients
listed in ascending mode order (k = -N/2 .. N/2-1), row-major over
(k1, k2) in 2D, written as one `tolist` of the coefficients' float view.
A state is read strictly: `dim` and `N` are JSON integers and every
coefficient a pair of finite real JSON numbers (booleans refused); each
error message starts with the offending key ("dim", "N" or "coeffs").
The coefficients are read in bulk, by one `np.array` call after a type
screen; only a state the screen or the finiteness check refuses goes
through them one at a time, to name the first bad entry.

Reports are `json.dumps(obj, indent=2, sort_keys=True)` plus a newline,
byte for byte.  Each list of [re, im] pairs of finite floats (states,
controls) is rendered by one join of the floats' reprs at its
indentation, and spliced into the `json.dumps` text of the rest.
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import chain
from pathlib import Path

import numpy as np

from .grid import FourierState, make_grid


def state_to_json(u: FourierState) -> dict:
    c = np.fft.fftshift(u.coeffs).reshape(-1, 1)
    return {
        "dim": u.grid.dim,
        "N": u.grid.modes_per_axis,
        "coeffs": c.view(np.float64).tolist(),
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
    """[[re, im], ...] as complex numbers, each part a finite real number:
    one `np.array` call once every pair is a list of two ints or floats."""
    if not isinstance(pairs, list):
        raise ValueError(f"coeffs: expected a list of [re, im] pairs, got {pairs!r}")
    if (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}):
        try:
            flat = np.array(pairs, dtype=float).reshape(-1, 2).view(complex).ravel()
        except OverflowError:  # an integer past the float range
            flat = None
        if flat is not None and np.isfinite(flat).all():
            return flat
    return _checked_coefficients(pairs)


def _checked_coefficients(pairs: list) -> np.ndarray:
    """`_coefficients` one pair at a time, for what the bulk path refuses:
    the first entry that is not a pair of finite real numbers raises a
    ValueError naming its index."""
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


# a placeholder string as `json.dumps` renders it, holding its splice index
_SPLICE = re.compile(r'"\\u0000(\d+)"')


def _pair_list_text(values, level: int) -> str | None:
    """`json.dumps(values, indent=2)` at nesting `level` for a non-empty list
    of [re, im] lists of finite floats, as one join; None for anything else."""
    if type(values) is not list or not values:
        return None
    if set(map(type, values)) != {list} or set(map(len, values)) != {2}:
        return None
    flat = list(chain.from_iterable(values))
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    reprs = list(map(float.__repr__, flat))
    pairs = map(("," + inner).join, zip(reprs[0::2], reprs[1::2]))
    return ("[" + outer + "[" + inner + (outer + "]," + outer + "[" + inner).join(pairs)
            + outer + "]\n" + "  " * level + "]")


def _take_pair_lists(obj, level: int, texts: list):
    """A copy of obj's containers with each list of float pairs replaced by
    the placeholder string "\\0<i>", its text stored at texts[i]."""
    if isinstance(obj, dict):
        return {key: _take_pair_lists(value, level + 1, texts)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        text = _pair_list_text(obj, level)
        if text is None:
            return [_take_pair_lists(item, level + 1, texts) for item in obj]
        texts.append(text)
        return f"\0{len(texts) - 1}"
    return obj


def write_json(path: Path, obj: dict) -> None:
    """`obj` as indented JSON with sorted keys, written in one call: the
    bytes of `json.dumps(obj, indent=2, sort_keys=True)` and a newline.

    The float-pair lists go in by their placeholders, each by the index it
    holds.  A string of obj that renders like one (a NUL and digits) raises
    the count of matches past the number of placeholders, and the whole of
    obj then goes through `json.dumps`."""
    texts = []
    parts = _SPLICE.split(json.dumps(_take_pair_lists(obj, 0, texts),
                                     indent=2, sort_keys=True))
    if len(parts) == 2 * len(texts) + 1:
        # in the order of the sorted keys, not of the walk
        parts[1::2] = [texts[int(i)] for i in parts[1::2]]
        text = "".join(parts)
    else:
        text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
