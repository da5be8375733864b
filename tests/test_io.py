"""Serialization round-trips and CSV layouts."""

import csv

import numpy as np
import pytest

from torus_control import make_grid, make_window, random_state
from torus_control.io import (state_from_json, state_to_json, window_to_json,
                              write_decay_csv, write_json, write_sweep_csv,
                              write_trajectory_csv)
from torus_control.nls import DecayRecord


def test_state_round_trip_1d():
    g = make_grid(1, 16)
    u = random_state(g, np.random.default_rng(0))
    obj = state_to_json(u)
    assert obj["dim"] == 1 and obj["N"] == 16
    v = state_from_json(obj)
    assert np.allclose(v.coeffs, u.coeffs)


def test_state_round_trip_2d():
    g = make_grid(2, 8)
    u = random_state(g, np.random.default_rng(1))
    v = state_from_json(state_to_json(u))
    assert np.allclose(v.coeffs, u.coeffs)


def test_state_json_ascending_mode_order():
    from torus_control import plane_wave

    g = make_grid(1, 8)
    u = plane_wave(g, -4, 1.0)  # most negative mode
    obj = state_to_json(u)
    assert obj["coeffs"][0] == [1.0, 0.0]  # first entry is k = -N/2


def test_state_from_json_rejects_bad_count():
    g = make_grid(1, 8)
    obj = state_to_json(random_state(g, np.random.default_rng(2)))
    obj["coeffs"] = obj["coeffs"][:-1]
    with pytest.raises(ValueError):
        state_from_json(obj)


def test_window_json_fields():
    g = make_grid(1, 32)
    w = make_window(g, (0.1, 0.5), 0.05, "smooth")
    obj = window_to_json(w)
    assert obj["kind"] == "smooth"
    assert obj["omega"] == [[0.1, 0.5]]
    assert len(obj["samples"]) == 32


def test_trajectory_csv(tmp_path):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, [0.0, 0.5], [1.0, 0.8], [0.3, 0.2])
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["t", "mass", "observed_mass"]
    assert float(rows[2][1]) == 0.8


def test_decay_csv(tmp_path):
    t = np.array([0.0, 1.0])
    rec = DecayRecord(times=t, mass=np.array([1.0, 0.5]),
                      energy=np.array([2.0, 1.9]), observed=np.array([0.2, 0.1]))
    path = tmp_path / "decay.csv"
    write_decay_csv(path, rec)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["t", "mass", "energy", "observed"]
    assert len(rows) == 3


def test_sweep_csv_and_json(tmp_path):
    from torus_control import default_lambda_grid, feasible_m, sweep

    g = make_grid(1, 8)
    w = make_window(g, (0.0, 0.4), 0.05, "smooth")
    result = sweep(default_lambda_grid(g, 40), feasible_m(w, g), w, g)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["lambda", "M_best"]
    assert len(rows) == len(result.lambda_grid) + 1
    jpath = tmp_path / "out.json"
    write_json(jpath, {"M_sup": result.M_sup})
    import json

    assert json.loads(jpath.read_text())["M_sup"] == result.M_sup
