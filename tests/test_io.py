"""Serialization round-trips and CSV layouts."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from torus_control import make_grid, make_window, random_state
from torus_control.cli import main
from torus_control.io import (state_from_json, state_to_json, write_csv,
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
    from torus_control.grid import plane_wave

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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_state_from_json_rejects_non_finite(bad):
    g = make_grid(1, 8)
    obj = state_to_json(random_state(g, np.random.default_rng(2)))
    obj["coeffs"][3] = [0.5, bad]
    with pytest.raises(ValueError, match="finite"):
        state_from_json(obj)


@pytest.mark.parametrize("index", [0, 3, 7])
@pytest.mark.parametrize("pair", [[True, 0.0], ["1.0", 0.0], [None, 0.0],
                                  [float("nan"), 0.0], [0.0, float("inf")],
                                  [-float("inf"), 0.0], [1.0], [1.0, 2.0, 3.0],
                                  [10 ** 400, 0.0]])
def test_state_from_json_names_the_bad_entry(pair, index):
    # the bulk parse refuses the state, and the message names the entry's
    # index as the one-at-a-time parse does
    obj = state_to_json(random_state(make_grid(1, 8), np.random.default_rng(2)))
    obj["coeffs"][index] = pair
    with pytest.raises(ValueError) as info:
        state_from_json(obj)
    assert str(info.value) == (f"coeffs[{index}]: expected a pair of finite real "
                               f"numbers, got {pair!r}")


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
    result = sweep(default_lambda_grid(g, 40), feasible_m(w), w)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, result)
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["lambda", "M_best"]
    assert len(rows) == len(result.lambda_grid) + 1
    jpath = tmp_path / "out.json"
    write_json(jpath, {"M_sup": result.M_sup})
    assert json.loads(jpath.read_text())["M_sup"] == result.M_sup


def test_csv_bytes_match_the_csv_module(tmp_path):
    # the one-string writer keeps the bytes of csv.writer with %.12g fields
    rng = np.random.default_rng(3)
    columns = [rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)
               for _ in range(3)]
    columns[0][:4] = [np.nan, np.inf, -np.inf, -0.0]
    header = ["t", "mass", "observed_mass"]
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{x:.12g}" for x in row] for row in zip(*columns))
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == reference.read_bytes()


def test_json_bytes_match_json_dump(tmp_path):
    obj = {"b": [1.5, np.float64(0.1), {"z": None, "y": True}], "a": "x" * 3}
    reference = tmp_path / "reference.json"
    with open(reference, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert path.read_bytes() == reference.read_bytes()


def test_json_bytes_match_json_dump_with_float_pairs(tmp_path):
    # float-pair lists in an insertion order that sort_keys reverses, beside
    # lists that hold an int, a non-finite float or a float subclass
    rng = np.random.default_rng(4)
    pairs = [rng.standard_normal((n, 2)).tolist() for n in (3, 1, 2)]
    obj = {"z": pairs[0], "m": {"y": pairs[1], "b": [pairs[2], [[1, 0.5]]]},
           "a": [[np.float64(0.1), 0.2]], "c": [[float("nan"), 1.0]], "d": (0.5, -0.0)}
    path = tmp_path / "out.json"
    write_json(path, obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


# one small config for every subcommand; N = 16, short horizons, an inline
# state whose coefficients sort before the window's pairs
REPORT_CFG = {
    "grid": {"dim": 1, "N": 16},
    "window": {"omega": [[0.0, 0.3]], "kind": "smooth", "transition_width": 0.05},
    "horizon": {"T": 1.0},
    "initial_state": state_to_json(random_state(make_grid(1, 16), np.random.default_rng(5),
                                                norm=0.5, max_mode=4)),
    "target": {"norm": 0.2, "max_mode": 4},
    "nls": {"sigma": -1, "dt": 1e-3},
    "sweep": {"n_points": 32, "cross_check": True},
    "seed": 3,
}
# an inline state whose coefficient list mixes ints with floats at the ends
# of the float range, beside a number past what the HUM solve can take
MIXED_STATE = {
    "dim": 1, "N": 16,
    "coeffs": [[1, 0], [-0.0, 5e-324], [1e150, -2], [0.25, -0.0]] + [[0.0, 0.0]] * 12,
    "scale": 1e308,
}


def _report_bytes(tmp_path: Path, sub: str, cfg: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([sub, "--config", str(path), "--out", str(out), "--format", "json"]) == 0
    return (out / f"{sub.replace('-', '_')}.json").read_text()


@pytest.mark.parametrize("sub", ["simulate", "control", "observability",
                                 "resolvent-sweep", "tensor-check", "stabilize",
                                 "global-control"])
def test_reports_are_json_dumps_bytes(tmp_path, sub):
    # every report, the spliced float-pair lists included, is the bytes of
    # json.dumps(indent=2, sort_keys=True) and a newline
    text = _report_bytes(tmp_path, sub, REPORT_CFG)
    report = json.loads(text)
    assert report["config_echo"] == REPORT_CFG
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    # and it is JSON: no NaN or Infinity constant
    json.loads(text, parse_constant=_refuse_constant)


def _refuse_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


# strings, as a value and as a key, that look like JSON, hold NULs, or
# render as the writer's placeholders do ("\u0000" and digits, whole or
# quoted inside)
@pytest.mark.parametrize("label", ['[["]], {"a": [1.0, 2.0]} \u0000 \\u0000', "\u00000",
                                   "\u00001", '"\u00000"'])
def test_report_with_mixed_numbers_and_strings_is_json_dumps_bytes(tmp_path, label):
    cfg = dict(REPORT_CFG, initial_state=dict(MIXED_STATE, label=label), **{label: 1})
    text = _report_bytes(tmp_path, "control", cfg)
    report = json.loads(text)
    assert report["config_echo"]["initial_state"]["coeffs"] == MIXED_STATE["coeffs"]
    assert report["config_echo"]["initial_state"]["label"] == label
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
