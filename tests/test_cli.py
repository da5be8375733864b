"""CLI subcommands: exit codes, artifacts, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from torus_control import GramianSpec, make_grid, make_window
from torus_control.cli import main
from torus_control.hum import lambda_min_dense


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def base_cfg():
    return {
        "grid": {"dim": 1, "N": 32},
        "window": {"omega": [[0.0, 0.25]], "kind": "smooth",
                   "transition_width": 0.05},
        "horizon": {"T": 1.0},
        "initial_state": {"norm": 1.0, "max_mode": 8},
        "seed": 3,
    }


def test_observability_writes_report(tmp_path, base_cfg):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "observability.json"))
    assert report["results"]["C_T"] > 1.0
    assert report["results"]["lambda_min"] == pytest.approx(
        1.0 / report["results"]["C_T"])
    assert report["config_echo"]["grid"]["N"] == 32


def test_control_closed_loop_report(tmp_path, base_cfg):
    base_cfg["solver"] = {"tol": 1e-9}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "control.json"))
    assert report["results"]["residual"] < 1e-7
    assert (out / "control_trajectory.csv").exists()


def test_simulate_and_stabilize(tmp_path, base_cfg):
    base_cfg["window"] = {"omega": [[0.0, 0.3]]}
    base_cfg["nls"] = {"sigma": 1, "dt": 1e-3, "damped": True}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "simulate.json"))
    assert report["results"]["final_mass"] < report["results"]["initial_mass"]

    base_cfg["horizon"] = {"T": 10.0}
    cfg = write_cfg(tmp_path, "cfg2.json", base_cfg)
    out = tmp_path / "stab"
    assert main(["stabilize", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "stabilize.json"))
    assert report["results"]["gamma_fit"] > 0.0


def test_resolvent_sweep_artifacts(tmp_path, base_cfg):
    base_cfg["sweep"] = {"n_points": 100}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["resolvent-sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "resolvent_sweep.json"))
    assert report["results"]["M_sup"] > 0.0
    assert report["results"]["miller_time"] > 0.0
    assert (out / "resolvent_sweep.csv").exists()


def test_tensor_check(tmp_path, base_cfg):
    base_cfg["grid"]["N"] = 8
    base_cfg["window"] = {"omega": [[0.0, 0.4]]}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["tensor-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "tensor_check.json"))
    assert report["results"]["relative_gap"] < 1e-6


def test_tensor_check_exact_transfer(tmp_path, base_cfg):
    base_cfg["grid"]["N"] = 16
    base_cfg["window"] = {"omega": [[0.0, 0.2]], "transition_width": 0.05}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["tensor-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "tensor_check.json"))
    assert report["results"]["relative_gap"] <= 1e-10


def test_observability_is_exact_dense(tmp_path, base_cfg):
    base_cfg["grid"]["N"] = 256
    base_cfg["window"] = {"omega": [[0.0, 0.2]], "transition_width": 0.05}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
    lam = json.load(open(out / "observability.json"))["results"]["lambda_min"]
    g = make_grid(1, 256)
    spec = GramianSpec(T=1.0, window=make_window(g, (0.0, 0.2), 0.05))
    assert lam == pytest.approx(lambda_min_dense(spec), rel=1e-12)


def test_dense_size_guard_exit_2(tmp_path, base_cfg, capsys):
    base_cfg["grid"]["N"] = 4096
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 2
    assert "grid.N" in capsys.readouterr().err
    assert not (out / "error.json").exists()


def test_control_trajectory_ends_at_residual(tmp_path, base_cfg):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    results = json.load(open(out / "control.json"))["results"]
    assert results["iterations"] == 0
    assert {"residual", "n_quad", "phi0"} <= results.keys()
    traj = np.loadtxt(out / "control_trajectory.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert len(traj) == results["n_quad"] + 2
    assert np.sqrt(traj[-1, 1]) == pytest.approx(results["residual"], rel=1e-9)
    assert results["residual"] < 1e-13


def test_global_control_to_zero(tmp_path, base_cfg):
    base_cfg["window"] = {"omega": [[0.0, 0.3]]}
    base_cfg["initial_state"] = {"norm": 0.3, "max_mode": 8}
    base_cfg["target"] = {"norm": 0.0}
    base_cfg["nls"] = {"sigma": -1, "dt": 1e-3}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["global-control", "--config", cfg, "--out", str(out)]) == 0
    report = json.load(open(out / "global_control.json"))
    assert report["results"]["endpoint_error_to_zero"] < 1e-6


def test_unknown_subcommand_exit_64(tmp_path, base_cfg):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    assert main(["frobnicate", "--config", cfg]) == 64


def test_config_errors_exit_2(tmp_path, base_cfg):
    assert main(["observability", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = write_cfg(tmp_path, "bad.json", {"grid": {"dim": 1}})
    assert main(["observability", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, "badwin.json",
                    {"grid": {"dim": 1, "N": 32},
                     "window": {"omega": [[0.5, 0.4]]}})
    assert main(["observability", "--config", cfg]) == 2


def test_numerical_failure_exit_3(tmp_path):
    # empty sharp window: the Gramian is singular
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"grid": {"dim": 1, "N": 32},
                     "window": {"omega": [[0.41, 0.42]], "kind": "sharp"},
                     "horizon": {"T": 1.0}})
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 3
    err = json.load(open(out / "error.json"))
    assert err["error"] == "GramianSingularError"


def test_deterministic_given_seed(tmp_path, base_cfg):
    base_cfg["solver"] = {"tol": 1e-9}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["control", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["control", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    assert (out1 / "control.json").read_bytes() == (out2 / "control.json").read_bytes()
    assert (out1 / "control_trajectory.csv").read_bytes() == \
        (out2 / "control_trajectory.csv").read_bytes()


def test_seed_changes_draw(tmp_path, base_cfg):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["control", "--config", cfg, "--out", str(out1), "--seed", "1"])
    main(["control", "--config", cfg, "--out", str(out2), "--seed", "2"])
    r1 = json.load(open(out1 / "control.json"))
    r2 = json.load(open(out2 / "control.json"))
    assert r1["results"]["phi0"] != r2["results"]["phi0"]


def test_json_only_format_skips_csv(tmp_path, base_cfg):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    assert not (out / "control_trajectory.csv").exists()
    assert (out / "control.json").exists()
