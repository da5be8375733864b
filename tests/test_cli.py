"""CLI subcommands: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import torus_control
from torus_control import GramianSpec, make_grid, make_window
from torus_control.cli import main
from torus_control.hum import lambda_min_dense

from conftest import traced_peak


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


#: set_field value that deletes the field
ABSENT = object()


def set_field(cfg, path, value):
    """Set the dotted config field `path`, or delete it if value is ABSENT;
    returns its parent keys."""
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node.setdefault(part, {})
    if value is ABSENT:
        del node[key]
    else:
        node[key] = value
    return parents


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
    report = json.loads((out / "observability.json").read_text())
    assert report["results"]["C_T"] > 1.0
    assert report["results"]["lambda_min"] == pytest.approx(
        1.0 / report["results"]["C_T"])
    assert report["config_echo"]["grid"]["N"] == 32


def test_control_closed_loop_report(tmp_path, base_cfg):
    base_cfg["solver"] = {"tol": 1e-9}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "control.json").read_text())
    assert report["results"]["residual"] < 1e-7
    assert (out / "control_trajectory.csv").exists()


def test_simulate_and_stabilize(tmp_path, base_cfg):
    base_cfg["window"] = {"omega": [[0.0, 0.3]]}
    base_cfg["nls"] = {"sigma": 1, "dt": 1e-3, "damped": True}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "simulate.json").read_text())
    assert report["results"]["final_mass"] < report["results"]["initial_mass"]

    base_cfg["horizon"] = {"T": 10.0}
    cfg = write_cfg(tmp_path, "cfg2.json", base_cfg)
    out = tmp_path / "stab"
    assert main(["stabilize", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "stabilize.json").read_text())
    assert report["results"]["gamma_fit"] > 0.0


def test_resolvent_sweep_artifacts(tmp_path, base_cfg):
    base_cfg["sweep"] = {"n_points": 100}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["resolvent-sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "resolvent_sweep.json").read_text())
    assert report["results"]["M_sup"] > 0.0
    assert report["results"]["miller_time"] > 0.0
    assert (out / "resolvent_sweep.csv").exists()


@pytest.mark.parametrize("sweep_cfg", [
    {}, {"lambda_min": -500.0, "lambda_max": 50.0, "n_points": 40}],
    ids=["default-grid", "lambda-range"])
def test_resolvent_sweep_report_agrees_with_its_csv(tmp_path, base_cfg, sweep_cfg):
    # what the spectral-sweep benchmark checks of every run: one CSV row per
    # grid_spec.n_points, the CSV's largest M equal to M_sup to 1e-9, and
    # miller_time = pi sqrt(M_sup); M_sup is the level set's supremum, at
    # least the sampled maximum and at most its certified upper bound
    base_cfg["window"]["omega"] = [[0.0, 0.2]]
    base_cfg["sweep"] = sweep_cfg
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["resolvent-sweep", "--config", cfg, "--out", str(out)]) == 0
    r = json.loads((out / "resolvent_sweep.json").read_text())["results"]
    rows = np.loadtxt(out / "resolvent_sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == r["grid_spec"]["n_points"]
    assert abs(rows[:, 1].max() - r["M_sup"]) <= 1e-9 * r["M_sup"]
    assert abs(r["miller_time"] - np.pi * np.sqrt(r["M_sup"])) <= 1e-12 * r["miller_time"]
    assert r["M_sup_sampled"] <= r["M_sup"] <= r["M_sup_upper"]
    # from the sampled argmax, refined to the peak, one crossing solve certifies
    assert r["level_set_iterations"] == 1
    # the CSV prints 12 significant digits
    lam_min, lam_max = r["grid_spec"]["lambda_min"], r["grid_spec"]["lambda_max"]
    assert rows[0, 0] == pytest.approx(lam_min, rel=1e-11)
    assert rows[-1, 0] == pytest.approx(lam_max, rel=1e-11)
    assert np.abs(rows[:, 0] - r["lambda_star"]).min() <= 1e-11 * abs(r["lambda_star"])
    # the supremum to its 10th decimal at N = 32, on either range
    assert abs(r["M_sup"] - 0.0028376020) <= 5e-11
    # the default grid: 179 points of the 128 budget and lambda*
    assert len(rows) == (180 if not sweep_cfg else 41)


def test_resolvent_sweep_refuses_a_linearization_past_the_cap(tmp_path, base_cfg, capsys):
    # the level set's 2N x 2N matrix past 2048**2 entries (N > 1024) is
    # refused before the window's coefficients or the lambda grid are made
    base_cfg["grid"]["N"] = 1026
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["resolvent-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.N: ") and "level-set linearization" in err


def test_tensor_check(tmp_path, base_cfg):
    base_cfg["grid"]["N"] = 8
    base_cfg["window"] = {"omega": [[0.0, 0.4]]}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["tensor-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "tensor_check.json").read_text())
    assert report["results"]["relative_gap"] < 1e-6


def test_tensor_check_exact_transfer(tmp_path, base_cfg):
    base_cfg["grid"]["N"] = 16
    base_cfg["window"] = {"omega": [[0.0, 0.2]], "transition_width": 0.05}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["tensor-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "tensor_check.json").read_text())
    assert report["results"]["relative_gap"] <= 1e-10


def test_observability_defaults_to_the_full_window(tmp_path, base_cfg):
    # no window.omega: chi = 1 on the whole torus, so S = T I and C_T = 1/T
    del base_cfg["window"]["omega"]
    base_cfg["horizon"] = {"T": 0.4}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "observability.json").read_text())
    assert report["results"]["C_T"] == pytest.approx(2.5, rel=1e-12)


def test_observability_is_exact_dense(tmp_path, base_cfg):
    base_cfg["grid"]["N"] = 256
    base_cfg["window"] = {"omega": [[0.0, 0.2]], "transition_width": 0.05}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
    lam = json.loads((out / "observability.json").read_text())["results"]["lambda_min"]
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


def test_global_control_size_guard_before_damping(tmp_path, base_cfg, capsys,
                                                 monkeypatch):
    # 2D N = 162 gives 162 x 162**2 mode-space entries, above 2048**2:
    # refused before the damped leg starts
    def no_damping(*args, **kwargs):
        raise AssertionError("damped leg ran before the size guard")

    monkeypatch.setattr("torus_control.nls._stabilize_to_threshold", no_damping)
    base_cfg["grid"] = {"dim": 2, "N": 162}
    base_cfg["window"] = {"omega": [[0.0, 0.3]]}
    base_cfg["initial_state"] = {"norm": 0.3, "max_mode": 8}
    base_cfg["nls"] = {"sigma": -1, "dt": 1e-3}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["global-control", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: grid.N" in capsys.readouterr().err
    assert not (out / "error.json").exists()


def test_tensor_check_2d_reference_size_guard(tmp_path, base_cfg, capsys):
    # the genuinely 2D reference Gramian keeps the 2048-mode cap (N <= 44)
    base_cfg["grid"]["N"] = 46
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["tensor-check", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: grid.N" in capsys.readouterr().err


@pytest.mark.parametrize("sub,grid,message", [
    ("observability", {"dim": 1, "N": 33},
     "config error: grid: modes_per_axis must be even and >= 4, got 33"),
    ("tensor-check", {"dim": 2, "N": 16},
     "config error: grid.dim: tensor-check expects the 1D base grid"),
], ids=["odd-N", "tensor-check-2D"])
def test_grid_refused_exit_2(tmp_path, base_cfg, capsys, sub, grid, message):
    # an odd N fails in `make_grid`; tensor-check builds its 2D strip
    # from the 1D base grid and refuses a 2D one
    base_cfg["grid"] = grid
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not (out / "error.json").exists()


def test_observability_2d_strip_is_1d_constant(tmp_path, base_cfg):
    base_cfg["grid"] = {"dim": 2, "N": 44}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 0
    c_2d = json.loads((out / "observability.json").read_text())["results"]["C_T"]
    spec = GramianSpec(T=1.0, window=make_window(make_grid(1, 44), (0.0, 0.25)))
    assert c_2d == pytest.approx(1.0 / lambda_min_dense(spec), rel=1e-12)


def test_control_2d_past_old_cap(tmp_path, base_cfg):
    base_cfg["grid"] = {"dim": 2, "N": 64}
    base_cfg["solver"] = {"tol": 1e-9}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    residual = json.loads((out / "control.json").read_text())["results"]["residual"]
    assert residual <= 1e-9


def test_global_control_2d_past_old_cap(tmp_path, base_cfg):
    # both norms below nls.mass_threshold: each leg is local control alone
    base_cfg["grid"] = {"dim": 2, "N": 48}
    base_cfg["window"] = {"omega": [[0.0, 0.3]]}
    base_cfg["initial_state"] = {"norm": 0.04, "max_mode": 8}
    base_cfg["target"] = {"norm": 0.04, "max_mode": 8}
    base_cfg["nls"] = {"sigma": -1, "dt": 1e-3}
    base_cfg["solver"] = {"tol": 1e-8}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["global-control", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "global_control.json").read_text())["results"]
    assert [ph["type"] for ph in results["phases"]] == ["control", "control"]
    assert results["endpoint_error_to_zero"] <= 1e-8
    assert results["endpoint_error_to_target"] <= 1e-8


def test_control_trajectory_ends_at_residual(tmp_path, base_cfg):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out)]) == 0
    results = json.loads((out / "control.json").read_text())["results"]
    assert results["iterations"] == 0
    assert {"residual", "phi0"} <= results.keys() and "n_quad" not in results
    traj = np.loadtxt(out / "control_trajectory.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert len(traj) == max(32, 4 * 32)  # uniform samples on [0, T]
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
    report = json.loads((out / "global_control.json").read_text())
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


@pytest.mark.parametrize("field,value", [("dt", -1), ("dt", "x"), ("sigma", 2),
                                         ("dealias", "false"), ("sigma", 1.5),
                                         ("sigma", True), ("dt", True),
                                         ("dt", float("inf")), ("sigma", float("nan"))])
def test_invalid_nls_field_exit_2(tmp_path, base_cfg, capsys, field, value):
    base_cfg["nls"] = {field: value}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    for sub in ("simulate", "stabilize", "global-control"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config error: nls: " in capsys.readouterr().err


# a valid inline state on N = 16, against grid.N = 32
STATE_N16 = {"dim": 1, "N": 16, "coeffs": [[1.0, 0.0]] * 16}
# inline states on grid.N = 32 with one non-finite coefficient
STATE_NAN = {"dim": 1, "N": 32, "coeffs": [[float("nan"), 0.0]] + [[1.0, 0.0]] * 31}
STATE_INF = {"dim": 1, "N": 32, "coeffs": [[1.0, float("inf")]] + [[1.0, 0.0]] * 31}


@pytest.mark.parametrize("sub,path,value", [
    ("simulate", "horizon.T", -1),
    ("simulate", "horizon.T", float("nan")),
    ("stabilize", "horizon.T", "x"),
    ("global-control", "nls.mass_threshold", "x"),
    ("global-control", "solver.tol", "x"),
    ("global-control", "target.max_mode", "x"),
    ("control", "solver.tol", "x"),
    ("observability", "horizon.T", float("nan")),
    ("simulate", "nls.damped", "no"),
    ("simulate", "initial_state.max_mode", -3),
    ("global-control", "target.max_mode", -3),
    ("resolvent-sweep", "sweep.cross_check", "no"),
    ("resolvent-sweep", "sweep", "x"),
    ("resolvent-sweep", "sweep.n_points", "x"),
    ("resolvent-sweep", "sweep.n_points", 0),
    ("resolvent-sweep", "sweep.m", "x"),
    ("resolvent-sweep", "sweep.lambda_min", "x"),
    ("resolvent-sweep", "sweep.lambda_max", "x"),
    ("resolvent-sweep", "sweep.lambda_min", 500.0),
    ("observability", "window.transition_width", float("nan")),
    ("observability", "window", "x"),
    ("control", "seed", "x"),
    ("control", "initial_state", {"coeffs": "x"}),
    ("control", "initial_state", STATE_N16),
    ("simulate", "initial_state", STATE_N16),
    ("resolvent-sweep", "grid.dim", 2),
    ("stabilize", "horizon.T", 0.05),
    ("stabilize", "initial_state.norm", 0),
    ("stabilize", "initial_state", {"dim": 1, "N": 32, "coeffs": [[0.0, 0.0]] * 32}),
    ("observability", "grid.N", 16.7),
    ("observability", "grid.N", True),
    ("observability", "grid.dim", 1.5),
    ("control", "seed", 2.5),
    ("resolvent-sweep", "sweep.n_points", 20.5),
    ("simulate", "initial_state.max_mode", 2.5),
    ("global-control", "target.max_mode", 2.5),
    ("simulate", "horizon.T", True),
    ("observability", "horizon.T", "1.0"),
    ("observability", "horizon.T", 10 ** 400),
    ("control", "initial_state", STATE_NAN),
    ("simulate", "initial_state", STATE_INF),
    ("resolvent-sweep", "sweep.lambda_min", ABSENT),
    ("resolvent-sweep", "sweep.lambda_max", ABSENT),
    ("resolvent-sweep", "sweep.n_points", 1e15),
    ("global-control", "nls.dt", 1e-300),
    # mu_max * T / 2 overflows the time kernel at N = 32
    ("control", "horizon.T", 1e305),
    ("observability", "horizon.T", 1e305),
    ("tensor-check", "horizon.T", 1e305),
    ("global-control", "horizon.T", 1e305),
    # a section that is present but not an object
    ("observability", "horizon", 0.5),
    ("simulate", "nls", 3),
    ("control", "solver", 1e-9),
    ("simulate", "initial_state", "x"),
    ("global-control", "target", 0.2),
    ("observability", "grid", 16),
    # a non-finite number anywhere, read or not, so the report's config echo
    # stays JSON (json.load reads NaN, Infinity and 1e400 as floats)
    ("observability", "extra", float("nan")),
    ("observability", "window2.width", float("inf")),
    ("observability", "horizon2.t", float("-inf")),
    ("observability", "window.kind_note", float("nan")),
    ("control", "initial_state.norm", float("inf")),
    ("resolvent-sweep", "sweep.m", float("nan")),
    ("global-control", "target.norm", float("inf")),
])
def test_invalid_config_field_exit_2(tmp_path, base_cfg, capsys, sub, path, value):
    base_cfg["target"] = {"norm": 0.2, "max_mode": 8}
    base_cfg["sweep"] = {"n_points": 16, "lambda_min": -50.0, "lambda_max": 50.0}
    parents = set_field(base_cfg, path, value)
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    # window fields keep the window builder's prefix
    prefix = "window" if parents == ["window"] else path
    assert f"config error: {prefix}: " in capsys.readouterr().err
    assert not (out / "error.json").exists()


# inline states on grid.N = 32 whose dim, N or coefficients only looked valid
# to int() and complex()
STATE_DIM_FRACTION = {"dim": 1.5, "N": 32, "coeffs": [[1.0, 0.0]] * 32}
STATE_N_FRACTION = {"dim": 1, "N": 32.5, "coeffs": [[1.0, 0.0]] * 32}
STATE_DIM_BOOLEAN = {"dim": True, "N": 32, "coeffs": [[1.0, 0.0]] * 32}
STATE_BOOLEAN_COEFFS = {"dim": 1, "N": 32, "coeffs": [[True, False]] * 32}
STATE_STRING_COEFFS = {"dim": 1, "N": 32, "coeffs": [["1.0", 0.0]] * 32}


@pytest.mark.parametrize("sub,path,value,field", [
    ("simulate", "initial_state", STATE_DIM_FRACTION, "initial_state.dim"),
    ("simulate", "initial_state", STATE_DIM_BOOLEAN, "initial_state.dim"),
    ("simulate", "initial_state", STATE_N_FRACTION, "initial_state.N"),
    ("simulate", "initial_state", STATE_BOOLEAN_COEFFS, "initial_state.coeffs[0]"),
    ("control", "initial_state", STATE_STRING_COEFFS, "initial_state.coeffs[0]"),
    ("control", "initial_state", STATE_NAN, "initial_state.coeffs[0]"),
    ("control", "initial_state", {"coeffs": "x"}, "initial_state.dim"),
    ("observability", "window.omega", [[False, True]], "window.omega"),
    ("observability", "window.omega", [0.0, True], "window.omega"),
    ("observability", "window.omega", [["0.0", 0.3]], "window.omega"),
])
def test_boundary_error_names_field(tmp_path, base_cfg, capsys, sub, path, value, field):
    parents = set_field(base_cfg, path, value)
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    # the builder's prefix, then the full path of the offending field
    assert f"config error: {parents[0] if parents else path}: {field}: " in \
        capsys.readouterr().err
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("text,field", [
    ('"extra": NaN', "extra"),
    ('"window2": {"width": Infinity}', "window2.width"),
    ('"horizon": {"T": 1e400}', "horizon.T"),
    ('"horizon": {"T": 1.0}, "notes": [0, [1, -Infinity]]', "notes[1]"),
])
def test_non_finite_config_number_exit_2(tmp_path, base_cfg, capsys, text, field):
    # JSON text with literals that `json.load` reads as non-finite floats:
    # refused before any work, naming the field, and no report is written
    body = json.dumps({k: v for k, v in base_cfg.items() if k != "horizon"})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body[:-1] + ", " + text + "}")
    out = tmp_path / "out"
    assert main(["observability", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {field}: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


def run_fresh_python(code):
    """Run `code` in a new interpreter that imports this package's source."""
    src = str(Path(torus_control.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)


def test_cli_import_loads_only_numpy_beside_the_standard_library():
    # every CLI run pays for its imports before any work (the benchmark's
    # setup_s): a fresh `import torus_control.cli` adds no top-level module
    # but numpy, torus_control and the standard library's
    code = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import torus_control.cli",
        "added = {m.split('.')[0] for m in set(sys.modules) - before}",
        "print(*sorted(added - set(sys.stdlib_module_names)))",
    ])
    proc = run_fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"numpy", "torus_control"}


def test_cli_loads_no_scipy(tmp_path, base_cfg):
    # production solves run on numpy.linalg alone: scipy, with its own BLAS
    # thread pool, is loaded only when `hum.cg` is read
    base_cfg["grid"]["N"] = 16
    base_cfg["window"] = {"omega": [[0.0, 0.3]]}
    base_cfg["initial_state"] = {"norm": 0.3, "max_mode": 4}
    base_cfg["nls"] = {"sigma": -1, "dt": 1e-3}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    code = "\n".join([
        "import sys",
        "from torus_control.cli import main",
        "for sub in ('observability', 'control', 'global-control'):",
        f"    assert main([sub, '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = run_fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert {"observability.json", "control.json", "global_control.json"} <= {
        p.name for p in tmp_path.iterdir()}


def test_negative_seed_flag_exit_2(tmp_path, base_cfg, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    assert "config error: --seed: " in capsys.readouterr().err
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("sub,path,value", [
    ("simulate", "horizon.T", 1e300),
    ("simulate", "horizon.T", 1e12),
    ("stabilize", "horizon.T", 1e300),
    ("stabilize", "horizon.T", 1e12),
    ("simulate", "nls.dt", 1e-300),
    ("stabilize", "nls.dt", 1e-300),
])
def test_record_count_past_cap_exit_2(tmp_path, base_cfg, capsys, sub, path, value):
    # more than 2048**2 records are refused before anything is allocated
    set_field(base_cfg, path, value)
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon.T: ")
    assert "exceed 2048**2 records" in err and "Traceback" not in err
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("sub,dim,n", [
    ("simulate", 1, 2 ** 40),
    ("tensor-check", 1, 1e15),
    ("resolvent-sweep", 1, 1e8),
    ("simulate", 1, 1e8),
    ("simulate", 2, 2050),
])
def test_grid_past_cap_exit_2(tmp_path, base_cfg, capsys, sub, dim, n):
    # more than 2048**2 grid points are refused before the window is sampled
    base_cfg["grid"] = {"dim": dim, "N": n}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    peak = traced_peak(lambda: main([sub, "--config", cfg, "--out", str(out)]))
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.N: ") and "Traceback" not in err
    assert peak <= 1e5
    assert not (out / "error.json").exists()


def test_out_not_a_directory_exit_2(tmp_path, base_cfg, capsys):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    blocker = tmp_path / "report.txt"
    blocker.write_text("kept\n")
    # an existing file, and a path under it
    for out in (blocker, blocker / "sub"):
        assert main(["observability", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ")
        assert "Traceback" not in err
    assert blocker.read_text() == "kept\n"


def test_resolvent_sweep_ignores_quadrature_keys(tmp_path, base_cfg):
    # the Gramian holds no time nodes, so quadrature.* is not read
    base_cfg["sweep"] = {"n_points": 16, "cross_check": True}
    base_cfg["quadrature"] = {"n_quad": "x"}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["resolvent-sweep", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "resolvent_sweep.json").read_text())
    cc = report["results"]["cross_check"]
    assert cc["C_T"] > 1.0
    assert cc["cost_ratio"] == pytest.approx(cc["C_T"] / cc["miller_bound"], rel=1e-15)


def test_global_control_damped_legs_honour_dealias(tmp_path, base_cfg, monkeypatch):
    from torus_control import nls

    seen = []
    original = nls._stabilize_to_threshold

    def spy(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(nls, "_stabilize_to_threshold", spy)
    base_cfg["window"] = {"omega": [[0.0, 0.3]]}
    base_cfg["initial_state"] = {"norm": 0.3, "max_mode": 8}
    base_cfg["target"] = {"norm": 0.2, "max_mode": 8}
    base_cfg["nls"] = {"sigma": -1, "dt": 1e-3, "dealias": False}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    assert main(["global-control", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    # one batched call carries both damped legs
    [(states, params, _)] = seen
    assert len(states) == 2
    assert params.dealias is False and params.damping is not None


def test_numerical_failure_exit_3(tmp_path):
    # empty sharp window: the Gramian is singular
    cfg = write_cfg(tmp_path, "cfg.json",
                    {"grid": {"dim": 1, "N": 32},
                     "window": {"omega": [[0.41, 0.42]], "kind": "sharp"},
                     "horizon": {"T": 1.0}})
    out = tmp_path / "out"
    assert main(["observability", "--config", cfg, "--out", str(out)]) == 3
    err = json.loads((out / "error.json").read_text())
    assert err["error"] == "GramianSingularError"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the form's overflow
@pytest.mark.parametrize("sub,fields,error", [
    ("resolvent-sweep", {"sweep.m": 1e308}, "LinAlgError"),
    ("resolvent-sweep", {"sweep.lambda_min": -1e308, "sweep.lambda_max": 1e308,
                         "sweep.n_points": 5}, "LinAlgError"),
])
def test_non_finite_numerics_exit_3(tmp_path, base_cfg, capsys, sub, fields, error):
    # finite but extreme inputs overflow the sweep's form to NaN: a LAPACK
    # eigensolve that does not converge is a numerical failure, not a
    # traceback
    base_cfg["window"]["omega"] = [[0.0, 0.3]]
    for path, value in fields.items():
        set_field(base_cfg, path, value)
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert json.loads((out / "error.json").read_text())["error"] == error
    assert not (out / f"{sub.replace('-', '_')}.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the certificate's overflow
@pytest.mark.parametrize("fmt,field", [("both", "control_trajectory.csv column mass"),
                                       ("json", "results.residual")])
def test_non_finite_result_exit_3(tmp_path, base_cfg, capsys, fmt, field):
    # a coefficient of 1e300 passes the HUM solve, then the closed loop's
    # mass overflows: the first result that is not finite (the CSV's mass
    # column, or with no CSV the residual) is named, and nothing is written
    # but error.json
    n = 16
    coeffs = [[0.0, 0.0]] * n
    coeffs[n // 2 + 1] = [1e300, 0.0]  # k = 1, in ascending mode order
    base_cfg["grid"]["N"] = n
    base_cfg["window"]["omega"] = [[0.0, 0.3]]
    base_cfg["initial_state"] = {"dim": 1, "N": n, "coeffs": coeffs}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out), "--format", fmt]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {field}: ") and "Traceback" not in err
    report = json.loads((out / "error.json").read_text())
    assert report["error"] == "NonFiniteResultError"
    assert report["message"].startswith(field)
    assert sorted(path.name for path in out.iterdir()) == ["error.json"]


@pytest.mark.parametrize("sub", ["simulate", "stabilize", "global-control"])
def test_non_finite_evolution_exit_3(tmp_path, base_cfg, capsys, sub):
    # a state whose mass overflows: a numerical failure at its first record
    # (global-control: its damped leg's first norm check), with no
    # RuntimeWarning (the suite turns warnings into errors) and no report
    # holding Infinity or NaN
    base_cfg["window"]["omega"] = [[0.0, 0.3]]
    base_cfg["initial_state"]["norm"] = 1e200
    base_cfg["nls"] = {"damped": True}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    report = json.loads((out / "error.json").read_text())
    assert report["error"] == "NonFiniteStateError" and "t = 0;" in report["message"]
    name = sub.replace("-", "_")
    assert not (out / f"{name}.json").exists() and not (out / f"{name}.csv").exists()


@pytest.mark.parametrize("sub", ["simulate", "stabilize"])
def test_horizon_below_one_step_exit_2(tmp_path, base_cfg, capsys, sub):
    base_cfg["horizon"]["T"] = 1e-12
    base_cfg["nls"] = {"dt": 1e-3}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: horizon.T: ")
    assert "shorter than one step" in err and "Traceback" not in err
    assert not (out / f"{sub}.json").exists()


@pytest.mark.parametrize("sub,norm,dt", [("global-control", 1e150, 1e-3),
                                         ("simulate", 1e5, 1e-3), ("stabilize", 1e5, 1e-3),
                                         ("global-control", 0.8, 1e300)],
                         ids=["global-control-1e+150", "simulate-100000.0",
                              "stabilize-100000.0", "global-control-0.8-dt-1e+300"])
def test_unresolved_nonlinear_phase_exit_2(tmp_path, base_cfg, capsys, sub, norm, dt):
    # dt * max|u|^2 far past pi, though at dt = 1e300 the linear phases
    # outrun it: refused before any step, naming nls.dt.  (1e150 overflows
    # the energy of simulate's and stabilize's first record: exit 3 there)
    base_cfg["initial_state"]["norm"] = norm
    base_cfg["nls"] = {"sigma": -1, "dt": dt, "damped": True}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: nls.dt: the nonlinear phase ")
    assert err.rstrip().endswith(f"got {dt!r}") and "Traceback" not in err
    assert not (out / f"{sub.replace('-', '_')}.json").exists()
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("dt", [0.2])
def test_global_control_coarse_dt(tmp_path, base_cfg, dt):
    # past dt = 0.1 a 10-time-unit span holds fewer than the 10 checks a
    # decay fit needs; the damped legs re-fit over 10 checks instead
    base_cfg["window"]["omega"] = [[0.0, 0.3]]
    base_cfg["initial_state"]["norm"] = 0.8
    base_cfg["target"] = {"norm": 0.2, "max_mode": 8}
    base_cfg["nls"] = {"sigma": -1, "dt": dt}
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    assert main(["global-control", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


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
    r1 = json.loads((out1 / "control.json").read_text())
    r2 = json.loads((out2 / "control.json").read_text())
    assert r1["results"]["phi0"] != r2["results"]["phi0"]


def test_json_only_format_skips_csv(tmp_path, base_cfg):
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    out = tmp_path / "out"
    assert main(["control", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    assert not (out / "control_trajectory.csv").exists()
    assert (out / "control.json").exists()


def test_consecutive_calls_share_no_state(tmp_path, base_cfg, capsys):
    # the parser is built once: the flags of one call do not reach the next
    cfg = write_cfg(tmp_path, "cfg.json", base_cfg)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["control", "--config", cfg, "--out", str(first), "--seed", "9",
                 "--format", "json"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(second)]) == 0
    assert json.loads((first / "control.json").read_text())["seed"] == 9
    assert not (first / "control_trajectory.csv").exists()
    assert json.loads((second / "simulate.json").read_text())["seed"] == base_cfg["seed"]
    assert (second / "simulate.csv").exists()
    with pytest.raises(SystemExit) as exc:
        main(["observability", "--config", cfg, "--format", "xml"])
    assert exc.value.code == 2
    assert "usage: torus-control" in capsys.readouterr().err
    third = tmp_path / "c"
    assert main(["observability", "--config", cfg, "--out", str(third)]) == 0
    assert sorted(p.name for p in third.iterdir()) == ["observability.json"]
