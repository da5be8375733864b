"""The three workloads: ops, their generated inputs, and output checks.

Every op goes through a public entry point: the CLI's `main(argv)` called
in-process on a generated JSON config, or a library call the CLI does not
expose.  `Op.call` is the timed part; `Op.check` runs afterwards, untimed,
reads what the op returned or wrote, and compares it with the oracles.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from torus_control import cli, grid, hum, operators, windows

from oracles import (control_error, exact_ct, mass_identity_error,
                     read_decay_csv, relative_error)

OMEGA = ((0.0, 0.2),)
# the NLS legs damp on a wider window, so stabilization takes fewer steps
NLS_OMEGA = ((0.0, 0.3),)
WIDTH = 0.05
T_LINEAR = 1.0
SOLVER_TOL = 1e-8


@dataclass
class Outcome:
    """What one op produced, as the untimed check saw it."""

    answers: dict = field(default_factory=dict)
    failure: str | None = None  # set when the op failed (counts in error_rate)
    problems: list[str] = field(default_factory=list)  # output checks broken
    ct_err: list[float] = field(default_factory=list)
    control_err: list[float] = field(default_factory=list)
    mass_identity_err: list[float] = field(default_factory=list)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    reset: Callable[[], None] = lambda: None


def _seeded_state(rng, n: int, norm: float, max_mode: int) -> np.ndarray:
    """A state concentrated at x = 0.6, away from the windows, plus seeded
    Gaussian noise of 20 % relative size, on |k| <= max_mode; FFT order.

    Errors of the program differ a lot between directions in state space,
    so fully random states would make per-seed accuracy metrics spread
    far more than any usable bound; the fixed profile keeps them steady
    while the seed still changes every input.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    keep = np.abs(k) <= max_mode
    profile = np.where(keep, np.exp(-2j * np.pi * k * 0.6), 0.0)
    noise = np.where(keep, rng.standard_normal(n) + 1j * rng.standard_normal(n), 0.0)
    c = (profile / np.linalg.norm(profile)
         + 0.2 * noise / np.linalg.norm(noise))
    return c * (norm / np.linalg.norm(c))


def _state_json(c: np.ndarray) -> dict:
    """The CLI's state format: coefficients in ascending mode order."""
    return {"dim": 1, "N": len(c),
            "coeffs": [[float(z.real), float(z.imag)]
                       for z in np.fft.fftshift(c)]}


def _coeffs_from_json(obj: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["coeffs"]])
    return np.fft.ifftshift(flat)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _cli_op(workdir: Path, slug: str, sub: str, cfg: dict, report: str,
            check: Callable[[dict, Path, Outcome], None],
            extra_argv: tuple = ()) -> Op:
    """An op running `torus-control <sub>` in-process on a written config."""
    cfg_path = workdir / f"{slug}.json"
    cfg_path.write_text(json.dumps(cfg))
    out = workdir / slug
    argv = [sub, "--config", str(cfg_path), "--out", str(out), *extra_argv]

    def call():
        # looked up at call time, so the traced run sees the wrapped main
        return cli.main(argv)

    def checked(code) -> Outcome:
        o = Outcome()
        if code != 0:
            err = out / "error.json"
            name = json.loads(err.read_text())["error"] if err.exists() else ""
            o.failure = f"exit {code} {name}".strip()
            return o
        path = out / f"{report}.json"
        if not path.exists():
            o.problems.append(f"{path.name} not written")
            return o
        results = json.loads(path.read_text())["results"]
        check(results, out, o)
        return o

    return Op(name=slug, call=call, check=checked,
              reset=lambda: shutil.rmtree(out, ignore_errors=True))


def _require_finite(o: Outcome, results: dict, *keys: str) -> bool:
    bad = [k for k in keys if not _finite(results.get(k))]
    if bad:
        o.failure = f"non-finite {', '.join(bad)}"
    return not bad


def _check_ct(o: Outcome, label: str, c_t: float, n: int, T: float) -> None:
    o.answers[label] = c_t
    o.ct_err.append(relative_error(c_t, exact_ct(n, OMEGA, WIDTH, T)))


def _base_cfg(n: int, T: float, omega=OMEGA) -> dict:
    return {"grid": {"dim": 1, "N": n},
            "window": {"omega": [list(iv) for iv in omega], "kind": "smooth",
                       "transition_width": WIDTH},
            "horizon": {"T": T}}


# ---------------------------------------------------------------- linear-hum

def _observability(workdir, n) -> Op:
    def check(r, out, o):
        if not _require_finite(o, r, "C_T", "lambda_min"):
            return
        _check_ct(o, "C_T", r["C_T"], n, T_LINEAR)
        if abs(r["C_T"] * r["lambda_min"] - 1.0) > 1e-12:
            o.problems.append("lambda_min != 1/C_T")

    return _cli_op(workdir, f"observability-N{n}", "observability",
                   _base_cfg(n, T_LINEAR), "observability", check)


def _control(workdir, n, i, rng) -> Op:
    u0 = _seeded_state(rng, n, norm=1.0, max_mode=n // 2)
    cfg = _base_cfg(n, T_LINEAR)
    cfg["initial_state"] = _state_json(u0)
    cfg["solver"] = {"tol": SOLVER_TOL}

    def check(r, out, o):
        if not _require_finite(o, r, "residual"):
            return
        o.answers.update(residual=r["residual"], cg_iterations=r["iterations"])
        if r["residual"] > SOLVER_TOL:
            o.failure = f"residual {r['residual']:.3e} above solver.tol"
        phi0 = _coeffs_from_json(r["phi0"])
        if not np.all(np.isfinite(phi0)):
            o.failure = "non-finite phi0"
            return
        o.control_err.append(control_error(u0, phi0, OMEGA, WIDTH, T_LINEAR))
        o.answers["control_err"] = o.control_err[-1]
        traj = np.loadtxt(out / "control_trajectory.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        if abs(math.sqrt(traj[-1, 1]) - r["residual"]) > 1e-6 * max(r["residual"], 1e-9):
            o.problems.append("trajectory CSV final mass disagrees with residual")

    return _cli_op(workdir, f"control-N{n}-{i}", "control", cfg, "control", check)


def _tensor_check(workdir, n) -> Op:
    def check(r, out, o):
        if not _require_finite(o, r, "C_1d", "C_2d", "relative_gap"):
            return
        _check_ct(o, "C_1d", r["C_1d"], n, T_LINEAR)
        _check_ct(o, "C_2d", r["C_2d"], n, T_LINEAR)
        gap = abs(r["C_2d"] - r["C_1d"]) / r["C_1d"]
        if abs(gap - r["relative_gap"]) > 1e-12 * max(1.0, gap):
            o.problems.append("relative_gap inconsistent with C_1d, C_2d")

    return _cli_op(workdir, f"tensor-check-N{n}", "tensor-check",
                   _base_cfg(n, T_LINEAR), "tensor_check", check)


def linear_hum(workdir: Path, rng) -> list[Op]:
    ops = [_observability(workdir, n) for n in (64, 128, 256)]
    ops += [_control(workdir, n, i, rng) for n in (32, 64, 128) for i in range(3)]
    # 2D N = 8 raises GramianSingularError at the seed (default n_quad
    # under-resolves the 2D quadrature); it stays in and counts as failed.
    # 2D N = 32 is left out: N = 24 already peaks near 1 GB resident.
    ops += [_tensor_check(workdir, n) for n in (8, 16, 24)]
    return ops


# ----------------------------------------------------------------- nls-steer

def _check_damped_csv(o: Outcome, path: Path, r: dict) -> None:
    rec = read_decay_csv(path)
    o.mass_identity_err.append(mass_identity_error(rec))
    o.answers["mass_identity_err"] = o.mass_identity_err[-1]
    if (abs(rec.mass[0] - r["initial_mass"]) > 1e-9 * r["initial_mass"]
            or abs(rec.mass[-1] - r["final_mass"]) > 1e-9 * r["initial_mass"]):
        o.problems.append(f"{path.name} masses disagree with the report")
    if not rec.mass[-1] < rec.mass[0]:
        o.problems.append("damped mass did not decrease")


def nls_steer(workdir: Path, rng) -> list[Op]:
    n = 64
    nls = {"sigma": -1, "dt": 1e-3, "damped": True}

    def simulate_check(r, out, o):
        if _require_finite(o, r, "initial_mass", "final_mass", "final_energy"):
            o.answers.update(final_mass=r["final_mass"],
                             final_energy=r["final_energy"])
            _check_damped_csv(o, out / "simulate.csv", r)

    sim = _base_cfg(n, 2.0, NLS_OMEGA)
    sim.update(nls=nls, initial_state=_state_json(
        _seeded_state(rng, n, norm=1.0, max_mode=8)))

    def stabilize_check(r, out, o):
        if _require_finite(o, r, "gamma_fit", "initial_mass", "final_mass"):
            o.answers.update(gamma_fit=r["gamma_fit"], final_mass=r["final_mass"])
            if not r["gamma_fit"] > 0.0:
                o.problems.append("gamma_fit not positive")
            _check_damped_csv(o, out / "stabilize.csv", r)

    stab = _base_cfg(n, 10.0, NLS_OMEGA)
    stab.update(nls=nls, initial_state=_state_json(
        _seeded_state(rng, n, norm=1.0, max_mode=8)))

    def global_check(r, out, o):
        keys = ("endpoint_error_to_zero", "endpoint_error_to_target")
        if not _require_finite(o, r, *keys):
            return
        o.answers.update({k: r[k] for k in keys})
        o.answers["phases"] = [[p["type"], p["t_start"], p["t_end"]]
                               for p in r["phases"]]
        if any(r[k] > SOLVER_TOL for k in keys):
            o.failure = "endpoint error above solver.tol"
        ends = [p["t_end"] for p in r["phases"][:-1]]
        starts = [p["t_start"] for p in r["phases"][1:]]
        if not r["phases"] or any(abs(a - b) > 1e-9 for a, b in zip(ends, starts)):
            o.problems.append("schedule phases are not contiguous")

    glob = _base_cfg(n, T_LINEAR, NLS_OMEGA)
    glob.update(nls={"sigma": -1, "dt": 1e-3, "mass_threshold": 0.05},
                solver={"tol": SOLVER_TOL},
                initial_state=_state_json(_seeded_state(rng, n, norm=0.8, max_mode=8)),
                target={"norm": 0.2, "max_mode": 8})
    # the CLI draws the target state itself, from --seed
    target_seed = str(int(rng.integers(2 ** 31)))
    return [
        _cli_op(workdir, "simulate-N64", "simulate", sim, "simulate", simulate_check),
        _cli_op(workdir, "stabilize-N64", "stabilize", stab, "stabilize",
                stabilize_check),
        _cli_op(workdir, "global-control-N64", "global-control", glob,
                "global_control", global_check, ("--seed", target_seed)),
    ]


# ------------------------------------------------------------ spectral-sweep

def _sweep(workdir, n, cross_check) -> Op:
    cfg = _base_cfg(n, T_LINEAR)
    cfg["sweep"] = {"cross_check": cross_check}

    def check(r, out, o):
        if not _require_finite(o, r, "M_sup", "miller_time", "m"):
            return
        o.answers.update(M_sup=r["M_sup"], miller_time=r["miller_time"])
        if abs(r["miller_time"] - math.pi * math.sqrt(r["M_sup"])) > 1e-12 * r["miller_time"]:
            o.problems.append("miller_time != pi sqrt(M_sup)")
        rows = np.loadtxt(out / "resolvent_sweep.csv", delimiter=",", skiprows=1,
                          usecols=(0, 1), ndmin=2)
        if len(rows) != r["grid_spec"]["n_points"]:
            o.problems.append("sweep CSV row count != n_points")
        elif abs(rows[:, 1].max() - r["M_sup"]) > 1e-9 * r["M_sup"]:
            o.problems.append("sweep CSV max M disagrees with M_sup")
        if cross_check:
            cc = r["cross_check"]
            if not _require_finite(o, cc, "C_T", "miller_bound", "T"):
                return
            o.answers["cross_check_bound"] = cc["miller_bound"]
            _check_ct(o, "cross_check_C_T", cc["C_T"], n, cc["T"])
            if not cc["within_slack"]:
                o.failure = "cross-check C_T exceeds 1.5 x Miller bound"

    slug = f"resolvent-sweep-N{n}" + ("-cross-check" if cross_check else "")
    return _cli_op(workdir, slug, "resolvent-sweep", cfg, "resolvent_sweep", check)


def _commutator(n, r, s) -> Op:
    def call():
        g = grid.make_grid(1, n)
        window = windows.make_window(g, OMEGA, transition_width=WIDTH,
                                     kind="smooth")
        return operators.commutator_operator_norm(g, r, s, window)

    def check(value) -> Outcome:
        o = Outcome(answers={"norm": value})
        if not (_finite(value) and value > 0.0):
            o.failure = f"commutator norm {value!r}"
        return o

    return Op(name=f"commutator_operator_norm N{n} r={r} s={s}", call=call,
              check=check)


def _regularity(n, rng_seed) -> Op:
    def call():
        g = grid.make_grid(1, n)
        window = windows.make_window(g, OMEGA, transition_width=WIDTH,
                                     kind="smooth")
        spec = hum.GramianSpec(T=T_LINEAR, window=window)
        return hum.hum_regularity_ratio(
            spec, s=1.0, n_samples=40, rng=np.random.default_rng(rng_seed))

    def check(out) -> Outcome:
        o = Outcome(answers={"max": out["max"], "mean": out["mean"]})
        if not (_finite(out["max"]) and _finite(out["mean"])):
            o.failure = "non-finite regularity ratio"
        elif not 0.0 < out["mean"] <= out["max"]:
            o.problems.append("regularity mean/max out of order")
        return o

    return Op(name=f"hum_regularity_ratio N{n}", call=call, check=check)


def spectral_sweep(workdir: Path, rng) -> list[Op]:
    ops = [_sweep(workdir, n, False) for n in (32, 64, 96)]
    ops.append(_sweep(workdir, 32, True))
    ops += [_commutator(n, r, s) for r, s in ((1.0, 0.0), (2.0, 1.0), (-1.0, 0.0))
            for n in (64, 128, 256, 512)]
    ops += [_regularity(n, int(rng.integers(2 ** 31))) for n in (32, 64, 128)]
    return ops


WORKLOADS = {"linear-hum": linear_hum, "nls-steer": nls_steer,
             "spectral-sweep": spectral_sweep}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """Generate the workload's inputs from the seed and write its configs."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return WORKLOADS[name](workdir, np.random.default_rng(seed))
