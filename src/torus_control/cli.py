"""Command-line front end: config-driven experiment orchestration.

Subcommands: simulate, control, observability, resolvent-sweep,
tensor-check, stabilize, global-control.  A JSON config file supplies all
parameters; --seed / --out / --format flags override config fields.
`main` reads the config and seed, builds the grid and window, runs the
subcommand's handler and writes what it returns: its CSV, if any, then
its results to `<subcommand>.json` (with "-" as "_").
Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .grid import make_grid, random_state, zero_state
from .hum import (MAX_DENSE_POINTS, DenseSizeError, GramianSpec, GramianSingularError,
                  HUMConvergenceError, _check_entries, drive_linear,
                  observability_constant, solve_hum)
from .io import (NonFiniteResultError, _integral, _real, state_from_json, state_to_json,
                 write_decay_csv, write_json, write_sweep_csv, write_trajectory_csv)
from .nls import (NLSParams, NonFiniteStateError, PicardDivergenceError,
                  StabilizationStallError, _refit_span, _UnresolvedPhaseError, evolve,
                  fit_decay_rate, global_control)
from .resolvent import (InfeasibleResolventError, _check_linearization,
                        default_lambda_grid, feasible_m, miller_cost_bound,
                        sup_resolvent_constant, sweep)
from .tensor import strip_observability_constant
from .windows import full_window, make_window


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _first_non_finite(node, path: str = ""):
    """(path, value) of the first float under node that is not finite, a
    number in a list named by the list entry that holds it (as
    `initial_state.coeffs[3]`), or None."""
    if isinstance(node, dict):
        for key, child in node.items():
            found = _first_non_finite(child, f"{path}.{key}" if path else str(key))
            if found:
                return found
    elif isinstance(node, list):
        for i, item in enumerate(node):
            if _first_non_finite(item):
                return f"{path or 'config'}[{i}]", item
    elif isinstance(node, float) and not math.isfinite(node):
        return path or "config", node
    return None


def _check_finite(cfg) -> None:
    """Refuse the first float of the loaded config that is not finite: NaN,
    +-Infinity, or a literal such as 1e400 that parses to inf.  JSON has no
    way to write them, so a report echoing the config would not parse.  A
    field of `window`, `nls` or an inline `initial_state` takes its
    section's prefix, as the messages of their builders do."""
    found = _first_non_finite(cfg)
    if found:
        path, value = found
        section = path.split(".")[0].split("[")[0]
        state = cfg.get("initial_state") if isinstance(cfg, dict) else None
        if section in ("window", "nls") or (section == "initial_state" and
                                            isinstance(state, dict) and "coeffs" in state):
            path = f"{section}: {path}"
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _get(cfg: dict, path: str, default=None, required: bool = False):
    """Config field `path` (dotted); a section on the way that is present
    but not an object, null included, raises ConfigError naming it (the
    top level as `config`)."""
    parts, node, section = path.split("."), cfg, "config"
    for i, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(f"{section}: expected an object, got {node!r}")
        if part not in node:
            if required:
                raise ConfigError(f"missing required config field: {path}")
            return default
        node, section = node[part], ".".join(parts[:i + 1])
    return node


def _number(cfg: dict, path: str, default, sign: str = "positive") -> float:
    """Config field `path` as a finite float that is positive, non-negative
    or of either sign ("real")."""
    value = _get(cfg, path, default)
    try:
        x = float(value) if _real(value) else np.nan
    except OverflowError:  # an integer past the float range
        x = np.inf
    in_range = {"positive": x > 0.0, "non-negative": x >= 0.0, "real": True}[sign]
    if not (in_range and np.isfinite(x)):
        raise ConfigError(f"{path}: expected a finite {sign} number, got {value!r}")
    return x


def _integer(cfg: dict, path: str, default=None, minimum: int = 0,
             required: bool = False) -> int | None:
    """Config field `path` as an integral number >= minimum (None if absent
    or null, with no default and not required)."""
    value = _get(cfg, path, default, required)
    if value is None and default is None and not required:
        return None
    if not _integral(value) or value < minimum:
        raise ConfigError(f"{path}: expected an integer >= {minimum}, got {value!r}")
    return int(value)


def _boolean(cfg: dict, path: str, default: bool) -> bool:
    """Config field `path` as a JSON boolean."""
    value = _get(cfg, path, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def _build_grid(cfg):
    dim = _integer(cfg, "grid.dim", 1)
    n = _integer(cfg, "grid.N", required=True)
    try:
        grid = make_grid(dim, n)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    _check_entries(grid, 1, "grid points")  # caps one state's grid values
    return grid


def _build_window(cfg, grid):
    omega = _get(cfg, "window.omega")
    if omega is None:
        return full_window(grid)
    # one [a, b] pair or a list of them
    nested = isinstance(omega, list) and all(isinstance(iv, list) for iv in omega)
    intervals = omega if nested else [omega]
    try:
        if not all(isinstance(iv, list) and len(iv) == 2 and all(map(_real, iv))
                   for iv in intervals):
            raise ConfigError(f"window.omega: expected [a, b] pairs of real numbers, "
                              f"got {omega!r}")
        return make_window(grid, [tuple(iv) for iv in intervals],
                           transition_width=_number(cfg, "window.transition_width",
                                                    0.05, "real"),
                           kind=_get(cfg, "window.kind", "smooth"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"window: {exc}") from exc


def _build_nls_params(cfg, damping=None):
    try:
        return NLSParams(sigma=_integer(cfg, "nls.sigma", -1, minimum=-1),
                         dt=_number(cfg, "nls.dt", 1e-3), damping=damping,
                         dealias=_boolean(cfg, "nls.dealias", True))
    except ValueError as exc:
        raise ConfigError(f"nls: {exc}") from exc


def _initial_state(cfg, grid, rng, norm_sign="non-negative"):
    ucfg = _get(cfg, "initial_state")
    if isinstance(ucfg, dict) and "coeffs" in ucfg:
        try:
            u0 = state_from_json(ucfg)
        except ValueError as exc:  # its message starts with the state's key
            raise ConfigError(f"initial_state: initial_state.{exc}") from exc
        if u0.grid != grid:
            raise ConfigError(f"initial_state: {u0.grid} differs from grid {grid}")
        return u0
    return random_state(grid, rng,
                        norm=_number(cfg, "initial_state.norm", 1.0, norm_sign),
                        max_mode=_integer(cfg, "initial_state.max_mode"))


def _gramian_spec(cfg, window):
    """horizon.T with the window as a GramianSpec; a T at which the time
    kernel's largest phase mu_max * T / 2 overflows is refused (exit 2)."""
    T = _number(cfg, "horizon.T", 1.0)
    mu_max = (2.0 * np.pi * (window.grid.modes_per_axis // 2)) ** 2  # at k = -N/2
    if not np.isfinite(mu_max * (T / 2.0)):
        raise ConfigError(f"horizon.T: mu_max * T / 2 overflows (mu_max = {mu_max:.6g} "
                          f"at grid.N = {window.grid.modes_per_axis}), got {T!r}")
    return GramianSpec(T=T, window=window)


def _unresolved_phase(exc, params):
    """An unresolved nonlinear phase as a ConfigError naming nls.dt."""
    return ConfigError(f"nls.dt: {exc}, got {params.dt!r}")


def _evolve(cfg, u0, params, default_T, record_stride=1):
    """horizon.T and the record of `evolve` over it (shorter than one step
    or too many records: exit 2; an unresolved nonlinear phase: exit 2,
    naming nls.dt)."""
    T = _number(cfg, "horizon.T", default_T)
    try:
        return T, evolve(u0, T, params, record_stride)[1]
    except _UnresolvedPhaseError as exc:
        raise _unresolved_phase(exc, params) from exc
    except ValueError as exc:
        raise ConfigError(f"horizon.T: {exc} (nls.dt = {params.dt}), got {T!r}") from exc


def _cmd_simulate(cfg, rng, grid, window):
    params = _build_nls_params(
        cfg, damping=window if _boolean(cfg, "nls.damped", False) else None)
    u0 = _initial_state(cfg, grid, rng)
    _, record = _evolve(cfg, u0, params, 1.0)
    return ({"final_mass": record.mass[-1], "initial_mass": record.mass[0],
             "final_energy": record.energy[-1]},
            ("simulate.csv", write_decay_csv, record))


def _cmd_control(cfg, rng, grid, window):
    spec = _gramian_spec(cfg, window)
    u0 = _initial_state(cfg, grid, rng)
    sol = solve_hum(spec, u0, tol=_number(cfg, "solver.tol", 1e-8))
    record, residual = drive_linear(u0, spec, sol.phi0)
    return ({"residual": residual, "iterations": sol.iterations,
             "phi0": state_to_json(sol.phi0)},
            ("control_trajectory.csv", write_trajectory_csv, record.times, record.mass,
             record.observed_mass))


def _cmd_observability(cfg, rng, grid, window):
    spec = _gramian_spec(cfg, window)
    c_t = observability_constant(spec)
    return {"C_T": c_t, "lambda_min": 1.0 / c_t, "T": spec.T,
            "N": grid.modes_per_axis}, None


def _cmd_resolvent_sweep(cfg, rng, grid, window):
    if grid.dim != 1:
        raise ConfigError("grid.dim: resolvent-sweep supports 1D grids only")
    _check_linearization(grid)  # before the sweep, not after it
    scfg = _get(cfg, "sweep", {})
    n_points = _integer(cfg, "sweep.n_points", 128, minimum=1)
    if n_points > MAX_DENSE_POINTS ** 2:  # caps the lambda grid and the CSV's rows
        raise ConfigError(f"sweep.n_points: expected at most {MAX_DENSE_POINTS}**2, "
                          f"got {n_points}")
    cross_check = _boolean(cfg, "sweep.cross_check", False)
    given = [key for key in ("lambda_min", "lambda_max") if key in scfg]
    if len(given) == 1:
        missing = "lambda_max" if given == ["lambda_min"] else "lambda_min"
        raise ConfigError(f"sweep.{missing}: missing; sweep.lambda_min and "
                          f"sweep.lambda_max are given together, got only "
                          f"sweep.{given[0]}")
    if given:
        lo = _number(cfg, "sweep.lambda_min", None, "real")
        hi = _number(cfg, "sweep.lambda_max", None, "real")
        if not lo < hi:
            raise ConfigError(f"sweep.lambda_min: expected below sweep.lambda_max "
                              f"= {hi!r}, got {lo!r}")
        grid_lam = np.linspace(lo, hi, n_points)
        if not np.isfinite(grid_lam).all():  # hi - lo past the float range
            raise np.linalg.LinAlgError("the lambda grid from sweep.lambda_min to "
                                        "sweep.lambda_max overflows")
    else:
        grid_lam = default_lambda_grid(grid, n_points)
        lo, hi = grid_lam[0], grid_lam[-1]
    m = (feasible_m(window) if scfg.get("m") is None
         else _number(cfg, "sweep.m", None))
    sampled = sweep(grid_lam, m, window)
    sup = sup_resolvent_constant(window, m, lo, hi,
                                 start=grid_lam[np.argmax(sampled.M_of_lambda)])
    # lambda* joins the curve, so the curve's maximum is M_sup
    result = sampled.with_point(sup.lam_star, sup.M_sup)
    results = {"m": result.m_fixed, "M_sup": result.M_sup,
               "miller_time": result.miller_time, "M_sup_sampled": sampled.M_sup,
               "M_sup_upper": sup.upper, "lambda_star": sup.lam_star,
               "level_set_iterations": sup.iterations,
               "grid_spec": {"n_points": result.lambda_grid.size,
                             "lambda_min": float(result.lambda_grid[0]),
                             "lambda_max": float(result.lambda_grid[-1])}}
    # Miller-loop cross-check: observability at T slightly above the Miller time
    if cross_check:
        T = 1.05 * result.miller_time
        spec = GramianSpec(T=T, window=window)
        c_t = observability_constant(spec)
        bound = miller_cost_bound(result.M_sup, result.m_fixed, T)
        results["cross_check"] = {"T": T, "C_T": c_t, "miller_bound": bound,
                                  "cost_ratio": c_t / bound,
                                  "within_slack": bool(c_t <= 1.5 * bound)}
    return results, ("resolvent_sweep.csv", write_sweep_csv, result)


def _cmd_tensor_check(cfg, rng, grid, window):
    if grid.dim != 1:
        raise ConfigError("grid.dim: tensor-check expects the 1D base grid")
    spec = _gramian_spec(cfg, window)
    c_2d, c_1d = strip_observability_constant(spec)
    return {"C_1d": c_1d, "C_2d": c_2d, "relative_gap": abs(c_2d - c_1d) / c_1d,
            "N_per_axis": grid.modes_per_axis, "T": spec.T}, None


def _cmd_stabilize(cfg, rng, grid, window):
    params = _build_nls_params(cfg, damping=window)
    # a decay rate needs a nonzero state and at least 10 records
    u0 = _initial_state(cfg, grid, rng, norm_sign="positive")
    if not u0.coeffs.any():  # no norm: it overflows past about 1e154
        raise ConfigError("initial_state: expected a nonzero state")
    T, record = _evolve(cfg, u0, params, 10.0, record_stride=10)
    if len(record.times) < 10:
        raise ConfigError(f"horizon.T: {len(record.times)} records of the decay at "
                          f"stride 10 (nls.dt = {params.dt}), need 10, got {T!r}")
    return ({"gamma_fit": fit_decay_rate(record), "initial_mass": record.mass[0],
             "final_mass": record.mass[-1]}, ("stabilize.csv", write_decay_csv, record))


def _cmd_global_control(cfg, rng, grid, window):
    spec = _gramian_spec(cfg, window)
    params = _build_nls_params(cfg)
    try:
        _refit_span(params.dt)
    except ValueError as exc:
        raise ConfigError(f"nls.dt: {exc}, got {params.dt!r}") from exc
    u0 = _initial_state(cfg, grid, rng)
    t_norm = _number(cfg, "target.norm", 0.0, "non-negative")
    max_mode = _integer(cfg, "target.max_mode")
    if t_norm > 0.0:
        u1 = random_state(grid, rng, norm=t_norm, max_mode=max_mode)
    else:
        u1 = zero_state(grid)
    threshold = _number(cfg, "nls.mass_threshold", 0.05)
    tol = _number(cfg, "solver.tol", 1e-8)
    try:
        schedule = global_control(u0, u1, spec, params, mass_threshold=threshold, tol=tol)
    except _UnresolvedPhaseError as exc:
        raise _unresolved_phase(exc, params) from exc
    phases = [{"phase": i, "type": ph.kind, "t_start": ph.t_start,
               "t_end": ph.t_end,
               "phi0": state_to_json(ph.phi0) if ph.phi0 is not None else None,
               "conjugate_reversed": ph.conjugate_reversed}
              for i, ph in enumerate(schedule.phases)]
    return {"phases": phases,
            "endpoint_error_to_zero": schedule.endpoint_error_to_zero,
            "endpoint_error_to_target": schedule.endpoint_error_to_target}, None


_COMMANDS = {
    "simulate": _cmd_simulate,
    "control": _cmd_control,
    "observability": _cmd_observability,
    "resolvent-sweep": _cmd_resolvent_sweep,
    "tensor-check": _cmd_tensor_check,
    "stabilize": _cmd_stabilize,
    "global-control": _cmd_global_control,
}


# built once: parsing keeps no state in the parser
_PARSER = argparse.ArgumentParser(prog="torus-control")
_PARSER.add_argument("subcommand")
_PARSER.add_argument("--config", type=Path, required=True)
_PARSER.add_argument("--out", type=Path, default=Path("."))
_PARSER.add_argument("--seed", type=int, default=None)
_PARSER.add_argument("--format", choices=["csv", "json", "both"], default="both")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    if args.subcommand not in _COMMANDS:
        print(f"unknown subcommand: {args.subcommand}", file=sys.stderr)
        return 64
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out
    try:
        _check_finite(cfg)
        if args.seed is None:
            args.seed = _integer(cfg, "seed", 0)
        elif args.seed < 0:
            raise ConfigError(f"--seed: expected an integer >= 0, got {args.seed}")
        rng = np.random.default_rng(args.seed)
        out_dir.mkdir(parents=True, exist_ok=True)
        grid = _build_grid(cfg)
        window = _build_window(cfg, grid)
        results, table = _COMMANDS[args.subcommand](cfg, rng, grid, window)
        if table is not None and args.format in ("csv", "both"):
            name, write, *data = table
            write(out_dir / name, *data)
        if args.format in ("json", "both"):
            write_json(out_dir / f"{args.subcommand.replace('-', '_')}.json",
                       {"config_echo": cfg, "seed": args.seed, "results": results,
                        "versions": {"torus_control": __version__,
                                     "numpy": np.__version__}})
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DenseSizeError as exc:
        print(f"config error: grid.N: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # --out is not a writable directory
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 2
    except (GramianSingularError, HUMConvergenceError, InfeasibleResolventError,
            NonFiniteResultError, NonFiniteStateError, PicardDivergenceError,
            StabilizationStallError, np.linalg.LinAlgError) as exc:
        write_json(out_dir / "error.json",
                   {"error": type(exc).__name__, "message": str(exc)})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
