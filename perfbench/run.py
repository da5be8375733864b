"""Benchmark of torus-control: time to solution, memory, failures and
exact-time accuracy on three workloads, with a traced per-module run.

    python3 perfbench/run.py --workload linear-hum --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It imports the package from ./src (no
install needed), writes configs and CLI outputs under ./.perfbench/, and
prints a per-op table, the metrics with their units, the machine facts,
and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

Load is a closed loop: one client in one process runs the workload's ops
one after another, and repeats the whole pass until --seconds are used
(at least MIN_PASSES times).  Timings are medians over passes, scaled to
a reference machine speed measured by a fixed numpy kernel timed between
ops (see `calibrate`).  See perfbench/README.md for the metric
definitions and the predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("linear-hum", "nls-steer", "spectral-sweep")
MIN_PASSES = 3
# seconds the calibration kernel takes at the reference speed, and the
# op time after which it is timed again
CAL_REFERENCE_S = 0.032
CAL_EVERY_S = 0.5
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 5
ERROR_RATE_FLOOR = 1e-3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "error_rate": "1", "ct_err": "1", "control_err": "1",
             "mass_identity_err": "1"}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the number of usable cores; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            current = int(os.environ[var])
        except (KeyError, ValueError):
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def import_program():
    """Put ./src first on the path and import the package and the
    benchmark modules that depend on it."""
    if not (SRC / "torus_control" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'torus_control'} not found; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, scipy and torus_control
    return workloads


def setup_probe(workload: str, seed: int) -> None:
    """Child process of `measure_setup`: import, generate inputs, print
    the monotonic clock (system-wide on Linux) and exit."""
    cap_blas_threads()
    workloads = import_program()
    workloads.build(workload, seed, OUT / "probe")
    print(time.monotonic())


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start until the package is imported and the inputs are
    generated, measured SETUP_PROBES times in fresh processes.  Import
    time does not follow the calibration kernel, so it stays unscaled."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


def calibrate() -> float:
    """Seconds for a fixed numpy kernel: small FFTs, complex exponentials
    and a small dense eigensolve, the program's kinds of work.

    A shared machine drifts in speed: on a 2-vCPU VM the same pass took
    3.5 s in some minutes and 6.3 s in others.  Timing this kernel between
    ops measures the drift, and `speed_scale` divides it out of the pass
    times.  Over 10 seeds per workload that cut the spread of `wall_s`
    (quartile distance over median) from 18 / 27 / 15 % to 9 / 11 / 4 %
    on nls-steer / linear-hum / spectral-sweep.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    a = rng.standard_normal((48, 48))
    a = a + a.T
    t0 = time.perf_counter()
    for _ in range(150):
        np.fft.ifft(np.exp(1j * np.abs(np.fft.fft(x))) * x)
        np.linalg.eigvalsh(a)
    return time.perf_counter() - t0


def speed_scale(cal: list[float]) -> float:
    """Factor that turns seconds measured alongside these calibrations
    into seconds at the reference speed."""
    return CAL_REFERENCE_S / statistics.median(cal)


def machine_facts(nproc: int, seed: int) -> dict:
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed, "nproc": nproc,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 20,
        "caches": caches, "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}},
        "counts_note": "FLOP and byte counts are computed from array sizes, "
                       "not measured; no hardware counters, cache dropping "
                       "or machine-wide tracing is used",
    }


@dataclass
class Pass:
    """One pass over the ops: per-op seconds, outcomes, calibrations."""

    times: list[float]
    outcomes: list
    cal: list[float]

    @property
    def wall(self) -> float:
        """Pass time in seconds at the reference speed."""
        return sum(self.times) * speed_scale(self.cal)


def run_pass(ops, tracer=None) -> Pass:
    """One closed-loop pass: each op starts when the previous one ended.
    Checks and calibrations run between ops, untimed."""
    from workloads import Outcome

    result = Pass([], [], [calibrate()])
    since_cal = 0.0
    for op_id, op in enumerate(ops):
        if since_cal >= CAL_EVERY_S:
            result.cal.append(calibrate())
            since_cal = 0.0
        op.reset()
        raw, error = None, None
        with tracer.instrument(op_id) if tracer else nullcontext():
            call = tracer.root(op.call) if tracer else op.call
            t0 = time.perf_counter()
            try:
                with redirect_stdout(sys.stderr):
                    raw = call()
            except Exception as exc:  # an op that raises counts as failed
                error = exc
            t1 = time.perf_counter()
        result.times.append(t1 - t0)
        since_cal += t1 - t0
        if error is not None:
            result.outcomes.append(
                Outcome(failure=f"raised {type(error).__name__}: {error}"))
            continue
        try:
            result.outcomes.append(op.check(raw))
        except Exception as exc:  # e.g. an artifact missing or malformed
            result.outcomes.append(
                Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"]))
    result.cal.append(calibrate())
    return result


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= 1e-6 * max(abs(a), abs(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def consistency_problems(ops, passes) -> list[str]:
    """Each op must give the same answers and the same failure on every
    pass: the program is deterministic for fixed inputs."""
    problems = []
    first = passes[0].outcomes
    for p in passes[1:]:
        for op, a, b in zip(ops, first, p.outcomes):
            if (a.failure is None) != (b.failure is None) or not all(
                    _same(a.answers.get(k), b.answers.get(k))
                    for k in set(a.answers) | set(b.answers)):
                problems.append(f"{op.name}: answers differ between passes")
    return sorted(set(problems))


def measure(ops, seconds: float, tracer=None):
    """Warm-up pass, then passes until `seconds` are used.  A traced run
    alternates untraced and traced passes.  Returns (warm-up, untraced
    passes, traced passes with their per-layer metrics)."""
    # the warm-up pass fills lazy imports and caches; its outputs are
    # checked and counted, its time is not in the medians
    warmup = run_pass(ops)
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops))
        if tracer is not None:
            tracer.reset()
            p = run_pass(ops, tracer)
            traced.append((p, tracer.layer_metrics(sum(p.times))))
        now = time.perf_counter()
        enough = (len(traced) >= MIN_TRACED_PAIRS if tracer is not None
                  else len(passes) >= MIN_PASSES)
        if enough and (now - start) + (now - t0) > seconds:
            return warmup, passes, traced


def end_to_end(warmup, passes, setup, failed, attempted) -> dict:
    from oracles import CONTROL_ERR_FLOOR, CT_ERR_FLOOR, MASS_IDENTITY_FLOOR

    def worst(attr, floor):
        # answers repeat on every pass (checked), so the warm-up's serve
        return max([floor] + [v for o in warmup.outcomes for v in getattr(o, attr)])

    return {
        "wall_s": statistics.median(p.wall for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": max(ERROR_RATE_FLOOR, failed / attempted),
        "ct_err": worst("ct_err", CT_ERR_FLOOR),
        "control_err": worst("control_err", CONTROL_ERR_FLOOR),
        "mass_identity_err": worst("mass_identity_err", MASS_IDENTITY_FLOOR),
    }


def per_layer(passes, traced) -> dict:
    """Medians over the traced passes; times are raw seconds.  Traced and
    untraced passes alternate, so their raw times see the same drift and
    compare without the noise of the speed scale."""
    values = {name: statistics.median(m[name] for _, m in traced)
              for name in traced[0][1]}
    values["trace_overhead"] = (
        statistics.median(sum(p.times) for p, _ in traced)
        / statistics.median(sum(p.times) for p in passes) - 1.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    nproc = cap_blas_threads()
    workloads = import_program()
    # set-up is an end-to-end metric; the traced run does not report it
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    ops = workloads.build(args.workload, args.seed, OUT / "work")
    facts = machine_facts(nproc, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    warmup, passes, traced = measure(ops, args.seconds, tracer)
    all_passes = [warmup] + passes + [p for p, _ in traced]
    problems = consistency_problems(ops, all_passes)
    attempted = failed = 0
    for p in all_passes:
        attempted += len(p.outcomes)
        failed += sum(o.failure is not None for o in p.outcomes)
        for op, o in zip(ops, p.outcomes):
            problems += [f"{op.name}: {msg}" for msg in o.problems]
    if tracer is None:
        values = end_to_end(warmup, passes, setup, failed, attempted)
        units = E2E_UNITS
    else:
        from spans import layer_units
        values, units = per_layer(passes, traced), layer_units()

    # per-op table (median raw time and answers), metrics with units, facts
    op_times = [statistics.median(col) for col in zip(*(p.times for p in passes))]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          + (f" + {len(traced)} traced" if traced else "")
          + f"  raw pass {statistics.median(sum(p.times) for p in passes):.4f} s"
          + f"  speed scale {statistics.median(speed_scale(p.cal) for p in passes):.4f}")
    for op, seconds, o in zip(ops, op_times, warmup.outcomes):
        status = f"FAILED ({o.failure})" if o.failure else "ok"
        answers = ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                            for k, v in o.answers.items() if k != "phases")
        print(f"  {seconds:9.4f} s  {op.name:42s} {status}  {answers}")
    for name, value in values.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print("machine " + json.dumps(facts))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "setup_s": setup,
              "passes": [{"raw_s": sum(p.times), "wall_s": p.wall,
                          "calibration_s": p.cal} for p in [warmup] + passes],
              "ops": [{"name": op.name, "raw_s": [p.times[i] for p in passes],
                       "failure": o.failure, "answers": o.answers}
                      for i, (op, o) in enumerate(zip(ops, warmup.outcomes))],
              "metrics": values, "problems": problems}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for sid, (parent, layer, name, t0, t1, op_id) in enumerate(tracer.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                     "name": name, "start": t0, "end": t1,
                                     "op": op_id}) + "\n")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
