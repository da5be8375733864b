"""Span recorder for the traced run, applied from outside the program.

`Tracer.instrument()` replaces, for the duration of one op, every public
function of the package modules (and every name those modules re-import
from each other) with a wrapper that records a span: layer, name, start,
end, parent span and op id.  A few private entry points are wrapped too,
because per-layer metrics need them: the CLI's `_cmd_*` handlers, the
Gramian applier's matvecs, and the NLS control legs.  Counters are
recorded at the same boundaries.  Nothing under src/ is modified; the
original attributes are restored when the op ends.

A span's self time is its duration minus the durations of its direct
children.  FLOP and byte counts of the Gramian kernel are computed from
array sizes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "io", "grid", "windows", "operators", "hum", "tensor",
          "resolvent", "nls")
SUBCOMMANDS = ("simulate", "control", "observability", "resolvent_sweep",
               "tensor_check", "stabilize", "global_control")
# private functions whose spans the per-layer metrics need
PRIVATE_WRAPPED = {"_apply_batch", "_controlled_forward",
                   "_stabilize_to_threshold", "_drive_to_zero"}
# one Gramian node apply on n points: an inverse and a forward FFT
# (5 n log2 n each) and 18 n for the phase, chi^2, conjugate-phase and
# weighted-accumulate passes; bytes assume each of those passes streams
# its complex128 operands once (about 248 bytes per point in all)
NODE_BYTES_PER_POINT = 248


def _node_flops(n_points: int) -> float:
    return 10.0 * n_points * math.log2(n_points) + 18.0 * n_points


class Tracer:
    """Collects spans and counters for the ops run under `instrument`."""

    def __init__(self):
        self.spans = []  # (parent, layer, name, start, end, op_id)
        self.counters = Counter()
        self._stack = []
        self._op_id = -1
        self._modules = {name: importlib.import_module(f"torus_control.{name}")
                         for name in LAYERS}
        self._patch_list = None

    # -- recording -----------------------------------------------------
    def _span(self, layer, name, fn, on_exit=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (parent, layer, name, t0, t1, self._op_id)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self):
        c = self.counters

        def written(args, kwargs, result):
            c["io.files_written"] += 1
            c["io.bytes_written"] += os.path.getsize(args[0])

        def gramian_applied(columns):
            def hook(args, kwargs, result):
                applier, cols = args[0], columns(args)
                nodes, n = len(applier.weights) * cols, applier.grid.n_points
                c["hum.matvecs"] += cols
                c["hum.node_applies"] += nodes
                c["hum.kernel_flop"] += nodes * _node_flops(n)
                c["hum.kernel_bytes"] += nodes * n * NODE_BYTES_PER_POINT
            return hook

        def gramian2d(args, kwargs, result):
            c["tensor.basis_columns"] += args[0].grid.n_points

        def evolve(args, kwargs, result):
            T = args[1] if len(args) > 1 else kwargs["T"]
            params = args[2] if len(args) > 2 else kwargs["params"]
            if params.damping is not None:
                c["nls.damped_time"] += T

        def local_control(args, kwargs, result):
            c["nls.picard_iters"] += result[2]["iterations"]

        def forward(args, kwargs, result):
            c["nls.forward_steps"] += args[4] if len(args) > 4 else kwargs["n_steps"]

        return {"io.write_csv": written, "io.write_json": written,
                "tensor.dense_gramian_2d": gramian2d, "nls.evolve": evolve,
                "nls.local_control_nls": local_control,
                "nls._controlled_forward": forward,
                "hum._GramianApplier.apply_one": gramian_applied(lambda a: 1),
                "hum._GramianApplier.apply_batch":
                    gramian_applied(lambda a: a[1].shape[0])}

    def _counting_cg(self, cg):
        counters = self.counters

        @functools.wraps(cg)
        def wrapper(*args, callback=None, **kwargs):
            def count(xk):
                counters["hum.cg_iters"] += 1
                if callback is not None:
                    callback(xk)
            return cg(*args, callback=count, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------
    def _patches(self):
        """(owner, attribute, replacement) for everything to wrap."""
        if self._patch_list is not None:
            return self._patch_list
        hooks = self._hooks()
        by_function = {}
        patches = []
        for mod in self._modules.values():
            for attr, obj in vars(mod).items():
                if not (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("torus_control.")):
                    continue
                if attr.startswith("_") and not (attr in PRIVATE_WRAPPED
                                                 or attr.startswith("_cmd_")):
                    continue
                if obj not in by_function:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    name = f"{layer}.{obj.__name__}"
                    by_function[obj] = self._span(layer, name, obj, hooks.get(name))
                patches.append((mod, attr, by_function[obj]))
        cli = self._modules["cli"]
        for sub, fn in cli._COMMANDS.items():
            patches.append((cli._COMMANDS, sub, by_function[fn]))
        hum = self._modules["hum"]
        for meth in ("apply_one", "apply_batch"):
            name = f"hum._GramianApplier.{meth}"
            fn = getattr(hum._GramianApplier, meth)
            patches.append((hum._GramianApplier, meth,
                            self._span("hum", name, fn, hooks[name])))
        patches.append((hum, "cg", self._counting_cg(hum.cg)))
        self._patch_list = patches
        return patches

    @contextmanager
    def instrument(self, op_id: int):
        """Wrap the package for one op; the op itself is the root span."""
        saved = []
        for owner, attr, new in self._patches():
            if isinstance(owner, dict):
                saved.append((owner, attr, owner[attr]))
                owner[attr] = new
            else:
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, new)
        self._op_id = op_id
        try:
            yield
        finally:
            for owner, attr, old in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = old
                else:
                    setattr(owner, attr, old)

    def root(self, fn):
        """Wrap an op's call in a `bench` span so self times add up to it."""
        return self._span("bench", "bench.op", fn)

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    # -- aggregation ---------------------------------------------------
    def layer_metrics(self, pass_s: float) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        child = [0.0] * len(self.spans)
        for parent, _, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s, own = defaultdict(float), defaultdict(float)
        incl = defaultdict(float)
        calls = Counter()
        for i, (_, layer, name, t0, t1, _) in enumerate(self.spans):
            self_s[layer] += (t1 - t0) - child[i]
            own[name] += (t1 - t0) - child[i]
            incl[name] += t1 - t0
            calls[name] += 1
            calls[layer] += 1
        c = self.counters

        def per_call(name, unit):
            return unit * incl[name] / calls[name] if calls[name] else 0.0

        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m.update({f"cli.{sub}_s": incl[f"cli._cmd_{sub}"] for sub in SUBCOMMANDS})
        m.update({
            "io.bytes_written": c["io.bytes_written"],
            "io.files_written": c["io.files_written"],
            "operators.calls": calls["operators"],
            "hum.eig_s": incl["hum.lambda_min_dense"] + incl["hum.lambda_min_iterative"],
            "hum.solve_s": incl["hum.solve_gramian_system"],
            "hum.certificate_s": incl["hum.drive_linear"],
            "hum.matvecs": c["hum.matvecs"],
            "hum.node_applies": c["hum.node_applies"],
            "hum.cg_iters": c["hum.cg_iters"],
            "hum.drive_linear_calls": calls["hum.drive_linear"],
            "hum.kernel_gflop": c["hum.kernel_flop"] / 1e9,
            "hum.kernel_mb": c["hum.kernel_bytes"] / 1e6,
            "tensor.gramian2d_s": incl["tensor.dense_gramian_2d"],
            "tensor.basis_columns": c["tensor.basis_columns"],
            "nls.steps": calls["nls.nls_step"],
            "nls.step_us": per_call("nls.nls_step", 1e6),
            "nls.forward_steps": c["nls.forward_steps"],
            "nls.sample_s": incl["nls.energy"],
            "nls.evolve_self_s": own["nls.evolve"],
            "nls.damped_time": c["nls.damped_time"],
            "nls.picard_iters": c["nls.picard_iters"],
            "nls.local_control_self_s": own["nls.local_control_nls"],
            "resolvent.points": calls["resolvent.best_resolvent_constant"],
            "resolvent.point_ms": per_call("resolvent.best_resolvent_constant", 1e3),
            "resolvent.sweep_s": incl["resolvent.sweep"],
            "trace.coverage": sum(self_s[layer] for layer in LAYERS) / pass_s,
        })
        return m


def layer_units() -> dict:
    """Unit of every per-layer metric the traced run reports."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"cli.{sub}_s": "s" for sub in SUBCOMMANDS})
    units.update({
        "io.bytes_written": "B", "io.files_written": "count",
        "operators.calls": "count",
        "hum.eig_s": "s", "hum.solve_s": "s", "hum.certificate_s": "s",
        "hum.matvecs": "count", "hum.node_applies": "count",
        "hum.cg_iters": "count", "hum.drive_linear_calls": "count",
        "hum.kernel_gflop": "GFLOP", "hum.kernel_mb": "MB",
        "tensor.gramian2d_s": "s", "tensor.basis_columns": "count",
        "nls.steps": "count", "nls.step_us": "us", "nls.forward_steps": "count",
        "nls.sample_s": "s", "nls.evolve_self_s": "s", "nls.damped_time": "1",
        "nls.picard_iters": "count", "nls.local_control_self_s": "s",
        "resolvent.points": "count", "resolvent.point_ms": "ms",
        "resolvent.sweep_s": "s",
        "trace.coverage": "1", "trace_overhead": "1",
    })
    return units
