"""The package's public surface: `torus_control/__init__.py` exports exactly
the names that the demos and the acceptance gate import from it; a call
takes its grid from one argument, and arguments on other grids are
refused; `src/` holds no unused import or private name."""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import numpy as np
import pytest

import torus_control
from torus_control import GramianSpec, make_grid, make_window, random_state
from torus_control.grid import FourierState, GridSpec
from torus_control.hum import synthesize_control
from torus_control.tensor import observed_energy_1d
from torus_control.windows import CutoffWindow

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(torus_control.__file__).parent


def _imported_from_package(path: Path) -> set[str]:
    """Names a script imports with `from torus_control import ...`."""
    return {alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "torus_control"
            for alias in node.names}


def _exported(path: Path) -> set[str]:
    """Names `__init__.py` binds: its relative imports and assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_init_exports_what_demos_and_gate_import():
    users = sorted(ROOT.glob("demos/*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(_imported_from_package, users))
    exported = _exported(Path(torus_control.__file__)) - {"__version__"}
    assert exported == used
    assert all(hasattr(torus_control, name) for name in used)


def _public_functions():
    """(qualified name, function) for every public module-level function
    of every module of the package."""
    for info in pkgutil.iter_modules(torus_control.__path__):
        module = importlib.import_module(f"torus_control.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                yield f"{info.name}.{name}", fn


def test_no_public_function_takes_a_grid_beside_a_grid_carrier():
    # a window, Gramian spec or state already holds a grid: a GridSpec
    # beside it is a second source that can disagree with the first
    carriers = {CutoffWindow, GramianSpec, FourierState}
    both = []
    for name, fn in _public_functions():
        hints = typing.get_type_hints(fn)
        hints.pop("return", None)
        params = set(hints.values())
        if GridSpec in params and params & carriers:
            both.append(name)
    assert both == []


def test_synthesize_control_refuses_phi0_on_another_grid():
    # a 1D phi0 on a 2D spec came back as a 2D state
    spec = GramianSpec(T=1.0, window=make_window(make_grid(2, 16), (0.0, 0.25)))
    phi0 = random_state(make_grid(1, 16), np.random.default_rng(0))
    with pytest.raises(ValueError, match="grid mismatch"):
        synthesize_control(spec, phi0, 0.5)


def test_observed_energy_1d_refuses_a_slice_on_another_grid():
    # an N = 32 state on an N = 16 spec was read as if it had 16 modes
    spec = GramianSpec(T=1.0, window=make_window(make_grid(1, 16), (0.0, 0.25)))
    c = random_state(make_grid(1, 32), np.random.default_rng(0))
    with pytest.raises(ValueError, match="grid mismatch"):
        observed_energy_1d(spec, c)


def _read(tree) -> set[str]:
    """Every name a module reads: loaded names and attribute names."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _imported(tree) -> set[str]:
    """Names a module binds by import (`__future__` features aside)."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names}


def _private_names(tree) -> set[str]:
    """Module-level names with one leading underscore that a module defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_src_has_no_unused_import_or_private_name():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = {stem: sorted(_imported(tree) - _read(tree))
              for stem, tree in trees.items() if stem != "__init__"}
    assert {stem: names for stem, names in unused.items() if names} == {}
    read = set().union(*map(_read, trees.values()))
    unread = {stem: sorted(_private_names(tree) - read) for stem, tree in trees.items()}
    assert {stem: names for stem, names in unread.items() if names} == {}
