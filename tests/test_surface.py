"""The package's public surface: `torus_control/__init__.py` exports exactly
the names that the demos and the acceptance gate import from it."""

import ast
from pathlib import Path

import torus_control

ROOT = Path(__file__).resolve().parents[1]


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
