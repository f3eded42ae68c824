"""The third-party modules that ``src/dtregge`` imports, lazy imports
included, are exactly the ``[project] dependencies`` of ``pyproject.toml``,
and those that ``tests`` imports are declared there or in the ``test``
extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports(paths) -> set[str]:
    """Top-level names of the non-standard-library modules that ``paths``
    import anywhere, relative imports and ``dtregge`` itself excluded."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"dtregge"}


def _declared_dependencies(extra: str | None = None) -> set[str]:
    """The ``[project] dependencies``, or those of the optional ``extra``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = project["dependencies"] if extra is None else project["optional-dependencies"][extra]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_") for spec in specs}


def test_imports_are_the_declared_dependencies():
    imported = _third_party_imports(sorted((ROOT / "src" / "dtregge").glob("*.py")))
    assert imported == _declared_dependencies()


def test_test_imports_are_declared():
    paths = sorted((ROOT / "tests").glob("*.py"))
    imported = _third_party_imports(paths) - {path.stem for path in paths}
    assert imported <= _declared_dependencies() | _declared_dependencies("test")


def test_lazy_and_dotted_imports_are_seen(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import sibling\n"
        "from dtregge.linalg import det\n"
        "def f():\n"
        "    import sympy.matrices\n"
        "    from click import echo\n"
    )
    assert _third_party_imports([module]) == {"sympy", "click"}
