"""numpy is the package's only runtime dependency: no module under
``src/qretrodict`` imports anything else outside the standard library, so
what the tests use (scipy, jsonschema) cannot reach the package."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNTIME = {"numpy"}


def absolute_imports(path: Path) -> set:
    """Top-level package of each absolute import in ``path``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted((ROOT / "src" / "qretrodict").glob("*.py"))
    assert modules
    allowed = set(sys.stdlib_module_names) | RUNTIME
    outside = {path.name: sorted(absolute_imports(path) - allowed) for path in modules}
    assert {name: found for name, found in outside.items() if found} == {}


def test_pyproject_lists_numpy_as_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower()
             for spec in project["project"]["dependencies"]}
    assert names == RUNTIME
