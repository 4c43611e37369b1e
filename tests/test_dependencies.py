"""Declared dependencies are imported unconditionally.

``pyproject.toml`` lists the packages every supported install has.  A
``try: import numpy ... except ImportError`` around one of them invites a
second, dependency-free code path that no supported platform runs, so
this meta-test walks every module under ``src/`` and fails on any import
of a declared dependency guarded by an ``ImportError`` handler.
"""

import ast
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
GUARDS = {"ImportError", "ModuleNotFoundError"}


def _declared() -> set:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type
    if kinds is None:
        return True
    if isinstance(kinds, ast.Tuple):
        return any(isinstance(k, ast.Name) and k.id in GUARDS
                   for k in kinds.elts)
    return isinstance(kinds, ast.Name) and kinds.id in GUARDS


def _imported(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module]
    return []


def guarded_imports(source: str, declared: set) -> list:
    """(line, module) for each declared dependency imported inside a
    ``try`` whose handlers catch ``ImportError``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Try):
            continue
        if not any(_catches_import_error(h) for h in node.handlers):
            continue
        for statement in node.body:
            for inner in ast.walk(statement):
                for module in _imported(inner):
                    if module.split(".")[0].lower() in declared:
                        found.append((inner.lineno, module))
    return found


def test_numpy_is_declared():
    assert "numpy" in _declared()


def test_guard_detects_a_fallback_import():
    source = ("def f():\n"
              "    try:\n"
              "        import numpy as np\n"
              "    except (ValueError, ImportError):\n"
              "        np = None\n")
    assert guarded_imports(source, {"numpy"}) == [(3, "numpy")]
    assert guarded_imports("import numpy\n", {"numpy"}) == []


def test_no_declared_dependency_has_an_import_fallback():
    declared = _declared()
    offenders = []
    for path in SOURCES:
        for line, module in guarded_imports(path.read_text(), declared):
            offenders.append("%s:%d imports %s under an ImportError guard"
                             % (path.relative_to(ROOT), line, module))
    assert not offenders, "\n".join(offenders)
