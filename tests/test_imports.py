"""No module of the package and no test file imports a name it never uses,
and no module of the package defines a name that nothing reads.

No linter ships with the project, so an ``ast`` scan stands in for one. The
package's ``__init__.py`` is skipped: its imports are re-exports. The same
scan keeps exact rational arithmetic in the modules that own it.
"""

import ast
from pathlib import Path

import pytest

import tokenjoin

PACKAGE = Path(tokenjoin.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
PACKAGE_MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
MODULES = PACKAGE_MODULES + sorted(TESTS.glob("*.py"))
# everything that may read a name of the package
READERS = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")) + sorted(TESTS.parent.glob("perfbench/**/*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports that the module never reads.

    ``from __future__`` imports are directives, not names. A name read only
    inside a string annotation counts as read.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            parsed = ast.parse(annotation.value, mode="eval")
            read.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    unread = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"line {line}: {name}" for line, name in unread]


def defined_names(source: str) -> dict[str, int]:
    """The functions, classes and variables ``source`` defines at module level, but dunders, with their lines."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    return {name: line for name, line in defined.items() if not (name.startswith("__") and name.endswith("__"))}


def read_names(source: str) -> set[str]:
    """The names ``source`` reads, as a variable or an attribute, or imports (a re-export reads it too)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def imported_names(source: str) -> set[str]:
    """The names ``source`` imports from modules, anywhere in it."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, anywhere in it."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules.add(node.module.split(".")[0])
    return modules


def test_the_scan_finds_an_unused_import():
    source = """
from __future__ import annotations
import os
import numpy as np
from typing import Sequence, Iterable
from .setdist import LdCache

def f(xs: Iterable[int], cache: "LdCache | None") -> int:
    return np.sum(xs)
"""
    assert unused_imports(source) == ["line 3: os", "line 5: Sequence"]
    assert imported_modules(source) == {"__future__", "os", "numpy", "typing"}
    assert imported_names(source) == {"annotations", "Sequence", "Iterable", "LdCache"}


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: path.name if path.parent == PACKAGE else f"tests/{path.name}"
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unread_definition():
    source = """
import numpy as np
__all__ = ["f"]
LIMIT = 3
UNUSED: int = 4
_HELPER = np.int64

class Box:
    size = LIMIT

def f():
    return Box.size

def g():
    return _HELPER
"""
    assert defined_names(source) == {"LIMIT": 4, "UNUSED": 5, "_HELPER": 6, "Box": 8, "f": 11, "g": 14}
    assert {"np", "LIMIT", "Box", "size", "_HELPER"} <= read_names(source)
    assert not {"UNUSED", "f", "g"} & read_names(source)


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(read_names(reader.read_text(encoding="utf-8")) for reader in READERS))


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda path: path.name)
def test_every_definition_is_read(path, read_anywhere):
    # a definition that no module, test or benchmark reads is dead code
    defined = defined_names(path.read_text(encoding="utf-8"))
    assert sorted(f"line {line}: {name}" for name, line in defined.items() if name not in read_anywhere) == []


def test_only_strdist_and_oracle_import_fractions():
    # the join reads every threshold bound from strdist's integer table;
    # the oracle is the independent reference
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if "fractions" in imported_modules(path.read_text(encoding="utf-8"))
    }
    assert importers == {"strdist.py", "oracle.py"}


def test_the_join_imports_no_scalar_verifier():
    # every edit distance of the join goes through strdist.ld_bounded_ids,
    # and the residual rows drop the shared tokens; sld_capped, LdCache,
    # ld_bounded and drop_shared are specifications and public API
    for name in ("pipeline.py", "residual.py"):
        source = (PACKAGE / name).read_text(encoding="utf-8")
        assert imported_names(source) & {"sld_capped", "LdCache", "ld_bounded", "drop_shared"} == set(), name
