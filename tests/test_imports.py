"""No module of the package and no test file imports a name it never uses.

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
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


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
