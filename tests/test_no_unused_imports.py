"""Static guard: no unused imports in the tests, benchmarks and scripts.

CI's lint job runs ``ruff check`` (F401 among its rules) over these
directories, but ruff is not part of the test environment.  This test
parses every Python file under ``tests``, ``benchmarks`` and
``scripts`` and flags each imported name the module never references.
A name counts as referenced when it is read anywhere in the module or
listed in ``__all__``.  Left alone, as ruff leaves them: ``__init__.py``
re-exports, ``from __future__`` imports and import lines marked
``# noqa``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("tests", "benchmarks", "scripts")


def unused_imports(source: str):
    """Sorted ``(line, name)`` of every imported name *source* never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            imported.setdefault(bound, node.lineno)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_unused_imports_outside_src():
    offenders = []
    for directory in DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                offenders.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert offenders == []


def test_guard_catches_unused_forms():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import a.b.c\n"
        "from x import used, unused as alias\n"
        "from y import kept  # noqa: F401\n"
        "from z import exported\n"
        "__all__ = ['exported']\n"
        "print(used, a.b.c)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "np"), (5, "alias")]
