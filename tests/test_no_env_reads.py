"""Static guard: no module under ``src/repro`` reads the environment.

A sweep cell's result is cached under a key built from its recorded
inputs (config, scheme, cell parameters, package version).  An
environment variable read anywhere in the simulator would be an input
the key leaves out: two runs with different environments would share
one cached cell.  This test parses every Python file under
``src/repro`` and flags each read of ``os.environ`` (including
``os.environ.get``), ``os.environb``, ``os.getenv`` or ``os.getenvb``,
whether reached through the ``os`` module, an alias of it, or a name
imported from it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ENV_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})


def env_reads(source: str):
    """Sorted ``(line, name)`` of every environment access in *source*."""
    tree = ast.parse(source)
    os_aliases = set()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_aliases.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_NAMES:
                    imported[alias.asname or alias.name] = alias.name
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in os_aliases
        ):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in imported:
            found.append((node.lineno, f"os.{imported[node.id]}"))
    return sorted(found)


def test_no_environment_reads_under_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for line, name in env_reads(path.read_text()):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert offenders == []


def test_guard_catches_every_read_form():
    source = (
        "import os\n"
        "import os as _os\n"
        "from os import environ, getenv as ge\n"
        "a = os.environ.get('X', '')\n"
        "b = os.environ['X']\n"
        "c = os.getenv('X')\n"
        "d = _os.environ\n"
        "e = environ['X']\n"
        "f = ge('X')\n"
        "g = os.path.join('a', 'b')\n"
        "h = obj.environ\n"
    )
    assert [line for line, _ in env_reads(source)] == [4, 5, 6, 7, 8, 9]
