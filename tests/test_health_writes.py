"""Static guard: server health changes only inside ``cluster/server.py``.

Cached healthy pools refresh when the engine's ``health_epoch`` moves,
and only ``Server.fail``, ``recover`` and ``set_powered`` bump it.  A
direct write of ``.healthy``, ``.failed`` or ``.powered_on`` anywhere
else would change health without a bump, and every routing cache would
keep serving the stale pool.  This test parses every Python file under
``src/`` and ``tests/`` and flags such writes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEALTH_ATTRS = frozenset({"healthy", "failed", "powered_on"})
OWNER = ROOT / "src" / "repro" / "cluster" / "server.py"


def _targets(node: ast.AST):
    if isinstance(node, ast.Assign):
        yield from node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield node.target
    elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        yield node.target
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        yield node.optional_vars
    elif isinstance(node, ast.NamedExpr):
        yield node.target


def _written_attrs(target: ast.AST):
    for sub in ast.walk(target):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            yield sub


def health_writes(source: str):
    """Sorted ``(line, attribute)`` of every health write in *source*."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        for target in _targets(node):
            for attr in _written_attrs(target):
                if attr.attr in HEALTH_ATTRS:
                    found.append((attr.lineno, attr.attr))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in HEALTH_ATTRS
        ):
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


def test_no_health_writes_outside_the_server_module():
    offenders = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == OWNER:
                continue
            for line, attr in health_writes(path.read_text()):
                offenders.append(f"{path.relative_to(ROOT)}:{line}: .{attr}")
    assert offenders == []


def test_guard_sees_the_server_module_writes():
    # The owner really writes all three (the guard is not vacuous), and
    # the detector catches every assignment form it claims to.
    assert {attr for _, attr in health_writes(OWNER.read_text())} == HEALTH_ATTRS
    source = (
        "s.healthy = False\n"
        "s.failed += 1\n"
        "s.powered_on: bool = True\n"
        "a, s.healthy = 1, 2\n"
        "setattr(s, 'failed', True)\n"
        "s.level = 3\n"
        "ok = s.healthy\n"
    )
    assert [line for line, _ in health_writes(source)] == [1, 2, 3, 4, 5]
