"""Every module-level private name in the package is used by the package."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
FILES = sorted((ROOT / "src" / "shiftcat").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt: ast.stmt) -> set[str]:
    """The private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {node.id for t in targets for node in ast.walk(t)
                 if isinstance(node, ast.Name)}
    else:
        names = set()
    return {n for n in names if _private(n)}


def _referenced(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, as an identifier, an attribute or an
    imported name."""
    out: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def orphans(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants that no
    module references outside the statement defining them."""
    defined: list[tuple[str, str]] = []
    used: set[str] = set()
    for module, source in sorted(sources.items()):
        for stmt in ast.parse(source).body:
            own = _defined(stmt)
            defined.extend((module, name) for name in sorted(own))
            used |= _referenced(stmt) - own
    return [f"{module}: {name}" for module, name in defined
            if name not in used]


SAMPLE_A = '''
from .b import _shared
_LIMIT = 3
_UNUSED_CONST = 4
__dunder__ = 1

def _recursive(n):
    return _recursive(n - 1) if n else _LIMIT

def _helper():
    return 1

class _Orphan:
    pass

def public(x):
    _local = _helper()
    return x.__class__._attr_only + _local + _shared
'''

SAMPLE_B = '''
def _shared():
    return 2

def _attr_only():
    return 3
'''


def test_scanner_flags_only_unreferenced_names():
    assert orphans({"a": SAMPLE_A, "b": SAMPLE_B}) == [
        "a: _UNUSED_CONST", "a: _recursive", "a: _Orphan"]


def test_no_orphaned_private_names():
    assert FILES
    found = orphans({path.name: path.read_text(encoding="utf-8")
                     for path in FILES})
    assert not found, found
