"""Every import in the package and the tests is used."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
FILES = sorted([*(ROOT / "src" / "shiftcat").glob("*.py"),
                *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that nothing else reads.

    A name counts as read when it appears as an identifier or inside a
    string annotation.  `from __future__` imports are directives, not
    bindings.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [a for node in ast.walk(tree)
                   for a in (getattr(node, "annotation", None),
                             getattr(node, "returns", None)) if a]
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                read |= {n.id for n in ast.walk(expr)
                         if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in read]


SAMPLE = '''
from __future__ import annotations
import os, os.path as osp
import json.decoder
from typing import Any, List, Set

def f(x: "List[int]") -> Any:
    "Set"
    return json.decoder
'''


def test_scanner_flags_only_unread_names():
    assert unused_imports(SAMPLE) == ["line 5: Set", "line 3: os",
                                      "line 3: osp"]


def test_no_unused_imports():
    assert FILES
    found = [f"{path.relative_to(ROOT)} {entry}" for path in FILES
             for entry in unused_imports(path.read_text(encoding="utf-8"))]
    assert not found, found
