"""README names every size cap of the package with its value: each
module-level `_MAX_*` or `_*_LIMIT` constant under src/."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CAP = re.compile(r"^_(MAX_\w+|\w+_LIMIT)$")


def size_caps() -> list[tuple[str, str]]:
    """(module, name) of every module-level cap, by file order."""
    caps = []
    for path in sorted((ROOT / "src" / "shiftcat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        caps += [(path.stem, target.id) for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name) and CAP.match(target.id)]
    return caps


def spellings(value: int) -> set[str]:
    """The ways README writes an integer: 65536, 200 000, 2^16 or
    4·10^6."""
    grouped = f"{value:,}"
    out = {str(value), grouped.replace(",", " "),
           grouped.replace(",", " ")}
    if value > 2 and value & (value - 1) == 0:
        out.add(f"2^{value.bit_length() - 1}")
    mantissa, exponent = value, 0
    while mantissa % 10 == 0:
        mantissa, exponent = mantissa // 10, exponent + 1
    if exponent > 1:
        out.add(f"{mantissa}·10^{exponent}")
    return out


def test_the_caps_are_found():
    names = {name for _, name in size_caps()}
    assert {"_POSET_LIMIT", "_MAX_GROUP_STEPS", "_MAX_SIZE"} <= names


@pytest.mark.parametrize("module, name", size_caps())
def test_readme_names_each_size_cap_with_its_value(module, name):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    value = getattr(importlib.import_module(f"shiftcat.{module}"), name)
    near = [readme[max(0, m.start() - 200):m.end() + 200]
            for m in re.finditer(re.escape(name), readme)]
    assert near, f"README does not name {module}.{name}"
    assert any(re.search(rf"(?<![\d.]){re.escape(s)}(?!\d)", text)
               for text in near for s in spellings(value)), \
        f"README names {module}.{name} but not its value {value}"
