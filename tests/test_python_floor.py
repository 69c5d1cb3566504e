"""The package parses under the grammar of the oldest Python that
pyproject.toml declares.  Grammar only: a library call newer than the
floor is not caught here."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_package_parses_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = map(int, re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    assert (major, minor) == (3, 10)
    files = sorted((ROOT / "src" / "shiftcat").glob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(major, minor))
