"""Every `raise MismatchBug(...)` under src/ is reached by a test.

A MismatchBug reports that two computations which must agree did not,
so only a corrupted input reaches it.  For each raise, some test must
expect it with a `match=` pattern that finds the leading literal text
of its message: the whole message, or an f-string up to its first
field.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "shiftcat").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def leading_literal(message: ast.expr) -> str:
    """The text a message starts with before its first f-string field."""
    if isinstance(message, ast.Constant):
        return message.value
    text = ""
    for part in message.values:         # an f-string
        if not isinstance(part, ast.Constant):
            break
        text += part.value
    return text


def raises() -> list[tuple[str, str]]:
    """(module, leading literal) of every raise MismatchBug(...)."""
    out = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id == "MismatchBug"):
                out.append((path.stem, leading_literal(node.exc.args[0])))
    return out


def match_patterns() -> list[str]:
    """Every constant `match=` argument in the tests."""
    return [kw.value.value for path in TESTS
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) for kw in node.keywords
            if kw.arg == "match" and isinstance(kw.value, ast.Constant)]


RAISES = raises()


def test_the_raises_are_found():
    assert len(RAISES) > 20
    assert all(text for _, text in RAISES)


@pytest.mark.parametrize("module, text", RAISES,
                         ids=[f"{module}: {text}" for module, text in RAISES])
def test_each_mismatch_bug_has_a_matching_test(module, text):
    assert any(re.search(pattern, text) for pattern in match_patterns()), \
        f"no test matches {text!r} ({module})"
