"""A shiftcat process imports only what its subcommand runs.

Each probe runs in a fresh `python -S`, so no site `.pth` file can
preload a module, and prints the module names loaded at its end.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EVEN = str(ROOT / "tests" / "data" / "even.json")
HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "typing", "random"}

PROBE = """
import io, sys
sys.path.insert(0, {src!r})
import shiftcat.cli
argv = {argv!r}
if argv:
    sys.stdout = io.StringIO()
    code = shiftcat.cli.main(argv)
    sys.stdout = sys.__stdout__
    assert code == 0, code
print(" ".join(sorted(sys.modules)))
"""


def modules_after(argv: list[str]) -> set[str]:
    code = PROBE.format(src=str(ROOT / "src"), argv=argv)
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return set(out.split())


def shiftcat_modules(loaded: set[str]) -> set[str]:
    return {m.removeprefix("shiftcat.") for m in loaded
            if m.startswith("shiftcat.")}


def test_importing_the_cli_loads_no_library_module():
    loaded = modules_after([])
    assert not loaded & HEAVY
    assert shiftcat_modules(loaded) == {"cli", "errors"}


def test_zeta_loads_only_shifts_and_words():
    loaded = modules_after(["zeta", EVEN, "--order", "5"])
    assert not loaded & HEAVY
    assert shiftcat_modules(loaded) == {"cli", "errors", "shifts", "words"}


@pytest.mark.parametrize("argv", [["karoubi", EVEN],
                                  ["flowcheck", EVEN, "--letter", "a"]],
                         ids=lambda argv: argv[0])
def test_subcommands_without_a_seed_load_no_heavy_module(argv):
    assert not modules_after(argv) & HEAVY
