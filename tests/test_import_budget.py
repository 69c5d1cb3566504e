"""A shiftcat process imports only what its subcommand runs.

Each probe runs in a fresh `python -S`, so no site `.pth` file can
preload a module, and prints the module names loaded at its end.  A
successful run reads and writes JSON without the json package, whose
import compiles regular expressions, and the command line is parsed
without re; only a malformed JSON file loads json, for its message.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EVEN = str(ROOT / "tests" / "data" / "even.json")
HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "typing", "random",
         "argparse", "gettext", "locale"}

PROBE = """
import io, sys
sys.path.insert(0, {src!r})
import shiftcat.cli
argv = {argv!r}
if argv:
    sys.stdout = io.StringIO()
    code = shiftcat.cli.main(argv)
    sys.stdout = sys.__stdout__
    assert code == {code}, code
print(" ".join(sorted(sys.modules)))
"""


def probe(argv: list[str], code: int = 0) -> tuple[set[str], str]:
    """The modules loaded after main(argv) returns code, and stderr."""
    text = PROBE.format(src=str(ROOT / "src"), argv=argv, code=code)
    proc = subprocess.run([sys.executable, "-S", "-c", text], check=True,
                          capture_output=True, text=True, timeout=60)
    return set(proc.stdout.split()), proc.stderr


def modules_after(argv: list[str]) -> set[str]:
    return probe(argv)[0]


def shiftcat_modules(loaded: set[str]) -> set[str]:
    return {m.removeprefix("shiftcat.") for m in loaded
            if m.startswith("shiftcat.")}


def test_importing_the_cli_loads_no_library_module():
    loaded = modules_after([])
    assert not loaded & HEAVY
    assert shiftcat_modules(loaded) == {"cli", "errors"}


def test_zeta_loads_only_shifts_and_words():
    # irreducible too: its Tarjan routine, which Green's relations share,
    # lives in shifts, so it must not pull in semigroups; blocks, whose
    # store lives in shifts; and member on a word, which needs no term
    for argv in (["zeta", EVEN, "--order", "5"], ["irreducible", EVEN],
                 ["blocks", EVEN, "--order", "5"], ["member", EVEN, "abba"]):
        loaded = modules_after(argv)
        assert not loaded & HEAVY, argv
        assert shiftcat_modules(loaded) == {"cli", "errors", "shifts",
                                            "words"}, argv


@pytest.mark.parametrize("argv", [["karoubi", EVEN],
                                  ["lu-poset", EVEN, "--carrier", "all"]],
                         ids=lambda argv: argv[0])
def test_karoubi_and_lu_poset_load_no_term_module(argv):
    loaded = modules_after(argv)
    assert shiftcat_modules(loaded) == {
        "cli", "errors", "karoubi", "semigroups", "shifts", "words"}
    # only the block store needs it, and it costs 0.4 MiB of peak RSS
    assert "array" not in loaded


@pytest.mark.parametrize("argv", [["karoubi", EVEN],
                                  ["flowcheck", EVEN, "--letter", "a"]],
                         ids=lambda argv: argv[0])
def test_subcommands_without_a_seed_load_no_heavy_module(argv):
    assert not modules_after(argv) & HEAVY


# the identity block map of window 3 over {a, b}
ID3 = {"window": 3, "source": ["a", "b"], "target": ["a", "b"],
       "memory": 1, "anticipation": 1,
       "table": {a + b + c: b for a in "ab" for b in "ab" for c in "ab"}}


def test_successful_runs_load_neither_json_nor_re(tmp_path):
    code = tmp_path / "id3.json"
    code.write_text(json.dumps(ID3))
    for argv in (["--version"], ["zeta", EVEN, "--order", "5"],
                 ["blocks", EVEN, "--order", "5"], ["syntactic", EVEN],
                 ["karoubi", EVEN], ["lu-poset", EVEN],
                 ["code", "compose", str(code), str(code)],
                 ["code", "centralize", str(code)]):
        loaded = modules_after(argv)
        assert not loaded & {"json", "re"}, argv


def test_a_malformed_file_still_gets_jsons_message(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"alphabet": ["a"]} ]')
    loaded, err = probe(["zeta", str(path), "--order", "2"], code=1)
    assert "json" in loaded
    assert err == f"error: {path}:1:21: Extra data\n"


ORACLES_PROBE = """
import importlib.util, sys

class NoShiftcat:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "shiftcat":
            raise ImportError(name)

sys.meta_path.insert(0, NoShiftcat())
spec = importlib.util.spec_from_file_location("oracles", {path!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
"""


def test_the_oracles_load_without_the_package():
    # the benchmark's checker loads tests/oracles.py from a checkout
    # with no shiftcat on the path
    code = ORACLES_PROBE.format(path=str(ROOT / "tests" / "oracles.py"))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
