"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

from shiftcat.semigroups import FiniteSemigroup, generate
from shiftcat.shifts import ShiftPresentation
from shiftcat.words import Alphabet

DATA = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
# the shifts of tests/data, in the order of cli._corpus()
CORPUS = ("golden_mean", "even", "full2", "periodic_ab", "fixed_point",
          "marker_cycle")


def load(name: str) -> ShiftPresentation:
    with open(DATA / f"{name}.json", "r", encoding="utf-8") as fh:
        return ShiftPresentation.from_json(json.load(fh))


def symmetric_5(swap: bool = False) -> FiniteSemigroup:
    """S_5 from a transposition and a 5-cycle, the 5-cycle first when
    swap is set: one group of order 120, numbered two ways."""
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    return generate(gens[::-1] if swap else gens, Alphabet(("a", "b")))
