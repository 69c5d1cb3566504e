"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

from shiftcat.shifts import ShiftPresentation

DATA = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"
# the shifts of tests/data, in the order of cli._corpus()
CORPUS = ("golden_mean", "even", "full2", "periodic_ab", "fixed_point",
          "marker_cycle")


def load(name: str) -> ShiftPresentation:
    with open(DATA / f"{name}.json", "r", encoding="utf-8") as fh:
        return ShiftPresentation.from_json(json.load(fh))
