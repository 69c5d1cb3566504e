"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

from shiftcat.shifts import ShiftPresentation

DATA = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def load(name: str) -> ShiftPresentation:
    with open(DATA / f"{name}.json", "r", encoding="utf-8") as fh:
        return ShiftPresentation.from_json(json.load(fh))
