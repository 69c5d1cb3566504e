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


def sofic_2225() -> ShiftPresentation:
    """The 26th draw of bench/workloads.random_sofic from random.Random(7),
    whose syntactic semigroup has 2225 elements and 518 idempotents."""
    edges = [("0", "a", "1"), ("1", "a", "2"), ("2", "a", "3"),
             ("3", "a", "4"), ("4", "a", "0"), ("1", "b", "3"),
             ("0", "c", "3"), ("4", "c", "1"), ("0", "a", "3"),
             ("3", "c", "1"), ("2", "b", "0"), ("4", "a", "1"),
             ("3", "b", "2"), ("2", "b", "2"), ("2", "b", "1")]
    return ShiftPresentation.sofic(Alphabet(("a", "b", "c")),
                                   [str(i) for i in range(5)], edges)
