"""Fixtures shared by the test modules."""

from __future__ import annotations

from collections import Counter

import pytest

from shiftcat import flowops, pseudowords


@pytest.fixture
def call_counts(monkeypatch):
    """count(*names) puts a spy on each named function wherever flowops
    or pseudowords binds it and returns the Counter of calls by name;
    a call through either binding counts once."""
    calls: Counter = Counter()

    def count(*names: str) -> Counter:
        for name in names:
            for mod in (flowops, pseudowords):
                real = getattr(mod, name, None)
                if real is None:
                    continue

                def spy(*args, real=real, name=name, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)

                monkeypatch.setattr(mod, name, spy)
        return calls

    return count
