"""Shared fixtures."""

import pytest

import meanlab as ml


@pytest.fixture
def scan_counts(monkeypatch):
    """Counts Measure.window_stats calls (each is one batch of windows) and
    Measure.tail_probability calls (each is one tail curve)."""
    counts = {}
    for name in ("window_stats", "tail_probability"):
        original = getattr(ml.Measure, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ml.Measure, name, counted)
    return counts


@pytest.fixture
def atom_builds(monkeypatch):
    """Counts atoms as they enter a comb's cache (``atom_builds["atoms"]``),
    refused requests included."""
    counts = {"atoms": 0}
    original = ml.AtomicComb._ensure_blocks

    def counted(self, *args, **kwargs):
        before = self._enumerated[0].size
        try:
            return original(self, *args, **kwargs)
        finally:
            counts["atoms"] += self._enumerated[0].size - before

    monkeypatch.setattr(ml.AtomicComb, "_ensure_blocks", counted)
    return counts
