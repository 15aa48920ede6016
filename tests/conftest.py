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
