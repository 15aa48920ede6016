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
    """Counts Atom constructions (``atom_builds["atoms"]``)."""
    counts = {"atoms": 0}
    original = ml.Atom.__post_init__

    def counted(self):
        counts["atoms"] += 1
        original(self)

    monkeypatch.setattr(ml.Atom, "__post_init__", counted)
    return counts
