"""Shared fixtures."""

import contextlib
import warnings

import pytest

import meanlab as ml

# On a failing @given test, hypothesis's pytest plugin imports its patch
# writer, and through it libcst, inside the report hook.  libcst's import
# warns DeprecationWarning (mypy_extensions.TypedDict), which the ini turns
# into an error there, and the run ends with INTERNALERROR.  Importing it once
# here, with that warning ignored, keeps the filters as they are.  Without
# libcst it does not import, and the plugin skips its patch writer too.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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
