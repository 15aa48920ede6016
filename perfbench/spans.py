"""Spans and counters recorded from outside the program.

A ``Tracer`` replaces public names at the place their callers look them up
(a module attribute or a class attribute) with a wrapper that records one
span per call: name, start, end and the id of the enclosing span.  Nothing
inside ``src/`` changes; ``uninstall`` puts every original back.  A name
that no longer exists is recorded as absent instead of raising, so a later
refactor that deletes it leaves the benchmark running.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent id, info dict]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, info: dict | None = None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, info)

    def _open(self, name, info):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {} if info is None else info])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    # -- instrumentation ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_call=None, on_result=None):
        """Record a span around every call of ``owner.attr``.

        ``on_call(info, args, kwargs)`` and ``on_result(info, result)`` may
        add fields to the span's info dict.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        tracer = self

        def wrapper(*args, **kwargs):
            info = {}
            if on_call is not None:
                on_call(info, args, kwargs)
            sid = tracer._open(name, info)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(sid)
            if on_result is not None:
                on_result(info, result)
            return result

        wrapper.__wrapped__ = original
        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str):
        """Count calls of ``owner.attr`` without recording spans."""
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper):
        # Remember whether the attribute lived on the owner itself so that a
        # class attribute inherited from a base is removed, not shadowed.
        own = attr in getattr(owner, "__dict__", {})
        self._installed.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def infos(self, name: str) -> list[dict]:
        return [s[4] for s in self.spans if s[0] == name]

    def under(self, ancestor_ids: set[int], name: str) -> list[list]:
        """Spans called ``name`` that have an ancestor in ``ancestor_ids``."""
        out = []
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p is not None and p not in ancestor_ids:
                p = self.spans[p][3]
            if p is not None:
                out.append(s)
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children never overlap because the loop is single-threaded.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        table: dict[str, dict] = {}
        for sid, s in enumerate(self.spans):
            row = table.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = s[2] - s[1]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[sid]
        return table


class _Span:
    def __init__(self, tracer, name, info):
        self.tracer, self.name, self.info = tracer, name, info

    def __enter__(self):
        self.sid = self.tracer._open(self.name, self.info)
        return self.info

    def __exit__(self, *exc):
        self.tracer._close(self.sid)
        return False


def instrument(tracer: Tracer, ml) -> None:
    """Wrap the public names of every meanlab layer the benchmark times."""
    import scipy.integrate

    genmean, measures = ml.genmean, ml.measures
    lln, maxent = ml.lln, ml.maxent
    axioms, spectral = ml.axioms, ml.spectral

    def scan_result(info, series):
        info["radii"] = len(series.radii)
        info["probes"] = int(series.is_probe.sum())

    def taxonomy_result(info, report):
        info["case"] = report.case

    def multiplier_call(info, args, kwargs):
        family = args[1] if len(args) > 1 else kwargs.get("family")
        info["family"] = getattr(family, "kind", "?")

    def draw_call(info, args, kwargs):
        info["count"] = int(args[1] if len(args) > 1 else kwargs["count"])

    def solve_result(info, solution):
        info["newton_steps"] = solution.newton_steps

    def axiom_result(info, report):
        info["trials"] = report.trials

    tracer.wrap(genmean, "limit_scan", "genmean.limit_scan", on_result=scan_result)
    tracer.wrap(genmean, "classify_series", "genmean.classify_series")
    tracer.wrap(genmean, "classify_taxonomy", "genmean.classify_taxonomy",
                on_result=taxonomy_result)
    tracer.wrap(genmean, "mean_ladder", "genmean.mean_ladder")
    tracer.wrap(genmean, "tail_mass_curve", "genmean.tail_mass_curve")
    tracer.wrap(genmean, "multiplier_mean", "genmean.multiplier_mean",
                on_call=multiplier_call)
    # spectral imported mean_ladder by name, so its callers look it up there
    tracer.wrap(spectral, "mean_ladder", "genmean.mean_ladder")
    tracer.wrap(scipy.integrate, "quad", "scipy.integrate.quad")

    # Every measure class that defines its own atoms_within.
    for value in list(vars(measures).values()):
        if (isinstance(value, type) and issubclass(value, measures.Measure)
                and "atoms_within" in vars(value)):
            tracer.wrap(value, "atoms_within", "measures.atoms_within")
    tracer.count(getattr(measures, "Atom", None), "__post_init__", "measures.atoms")

    tracer.wrap(getattr(lln, "Sampler", None), "draw", "lln.draw", on_call=draw_call)
    tracer.wrap(lln, "build_sampler", "lln.build_sampler")
    tracer.wrap(lln, "running_mean_trajectory", "lln.running_mean_trajectory")
    tracer.wrap(lln, "wlln_experiment", "lln.wlln_experiment")
    tracer.wrap(lln, "cauchy_stability_demo", "lln.cauchy_stability_demo")

    tracer.wrap(maxent, "maxent_solve", "maxent.maxent_solve", on_result=solve_result)
    tracer.count(maxent, "dual_objective", "maxent.dual_objective")

    tracer.wrap(axioms, "check_axiom", "axioms.check_axiom", on_result=axiom_result)

    tracer.wrap(spectral, "eigendecompose", "spectral.eigendecompose")
    tracer.wrap(spectral, "induced_measure", "spectral.induced_measure")
    tracer.wrap(spectral, "bridge_analyze", "spectral.bridge_analyze")
    tracer.wrap(spectral, "pos_neg_split", "spectral.pos_neg_split")
