"""Span recording around optexec's public functions, from outside the package.

`install` wraps each layer's public functions so every call records a span
(name, start, end, parent, work, note) in memory; `layer_metrics` turns the
span list into the per-layer numbers the benchmark reports.  Because
`optexec.cli` (and other modules) bind functions at import time, each
wrapper replaces every binding of the original function object in every
loaded `optexec` module, not only the defining one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    work: float = 0.0  # elements or path-steps handled by the call
    note: float = 0.0  # a value read off the result (saturation, absorptions)


class Recorder:
    """In-memory span list with a call stack for parent links."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.paused_s = 0.0  # time left out of every span, such as a sampling probe's

    def clock(self) -> float:
        return time.perf_counter() - self.paused_s

    def wrap(self, name, fn, work=None, note=None):
        """Return `fn` wrapped to record one span per call.

        `work(args, kwargs)` and `note(result)` fill the span's counters.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            if work is not None:
                span.work = float(work(args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = float(note(result))
            return result

        return wrapper


def _size_of(position):
    def work(args, kwargs):
        return np.size(args[position] if len(args) > position else next(iter(kwargs.values())))

    return work


def _path_steps(args, kwargs):
    # simulate(strategy, coeffs, model, c0, x0, s0, horizon, n_paths, n_steps, ...)
    names = ("n_paths", "n_steps")
    vals = [kwargs[n] if n in kwargs else args[7 + i] for i, n in enumerate(names)]
    return vals[0] * vals[1]


def _targets():
    """(owner, attribute, span name, work, note) for every wrapped callable."""
    # import_module, because the package re-exports functions named like
    # their modules (optexec.simulate is the function after `import optexec`)
    cli, closed_form, config, hamiltonian, hjb, simulate, impact = (
        importlib.import_module(f"optexec.{m}")
        for m in ("cli", "closed_form", "config", "hamiltonian", "hjb", "simulate", "impact")
    )
    ImpactModel = impact.ImpactModel

    out = [
        (ImpactModel, "g", "impact.g", _size_of(1), None),
        (ImpactModel, "h", "impact.h", _size_of(1), None),
        (ImpactModel, "h_inverse", "impact.h_inverse", _size_of(1), None),
        (hamiltonian, "optimal_speed", "hamiltonian.closed", None, None),
        (hamiltonian, "hamiltonian", "hamiltonian.closed", None, None),
        (hamiltonian, "closed_vs_brute_samples", "hamiltonian.oracle", None, None),
        (hjb, "solve_reduced_hjb", "hjb.solve", None, lambda s: s.saturation_fraction),
        (hjb, "hjb_residual", "hjb.residual", None, None),
        (simulate, "simulate", "simulate", _path_steps, lambda r: r.absorption_count),
        (simulate, "compare_strategies", "simulate.compare", None, None),
        (simulate.DeterministicStrategy, "speeds", "simulate.strategy", None, None),
        (simulate.FeedbackStrategy, "speeds", "simulate.strategy", None, None),
        (config, "read_config_file", "config", None, None),
        (config, "apply_overrides", "config", None, None),
        (config, "build_run_config", "config", None, None),
        (cli, "main", "cli", None, None),
    ]
    for fname in closed_form.__all__:
        obj = getattr(closed_form, fname)
        if callable(obj) and not isinstance(obj, type):
            out.append((closed_form, fname, "closed_form", None, None))
    return out


class Installation:
    """The patches made by `install`; `restore` puts the originals back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every layer's public functions so calls record spans in `recorder`."""
    inst = Installation()
    targets = _targets()
    modules = [m for n, m in list(sys.modules.items()) if n == "optexec" or n.startswith("optexec.")]
    for owner, attr, name, work, note in targets:
        original = owner.__dict__[attr]
        wrapped = recorder.wrap(name, original, work, note)
        if isinstance(owner, type):
            inst._set(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    inst._set(mod, key, wrapped)
    return inst


# -- span arithmetic --------------------------------------------------------------


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append((s.end - s.start) - covered([k for k in kids if k[1] > k[0]]))
    return out


# name -> unit, in the order BENCHMARK.json lists the per-layer metrics
LAYER_UNITS = {
    "impact.h_inverse.calls": "count",
    "impact.h_inverse.elems": "count",
    "impact.h_inverse.s": "s",
    "impact.g.calls": "count",
    "impact.g.elems": "count",
    "impact.g.s": "s",
    "impact.h.calls": "count",
    "impact.h.s": "s",
    "hamiltonian.closed.calls": "count",
    "hamiltonian.closed.s": "s",
    "hamiltonian.oracle.self_s": "s",
    "hjb.solve.calls": "count",
    "hjb.solve.self_s": "s",
    "hjb.residual.s": "s",
    "hjb.saturation_fraction": "fraction",
    "simulate.calls": "count",
    "simulate.path_steps": "count",
    "simulate.self_s": "s",
    "simulate.strategy.calls": "count",
    "simulate.strategy.s": "s",
    "simulate.absorptions": "count",
    "closed_form.calls": "count",
    "closed_form.s": "s",
    "config.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, bytes_written: int) -> dict:
    """Per-layer numbers of one traced call, keyed as in LAYER_UNITS.

    `.s` is the time at least one span of the layer was open; `.self_s` sums
    the self time of the layer's spans.  `trace.overhead_s` is left out: it
    compares traced with untraced runs, so run.py measures it.
    """
    selfs = self_times(spans)

    def pick(*names):
        return [i for i, s in enumerate(spans) if s.name in names]

    def calls(*names):
        return len(pick(*names))

    def busy(*names):
        return covered((spans[i].start, spans[i].end) for i in pick(*names))

    def self_s(*names):
        return sum(selfs[i] for i in pick(*names))

    def work(*names):
        return sum(spans[i].work for i in pick(*names))

    solves = pick("hjb.solve")
    return {
        "impact.h_inverse.calls": calls("impact.h_inverse"),
        "impact.h_inverse.elems": work("impact.h_inverse"),
        "impact.h_inverse.s": busy("impact.h_inverse"),
        "impact.g.calls": calls("impact.g"),
        "impact.g.elems": work("impact.g"),
        "impact.g.s": busy("impact.g"),
        "impact.h.calls": calls("impact.h"),
        "impact.h.s": busy("impact.h"),
        "hamiltonian.closed.calls": calls("hamiltonian.closed"),
        "hamiltonian.closed.s": busy("hamiltonian.closed"),
        "hamiltonian.oracle.self_s": self_s("hamiltonian.oracle"),
        "hjb.solve.calls": len(solves),
        "hjb.solve.self_s": self_s("hjb.solve"),
        "hjb.residual.s": busy("hjb.residual"),
        # the first solve is the one on the requested grid
        "hjb.saturation_fraction": spans[solves[0]].note if solves else 0.0,
        "simulate.calls": calls("simulate"),
        "simulate.path_steps": work("simulate"),
        "simulate.self_s": self_s("simulate", "simulate.compare"),
        "simulate.strategy.calls": calls("simulate.strategy"),
        "simulate.strategy.s": busy("simulate.strategy"),
        "simulate.absorptions": sum(spans[i].note for i in pick("simulate")),
        "closed_form.calls": calls("closed_form"),
        "closed_form.s": busy("closed_form"),
        "config.s": busy("config"),
        "cli.self_s": self_s("cli"),
        "cli.bytes_written": bytes_written,
    }
