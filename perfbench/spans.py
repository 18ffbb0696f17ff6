"""Spans around the package's public functions, recorded from outside it.

A function is wrapped under every name a ``simonovits`` module binds it to,
so callers that imported it by name (``cli.is_simonovits``) are seen as well
as callers that use the defining module (``solvers.max_H_free``).  Classes
are traced through their ``__init__``.  ``scipy.optimize.milp`` is patched
on ``scipy.optimize``, which ``solvers`` imports from at call time.  A name
the package no longer defines is skipped, so its stage reports zero calls.
"""

import functools
import sys
import time
from collections import namedtuple

Span = namedtuple("Span", "label parent start end counts kept")


def _milp_counts(args, out):
    return {"nodes": getattr(out, "mip_node_count", None) or 0,
            "gap": getattr(out, "mip_gap", None) or 0.0}


# label -> (defining module, attribute, counters read from (args, result))
TARGETS = {
    "solvers.is_simonovits": ("simonovits.solvers", "is_simonovits", None),
    "solvers.free_edge_witness": (
        "simonovits.solvers", "free_edge_witness",
        lambda a, out: {"hits": out is not None}),
    "solvers.max_H_free": ("simonovits.solvers", "max_H_free", None),
    "solvers.max_r_cut": ("simonovits.solvers", "max_r_cut", None),
    "solvers.enumerate_optimal_H_free": (
        "simonovits.solvers", "enumerate_optimal_H_free",
        lambda a, out: {"optima": len(out)}),
    "solvers.canonical_cut": ("simonovits.solvers", "canonical_cut", None),
    "scipy.optimize.milp": ("scipy.optimize", "milp", _milp_counts),
    "copies.enumerate_copies": (
        "simonovits.copies", "enumerate_copies",
        lambda a, out: {"copies": len(out)}),
    "copies.residual_family": ("simonovits.copies", "residual_family", None),
    "rigidity.CutFamily": (
        "simonovits.rigidity", "CutFamily",
        lambda a, out: {"size": len(a[0])}),
    "rigidity.run_switching": (
        "simonovits.rigidity", "run_switching",
        lambda a, out: {"steps": len(out.steps)}),
    "rigidity.validate_trace": ("simonovits.rigidity", "validate_trace", None),
    "randgraphs.sample_gnp": ("simonovits.randgraphs", "sample_gnp", None),
    "patterns.PatternProfile": ("simonovits.patterns", "PatternProfile", None),
    "cli.scan_threshold": (
        "simonovits.cli", "scan_threshold",
        lambda a, out: {"trials": sum(r["yes"] + r["no"] + r["indeterminate"]
                                      for r in out[0])}),
}


class Recorder:
    """Collects spans in memory while its wrappers are installed.

    ``keep`` names the labels whose arguments and result are stored on the
    span, for the benchmark's correctness checks.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def install(self, labels, keep=(), hooks=None):
        """Wraps ``labels``; ``hooks`` maps a label to a function called
        before each call of it, outside its span."""
        hooks = hooks or {}
        for label in labels:
            modname, attr, counter = TARGETS[label]
            owner = sys.modules.get(modname)
            orig = getattr(owner, attr, None) if owner else None
            if orig is None:
                continue
            if isinstance(orig, type):
                init = orig.__init__
                self._undo.append((orig, "__init__", init))
                orig.__init__ = self._wrap(init, label, counter,
                                           label in keep, hooks.get(label))
                continue
            wrapper = self._wrap(orig, label, counter, label in keep,
                                 hooks.get(label))
            owners = [owner] if not modname.startswith("simonovits") else [
                m for name, m in list(sys.modules.items())
                if name == "simonovits" or name.startswith("simonovits.")]
            for mod in owners:
                if mod is not None and mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, label, counter, keep, hook):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            out = None
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = counter(args, out) if counter and done else None
                kept = (args, kwargs, out) if keep else None
                spans[idx] = Span(label, parent, start, end, counts, kept)

        return wrapper


def aggregate(spans):
    """Per label: calls, total seconds, self seconds and summed counters.

    Self time is a span's duration minus the durations of its direct
    children, which are recorded spans too.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    agg = {}
    for i, s in enumerate(spans):
        a = agg.setdefault(s.label, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "counts": {}})
        a["calls"] += 1
        a["s"] += s.end - s.start
        a["self_s"] += s.end - s.start - child[i]
        for k, v in (s.counts or {}).items():
            a["counts"][k] = a["counts"].get(k, 0) + v
    return agg
