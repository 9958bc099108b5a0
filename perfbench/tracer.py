"""Span tracing from outside the library.

``Tracer.install`` replaces every public function of the growthopt modules
(the names in each module's ``__all__``) with a wrapper that records a span,
at every place a caller looks the name up: the defining module, the package
namespace and every sibling module that imported the name. Classes are left
alone, because the library dispatches on ``isinstance`` against them.

A span is ``(id, name, start, end, parent, op, size, args)``: ``parent`` is
the id of the enclosing span on the same thread (-1 at top level), ``op`` is
the operation the benchmark was running, ``size`` is the largest ndarray
argument (0 if none), and ``args`` holds the positional arguments for the
names listed in ``keep_args`` (else None). Spans stay in memory until
``write`` saves them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

MODULES = ("params", "specfun", "growth", "allocate", "verify", "cli")


def public_functions():
    """Map each public growthopt function to its span name ``module.name``."""
    found = {}
    for mod_name in MODULES:
        mod = importlib.import_module(f"growthopt.{mod_name}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if inspect.isfunction(obj):
                found[obj] = f"{mod_name}.{name}"
    return found


class Tracer:
    """Span recorder; ``install`` / ``uninstall`` (or ``with``) switch it on and off."""

    def __init__(self, keep_args=()):
        self.spans = []
        self.op = -1
        self._keep_args = set(keep_args)
        self._ids = itertools.count()
        self._local = threading.local()
        wrappers = {fn: self._wrap(name, fn) for fn, name in public_functions().items()}
        self._targets = [
            (mod, attr, value, wrappers[value])
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "growthopt" or mod_name.startswith("growthopt.")
            for attr, value in list(vars(mod).items())
            if inspect.isfunction(value) and value in wrappers
        ]

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        keep = name in self._keep_args
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            size = 0
            for a in args:
                if isinstance(a, np.ndarray) and a.size > size:
                    size = a.size
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent, self.op, size, args if keep else None)
                )

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._targets:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._targets:
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Save the spans as gzip-compressed JSON lines (args dropped)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, size, _ in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, op, size]) + "\n")


def read_spans(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def module_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time of each span: its duration minus that of its direct children.

    Children run on the parent's thread, one after another, so their
    durations never overlap and their sum is the time they cover.
    """
    child_time = {}
    for sid, name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0) for s in spans}


def module_self_ms(spans, n_ops):
    """Self time per module in ms per op."""
    own = self_times(spans)
    totals = {}
    for span in spans:
        mod = module_of(span[1])
        totals[mod] = totals.get(mod, 0.0) + own[span[0]]
    return {mod: 1e3 * t / n_ops for mod, t in sorted(totals.items())}
