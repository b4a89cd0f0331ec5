"""Span recording and name patching for the benchmark's traced run.

The traced run records spans from the benchmark's own files: a wrapped
function records one span per call (name, start, end, parent). taclearn's
modules bind most functions with ``from ... import``, so a wrapper only
takes effect if it replaces the name in every module that holds it, not just
in the defining module. `Patcher` does that and puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span; None for a root span


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        clipped = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        covered = 0.0
        run_start = run_end = None
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((span.end - span.start) - covered)
    return out


class Tracer:
    """In-memory spans plus named counters, filled by the wrappers it makes."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._clock = clock

    def traced(self, fn, name, count=None):
        """Wrap `fn` so that every call records a span.

        `name` is a string or a function of the call's arguments. `count`, if
        given, maps (result, args, kwargs) to counter increments; it runs
        after the span has ended.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(spans)
            spans.append(Span(label, 0.0, 0.0, stack[-1] if stack else None))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index].start = start
                spans[index].end = end
            if count is not None:
                for key, n in count(result, args, kwargs).items():
                    counts[key] += n
            return result

        return wrapper

    def counted(self, fn, key):
        """Wrap `fn` so that every call adds one to counter `key`; no span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


class Patcher:
    """Replaces objects where their callers look them up, and restores them."""

    def __init__(self, package: str):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def replace(self, original, replacement) -> int:
        """Rebind every module-level name bound to `original`; returns the count."""
        hits = 0
        for module in self.modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)
                    hits += 1
        if not hits:
            raise LookupError(f"no module of {self.package} binds {original!r}")
        return hits

    def replace_attr(self, owner, attr: str, replacement) -> None:
        """Rebind one attribute, e.g. a method on its class."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
