"""Spans around the package's public calls, recorded from outside the package.

A ``Tracer`` wraps a callable so that each call adds to its layer's call
count, total time and self time (total minus the time of traced calls made
inside it). ``patched`` swaps such wrappers into module or class attributes
for the length of a ``with`` block and puts the originals back afterwards.
Spans stay in memory; the benchmark writes their sums when it ends.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        # Time of spans opened with no traced caller, so a timed region can
        # tell its own self time from that of the calls it made.
        self.top_level = 0.0
        self._stack: list[float] = []

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span named ``name``."""
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level += elapsed

        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped so that every call adds one to ``counts[name]``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def per_call_us(self, name: str, *, self_only: bool = False) -> float:
        """Mean microseconds per call of ``name``; 0.0 if it was never called."""
        calls = self.calls[name]
        spent = (self.self_time if self_only else self.total)[name]
        return 1e6 * spent / calls if calls else 0.0


@contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, value)`` for the block, then restore it."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)
