"""Spans, counters and summary arithmetic for the pipeline benchmark.

The traced run records one span per call at each layer boundary of
``linkcov`` and counts work at the same boundaries.  It does so from
outside the package: ``Tracer.hook`` replaces a name that the calling
module looks up at call time (for example
``linkcov.experiment.generate_population``) with a wrapper, and puts the
original back when the tracer closes.  Spans stay in memory and are
written out once, when the run ends.

This module imports neither numpy nor ``linkcov``, so that the benchmark
can pin BLAS threads and time the package import after loading it.
"""

import functools
import importlib
import statistics
import time
from dataclasses import dataclass


@dataclass
class Span:
    """One call at a layer boundary, in ``time.perf_counter`` seconds."""

    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in Tracer.spans, or -1
    unit: str        # "setup" or the id of the unit of work it served

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children are the spans whose ``parent`` is the span's index.  Child
    intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        pieces = sorted((max(c.start, s.start), min(c.end, s.end))
                        for c in children.get(i, ()))
        covered = 0.0
        run_start = run_end = None
        for lo, hi in pieces:
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
        out.append(s.duration - covered)
    return out


def median(values):
    """Median of a non-empty sequence of numbers."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def failed_frac(failed, attempted):
    """Share of attempted units that raised or failed an output check."""
    if attempted < 1:
        raise ValueError("no units attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed units must lie in [0, attempted]")
    return failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


class Tracer:
    """Records spans and counters while its hooks are installed.

    Hooks are put in place by ``hook`` and removed, newest first, by
    ``remove_hooks`` or on leaving the ``with`` block; hooks installed on
    top of another tracer's must be removed before that tracer's.
    ``unit`` names the unit of work that new spans and counts belong to.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}          # (unit, name) -> number
        self.missing = {}         # dotted hook name -> reason
        self.unit = "setup"
        self._stack = []
        self._installed = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove_hooks()
        return False

    def remove_hooks(self):
        """Put back every original, newest hook first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- recording -------------------------------------------------------

    def open(self, name, now):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, now, now, parent, self.unit))
        self._stack.append(len(self.spans) - 1)

    def close(self, now):
        self.spans[self._stack.pop()].end = now

    def count(self, name, amount=1):
        key = (self.unit, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    def peak(self, name, value):
        key = (self.unit, name)
        self.counts[key] = max(self.counts.get(key, value), value)

    # -- hooks -----------------------------------------------------------

    def hook(self, dotted, span=None, after=None):
        """Wrap ``module.attr`` so each call opens a span and/or counts.

        span is a span name, or a callable mapping the call's (args,
        kwargs) to one.  after(tracer, args, kwargs, result) runs once the
        call has returned, outside the span.  A name that does not exist
        is recorded in ``missing`` and left alone.
        """
        module_name, _, attr = dotted.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            self.missing[dotted] = f"{dotted} not found ({exc})"
            return
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span is not None:
                name = span(args, kwargs) if callable(span) else span
                tracer.open(name, clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(clock())
            else:
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    # -- reading ---------------------------------------------------------

    def unit_spans(self, unit):
        return [(i, s) for i, s in enumerate(self.spans) if s.unit == unit]

    def counted(self, unit, name, default=0):
        return self.counts.get((unit, name), default)
