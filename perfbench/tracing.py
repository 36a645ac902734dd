"""Span recording for the benchmark's traced runs.

The benchmark attributes time to layers by wrapping the *public* calls of
each module from the outside (``Recorder.wrap``): nothing under ``src/``
is edited and no program tracer is switched on.  Every span carries a
name, a start, an end, its parent span and the id of the request or tick
it belongs to.  Spans stay in memory and are written out once, when the
run ends (``Recorder.dump``).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.  Summing self times over a root's whole
span tree gives back the root's duration exactly; the root's own self
time is what no wrapped call accounts for, reported as "unattributed".

``SlamPred(tracer=...)`` is deliberately not used: passing a tracer
switches the solver into a loop that evaluates the full objective,
trace-norm value included, on every iteration.  On a 2-core machine a
traced scale-800 fit took 25.5 s against roughly 10 s untraced, so the
program's own tracer would measure a different program.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter


class Span:
    """One timed call: ``[start, end)`` on the ``perf_counter`` clock."""

    __slots__ = ("span_id", "parent_id", "root_id", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent_id, root_id, name, start, end, attrs):
        self.span_id = span_id
        self.parent_id = parent_id
        self.root_id = root_id
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "root": self.root_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans from wrapped calls on any thread.

    Each thread keeps its own stack of open spans, so a call made while
    another wrapped call is open on the same thread becomes its child.  A
    span opened on an empty stack is a root: its root id is the one
    passed in (``root_id=`` on :meth:`span`, or the ``root_key`` of a
    wrapper) or else its own span id.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List = []

    def _stack(self) -> List:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, root_id):
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent_id, inherited = stack[-1]
            root_id = inherited
        else:
            parent_id = None
            if root_id is None:
                root_id = span_id
        stack.append((span_id, root_id))
        return span_id, parent_id, root_id

    def _close(self, opened, name, start, attrs) -> Span:
        end = _clock()
        self._stack().pop()
        span = Span(opened[0], opened[1], opened[2], name, start, end, attrs)
        self.spans.append(span)
        return span

    def span(self, name: str, root_id=None, **attrs) -> "_SpanContext":
        """A context manager timing the ``with`` block as one span."""
        return _SpanContext(self, name, root_id, attrs)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        annotate: Optional[Callable] = None,
        root_key: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``annotate(args, kwargs, result)`` returns a dict stored on the
        span; ``root_key(args, kwargs)`` names the request a root span
        belongs to.  :meth:`unwrap_all` restores the original attribute.
        """
        recorder = self

        def make(original):
            def timed(*args, **kwargs):
                root_id = root_key(args, kwargs) if root_key is not None else None
                opened = recorder._open(root_id)
                start = _clock()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    attrs = annotate(args, kwargs, result) if annotate else None
                    recorder._close(opened, name, start, attrs)

            timed.__name__ = getattr(original, "__name__", attr)
            timed.__doc__ = getattr(original, "__doc__", None)
            return timed

        self.patch(owner, attr, make)

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until unwrapped."""
        had_own = attr in owner.__dict__
        original = owner.__dict__[attr] if had_own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod, property)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}")
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, had_own, original))

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap` and :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        """Write every span recorded so far as one JSON document."""
        with open(path, "w") as handle:
            json.dump([span.as_dict() for span in self.spans], handle)


class _SpanContext:
    __slots__ = ("recorder", "name", "root_id", "attrs", "opened", "start")

    def __init__(self, recorder, name, root_id, attrs):
        self.recorder = recorder
        self.name = name
        self.root_id = root_id
        self.attrs = attrs or None

    def __enter__(self) -> "_SpanContext":
        self.opened = self.recorder._open(self.root_id)
        self.start = _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder._close(self.opened, self.name, self.start, self.attrs)


def load_spans(path: str) -> List[Span]:
    """Read spans written by :meth:`Recorder.dump` (any process)."""
    with open(path) as handle:
        return [
            Span(d["id"], d["parent"], d["root"], d["name"], d["start"], d["end"], d["attrs"])
            for d in json.load(handle)
        ]


def _covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def totals_by_name(spans: List[Span], selfs: Dict[int, float]) -> Dict[str, List[float]]:
    """Span name -> ``[total self seconds, call count]``."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += selfs[span.span_id]
        entry[1] += 1
    return totals


def breakdown(spans: List[Span], selfs: Dict[int, float], root: str, unit: str) -> Dict:
    """Mean self time per ``root`` tree, by span name.

    Returns ``{"unit", "root", "n", "end_to_end", "self", "counts",
    "members"}``: ``self`` maps each span name to its self time per root
    (the root's own entry is the unattributed remainder) and sums to
    ``end_to_end``, the mean root duration; ``counts`` is calls per root;
    ``members`` holds the ids of every span in a tree.
    """
    roots = [s for s in spans if s.name == root and s.parent_id is None]
    tree_ids = {r.root_id for r in roots}
    members = [s for s in spans if s.root_id in tree_ids]
    n = max(1, len(roots))
    totals = totals_by_name(members, selfs)
    return {
        "unit": unit,
        "root": root,
        "n": len(roots),
        "end_to_end": sum(r.duration for r in roots) / n,
        "self": {name: entry[0] / n for name, entry in totals.items()},
        "counts": {name: entry[1] / n for name, entry in totals.items()},
        "members": {s.span_id for s in members},
    }
