"""Continuous sampling wall-clock profiler attributed to active span labels.

A single daemon thread wakes every ``interval_s`` seconds, snapshots every
thread's stack via :func:`sys._current_frames`, and attributes each sample
to the innermost *span label* active on that thread (pushed by the tracer
when a span such as ``cccp_round``, ``svt`` or ``serve.top_k`` opens).
The result is a flame-style aggregate table — ``(label, leaf frame) →
sample count`` — cheap enough to leave running in production and exported
through ``/debug/profile`` and the experiments CLI.

Two properties keep the instrumented hot path honest:

* **Zero cost when off.**  Span sites consult the module-level
  :data:`TRACKING` flag (one attribute read) before touching the label
  stacks, and no thread exists until :meth:`ContinuousProfiler.start`.
* **No imports from the rest of ``repro.observability``.**  The tracer
  imports this module, never the reverse, so the label hooks cannot
  create a cycle.  The optional registry handed to the constructor is
  duck-typed (anything with ``.counter(...)``).
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

#: Global switch read by span sites before pushing labels.  ``start()``
#: flips it on; ``stop()`` flips it off once no profiler is running.
TRACKING: bool = False

# Per-thread stacks of active span labels, keyed by thread ident.  Owner
# threads push/pop their own entry; the sampler thread only reads.  Both
# directions are safe under the GIL (list append/pop are atomic enough:
# the sampler tolerates seeing a stack one element stale).
_LABEL_STACKS: Dict[int, List[str]] = {}

_lock = threading.Lock()
_active_profilers = 0


def push_label(label: str) -> None:
    """Mark ``label`` as the innermost active span on the calling thread."""
    ident = threading.get_ident()
    stack = _LABEL_STACKS.get(ident)
    if stack is None:
        stack = []
        _LABEL_STACKS[ident] = stack
    stack.append(label)


def pop_label() -> None:
    """Pop the calling thread's innermost span label (tolerates empty)."""
    stack = _LABEL_STACKS.get(threading.get_ident())
    if stack:
        stack.pop()


def current_label(ident: int) -> Optional[str]:
    """The innermost active span label on thread ``ident``, if any."""
    stack = _LABEL_STACKS.get(ident)
    if stack:
        try:
            return stack[-1]
        except IndexError:  # raced a pop; treat as unlabeled
            return None
    return None


def _leaf_frame(frame: Any) -> str:
    """Format a frame as ``func (file.py:lineno)`` for the aggregate table."""
    code = frame.f_code
    return (
        f"{code.co_name} "
        f"({os.path.basename(code.co_filename)}:{frame.f_lineno})"
    )


def _current_frames() -> Dict[int, Any]:
    """``sys._current_frames()`` with the garbage collector paused.

    On CPython 3.11 the call holds the interpreter's thread-list lock
    while it allocates frame objects; a collection triggered there can
    free a ``threading.local`` (the striped metric cells hold some),
    whose cleanup takes the same lock, and the process hangs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sys._current_frames()
    finally:
        if enabled:
            gc.enable()


class ContinuousProfiler:
    """Sampling profiler thread aggregating stacks under span labels.

    Parameters
    ----------
    interval_s:
        Sleep between stack snapshots.  The default (10 ms → ~100 Hz)
        keeps sampler CPU well under 1% while resolving solver rounds.
    registry:
        Optional metrics registry; when given, a ``profiler.samples``
        counter tracks total samples taken.
    max_entries:
        Bound on distinct ``(label, frame)`` rows kept; once full, new
        rows fold into an ``(label, "<other>")`` bucket so memory stays
        bounded under pathological label churn.
    include_unlabeled:
        When true, samples on threads with no active span label are kept
        under the ``<unlabeled>`` pseudo-label instead of dropped.
    """

    def __init__(
        self,
        interval_s: float = 0.01,
        registry: Optional[Any] = None,
        max_entries: int = 4096,
        include_unlabeled: bool = False,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = float(interval_s)
        self.max_entries = int(max_entries)
        self.include_unlabeled = bool(include_unlabeled)
        self._counts: Dict[Tuple[str, str], int] = {}
        self._total = 0
        self._data_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._m_samples = None
        if registry is not None and getattr(registry, "enabled", True):
            self._m_samples = registry.counter(
                "profiler.samples",
                help="Stack samples taken by the continuous profiler.",
            )

    # -- lifecycle ---------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampler thread is currently alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "ContinuousProfiler":
        """Start the sampler thread (idempotent) and enable label tracking."""
        global TRACKING, _active_profilers
        if self.running:
            return self
        with _lock:
            _active_profilers += 1
            TRACKING = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread and release the tracking flag."""
        global TRACKING, _active_profilers
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        with _lock:
            _active_profilers = max(0, _active_profilers - 1)
            if _active_profilers == 0:
                TRACKING = False

    def __enter__(self) -> "ContinuousProfiler":
        """Start on entry so ``with ContinuousProfiler(...) as prof:`` works."""
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        """Stop the sampler when the ``with`` block exits."""
        self.stop()

    # -- sampling ----------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def sample_once(self) -> int:
        """Take one snapshot of every thread; returns samples recorded."""
        my_ident = threading.get_ident()
        recorded = 0
        frames = _current_frames()
        with self._data_lock:
            for ident, frame in frames.items():
                if ident == my_ident:
                    continue  # never profile the sampler itself
                label = current_label(ident)
                if label is None:
                    if not self.include_unlabeled:
                        continue
                    label = "<unlabeled>"
                key = (label, _leaf_frame(frame))
                if key not in self._counts and (
                    len(self._counts) >= self.max_entries
                ):
                    key = (label, "<other>")
                self._counts[key] = self._counts.get(key, 0) + 1
                recorded += 1
            self._total += recorded
        if recorded and self._m_samples is not None:
            self._m_samples.inc(recorded)
        return recorded

    # -- export ------------------------------------------------------

    def snapshot(self, top: int = 50) -> Dict[str, Any]:
        """Aggregate table: top ``(label, frame)`` rows by sample count."""
        with self._data_lock:
            rows = sorted(
                self._counts.items(), key=lambda kv: (-kv[1], kv[0])
            )[: int(top)]
            total = self._total
        return {
            "running": self.running,
            "interval_s": self.interval_s,
            "total_samples": total,
            "entries": [
                {
                    "label": label,
                    "frame": frame,
                    "samples": count,
                    "share": (count / total) if total else 0.0,
                }
                for (label, frame), count in rows
            ],
        }

    def render_table(self, top: int = 20) -> str:
        """The snapshot as an aligned text table for CLI output."""
        snap = self.snapshot(top=top)
        lines = [
            f"profiler: {snap['total_samples']} samples "
            f"@ {self.interval_s * 1e3:.1f}ms"
        ]
        for entry in snap["entries"]:
            lines.append(
                f"  {entry['share'] * 100:5.1f}%  "
                f"{entry['label']:<24s} {entry['frame']}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        """Clear accumulated samples (the thread keeps running if started)."""
        with self._data_lock:
            self._counts.clear()
            self._total = 0


#: Process-wide profiler used by ``/debug/profile`` and the CLIs.  Created
#: unstarted: no thread (and no label-tracking cost) exists until some
#: entry point calls ``GLOBAL_PROFILER.start()``.
GLOBAL_PROFILER = ContinuousProfiler()


def global_profiler() -> ContinuousProfiler:
    """The process-wide profiler instance (never started implicitly)."""
    return GLOBAL_PROFILER
