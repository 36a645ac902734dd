"""Machine-readable run reports built from a finished trace.

A :class:`RunReport` is the archival form of one traced solver/experiment
run (one :class:`~repro.observability.tracer.ActiveTrace`): schema-versioned JSON (written next to ``results/`` by convention) plus
a human ``summary()`` table.  The schema is deliberately flat:

.. code-block:: text

    {
      "schema_version": 1,
      "name": "<run name>",
      "meta": {...},                      # caller-supplied context
      "spans": [...],                     # the trace's root: nested
                                          # {name, seconds, children}
      "phase_totals": {name: {count, seconds}},
      "counters": {name: int},
      "metrics": {name: [float, ...]},
      "iterations": [IterationRecord.to_dict(), ...]
    }

Bump ``SCHEMA_VERSION`` whenever a field changes meaning; readers should
check it before interpreting a report.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.observability.tracer import ActiveTrace

SCHEMA_VERSION = 1
"""Version of the run-report JSON layout."""

DEFAULT_REPORT_DIR = "results"
"""Directory run reports are written to by convention."""


@dataclass
class RunReport:
    """One traced run, ready to archive or render.

    Build with :func:`build_run_report`; persist with :meth:`save`; read
    back with :meth:`load`.
    """

    name: str
    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    phase_totals: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, List[float]] = field(default_factory=dict)
    iterations: List[Dict[str, Any]] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The JSON payload of the report."""
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "meta": self.meta,
            "spans": self.spans,
            "phase_totals": self.phase_totals,
            "counters": self.counters,
            "metrics": self.metrics,
            "iterations": self.iterations,
        }

    def save(self, path: str) -> str:
        """Write the report as pretty-printed JSON; returns ``path``."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
        return path

    @classmethod
    def load(cls, path: str) -> "RunReport":
        """Read a report written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"run report {path!r} has schema_version {version!r}; "
                f"this reader understands {SCHEMA_VERSION}"
            )
        return cls(
            name=payload.get("name", ""),
            meta=payload.get("meta", {}),
            spans=payload.get("spans", []),
            phase_totals=payload.get("phase_totals", {}),
            counters=payload.get("counters", {}),
            metrics=payload.get("metrics", {}),
            iterations=payload.get("iterations", []),
            schema_version=version,
        )

    # -- human rendering -------------------------------------------------
    def summary(self) -> str:
        """A terminal-friendly digest: phases, counters, iteration stats."""
        lines = [f"run report — {self.name} (schema v{self.schema_version})"]
        if self.phase_totals:
            lines.append("")
            lines.append(f"{'phase':<28} {'calls':>7} {'seconds':>10}")
            for name in sorted(
                self.phase_totals,
                key=lambda n: -self.phase_totals[n]["seconds"],
            ):
                slot = self.phase_totals[name]
                lines.append(
                    f"{name:<28} {int(slot['count']):>7} "
                    f"{slot['seconds']:>10.4f}"
                )
        if self.iterations:
            final = self.iterations[-1]
            lines.append("")
            lines.append(f"iterations: {len(self.iterations)}")
            if "objective" in final:
                lines.append(f"final objective: {final['objective']:.6g}")
            ranks = self.metrics.get("svt.retained_rank")
            if ranks:
                lines.append(
                    f"retained SVD rank: first {int(ranks[0])}, "
                    f"last {int(ranks[-1])}, max {int(max(ranks))}"
                )
        if self.counters:
            lines.append("")
            for name in sorted(self.counters):
                lines.append(f"{name}: {self.counters[name]}")
        return "\n".join(lines)


def build_run_report(
    trace: ActiveTrace,
    name: str,
    meta: Optional[Dict[str, Any]] = None,
) -> RunReport:
    """Snapshot one finished trace into a :class:`RunReport`.

    Counters are tracer-wide (striped cells, not per trace), so the report
    takes its tracer's, less the ``trace.*`` tallies, which count traces
    rather than events of the run.
    """
    return RunReport(
        name=name,
        meta=dict(meta or {}),
        spans=[] if trace.root is None else [trace.root.to_dict()],
        phase_totals=trace.phase_totals(),
        counters={
            key: value
            for key, value in trace.tracer.counters.items()
            if not key.startswith("trace.")
        },
        metrics={k: list(v) for k, v in trace.metrics.items()},
        iterations=[record.to_dict() for record in trace.iterations],
    )


def default_report_path(name: str, directory: str = DEFAULT_REPORT_DIR) -> str:
    """Conventional location of a run report: ``results/run_report.<name>.json``."""
    return os.path.join(directory, f"run_report.{name}.json")
