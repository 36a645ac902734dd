"""Registry mapping experiment names to their runners."""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.observability.logging import get_logger, run_context
from repro.observability.report import (
    RunReport,
    build_run_report,
    default_report_path,
)
from repro.observability.tracer import Tracer

_log = get_logger("repro.experiments")
from repro.experiments.figure3 import main as figure3_main, run_figure3
from repro.experiments.figure4 import main as figure4_main, run_figure4
from repro.experiments.figure5 import main as figure5_main, run_figure5
from repro.experiments.streaming_staleness import (
    main as streaming_staleness_main,
    run_streaming_staleness,
)
from repro.experiments.table1 import main as table1_main, run_table1
from repro.experiments.table2 import main as table2_main, run_table2

EXPERIMENTS: Dict[str, Callable[..., None]] = {
    "table1": table1_main,
    "table2": table2_main,
    "figure3": figure3_main,
    "figure4": figure4_main,
    "figure5": figure5_main,
    "streaming-staleness": streaming_staleness_main,
}
"""Experiment name → printing entry point."""

RESULT_RUNNERS: Dict[str, Callable[..., dict]] = {
    "table1": run_table1,
    "table2": run_table2,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "streaming-staleness": run_streaming_staleness,
}
"""Experiment name → structured-result runner (used for --json output)."""


def get_experiment(name: str) -> Callable[..., None]:
    """Look up an experiment's printing runner by name."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None


def get_result_runner(name: str) -> Callable[..., dict]:
    """Look up an experiment's structured-result runner by name."""
    try:
        return RESULT_RUNNERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; available: {sorted(RESULT_RUNNERS)}"
        ) from None


def run_with_report(
    name: str,
    report_path: Optional[str] = None,
    registry: Optional[Any] = None,
    **kwargs: Any,
) -> Tuple[dict, RunReport]:
    """Run an experiment under a live tracer and archive its run report.

    Every registered runner accepts a ``tracer`` keyword, so the whole run
    — data generation, per-fold fits, CCCP rounds, prox/SVD spans — lands
    in one ``experiment:<name>`` trace and from there in one
    schema-versioned JSON report written to ``report_path``
    (default: ``results/run_report.<name>.json``).  Returns the runner's
    structured result and the report.

    The run executes under a fresh **run id**
    (:func:`~repro.observability.logging.run_context`), so structured log
    records emitted anywhere inside the solve carry the same ``run_id``,
    and the id is recorded in the report's meta.  Passing a live
    ``registry`` (:class:`~repro.observability.MetricsRegistry`)
    additionally publishes the solver series — ``solver.svt_seconds``,
    ``solver.objective``, ``solver.rank``, iteration/round counters — for
    scraping or a textfile collector.
    """
    runner = get_result_runner(name)
    tracer = Tracer(registry=registry)
    with run_context() as run_id:
        _log.info("experiment started", experiment=name, **_loggable(kwargs))
        with tracer.trace(f"experiment:{name}") as trace:
            result = runner(tracer=tracer, **kwargs)
        _log.info("experiment finished", experiment=name)
    tracer.drain()
    meta = {"experiment": name, "run_id": run_id}
    meta.update(_loggable(kwargs))
    report = build_run_report(trace, name=name, meta=meta)
    report.save(report_path or default_report_path(name))
    return result, report


def _loggable(kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-scalar subset of a kwargs dict (for meta and log fields)."""
    return {
        key: value
        for key, value in kwargs.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }
