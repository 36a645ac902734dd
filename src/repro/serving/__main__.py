"""Command-line entry point: ``python -m repro.serving <command>``.

Three subcommands cover the publish → inspect → serve lifecycle:

* ``publish`` — fit a SLAMPRED variant on a synthetic aligned world (or
  re-publish a ``save_predictor`` directory via ``--predictor``) and
  write it into an :class:`~repro.serving.artifacts.ArtifactStore`.
* ``inspect`` — print a version's manifest (name, kind, shard count,
  hyper-parameters, per-file checksums) after re-verifying its integrity.
* ``serve`` — start the asyncio JSON/HTTP endpoint on the store's latest
  version.

Every command works on dense, factored and sharded stores alike: a
version is always a manifest plus memory-mapped ``.npy`` arrays.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from repro.models.base import TransferTask
from repro.models.persistence import load_predictor
from repro.models.slampred import SlamPred, SlamPredH, SlamPredT
from repro.networks.social import SocialGraph
from repro.observability.cells import CellAggregator, CellBank
from repro.observability.logging import configure_logging
from repro.observability.metrics import MetricsRegistry, NullRegistry
from repro.observability.profiler import global_profiler
from repro.observability.propagation import DEFAULT_SAMPLE_RATE
from repro.observability.tracer import NullTracer, Tracer
from repro.reliability.faults import configure_from_env
from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.artifacts import ArtifactStore
from repro.serving.batcher import MicroBatcher
from repro.serving.service import LinkPredictionService
from repro.synth.generator import generate_aligned_pair

_MODELS = {
    "slampred": SlamPred,
    "slampred-t": SlamPredT,
    "slampred-h": SlamPredH,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the serving CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Publish, inspect and serve link-prediction artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    publish = commands.add_parser(
        "publish", help="fit (or import) a predictor and publish a version"
    )
    publish.add_argument("--store", required=True, help="artifact store directory")
    publish.add_argument(
        "--predictor",
        default=None,
        help="publish this save_predictor directory instead of fitting",
    )
    publish.add_argument(
        "--model",
        choices=sorted(_MODELS),
        default="slampred-t",
        help="model variant to fit (ignored with --predictor)",
    )
    publish.add_argument("--scale", type=int, default=60, help="synthetic world size")
    publish.add_argument("--seed", type=int, default=7, help="random seed")
    publish.add_argument(
        "--inner-iterations", type=int, default=15, help="proximal iterations"
    )
    publish.add_argument(
        "--outer-iterations", type=int, default=10, help="CCCP rounds"
    )
    publish.add_argument(
        "--factored",
        action="store_true",
        help="fit the O(nk) factored estimate instead of the dense one "
        "(publishes the factor arrays, never the n×n matrix)",
    )

    inspect = commands.add_parser(
        "inspect", help="verify and print a version's manifest"
    )
    inspect.add_argument("--store", required=True, help="artifact store directory")
    inspect.add_argument(
        "--version", type=int, default=None, help="version to inspect (default latest)"
    )
    inspect.add_argument(
        "--json", action="store_true", help="emit the raw manifest JSON"
    )

    serve = commands.add_parser("serve", help="serve the latest artifact over HTTP")
    serve.add_argument("--store", required=True, help="artifact store directory")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8080, help="bind port (0 = free)")
    serve.add_argument(
        "--cache-size", type=int, default=1024, help="ranking cache capacity"
    )
    serve.add_argument(
        "--log-level",
        default="INFO",
        help="structured-log level (DEBUG logs every request)",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable metrics and tracing (NullRegistry/NullTracer fast path; "
        "/metrics serves an empty document)",
    )
    serve.add_argument(
        "--trace-sample-rate",
        type=float,
        default=DEFAULT_SAMPLE_RATE,
        help="head-sampling probability for request traces in [0, 1] "
        "(error traces are always captured)",
    )
    serve.add_argument(
        "--trace-route-rate",
        action="append",
        default=[],
        metavar="ROUTE=RATE",
        help="per-route sampling override, e.g. --trace-route-rate "
        "topk=1.0 (repeatable)",
    )
    serve.add_argument(
        "--aggregator-interval",
        type=float,
        default=1.0,
        help="seconds between background drains of the striped metric "
        "cells into the registry",
    )
    serve.add_argument(
        "--profile",
        action="store_true",
        help="run the continuous self-profiler (samples attributed to "
        "active span labels; inspect at /debug/profile)",
    )
    serve.add_argument(
        "--no-batcher",
        action="store_true",
        help="answer each request directly instead of micro-batching",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, help="micro-batcher batch bound"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="shed requests with 503 beyond this many in flight "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline; overruns answer 503 (default: none)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="scoring worker threads (default: min(32, cpus + 4))",
    )
    return parser


def _parse_route_rates(pairs):
    """Parse repeated ``ROUTE=RATE`` flags into ``{route: float}``.

    The tracer samples by route *label* (``topk``, ``score``, …), so
    path-style keys (``/v1/topk``) are normalized through the server's
    route vocabulary; unknown paths abort rather than silently never
    matching.
    """
    from repro.serving.http import ROUTE_LABELS

    rates = {}
    for pair in pairs:
        route, _, rate = pair.partition("=")
        if not route or not rate:
            raise SystemExit(
                f"--trace-route-rate expects ROUTE=RATE, got {pair!r}"
            )
        if route.startswith("/"):
            label = ROUTE_LABELS.get(route)
            if label is None:
                known = ", ".join(sorted(ROUTE_LABELS))
                raise SystemExit(
                    f"--trace-route-rate: unknown route {route!r} "
                    f"(known: {known})"
                )
            route = label
        try:
            rates[route] = float(rate)
        except ValueError:
            raise SystemExit(
                f"--trace-route-rate rate must be a number, got {rate!r}"
            ) from None
    return rates


def run_publish(args: argparse.Namespace) -> int:
    """Fit or import a predictor and publish it; prints the new version."""
    store = ArtifactStore(args.store)
    if args.predictor is not None:
        model = load_predictor(args.predictor)
        graph = None
        meta = {"source": "predictor", "path": args.predictor}
    else:
        aligned = generate_aligned_pair(scale=args.scale, random_state=args.seed)
        task = TransferTask.from_aligned(aligned, random_state=args.seed)
        model = _MODELS[args.model](
            inner_iterations=args.inner_iterations,
            outer_iterations=args.outer_iterations,
            factored=args.factored,
        ).fit(task)
        graph = SocialGraph.from_network(aligned.target)
        meta = {
            "source": "synthetic",
            "scale": args.scale,
            "seed": args.seed,
            "variant": args.model,
            "factored": args.factored,
        }
    version = store.publish(model, graph=graph, meta=meta)
    print(f"published {model.name} as v{version:04d} -> {store.path(version)}")
    return 0


def run_inspect(args: argparse.Namespace) -> int:
    """Verify a version's checksums and print its manifest."""
    store = ArtifactStore(args.store)
    manifest = store.verify(args.version)
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    print(f"store     {store.root}")
    print(f"versions  {', '.join(f'v{v:04d}' for v in store.versions())}")
    print(f"inspected v{manifest['version']:04d} — integrity ok")
    print(f"model     {manifest['name']} ({manifest['model_class']})")
    kind = manifest["kind"]
    if kind == "sharded":
        kind += f" ({manifest['n_shards']} shards)"
    print(f"kind      {kind}")
    print(f"users     {manifest['n_users']}")
    for filename, entry in sorted(manifest["files"].items()):
        print(
            f"file      {filename}  {entry['bytes']} bytes  "
            f"sha256 {entry['sha256'][:16]}…"
        )
    params = manifest.get("hyper_parameters", {})
    if params:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        print(f"params    {rendered}")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Start the HTTP endpoint (blocking) on the store's latest version.

    With ``REPRO_CHAOS=1`` in the environment, the global fault injector is
    armed before the service starts (see DESIGN.md §11) — the supported way
    to rehearse degradation against a live endpoint.
    """
    configure_logging(args.log_level)
    armed = configure_from_env()
    if armed:
        print(f"chaos mode: faults armed at {', '.join(sorted(armed))}")
    aggregator = None
    profiler = None
    if args.no_telemetry:
        # Null fast path: no registry locks, no striped cells, and — by
        # contract — no background telemetry threads at all.
        service_kwargs = {
            "tracer": NullTracer(),
            "registry": NullRegistry(),
        }
    else:
        registry = MetricsRegistry()
        cells = CellBank(registry)
        route_rates = _parse_route_rates(args.trace_route_rate)
        tracer = Tracer(
            registry,
            default_rate=args.trace_sample_rate,
            route_rates=route_rates,
            cells=cells,
        )
        service_kwargs = {
            "tracer": tracer,
            "registry": registry,
            "cells": cells,
        }
        aggregator = CellAggregator(
            cells, interval_s=args.aggregator_interval
        ).start()
        if args.profile:
            profiler = global_profiler()
            profiler.start()
    service = LinkPredictionService(
        args.store, cache_size=args.cache_size, **service_kwargs
    )
    batcher = None
    if not args.no_batcher:
        batcher = MicroBatcher(service, max_batch=args.max_batch).start()
    deadline_s = (
        None if args.deadline_ms is None else args.deadline_ms / 1000.0
    )
    try:
        server = AsyncLinkPredictionServer(
            service,
            args.host,
            args.port,
            batcher,
            max_inflight=args.max_inflight,
            request_deadline_s=deadline_s,
            max_workers=args.workers,
        )

        def _drain(signum, frame):
            """Begin graceful drain; the wait loop below observes exit."""
            server.shutdown(wait=False)

        # SIGTERM (and Ctrl-C) trigger the drain protocol: stop
        # accepting, finish in-flight within the deadline budget,
        # flush the batcher, then exit — never an abrupt close.
        signal.signal(signal.SIGTERM, _drain)
        signal.signal(signal.SIGINT, _drain)
        server.start()
        host, port = server.server_address
        print(
            f"serving {service.stats()['model']} v{service.version:04d} "
            f"({service.n_users} users) on http://{host}:{port} "
            f"[asyncio] (metrics: http://{host}:{port}/metrics)"
        )
        try:
            while server.running:
                time.sleep(0.2)
        except KeyboardInterrupt:
            server.shutdown(wait=True)
        finally:
            server.server_close()
    finally:
        if batcher is not None:
            batcher.stop()
        if profiler is not None:
            profiler.stop()
        if aggregator is not None:
            aggregator.stop()
    return 0


def main(argv=None) -> int:
    """Dispatch the chosen subcommand."""
    args = build_parser().parse_args(argv)
    runner = {
        "publish": run_publish,
        "inspect": run_inspect,
        "serve": run_serve,
    }[args.command]
    return runner(args)


if __name__ == "__main__":
    sys.exit(main())
