"""Host for ``python -m repro.serving serve`` with the benchmark's wrappers.

Usage::

    python3 perfbench/serve_host.py [--spans PATH] [--inject-delay LAYER=SECONDS ...] \
        serve --store DIR --port 0 ...

Applies the injected delays (the self-test's slowed layer) and, with
``--spans``, the span wrappers of ``layers.py``, then runs the serving
CLI's own ``main`` with the remaining arguments, so the server is built
by the same public constructors and defaults as ``serve``.  When the
server has drained (SIGTERM), every span is written to PATH.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from layers import apply_delays, install  # noqa: E402
from tracing import Recorder  # noqa: E402


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--spans", metavar="PATH")
    parser.add_argument("--inject-delay", action="append", default=[], metavar="LAYER=SECONDS")
    args, serve_args = parser.parse_known_args(argv)
    from repro.serving.__main__ import main as serve_main

    recorder = Recorder()
    # Delays first, so a span around the slowed call includes its sleep.
    apply_delays(recorder, args.inject_delay)
    if args.spans:
        install(recorder)
    try:
        return serve_main(serve_args)
    finally:
        recorder.unwrap_all()
        if args.spans:
            recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
