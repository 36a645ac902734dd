"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit-transfer --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all.
``--trace 1`` first repeats the measurement untraced, then installs the
benchmark's span wrappers (``layers.py``) and measures again, and prints
the per-layer metrics: self times, counts, the unattributed remainder
and the tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the metric
names and units come from ``BENCHMARK.json`` at the checkout root.
Workloads, metrics and the reasons for them are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fit-transfer", "serve-hot", "stream-churn")


class Context:
    """Per-run settings and the working directory inside the checkout."""

    def __init__(self, args, recorder):
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.bench_dir = BENCH_DIR
        self.root = ROOT
        self.recorder = recorder
        self.delays = args.inject_delay
        self.workdir = os.path.join(
            ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        )
        os.makedirs(self.workdir)
        self._cleanups = []
        self._apply_delays()
        from speed import SpeedProbe

        # Samples the host's speed for the whole run (speed.py).
        self.speed = SpeedProbe()
        self.speed.start()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _apply_delays(self):
        from layers import apply_delays

        apply_delays(self.recorder, self.delays)

    def install_layers(self):
        """Wrap every layer's public calls (the traced half of a run)."""
        from layers import install

        install(self.recorder)

    def uninstall_layers(self):
        """Remove the span wrappers; injected delays stay in force."""
        self.recorder.unwrap_all()
        self._apply_delays()

    def on_close(self, release):
        """Run ``release()`` when the run ends, even after a failure."""
        self._cleanups.append(release)

    def close(self):
        while self._cleanups:
            self._cleanups.pop()()
        self.speed.close()
        self.recorder.unwrap_all()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-delay",
        action="append",
        default=[],
        metavar="LAYER=SECONDS",
        help="self-test only: sleep before every call of a layer",
    )
    return parser.parse_args(argv)


def _metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def _report(outcome, specs, values, env, args):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in outcome.lines:
        print(line)
    for spec in specs:
        print(f"  {spec['name']:<32} {values[spec['name']]:>14.6g} {spec['unit']:<8} ({spec['better']} is better)")
    if outcome.attribution:
        attribution = outcome.attribution
        total = sum(attribution["self"].values())
        print(f"self time by layer ({attribution['unit']}; '{attribution['root']}' = unattributed):")
        for name, value in sorted(attribution["self"].items(), key=lambda item: -item[1]):
            print(f"  {name:<28} {value:>12.6f}")
        print(f"  {'sum':<28} {total:>12.6f}  vs end-to-end {attribution['end_to_end']:.6f}")
    print(
        f"checks: {outcome.attempted - outcome.failed}/{outcome.attempted} passed"
        + ("" if not outcome.problems else "; first failures: " + " | ".join(outcome.problems[:5]))
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    # One BLAS thread per process, set before numpy loads and inherited by
    # the ``serve`` child.  On a shared 2-vCPU host two BLAS threads made
    # every fit slower and less steady: the factored n=5000 fit took
    # 1.42-2.40 s against 1.12-1.32 s, the scale-800 fit 9.9-12.4 s against
    # 8.3-9.9 s.  A caller that sets these variables keeps its values.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")) if p
    )
    from common import Outcome, environment
    from speed import REFERENCE_S
    from tracing import Recorder

    end_to_end, per_layer = _metric_specs()
    module = __import__(args.workload.replace("-", "_"))
    outcome = Outcome()
    recorder = Recorder()
    ctx = Context(args, recorder)
    try:
        module.run(ctx, outcome)
        if args.trace:
            os.makedirs(os.path.join(ROOT, ".perfbench", "traces"), exist_ok=True)
            recorder.dump(
                os.path.join(ROOT, ".perfbench", "traces", f"{args.workload}-seed{args.seed}.json")
            )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ctx.close()

    outcome.e2e["success_rate"] = outcome.success_rate
    outcome.layers["host.probe_ms"] = 1e3 * ctx.speed.mean_s()
    outcome.note(
        f"host speed: probe mean {1e3 * ctx.speed.mean_s():.2f} ms over {len(ctx.speed.samples)} "
        f"samples (reference {1e3 * REFERENCE_S:.2f} ms); CPU-bound end-to-end times are reported "
        f"at reference speed"
    )
    specs = per_layer if args.trace else end_to_end
    source = outcome.layers if args.trace else outcome.e2e
    if args.trace:
        # A layer this workload never calls did no work here: zero self
        # time and zero count, which is what the bypass predictions expect.
        idle = [spec["name"] for spec in specs if spec["name"] not in source]
        source.update(dict.fromkeys(idle, 0.0))
        outcome.note(f"layers not exercised by {args.workload}: {', '.join(idle) or 'none'}")
    missing = [spec["name"] for spec in specs if spec["name"] not in source]
    if missing:
        print(f"workload {args.workload} did not produce {missing}", file=sys.stderr)
        return 1
    values = {spec["name"]: float(source[spec["name"]]) for spec in specs}
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 1
    _report(outcome, specs, values, environment(ROOT), args)
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
