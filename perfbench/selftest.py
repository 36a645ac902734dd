"""Self-test: an injected slowdown must show up where the benchmark predicts.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py [--seed N] [--seconds S] [--delay SECONDS]

Through the benchmark's own ``--inject-delay`` wrapper, every call of one
layer's public method (``TraceNormProx.apply``, layer ``perf.svt``) sleeps
first.  Each workload is run once as it is and once slowed, and the test
asserts that:

1. on the traced ``fit-transfer`` run, ``perf.svt_s`` is the layer whose
   self time grew the most, by about ``perf.svt_calls`` times the delay;
2. untraced ``fit-transfer`` ``fit_s`` grew by more than its bound;
3. untraced ``serve-hot`` (which never runs the dense SVT) moved by no
   more than its bounds on ``fit_s`` and ``latency_p50_ms``, comparing
   medians of three runs per side, taken alternately, because single
   runs on a small shared machine differ by more than a bound.  The
   delay reaches the ``serve`` process too: ``run.py`` starts it through
   ``serve_host.py`` with the same ``--inject-delay``, so the latency
   check tests that requests never call the slowed layer.  The undelayed
   side injects a zero delay, so both sides run the same host.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LAYER = "perf.svt"


def _run(workload, seed, seconds, trace, delay=None):
    command = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if delay is not None:
        command += ["--inject-delay", f"{LAYER}={delay}"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _paired(workload, seed, seconds, delay, repeats):
    """Median metrics of ``repeats`` undelayed and delayed runs, alternated."""
    base, slow = [], []
    for _ in range(repeats):
        base.append(_run(workload, seed, seconds, 0, 0.0))
        slow.append(_run(workload, seed, seconds, 0, delay))
    return tuple(
        {name: statistics.median(run[name] for run in runs) for name in runs[0]}
        for runs in (base, slow)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--delay", type=float, default=0.05)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}

    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    base = _run("fit-transfer", args.seed, args.seconds, 1)
    slow = _run("fit-transfer", args.seed, args.seconds, 1, args.delay)
    grown = {
        name: slow[name] - base[name]
        for name in base
        if name.endswith("_s") and not name.startswith(("synth.", "tracing."))
    }
    top = max(grown, key=grown.get)
    expected = slow["perf.svt_calls"] * args.delay
    expect(top == f"{LAYER}_s", f"layer that grew most is {top} (+{grown[top]:.3f}s)")
    # Sleeping also leaves caches and clocks cold for the work that follows,
    # so the layer may grow by more than the sleeps, but not by more than
    # the sleeps plus its own undelayed time.
    grew = grown[f"{LAYER}_s"]
    expect(
        0.5 * expected <= grew <= expected + base[f"{LAYER}_s"],
        f"{LAYER}_s grew {grew:.3f}s for an injected "
        f"{slow['perf.svt_calls']:.0f} x {args.delay}s = {expected:.3f}s "
        f"(undelayed {base[f'{LAYER}_s']:.3f}s)",
    )

    base, slow = _paired("fit-transfer", args.seed, args.seconds, args.delay, repeats=1)
    change = slow["fit_s"] / base["fit_s"] - 1
    expect(change > bounds["fit_s"], f"fit-transfer fit_s moved {change:+.1%} (bound {bounds['fit_s']:.0%})")

    base, slow = _paired("serve-hot", args.seed, args.seconds, args.delay, repeats=3)
    for name in ("fit_s", "latency_p50_ms"):
        change = slow[name] / base[name] - 1
        expect(abs(change) <= bounds[name], f"serve-hot {name} moved {change:+.1%} (bound {bounds[name]:.0%})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
