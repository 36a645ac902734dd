#!/usr/bin/env python
"""CI smoke check: run every benchmark workload once and check its result.

``perfbench/run.py`` exits 0 even when its output checks fail (it reports
``"correct": false`` on its last line instead), so running it alone
proves little.  This script runs each workload named in
``BENCHMARK.json`` once, short and untraced
(``--seed 1 --seconds 5 --trace 0``), and fails unless, for every
workload:

1. the run exits 0;
2. its last output line is a JSON object with ``correct: true`` and
   ``failed == 0``;
3. that object carries every end-to-end metric ``BENCHMARK.json`` lists.

Run from the repo root::

    python tools/perfbench_smoke.py

Exit status 0 when every workload passes; 1 otherwise, with one line per
problem on standard error.  A 5 s ``serve-hot`` run takes about 20 s on
two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_ARGS = ("--seed", "1", "--seconds", "5", "--trace", "0")


def check_workload(name: str, metrics: List[str]) -> List[str]:
    """Run one workload; return its problems (empty when it passes)."""
    command = [
        sys.executable,
        os.path.join("perfbench", "run.py"),
        "--workload",
        name,
        *RUN_ARGS,
    ]
    proc = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return [f"exit code {proc.returncode}: " + " | ".join(tail)]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return ["last output line is not a JSON result"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        problems.append(
            f"{result.get('failed')} of {result.get('attempted')} "
            "operations failed"
        )
    missing = [m for m in metrics if m not in result.get("metrics", {})]
    if missing:
        problems.append(f"missing end-to-end metrics {missing}")
    return problems


def main() -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    failed = False
    for workload in spec["workloads"]:
        name = workload["name"]
        problems = check_workload(name, metrics)
        for problem in problems:
            print(f"{name}: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
        print(f"{name}: {'FAIL' if problems else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
