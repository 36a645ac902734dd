"""The observability style gate must hold for the whole library tree."""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_style.py")


def test_no_wall_clock_durations_or_bare_prints():
    result = subprocess.run(
        [sys.executable, CHECKER],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"style gate failed:\n{result.stdout}{result.stderr}"
    )


def test_checker_catches_violations(tmp_path):
    # The gate itself must not be a silent no-op: point it at a file with
    # both violations and watch it flag each one.
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        import check_style
    finally:
        sys.path.pop(0)
    # Inside a repro/perf/ directory, so the solver-path QR rule applies.
    package = tmp_path / "repro" / "perf"
    package.mkdir(parents=True)
    bad = package / "bad.py"
    bad.write_text(
        "import time\n"
        "start = time.time()\n"
        "stamp = time.time()  # wall-clock: a timestamp\n"
        'print("hello")\n'
        "try:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
        "try:\n"
        "    pass\n"
        "except Exception:\n"
        "    pass\n"
        "import numpy as np\n"
        "iterate = np.zeros((n, n))\n"
        "oracle = np.zeros((n, n))  # dense-ok: parity oracle\n"
        "ones = np.ones((n_users, n_users))\n"
        "rectangular = np.zeros((n, k))\n"
        "typed = np.full((m, m), 0.5)\n"
        "pool = graph.non_links()\n"
        "ordered = sorted(task.training_graph.links())\n"
        "export = sorted(graph.links())  # pairs-ok: small export\n"
        "rest = sorted(graph.links() - seen)\n"
        "members = graph.links()\n"
        "q, r = np.linalg.qr(block)\n"
        "q, r = np.linalg.qr(block)  # qr-ok: Householder fallback\n"
        "kernel = np.linalg.qr\n"
    )
    violations = check_style.check_file(str(bad))
    assert len(violations) == 10
    assert any("time.time()" in v and ":2:" in v for v in violations)
    assert any("print()" in v and ":4:" in v for v in violations)
    assert any("bare except" in v and ":7:" in v for v in violations)
    dense = [v for v in violations if "dense square" in v]
    assert len(dense) == 3
    assert any(":14:" in v for v in dense)
    assert any(":16:" in v for v in dense)
    assert any(":18:" in v for v in dense)
    assert not any(":15:" in v or ":17:" in v for v in dense)
    pairs = [v for v in violations if "tuple list" in v]
    assert len(pairs) == 3
    assert any(":19:" in v for v in pairs)
    assert any(":20:" in v for v in pairs)
    assert any(":22:" in v for v in pairs)
    assert not any(":21:" in v or ":23:" in v for v in pairs)
    qr = [v for v in violations if "np.linalg.qr" in v]
    assert len(qr) == 1
    assert ":24:" in qr[0]
    outside = tmp_path / "elsewhere.py"
    outside.write_text("q, r = np.linalg.qr(block)\n")
    assert check_style.check_file(str(outside)) == []
