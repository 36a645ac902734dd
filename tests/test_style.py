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
    bad = tmp_path / "bad.py"
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
    )
    violations = check_style.check_file(str(bad))
    assert len(violations) == 9
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
