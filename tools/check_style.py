#!/usr/bin/env python
"""Observability and reliability style gate for ``src/repro``.

Six rules, all born from real production bugs or measured slowdowns:

1. **No ``time.time()`` duration arithmetic.**  Wall-clock time jumps
   (NTP slew, suspend/resume) corrupt latency and uptime numbers; all
   duration math must use ``time.monotonic()`` or ``time.perf_counter()``.
   A line that genuinely needs a wall-clock *timestamp* (manifest
   ``created_at`` fields and the like) opts out with a ``# wall-clock``
   comment on the same line, which doubles as reviewer documentation.

2. **No bare ``print()`` in library code.**  Library output must go
   through :mod:`repro.observability.logging` so it carries levels,
   request ids and machine-parseable structure.  The experiments package
   and the CLI ``__main__`` modules are presentation layers whose job is
   printing tables to a terminal, so they are allowlisted.

3. **No bare ``except:`` in library code.**  A bare except swallows
   ``KeyboardInterrupt`` and ``SystemExit``, which breaks the kill →
   checkpoint → resume contract of the reliability layer (a fit that
   cannot be interrupted cannot be resumed either).  Catch the narrowest
   exception the handler can actually recover from; an intentional
   catch-(almost)-all must spell out ``except Exception``.

4. **No new dense n×n allocations.**  The factored solver path exists
   precisely so that no code materializes an ``n_users × n_users``
   array; one stray ``np.zeros((n, n))`` silently reinstates the O(n²)
   memory wall the estimate was factored to avoid (the linkless-graph
   fallback did exactly that before it was made sparse).  A square
   allocation that is genuinely part of the exact/dense path — small-n
   oracles, dense feature builders, synthetic generators — opts out
   with a ``# dense-ok`` comment on the same line, which doubles as
   reviewer documentation of why quadratic memory is acceptable there.

5. **No tuple lists over every pair.**  ``SocialGraph.non_links()``
   builds O(n²) Python tuples, and ``sorted(graph.links())`` re-sorts a
   set of tuples into the order ``link_pairs()`` already has.  In the fit
   path that list work once cost more than the numerics.  Library code
   draws from the ``link_pairs()`` / ``non_link_pairs()`` index arrays
   instead.  A line that genuinely wants the tuples (an O(links) export,
   say) opts out with a ``# pairs-ok`` comment on the same line.

6. **No Householder QR in the solver hot path.**  The range finders
   orthonormalize their tall, skinny sketch blocks with CholeskyQR2
   (``repro.perf.warm_svt._tall_qr``), about a quarter of the time of
   ``np.linalg.qr`` on the factored fit's 5000×16 blocks; one stray
   ``np.linalg.qr(`` in ``repro/perf``, ``repro/optim`` or
   ``repro/factored`` quietly brings the slow kernel back.  A deliberate
   site (the kernel's own Householder fallback) opts out with a
   ``# qr-ok`` comment on the same line.

Run from the repo root::

    python tools/check_style.py

Exit status 0 when clean; 1 with one ``file:line: message`` per violation
otherwise.
"""

from __future__ import annotations

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

WALL_CLOCK_MARKER = "# wall-clock"
DENSE_OK_MARKER = "# dense-ok"
PAIRS_OK_MARKER = "# pairs-ok"
QR_OK_MARKER = "# qr-ok"

# Presentation layers whose stdout IS the product (tables, CLI banners).
PRINT_ALLOWLIST = (
    os.path.join("src", "repro", "experiments") + os.sep,
    os.path.join("src", "repro", "serving", "__main__.py"),
)

_TIME_TIME = re.compile(r"\btime\.time\(\)")
_BARE_PRINT = re.compile(r"^\s*print\(")
_BARE_EXCEPT = re.compile(r"^\s*except\s*:")
# np.zeros((n, n)) and friends — the same symbol on both axes is the
# signature of a dense square allocation in user-count space.
_DENSE_SQUARE = re.compile(
    r"\bnp\.(?:zeros|ones|empty|full)\(\s*\(\s*"
    r"([A-Za-z_][A-Za-z0-9_]*)\s*,\s*\1\s*[,)]"
)

# graph.non_links() anywhere, and sorted(graph.links()) / sorted(x.links() - y).
_PAIR_LISTS = re.compile(r"\.non_links\(\)|\bsorted\(\s*[\w.]+\.links\(\)")

# The solver packages whose QRs run on the range finders' hot path.
QR_SCOPE = tuple(
    os.path.join("repro", package) + os.sep
    for package in ("perf", "optim", "factored")
)
_HOUSEHOLDER_QR = re.compile(r"\bnp\.linalg\.qr\(")


def _relative(path: str) -> str:
    return os.path.relpath(path, REPO_ROOT)


def _print_allowed(relpath: str) -> bool:
    return any(relpath.startswith(prefix) for prefix in PRINT_ALLOWLIST)


def _qr_scoped(path: str) -> bool:
    return any(package in path for package in QR_SCOPE)


def check_file(path: str) -> list:
    """All style violations in one file, as ``file:line: message`` strings."""
    relpath = _relative(path)
    qr_scoped = _qr_scoped(os.path.abspath(path))
    violations = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if _TIME_TIME.search(line) and WALL_CLOCK_MARKER not in line:
                violations.append(
                    f"{relpath}:{lineno}: time.time() is wall-clock — use "
                    "time.monotonic()/time.perf_counter() for durations, or "
                    f"mark a real timestamp with '{WALL_CLOCK_MARKER}'"
                )
            if _BARE_PRINT.search(line) and not _print_allowed(relpath):
                violations.append(
                    f"{relpath}:{lineno}: bare print() in library code — "
                    "use repro.observability.logging.get_logger() instead"
                )
            if _BARE_EXCEPT.search(line):
                violations.append(
                    f"{relpath}:{lineno}: bare except: swallows "
                    "KeyboardInterrupt/SystemExit and breaks kill→resume — "
                    "catch a concrete exception (or 'except Exception')"
                )
            if _DENSE_SQUARE.search(line) and DENSE_OK_MARKER not in line:
                violations.append(
                    f"{relpath}:{lineno}: dense square allocation — the "
                    "factored path must stay O(nk); use scipy.sparse or "
                    "FactoredEstimate, or mark a deliberate dense-path "
                    f"site with '{DENSE_OK_MARKER}'"
                )
            if _PAIR_LISTS.search(line) and PAIRS_OK_MARKER not in line:
                violations.append(
                    f"{relpath}:{lineno}: tuple list over all pairs — draw "
                    "from SocialGraph.link_pairs()/non_link_pairs() index "
                    f"arrays, or mark a deliberate site with '{PAIRS_OK_MARKER}'"
                )
            if (
                qr_scoped
                and _HOUSEHOLDER_QR.search(line)
                and QR_OK_MARKER not in line
            ):
                violations.append(
                    f"{relpath}:{lineno}: np.linalg.qr in the solver hot "
                    "path — use repro.perf.warm_svt._tall_qr (CholeskyQR2), "
                    f"or mark a deliberate Householder site with '{QR_OK_MARKER}'"
                )
    return violations


def main() -> int:
    violations = []
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                violations.extend(check_file(os.path.join(dirpath, filename)))
    if violations:
        print("\n".join(violations))
        print(f"\n{len(violations)} style violation(s).")
        return 1
    print("style: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
