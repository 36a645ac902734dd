"""Chaos-hook registry: inject faults at named sites, no-op by default.

Production code calls :func:`fault_point` at the places where the real
world fails — the SVD inside the proximal step, the artifact read path,
the serving reload, the HTTP request path.  With no injector armed the
call is a single module-attribute check, so the hot path pays nothing;
with chaos enabled (``REPRO_CHAOS=1`` or an explicit
:meth:`FaultInjector.arm`) the site raises a configured exception or
sleeps a configured delay, with a seeded RNG so a 10 %-fault run is
reproducible.

Registered sites (the vocabulary chaos tests and ``tools/chaos_smoke.py``
drive):

======================  ======================================================
``solver.svd.truncated``  each randomized apply of the warm-started SVT engine
``solver.svd.dense``      the dense ``np.linalg.svd`` call of the exact SVT
``artifact.read``         :meth:`ArtifactStore.load` integrity validation
``artifact.slow_read``    delay-only site on the same load path
``serving.reload``        :meth:`LinkPredictionService.reload`
``serving.request``       the HTTP dispatch path (before routing)
``sharding.shard_read``   per-shard reads of a sharded artifact load
``streaming.wal.fsync``   the fsync gating every WAL append acknowledgement
``streaming.wal.torn_write``  mid-record WAL write (leaves a real torn tail)
======================  ======================================================

Environment configuration (read by :func:`configure_from_env`, which the
serving CLI and the chaos smoke script call)::

    REPRO_CHAOS=1                         enable injection
    REPRO_CHAOS_RATE=0.1                  per-site firing probability
    REPRO_CHAOS_SITES=artifact.read,...   subset of sites (default: all)
    REPRO_CHAOS_SEED=7                    RNG seed for reproducible runs
    REPRO_CHAOS_DELAY=0.05                seconds slept by delay sites
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.exceptions import (
    ArtifactCorruptError,
    ConfigurationError,
    ReliabilityError,
    SerializationError,
)


class InjectedFaultError(ReliabilityError):
    """The generic exception raised by an armed fault site."""


KNOWN_SITES: Dict[str, str] = {
    "solver.svd.truncated": "randomized SVD of the warm-started SVT engine",
    "solver.svd.dense": "dense SVD inside the exact SVT prox",
    "artifact.read": "artifact-store load/validation path",
    "artifact.slow_read": "artifact-store load path (delay only)",
    "serving.reload": "service hot-swap reload",
    "serving.request": "HTTP request dispatch",
    "sharding.shard_read": "per-shard artifact read inside a sharded load",
    "streaming.wal.fsync": "the fsync gating a WAL append acknowledgement",
    "streaming.wal.torn_write": "mid-record WAL write leaving a torn tail",
}
"""Site name → human description; :meth:`FaultInjector.arm` validates
against this registry so chaos configs cannot silently target a typo."""

_DEFAULT_ERRORS: Dict[str, Callable[[], BaseException]] = {
    "solver.svd.truncated": lambda: np.linalg.LinAlgError(
        "injected: SVD did not converge"
    ),
    "solver.svd.dense": lambda: np.linalg.LinAlgError(
        "injected: SVD did not converge"
    ),
    "artifact.read": lambda: ArtifactCorruptError(
        "injected: artifact failed its integrity check"
    ),
    "serving.reload": lambda: SerializationError(
        "injected: artifact reload failure"
    ),
    "serving.request": lambda: InjectedFaultError(
        "injected: request-path fault"
    ),
    "sharding.shard_read": lambda: ArtifactCorruptError(
        "injected: shard artifact failed its integrity check"
    ),
    "streaming.wal.fsync": lambda: OSError(
        "injected: WAL fsync failed before acknowledgement"
    ),
    "streaming.wal.torn_write": lambda: InjectedFaultError(
        "injected: WAL write torn mid-record"
    ),
}
"""What each site raises when armed without an explicit ``error``.
``artifact.slow_read`` has no entry — it is delay-only by default."""


@dataclass
class _ArmedSite:
    """One armed site's behaviour and bookkeeping."""

    error: Optional[Callable[[], BaseException]] = None
    delay: float = 0.0
    probability: float = 1.0
    remaining: Optional[int] = None  # fire at most this many times
    fired: int = 0
    skipped: int = 0
    rng: random.Random = field(default_factory=random.Random)


class FaultInjector:
    """A registry of armed fault sites, thread-safe and seedable.

    The module-level :data:`GLOBAL_INJECTOR` is what production call sites
    consult; tests may also construct private injectors and drive
    :meth:`fire` directly.

    Examples
    --------
    >>> from repro.reliability.faults import FaultInjector
    >>> injector = FaultInjector()
    >>> injector.arm("artifact.read", times=1)
    >>> injector.active
    True
    >>> try:
    ...     injector.fire("artifact.read")
    ... except Exception as exc:
    ...     print(type(exc).__name__)
    ArtifactCorruptError
    >>> injector.fire("artifact.read")  # auto-disarmed after one firing
    """

    def __init__(self, seed: Optional[int] = None):
        self._sites: Dict[str, _ArmedSite] = {}
        self._lock = threading.Lock()
        self._seed = seed
        self.active = False

    # -- configuration --------------------------------------------------
    def arm(
        self,
        site: str,
        error: Optional[Callable[[], BaseException]] = None,
        delay: float = 0.0,
        probability: float = 1.0,
        times: Optional[int] = None,
    ) -> None:
        """Arm one site.

        Parameters
        ----------
        site:
            One of :data:`KNOWN_SITES`.
        error:
            Zero-argument factory of the exception to raise; defaults to
            the site's entry in :data:`_DEFAULT_ERRORS` (delay-only when
            the site has none).
        delay:
            Seconds to sleep before (possibly) raising — models slow I/O.
        probability:
            Chance in ``[0, 1]`` that a :meth:`fire` call actually fires.
        times:
            Fire at most this many times, then auto-disarm (``None`` =
            unlimited).
        """
        if site not in KNOWN_SITES:
            raise ConfigurationError(
                f"unknown fault site {site!r}; known sites: "
                f"{', '.join(sorted(KNOWN_SITES))}"
            )
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {probability}"
            )
        if delay < 0:
            raise ConfigurationError(f"fault delay must be >= 0, got {delay}")
        if error is None:
            error = _DEFAULT_ERRORS.get(site)
        armed = _ArmedSite(
            error=error,
            delay=float(delay),
            probability=float(probability),
            remaining=None if times is None else int(times),
            rng=random.Random(
                None if self._seed is None else f"{self._seed}:{site}"
            ),
        )
        with self._lock:
            self._sites[site] = armed
            self.active = True

    def disarm(self, site: str) -> None:
        """Disarm one site (a no-op when it was not armed)."""
        with self._lock:
            self._sites.pop(site, None)
            self.active = bool(self._sites)

    def reset(self) -> None:
        """Disarm every site."""
        with self._lock:
            self._sites.clear()
            self.active = False

    # -- firing ---------------------------------------------------------
    def fire(self, site: str) -> None:
        """Inject the site's fault if it is armed (raises or sleeps)."""
        with self._lock:
            armed = self._sites.get(site)
            if armed is None:
                return
            if armed.remaining is not None and armed.remaining <= 0:
                return
            if armed.probability < 1.0 and armed.rng.random() >= armed.probability:
                armed.skipped += 1
                return
            armed.fired += 1
            if armed.remaining is not None:
                armed.remaining -= 1
            error = armed.error
            delay = armed.delay
        if delay > 0:
            time.sleep(delay)
        if error is not None:
            raise error()

    # -- introspection --------------------------------------------------
    def armed_sites(self) -> List[str]:
        """Currently armed site names, sorted."""
        with self._lock:
            return sorted(self._sites)

    def fired_counts(self) -> Dict[str, int]:
        """How many times each armed site has fired."""
        with self._lock:
            return {site: armed.fired for site, armed in self._sites.items()}


GLOBAL_INJECTOR = FaultInjector()
"""The process-wide injector consulted by every :func:`fault_point`."""


def fault_point(site: str) -> None:
    """Production chaos hook: free when nothing is armed.

    The inactive path is one attribute load and one branch; never add work
    before the ``active`` check.
    """
    if not GLOBAL_INJECTOR.active:
        return
    GLOBAL_INJECTOR.fire(site)


def chaos_enabled(environ=None) -> bool:
    """Whether the ``REPRO_CHAOS`` environment flag requests injection."""
    value = (environ or os.environ).get("REPRO_CHAOS", "")
    return value.strip().lower() in ("1", "true", "yes", "on")


def configure_from_env(environ=None) -> List[str]:
    """Arm the global injector from ``REPRO_CHAOS*`` variables.

    Returns the list of sites that were armed (empty when chaos is off).
    Entry points (the serving CLI, the chaos smoke script) call this
    explicitly — importing the library never arms anything.
    """
    environ = environ or os.environ
    if not chaos_enabled(environ):
        return []
    rate = float(environ.get("REPRO_CHAOS_RATE", "0.1"))
    delay = float(environ.get("REPRO_CHAOS_DELAY", "0.05"))
    seed = environ.get("REPRO_CHAOS_SEED")
    sites_spec = environ.get("REPRO_CHAOS_SITES", "")
    sites = [s.strip() for s in sites_spec.split(",") if s.strip()] or sorted(
        KNOWN_SITES
    )
    GLOBAL_INJECTOR._seed = None if seed is None else int(seed)
    for site in sites:
        GLOBAL_INJECTOR.arm(
            site,
            delay=delay if site == "artifact.slow_read" else 0.0,
            probability=rate,
        )
    return sites
