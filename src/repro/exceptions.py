"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent configuration was supplied."""


class NetworkError(ReproError):
    """A network container was queried or mutated inconsistently."""


class UnknownNodeError(NetworkError):
    """A node identifier does not exist in the network."""


class DuplicateNodeError(NetworkError):
    """A node identifier was added twice to the same network."""


class AlignmentError(ReproError):
    """Anchor links reference unknown users or violate one-to-one-ness."""


class FeatureError(ReproError):
    """Feature extraction was asked for something it cannot produce."""


class OptimizationError(ReproError):
    """An optimization routine diverged or was configured inconsistently."""


class NotFittedError(ReproError):
    """A model was asked to predict before :meth:`fit` was called."""


class EvaluationError(ReproError):
    """An evaluation routine received degenerate or inconsistent input."""


class SerializationError(ReproError):
    """A network or model could not be serialized or deserialized."""


class ArtifactCorruptError(SerializationError):
    """A stored artifact failed its integrity validation.

    Raised when a checksum/digest mismatch, a truncated file, or an
    undeserializable payload is detected *before* the artifact is handed to
    any consumer.  Subclasses :class:`SerializationError` so every existing
    fallback path (serving's stale-serve reload, the CLI) already handles
    it; the distinct type lets chaos tests and HTTP handlers tell corruption
    apart from configuration mistakes.
    """


class WalCorruptError(SerializationError):
    """A write-ahead-log segment failed validation *before* its tail.

    Torn or half-written records at the very tail of the newest segment are
    expected after a crash and are silently truncated during recovery; a
    checksum/framing failure anywhere *earlier* means the log lost already
    durable records and recovery must stop loudly rather than replay a
    hole."""


class ReliabilityError(ReproError):
    """Base class for the failures of the reliability layer itself."""


class BackpressureError(ReliabilityError):
    """The streaming ingest queue stayed full past the caller's timeout.

    Raised *before* anything is written to the write-ahead log, so a shed
    delta is never acknowledged and never replayed; callers retry with
    backoff or drop the delta knowingly."""


class RetryExhaustedError(ReliabilityError):
    """Every attempt permitted by a :class:`~repro.reliability.RetryPolicy`
    failed; the last underlying error is chained as ``__cause__``."""


class DeadlineExceededError(ReliabilityError):
    """A request or retry loop ran out of its wall-clock budget."""


class CircuitOpenError(ReliabilityError):
    """A call was refused because its circuit breaker is open."""


class TruncatedSVTWarning(RuntimeWarning):
    """The SVT engine dropped spectrum or could not verify its subspace.

    A rank-capped :class:`~repro.perf.warm_svt.WarmStartSVT` (a model's
    ``svd_rank``) equals the exact prox only when the (r+1)-th singular
    value falls below the shrinkage threshold; this warning signals the
    application where it did not, so the approximation was lossy.  The
    lost mass is also recorded on the active tracer as the
    ``svt.tail_excess`` metric.  The engine raises the same warning when
    it falls back to the exact dense SVT or accepts an unverified
    randomized result.
    """
