"""Segmented, sha256-framed write-ahead log with fsync-on-ack.

Layout: a directory of append-only segment files, each named for the
sequence number of its first record::

    wal/
    ├── wal-000000000001.seg
    ├── wal-000000004097.seg
    └── …

Every record is framed as::

    magic  b"WAL1"                         4 bytes
    seq    uint64 little-endian            8 bytes
    length uint32 little-endian            4 bytes
    payload                                length bytes
    sha256(seq ‖ payload)                 32 bytes

and :meth:`WriteAheadLog.append` returns only after the record — and every
record before it — is flushed **and fsynced**: the returned sequence
number *is* the acknowledgement, so a ``kill -9`` immediately after an
append returns can never lose that record.

Recovery (:meth:`WriteAheadLog.open` scans on construction) validates
every frame and enforces strictly monotone, gapless sequence numbers.  A
frame that fails validation at the **tail of the newest segment** is the
expected signature of a crash mid-write and is truncated away (counted as
a torn-tail truncation); a validation failure anywhere earlier means
durable history was damaged and raises
:class:`~repro.exceptions.WalCorruptError` instead of silently replaying
a hole.

Two chaos sites cover the append path (armed via ``REPRO_CHAOS*``):

* ``streaming.wal.torn_write`` fires after the frame's first half is on
  disk, leaving a *real* torn tail that the next append (or the next
  recovery) truncates;
* ``streaming.wal.fsync`` fires between the buffered write and the fsync
  — the append is rolled back and the caller sees the failure before any
  acknowledgement, exactly like a disk that failed to sync.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
from typing import Iterator, List, Optional, Tuple

from repro.exceptions import ConfigurationError, WalCorruptError
from repro.observability.logging import get_logger
from repro.reliability.faults import fault_point

_log = get_logger("repro.streaming.wal")

MAGIC = b"WAL1"
_HEADER = struct.Struct("<8sI")  # seq uint64 + length uint32 packed below
_SEQ = struct.Struct("<Q")
_LEN = struct.Struct("<I")
_DIGEST_BYTES = 32
_FRAME_OVERHEAD = len(MAGIC) + _SEQ.size + _LEN.size + _DIGEST_BYTES
MAX_PAYLOAD_BYTES = 1 << 24
"""Sanity bound on one record's payload: a length field beyond this is
treated as frame corruption, not an allocation request."""

_SEGMENT_FILE = re.compile(r"^wal-(\d{12})\.seg$")


def _record_digest(seq: int, payload: bytes) -> bytes:
    hasher = hashlib.sha256()
    hasher.update(_SEQ.pack(seq))
    hasher.update(payload)
    return hasher.digest()


def _frame(seq: int, payload: bytes) -> bytes:
    return b"".join(
        (
            MAGIC,
            _SEQ.pack(seq),
            _LEN.pack(len(payload)),
            payload,
            _record_digest(seq, payload),
        )
    )


class _ScanResult:
    """Outcome of validating one segment file's frames."""

    __slots__ = ("records", "clean_end", "torn")

    def __init__(self, records: List[Tuple[int, int, int]], clean_end: int, torn: bool):
        self.records = records  # (seq, payload_offset, payload_length)
        self.clean_end = clean_end
        self.torn = torn


def _scan_segment(data: bytes, expected_seq: Optional[int]) -> _ScanResult:
    """Validate frames in one segment; stop at the first bad one.

    ``expected_seq`` is the sequence number the first record must carry
    (``None`` accepts any, for the oldest surviving segment).
    """
    records: List[Tuple[int, int, int]] = []
    offset = 0
    size = len(data)
    while offset < size:
        start = offset
        if size - offset < len(MAGIC) + _SEQ.size + _LEN.size:
            return _ScanResult(records, start, True)
        if data[offset : offset + len(MAGIC)] != MAGIC:
            return _ScanResult(records, start, True)
        offset += len(MAGIC)
        (seq,) = _SEQ.unpack_from(data, offset)
        offset += _SEQ.size
        (length,) = _LEN.unpack_from(data, offset)
        offset += _LEN.size
        if length > MAX_PAYLOAD_BYTES or size - offset < length + _DIGEST_BYTES:
            return _ScanResult(records, start, True)
        payload = data[offset : offset + length]
        digest = data[offset + length : offset + length + _DIGEST_BYTES]
        if digest != _record_digest(seq, payload):
            return _ScanResult(records, start, True)
        if expected_seq is not None and seq != expected_seq:
            return _ScanResult(records, start, True)
        records.append((seq, offset, length))
        offset += length + _DIGEST_BYTES
        expected_seq = seq + 1
    return _ScanResult(records, size, False)


class WriteAheadLog:
    """Durable, replayable, monotonically-sequenced delta log.

    Parameters
    ----------
    directory:
        Segment directory; created on first use and scanned (with
        torn-tail truncation) immediately.
    segment_max_bytes:
        Rotate to a fresh segment once the current one reaches this size.
    fsync:
        Fsync every append before acknowledging (the production default).
        ``False`` trades the crash guarantee for ingest throughput and is
        only for benchmarks.
    registry:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`
        receiving the append / torn-tail counters.

    Examples
    --------
    >>> import tempfile
    >>> wal = WriteAheadLog(tempfile.mkdtemp())
    >>> wal.append(b"hello")
    1
    >>> list(wal.replay())
    [(1, b'hello')]
    """

    def __init__(
        self,
        directory: str,
        segment_max_bytes: int = 4 << 20,
        fsync: bool = True,
        registry=None,
    ):
        self.directory = str(directory)
        self.segment_max_bytes = int(segment_max_bytes)
        if self.segment_max_bytes < _FRAME_OVERHEAD + 1:
            raise ConfigurationError(
                f"segment_max_bytes too small: {segment_max_bytes}"
            )
        self.fsync = bool(fsync)
        os.makedirs(self.directory, exist_ok=True)
        self._handle = None
        self._segment_path: Optional[str] = None
        self._clean_end = 0  # valid bytes in the open segment
        self._dirty = False  # an injected torn write left trailing garbage
        # (segment path, clean end) of the newest acknowledged record,
        # replaced as one tuple after each successful append so a replay
        # on another thread reads a consistent pair without a lock.
        self._acked: Tuple[Optional[str], int] = (None, 0)
        # (segment path, byte offset, next seq) just past the newest frame
        # a replay or the recovery scan has validated.
        self._cursor: Tuple[Optional[str], int, int] = (None, 0, 1)
        self.last_seq = 0
        self.torn_tail_truncations = 0
        if registry is not None:
            self._c_appends = registry.counter(
                "streaming.wal.appends", help="Records durably appended."
            )
            self._c_torn = registry.counter(
                "streaming.wal.torn_tails",
                help="Torn tails truncated during recovery or repair.",
            )
        else:
            self._c_appends = None
            self._c_torn = None
        self._recover()

    # -- layout ---------------------------------------------------------
    def _segment_paths(self) -> List[Tuple[int, str]]:
        """(first_seq, path) of every segment, ascending."""
        found = []
        for entry in os.listdir(self.directory):
            match = _SEGMENT_FILE.match(entry)
            if match:
                found.append(
                    (int(match.group(1)), os.path.join(self.directory, entry))
                )
        return sorted(found)

    @property
    def first_seq(self) -> int:
        """Lowest sequence number still replayable (0 when empty)."""
        segments = self._segment_paths()
        return segments[0][0] if segments else 0

    # -- recovery -------------------------------------------------------
    def _recover(self) -> None:
        """Scan every segment; truncate a torn tail on the newest one."""
        segments = self._segment_paths()
        expected: Optional[int] = None
        for index, (first_seq, path) in enumerate(segments):
            with open(path, "rb") as handle:
                data = handle.read()
            scan = _scan_segment(
                data, first_seq if expected is None else expected
            )
            is_last = index == len(segments) - 1
            if scan.torn or (scan.records and scan.records[0][0] != first_seq):
                if not is_last:
                    raise WalCorruptError(
                        f"WAL segment {path} is corrupt at offset "
                        f"{scan.clean_end} but is not the newest segment; "
                        "durable history is damaged"
                    )
                self._truncate_file(path, scan.clean_end)
            if scan.records:
                expected = scan.records[-1][0] + 1
            elif expected is None:
                expected = first_seq
        self.last_seq = (expected - 1) if expected is not None else 0
        if segments:
            path = segments[-1][1]
            self._segment_path = path
            self._clean_end = os.path.getsize(path)
            self._handle = open(path, "ab")
            self._acked = (path, self._clean_end)
            self._cursor = (path, self._clean_end, self.last_seq + 1)
        self._dirty = False

    def _truncate_file(self, path: str, size: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())
        self.torn_tail_truncations += 1
        if self._c_torn is not None:
            self._c_torn.inc()
        _log.warning(
            "truncated torn WAL tail", segment=path, clean_bytes=size
        )

    def _repair_tail(self) -> None:
        """Drop garbage an injected torn write left after ``_clean_end``."""
        self._handle.close()
        self._truncate_file(self._segment_path, self._clean_end)
        self._handle = open(self._segment_path, "ab")
        self._dirty = False

    # -- append ---------------------------------------------------------
    def _open_segment(self, first_seq: int) -> None:
        if self._handle is not None:
            self._handle.close()
        path = os.path.join(self.directory, f"wal-{first_seq:012d}.seg")
        self._segment_path = path
        self._handle = open(path, "ab")
        self._clean_end = os.path.getsize(path)

    def append(self, payload: bytes) -> int:
        """Durably append one record; the returned seq is the ack.

        The record is fully framed, flushed and (by default) fsynced
        before this method returns.  Any failure — including the
        ``streaming.wal.torn_write`` and ``streaming.wal.fsync`` chaos
        sites — rolls the segment back to its last clean byte and
        re-raises, so a failed append is never acknowledged and never
        replayed.
        """
        payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD_BYTES:
            raise ConfigurationError(
                f"WAL payload of {len(payload)} bytes exceeds the "
                f"{MAX_PAYLOAD_BYTES}-byte record bound"
            )
        if self._dirty:
            self._repair_tail()
        seq = self.last_seq + 1
        if self._handle is None or self._clean_end >= self.segment_max_bytes:
            self._open_segment(seq)
        frame = _frame(seq, payload)
        half = len(frame) // 2
        try:
            self._handle.write(frame[:half])
            self._handle.flush()
            # An armed torn-write fault fires here, after real bytes hit
            # the file: the half-record is exactly what a crash mid-write
            # leaves behind, and the next append (or recovery) truncates it.
            try:
                fault_point("streaming.wal.torn_write")
            except BaseException:
                self._dirty = True
                raise
            self._handle.write(frame[half:])
            self._handle.flush()
            fault_point("streaming.wal.fsync")
            if self.fsync:
                os.fsync(self._handle.fileno())
        except BaseException:
            if self._dirty:
                # Torn write: leave the garbage for the repair path so the
                # truncation machinery is exercised, then surface the fault.
                raise
            # Fsync (or write) failure after a complete buffered frame: the
            # bytes may or may not be durable, so roll back to the last
            # clean offset before re-raising — the record was never acked.
            try:
                self._repair_tail()
            except OSError:
                self._dirty = True
            raise
        self._clean_end += len(frame)
        self.last_seq = seq
        self._acked = (self._segment_path, self._clean_end)
        if self._c_appends is not None:
            self._c_appends.inc()
        return seq

    def sync(self) -> None:
        """Flush and fsync the open segment (no-op when nothing is open)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the append handle (the log stays recoverable on disk)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- replay ---------------------------------------------------------
    def replay(self, after_seq: int = 0) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(seq, payload)`` for every record with ``seq > after_seq``.

        Reads the segments fresh from disk, so a replay sees exactly what
        recovery after a crash would see, and reads only acknowledged
        bytes: a frame an in-flight :meth:`append` has written but not
        yet fsynced (and may still roll back) is never yielded.

        A replay resumes at a cursor — the position just past the newest
        frame an earlier replay or the recovery scan validated — whenever
        ``after_seq`` is at or past it, so a consumer that replays after
        each batch of appends reads and hashes only the new frames.
        Otherwise (``replay(0)``, or a consumer behind the cursor) the
        scan starts at the segment holding ``after_seq + 1``.  Every
        yielded frame is checked — magic, length bound, sha256 and
        gapless seq — and the replay stops at the first that fails.
        """
        after_seq = int(after_seq)
        acked_path, acked_end = self._acked
        if acked_path is None:
            return
        segments = self._segment_paths()
        start = self._resume_point(segments, after_seq)
        if start is None:
            return
        index, offset, expected = start
        for first_seq, path in segments[index:]:
            if path > acked_path:  # names sort by first seq
                break  # opened by an append that has not been acknowledged
            with open(path, "rb") as handle:
                handle.seek(offset)
                if path == acked_path:
                    data = handle.read(max(0, acked_end - offset))
                else:
                    data = handle.read()
            scan = _scan_segment(data, expected)
            for seq, start_byte, length in scan.records:
                expected = seq + 1
                self._advance_cursor(
                    path, offset + start_byte + length + _DIGEST_BYTES, expected
                )
                if seq > after_seq:
                    yield seq, data[start_byte : start_byte + length]
            if scan.torn or path == acked_path:
                break
            offset = 0

    def _resume_point(
        self, segments: List[Tuple[int, str]], after_seq: int
    ) -> Optional[Tuple[int, int, int]]:
        """``(segment index, byte offset, expected seq)`` to start a replay at."""
        if not segments:
            return None
        path, offset, next_seq = self._cursor
        if after_seq + 1 >= next_seq:
            for index, (first_seq, segment) in enumerate(segments):
                if segment == path:
                    return index, offset, next_seq
                if first_seq == next_seq:
                    # The cursor's segment was compacted away at its end.
                    return index, 0, next_seq
        index = 0
        while index + 1 < len(segments) and segments[index + 1][0] <= after_seq + 1:
            index += 1  # every record before segment index + 1 is <= after_seq
        return index, 0, segments[index][0]

    def _advance_cursor(self, path: str, offset: int, next_seq: int) -> None:
        # Forward only: a rescan from the log's start (``replay(0)``,
        # :meth:`record_count`) must not pull the cursor back.
        if next_seq > self._cursor[2]:
            self._cursor = (path, offset, next_seq)

    def record_count(self) -> int:
        """Number of replayable records currently on disk."""
        return sum(1 for _ in self.replay())

    # -- compaction -----------------------------------------------------
    def truncate_through(self, seq: int) -> int:
        """Delete whole segments whose records are all ``<= seq``.

        Called after a state snapshot covering ``seq`` is durably on disk;
        the newest segment is always retained so the next sequence number
        survives restarts.  Returns the number of segments removed.
        """
        seq = int(seq)
        segments = self._segment_paths()
        removed = 0
        for index in range(len(segments) - 1):
            next_first = segments[index + 1][0]
            if next_first - 1 <= seq:
                try:
                    os.unlink(segments[index][1])
                    removed += 1
                except OSError:
                    break  # compaction is best-effort
            else:
                break
        return removed
