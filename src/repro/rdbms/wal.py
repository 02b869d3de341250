"""A durable write-ahead log of coalesced per-transaction deltas.

The batched transaction pipeline already produces each transaction's
net effect as a first-class value — the
:class:`~repro.rdbms.engine.PreparedCommit` batch of
``(relation, delta, is_cache)`` triples.  This module makes that value
the unit of durability *and* of replication: the engine appends one
``commit`` record per transaction (plus ``load``/``define_view``/
``drop_view`` catalog records), and the same byte stream serves

* **crash recovery** — replaying the log from the start rebuilds the
  engine's committed state; :meth:`WriteAheadLog.checkpoint` compacts
  the log into a snapshot prefix (``load`` + ``define_view`` records of
  the current state) so replay stays O(|DB| + |tail|);
* **read replicas** — :class:`~repro.rdbms.replica.ReplicaEngine`
  tails the log and applies the recorded deltas straight through
  ``Backend.apply_deltas``, never re-running ∂put/get plans, so
  catch-up costs O(|Δ|) rather than re-evaluation.

**Record format.**  The file starts with a magic line plus the 8-byte
starting LSN (zero for a fresh log; a checkpoint writes the LSN the
compaction happened at, so LSNs stay monotonic across compactions).
Each record is a frame of ``[4-byte length][4-byte CRC-32][payload]``
where the payload pickles ``(kind, data)``; a record's LSN is implicit
— ``start_lsn + its position`` — which makes monotonicity structural.

**Committed-prefix semantics.**  A transaction is committed exactly
when its record is fully in the log.  On open, the tail is scanned and
the first incomplete or checksum-failing frame — a torn write from a
crash mid-append — marks the end of the committed prefix: everything
after it is truncated, never half-applied.  Readers
(:func:`read_records`) independently stop at the same point, so a
file-tailing replica in another process can never observe a torn
record either.

**Resuming.**  Every read walks frames through one loop
(:func:`_frames`) and knows the :class:`LogPosition` just past each
frame.  Handed back as ``since=``, a position makes the next read seek
there and checksum only the frames appended since — unless the header
``start_lsn`` changed, i.e. a checkpoint rewrote the file, and the read
starts over at the header.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from repro.errors import SchemaError
from repro.rdbms import faults

__all__ = ['LogPosition', 'WalRecord', 'WriteAheadLog', 'read_records',
           'scan_tail', 'encode_record', 'RECORD_KINDS']

MAGIC = b'REPROWAL1\n'
_HEADER = struct.Struct('>Q')    # starting LSN
_FRAME = struct.Struct('>II')    # payload length, CRC-32 of payload

#: Every record kind the engine writes.  ``commit`` carries
#: ``(batch, changed_bases, keep)`` — the PreparedCommit shape — or the
#: 4-tuple ``(batch, changed_bases, keep, note)`` when the transaction
#: embeds a durable note (e.g. a peer link watermark); the catalog
#: kinds carry what re-running the call needs.  ``note`` records hold
#: opaque sidecar state replay collects but does not interpret, and
#: ``checkpoint`` is the sentinel :meth:`WriteAheadLog.checkpoint`
#: appends after a snapshot so a mid-history reader can tell where the
#: rewritten prefix ends.
RECORD_KINDS = ('load', 'define_view', 'drop_view', 'commit',
                'note', 'checkpoint')


def _fsync_dir(path: Path) -> None:
    """Fsync a directory so a just-renamed file survives power loss
    (the rename itself is atomic either way; this makes it durable)."""
    fd = os.open(path, os.O_RDONLY | getattr(os, 'O_DIRECTORY', 0))
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


class LogPosition(NamedTuple):
    """Where a read of a log file stopped: the header's ``start_lsn``,
    the byte offset just past the last frame read, and that frame's
    LSN.  A reader handed it back (``since=``) resumes there instead of
    at byte 0 — unless the header's ``start_lsn`` has changed, which
    means a checkpoint rewrote the file (every checkpoint raises it:
    the old log's last LSN becomes the new header, and it always writes
    at least the sentinel), and the read starts over at the header.
    :func:`scan_tail` also says whether bytes that are no committed
    frame follow (``torn``)."""

    start_lsn: int
    end_offset: int
    last_lsn: int
    torn: bool = False


class WalRecord(NamedTuple):
    """One committed log record and the position just past it (where
    a tail that has applied it resumes)."""

    lsn: int
    kind: str
    data: object
    end: LogPosition


def encode_record(kind: str, data: object) -> bytes:
    """The on-disk frame for one record (exposed for fault-injection
    tests that need to write *partial* frames)."""
    if kind not in RECORD_KINDS:
        raise SchemaError(f'unknown WAL record kind {kind!r}')
    payload = pickle.dumps((kind, data),
                           protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _resume(handle, path, since: LogPosition | None) -> LogPosition:
    """Check an open log file's magic line, then seek to where a walk
    starts: ``since`` when it was taken on this file (same header
    ``start_lsn``), else the first frame.  Returns that position."""
    header = handle.read(len(MAGIC) + _HEADER.size)
    if len(header) < len(MAGIC) + _HEADER.size \
            or not header.startswith(MAGIC):
        raise SchemaError(f'{path} is not a repro WAL file')
    (start_lsn,) = _HEADER.unpack(header[len(MAGIC):])
    if since is None or since.start_lsn != start_lsn:
        return LogPosition(start_lsn, handle.tell(), start_lsn)
    handle.seek(since.end_offset)
    return since


def _frames(handle, at: LogPosition) -> Iterator[tuple[LogPosition, bytes]]:
    """The one frame walker: each committed payload from ``at`` on,
    with the position just past it.  Stops at end of file or at the
    first incomplete or checksum-failing frame (a torn tail)."""
    read, size = handle.read, _FRAME.size
    start_lsn, offset, lsn, _ = at
    while True:
        frame = read(size)
        if len(frame) < size:
            return
        length, crc = _FRAME.unpack(frame)
        payload = read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return
        offset += size + length
        lsn += 1
        yield LogPosition(start_lsn, offset, lsn), payload


def scan_tail(path: str | Path, *,
              since: LogPosition | None = None) -> LogPosition:
    """Walk a log file's frames (without unpickling payloads) to find
    the committed prefix: its last LSN and end offset.  ``since``
    skips the frames before a position an earlier read reached."""
    with open(path, 'rb') as handle:
        end = _resume(handle, path, since)
        for end, _ in _frames(handle, end):
            pass
        # Anything past the prefix is a torn frame.
        return end._replace(
            torn=end.end_offset < os.fstat(handle.fileno()).st_size)


def read_records(path: str | Path, *, after: int = 0,
                 since: LogPosition | None = None) -> Iterator[WalRecord]:
    """The committed records with LSN > ``after``, from a fresh read
    handle — safe to call from another thread or process while the
    writer appends, and across checkpoints (a compacted file's records
    all carry fresh LSNs, so a reader that was mid-history simply
    replays the snapshot prefix).  ``since`` (a record's ``end``)
    resumes past the frames already read: only new frames are
    checksummed and unpickled.  Stops silently at a torn tail: a
    reader can never observe a half-written record."""
    try:
        handle = open(path, 'rb')
    except FileNotFoundError:
        return
    with handle:
        for end, payload in _frames(handle, _resume(handle, path, since)):
            if end.last_lsn > after:
                kind, data = pickle.loads(payload)
                yield WalRecord(end.last_lsn, kind, data, end)


class WriteAheadLog:
    """Append-only durable log with monotonic LSNs.

    ``sync=True`` (the default) fsyncs every append — one fsync per
    *transaction*, whose commit is a single record.  ``sync=False``
    trades durability of the OS page cache for speed (tests,
    benchmarks, replicas of a primary that is itself durable).

    Opening an existing file recovers it: the tail is scanned, a torn
    final record is truncated (see module docstring), and appends
    continue at ``last_lsn + 1``.  Readers — in this process or
    another — tail the file with :func:`read_records`.
    """

    def __init__(self, path: str | Path, *, sync: bool = True):
        self.path = Path(path)
        self.sync = sync
        self._lock = threading.RLock()
        self._closed = False
        self._failed = False
        #: appends/bytes are cumulative for this handle;
        #: ``last_record_bytes`` is the size of the latest record —
        #: what the O(|Δ|) record-size tests sample.
        self.stats = {'appends': 0, 'bytes': 0, 'last_record_bytes': 0,
                      'truncated_tails': 0, 'append_failures': 0}
        #: Optional MetricsRegistry (set by the owning engine).  When
        #: attached and enabled, every append observes its write+fsync
        #: latency as the ``wal.append_seconds`` histogram.
        self.metrics = None
        # A crash between writing the checkpoint temp file and the
        # atomic rename leaves the temp behind; it was never the live
        # log, so drop it (the next checkpoint would overwrite it
        # anyway — this is pure hygiene).
        self.path.with_name(self.path.name + '.ckpt').unlink(
            missing_ok=True)
        if self.path.exists() and self.path.stat().st_size > 0:
            tail = scan_tail(self.path)
            if tail.torn:
                with open(self.path, 'r+b') as handle:
                    handle.truncate(tail.end_offset)
                self.stats['truncated_tails'] += 1
            self._start_lsn = tail.start_lsn
            self._last_lsn = tail.last_lsn
            self._file = open(self.path, 'ab')
        else:
            self._start_lsn = 0
            self._last_lsn = 0
            self._file = open(self.path, 'wb')
            self._file.write(MAGIC + _HEADER.pack(0))
            self._flush()

    def _flush(self) -> None:
        self._file.flush()
        faults.fire('wal.fsync')
        if self.sync:
            os.fsync(self._file.fileno())

    @property
    def last_lsn(self) -> int:
        """The LSN of the newest committed record (0 for an empty
        log) — the commit point a read session can demand with
        ``min_lsn``."""
        return self._last_lsn

    def append(self, kind: str, data: object) -> int:
        """Durably append one record; returns its LSN.  The append IS
        the commit point: once this returns, recovery and every replica
        will observe the record.

        A write or fsync failure **poisons** the log: the frame may be
        partially on disk (recovery will truncate it as a torn tail),
        so no further append can be allowed to write after it — every
        subsequent append raises until the log is reopened.  A worker
        process that hits this dies and recovers from the log rather
        than serve commits it cannot make durable."""
        encoded = encode_record(kind, data)
        with self._lock:
            if self._closed:
                raise SchemaError(f'WAL {self.path} is closed')
            if self._failed:
                raise SchemaError(
                    f'WAL {self.path} failed a previous append (the '
                    f'tail may be torn); reopen to recover')
            if faults.fire('wal.append', kind=kind) == 'tear':
                self._tear_and_die(encoded)
            metrics = self.metrics
            timed = metrics is not None and metrics.enabled
            started = time.perf_counter() if timed else 0.0
            try:
                self._file.write(encoded)
                self._flush()
            except OSError:
                self._failed = True
                self.stats['append_failures'] += 1
                raise
            if timed:
                metrics.observe('wal.append_seconds',
                                time.perf_counter() - started)
            self._last_lsn += 1
            self.stats['appends'] += 1
            self.stats['bytes'] += len(encoded)
            self.stats['last_record_bytes'] = len(encoded)
            return self._last_lsn

    def _tear_and_die(self, encoded: bytes) -> None:  # pragma: no cover
        """The ``tear`` fault action: persist *half* the frame, then
        SIGKILL — the mid-append crash whose torn tail recovery must
        truncate (only meaningful in a sacrificial subprocess)."""
        self._file.write(encoded[:max(1, len(encoded) // 2)])
        self._file.flush()
        try:
            os.fsync(self._file.fileno())
        except OSError:
            pass
        os.kill(os.getpid(), signal.SIGKILL)

    def records(self, *, after: int = 0) -> Iterator[WalRecord]:
        """The committed records with LSN > ``after`` (a fresh read
        pass over the file; see :func:`read_records`)."""
        return read_records(self.path, after=after)

    def checkpoint(self, records: Iterable[tuple[str, object]]) -> int:
        """Atomically compact the log: replace it with ``records`` (the
        caller's snapshot of current state, as ``(kind, data)`` pairs)
        under a header whose starting LSN is the current ``last_lsn``
        — so the snapshot records receive fresh, still-monotonic LSNs
        and a replica at any position simply replays them.  Returns the
        new ``last_lsn``.

        Crash-safe: the snapshot is fully written and fsynced to a temp
        file first, swapped in with an atomic rename, and the directory
        entry is fsynced after the swap — a crash at any point leaves
        either the old log (intact, possibly plus a stale temp file) or
        the new one, never a half-written log."""
        with self._lock:
            if self._closed:
                raise SchemaError(f'WAL {self.path} is closed')
            temp = self.path.with_name(self.path.name + '.ckpt')
            count = 0
            with open(temp, 'wb') as handle:
                handle.write(MAGIC + _HEADER.pack(self._last_lsn))
                for kind, data in records:
                    faults.fire('wal.checkpoint', index=count)
                    handle.write(encode_record(kind, data))
                    count += 1
                # End-of-snapshot sentinel: a reader that detects the
                # rewrite (file start_lsn jumped past its position)
                # replays the snapshot prefix and must not stop early
                # mid-snapshot — it consumes records until this marker
                # before honouring any ``upto`` bound again.
                handle.write(encode_record(
                    'checkpoint', {'start_lsn': self._last_lsn}))
                count += 1
                handle.flush()
                if self.sync:
                    os.fsync(handle.fileno())
            self._file.close()
            os.replace(temp, self.path)
            if self.sync:
                _fsync_dir(self.path.parent)
            self._start_lsn = self._last_lsn
            self._last_lsn += count
            self._file = open(self.path, 'ab')
            self._flush()
            return self._last_lsn

    def close(self) -> None:
        """Flush and close the append handle.  Idempotent; readers
        (:func:`read_records`) keep working on the file."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._file.flush()
            self._file.close()

    def __enter__(self) -> 'WriteAheadLog':
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
