"""Delta-fed read replicas: tail the WAL, apply the primary's deltas.

A :class:`ReplicaEngine` is a full :class:`~repro.rdbms.engine.Engine`
(own backend, own view catalog, own caches) that never accepts writes:
its state advances only by replaying the primary's write-ahead log.
Catch-up applies each ``commit`` record's coalesced deltas straight
through ``Backend.apply_deltas`` — the ∂put/get plans that *derived*
those deltas ran exactly once, on the primary — so replication costs
O(|Δ|) per transaction regardless of |DB|.  That is the paper's
incremental-view machinery doing double duty as the replication
protocol.

:class:`ReplicaSet` routes reads over a primary and N replicas:

* reads rotate round-robin over the replicas;
* ``min_lsn=`` per read — the read-your-writes bound: a session that
  committed at LSN n passes ``min_lsn=n`` and is guaranteed to never
  observe a replica behind its own write (the routed replica catches
  up first if needed);
* a read without a ``min_lsn`` bound never serves stale rows: a
  replica behind the log catches up before serving.

Replicas tail the log either in-process (sharing the primary's
:class:`~repro.rdbms.wal.WriteAheadLog` instance for an exact lag
signal) or by file path alone — a separate process pointed at the same
log file replays the identical committed prefix, torn tails excluded
by checksum.

Either way a replica keeps a cursor, the
:class:`~repro.rdbms.wal.LogPosition` just past the last record it
applied, and each read of the log resumes there: a catch-up checksums
and unpickles only the frames committed since, never the log's prefix
(the initial ``load`` records included), and a file tail's lag walks
only those frames.  A checkpoint rewrites the file under a new header
``start_lsn``; a cursor taken on the old file no longer matches it, and
the read falls back to the whole new file (the snapshot prefix).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from repro.rdbms import faults
from repro.rdbms.engine import Engine
from repro.rdbms.metrics import MetricsRegistry, merge_snapshots
from repro.rdbms.wal import (LogPosition, WriteAheadLog, read_records,
                             scan_tail)
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema

__all__ = ['ReplicaEngine', 'ReplicaSet']


class ReplicaEngine:
    """A read-only engine kept fresh by replaying a primary's WAL.

    ``wal`` is the primary's :class:`WriteAheadLog` (in-process; lag is
    then exact and free) or a path to its log file (file-tail; lag
    walks the frames past the replica's cursor).  ``catch_up()``
    applies every committed record past the replica's
    ``applied_lsn``; reads are served from
    whatever LSN the replica has applied — call sites wanting
    freshness bounds go through :class:`ReplicaSet`.
    """

    def __init__(self, schema: DatabaseSchema,
                 wal: str | Path | WriteAheadLog, *,
                 backend: str | None = 'memory'):
        self._wal = wal if isinstance(wal, WriteAheadLog) else None
        self._path = Path(wal) if self._wal is None else wal.path
        self._engine = Engine(schema, backend=backend)
        self._lock = threading.RLock()
        self.applied_lsn = 0
        #: the log position just past the record ``applied_lsn`` names
        #: (None before the first): where the next read resumes
        self._position: LogPosition | None = None
        #: this replica's series, apart from its embedded engine's:
        #: ``replica.records_applied`` and ``replica.catch_up_seconds``
        #: (exported from zero), ``replica.rotations``
        self.metrics = MetricsRegistry()
        self.metrics.counter('replica.records_applied', 0)
        self.metrics.counter('replica.catch_up_seconds', 0.0)

    @property
    def engine(self) -> Engine:
        """The embedded engine (read-only by convention; writing to it
        forks the replica from the log)."""
        return self._engine

    def tail_lsn(self) -> int:
        """The newest committed LSN in the log being tailed (a file
        tail walks only the frames past its position, unpickling
        none)."""
        if self._wal is not None:
            return self._wal.last_lsn
        try:
            return scan_tail(self._path, since=self._position).last_lsn
        except FileNotFoundError:
            return 0

    def lag(self) -> int:
        """How many committed records this replica has not yet applied."""
        return max(0, self.tail_lsn() - self.applied_lsn)

    def catch_up(self, upto: int | None = None) -> int:
        """Apply committed records past ``applied_lsn`` (all of them,
        or stop once ``upto`` is reached).  Returns the number of
        records applied.  O(|Δ|) per record: the read resumes at the
        replica's cursor, so only the new frames are checksummed and
        unpickled, and their deltas go straight to the backend, no plan
        runs.

        **Rotation handling.**  The primary's ``checkpoint()``
        atomically replaces the log file with a snapshot prefix under a
        new header ``start_lsn`` (the old log's last LSN; every
        checkpoint raises it).  A header that differs from the cursor's
        is a rotation: the read starts over at the new header and
        replays the whole snapshot.  The snapshot's records do not
        correspond to historical states record-by-record (each
        ``load`` replaces one whole table), so an ``upto`` bound must
        not stop *inside* it — that would leave some tables from the
        snapshot and others from the old history, a state the primary
        never had.  After a rotation, and on a first read of a
        compacted file, the early-stop is suspended until the
        end-of-snapshot ``checkpoint`` sentinel is consumed."""
        if faults.fire('replica.catch_up') == 'stall':
            return 0                   # injected stalled tail: no-op
        applied, in_snapshot = 0, False
        started = time.perf_counter()
        with self._lock:
            resumed = self._position
            header = resumed.start_lsn if resumed else 0
            for record in read_records(self._path, since=resumed):
                if record.end.start_lsn != header:
                    # The read started over at a new header: a
                    # checkpoint rewrote the file (or the first read
                    # found a compacted one).
                    header = record.end.start_lsn
                    in_snapshot = True
                    if resumed is not None:
                        self.metrics.counter('replica.rotations')
                self._engine.apply_wal_record(record.kind, record.data)
                self.applied_lsn, self._position = record.lsn, record.end
                applied += 1
                if in_snapshot:
                    if record.kind == 'checkpoint':
                        in_snapshot = False
                    else:
                        continue       # never stop mid-snapshot
                if upto is not None and record.lsn >= upto:
                    break
            if applied:
                self.metrics.counter('replica.records_applied', applied)
                self.metrics.counter('replica.catch_up_seconds',
                                     time.perf_counter() - started)
        return applied

    def rows(self, name: str, *, min_lsn: int | None = None):
        """Read a table or view at the replica's applied LSN.  With
        ``min_lsn``, catch up first when behind — the read-your-writes
        guarantee."""
        with self._lock:
            if min_lsn is not None and self.applied_lsn < min_lsn:
                self.catch_up(upto=min_lsn)
            return self._engine.rows(name)

    def database(self) -> Database:
        """Frozen base-table snapshot at the replica's applied LSN."""
        with self._lock:
            return self._engine.database()

    def close(self) -> None:
        self._engine.close()

    def __enter__(self) -> 'ReplicaEngine':
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ReplicaSet:
    """Read-routing over one primary and its replicas.

    Reads rotate round-robin over the replicas.  A routed replica
    behind the log catches up before serving; ``read(..., min_lsn=n)``
    instead waits only for LSN n, which guarantees read-your-writes for
    a session that committed there.  Writes never route here — they
    stay on the primary, whose WAL feeds every replica.

    ``primary`` is any object exposing ``rows(name)`` and a
    ``commit_lsn`` attribute — an in-process
    :class:`~repro.rdbms.engine.Engine`, or a process shard whose
    worker owns the log the replicas tail.

    **Degradation.**  A replica whose tail *raises* (truncated log
    file, backend error, injected fault) is quarantined — dropped from
    the rotation (the monotonic ``replica.quarantines`` counter ticks,
    and the ``replica.quarantined``/``replica.in_rotation`` gauges of
    :meth:`metrics_snapshot` move) — and the read retries on the
    remaining replicas, falling back to the primary when none are
    left.  A replica whose tail merely *stalls* (catch-up applies
    nothing and the freshness bound is still unmet) keeps its place in
    the rotation but the bounded read degrades to the primary
    (``replica.stalled_reads``): staleness bounds are honoured, and
    errors never propagate to the reader.  ``reinstate()`` restores
    quarantined replicas and the gauges with them.
    """

    def __init__(self, primary, replicas):
        self.primary = primary
        self.replicas = list(replicas)
        self._lock = threading.Lock()
        self._cursor = 0
        self._quarantined: list[ReplicaEngine] = []
        #: the router's own counters, exported from zero; the rotation
        #: gauges are read off the rotation by :meth:`metrics_snapshot`
        self.metrics = MetricsRegistry()
        for key in ('replica_reads', 'primary_reads', 'catch_ups',
                    'quarantines', 'stalled_reads'):
            self.metrics.counter(f'replica.{key}', 0)

    def commit_lsn(self) -> int:
        """The primary's newest committed LSN — the token a session
        passes back as ``min_lsn`` to read its own writes."""
        return self.primary.commit_lsn

    def _pick(self) -> 'ReplicaEngine | None':
        with self._lock:
            if not self.replicas:
                return None
            replica = self.replicas[self._cursor % len(self.replicas)]
            self._cursor += 1
        return replica

    def _unmet(self, replica: ReplicaEngine, min_lsn: int | None) -> bool:
        """Whether ``replica`` misses a read's freshness bound: behind
        ``min_lsn`` when given, else behind the log at all."""
        if min_lsn is not None:
            return replica.applied_lsn < min_lsn
        return replica.lag() > 0

    def read(self, name: str, *, min_lsn: int | None = None):
        """Route one read.  Serves from the primary when the set has no
        (healthy) replicas or the routed replica cannot meet the
        freshness bound; quarantines a replica that raises and retries
        (see class docstring)."""
        while True:
            replica = self._pick()
            if replica is None:
                break                       # no healthy replica left
            try:
                if self._unmet(replica, min_lsn):
                    replica.catch_up(upto=min_lsn)
                    self.metrics.counter('replica.catch_ups')
                    if self._unmet(replica, min_lsn):
                        # Stalled tail: the bound is unmet and another
                        # pass would apply nothing new.  Degrade this
                        # read to the primary; the replica stays in
                        # rotation (it may recover on its own).
                        self.metrics.counter('replica.stalled_reads')
                        break
                rows = replica.rows(name)
            except Exception:
                self.quarantine(replica)
                continue
            self.metrics.counter('replica.replica_reads')
            return rows
        self.metrics.counter('replica.primary_reads')
        return self.primary.rows(name)

    def quarantine(self, replica: ReplicaEngine) -> None:
        """Remove ``replica`` from the read rotation (idempotent).
        Called automatically when a replica's tail raises; callable
        directly by an operator."""
        with self._lock:
            if replica in self.replicas:
                self.replicas.remove(replica)
                self._quarantined.append(replica)
                self.metrics.counter('replica.quarantines')

    @property
    def quarantined(self) -> tuple:
        """The replicas currently out of rotation."""
        return tuple(self._quarantined)

    def reinstate(self, replica: 'ReplicaEngine | None' = None) -> int:
        """Return quarantined replicas (one, or all) to the rotation —
        the operator's lever once the underlying fault is fixed.
        Returns how many came back."""
        with self._lock:
            back = (list(self._quarantined) if replica is None
                    else [replica] if replica in self._quarantined
                    else [])
            for one in back:
                self._quarantined.remove(one)
                self.replicas.append(one)
        return len(back)

    def metrics_snapshot(self) -> dict:
        """This router's counters merged with every replica's,
        quarantined ones included (leaving the rotation must not make a
        counter go down), plus three gauges read off the rotation now:
        ``replica.in_rotation``, ``replica.quarantined`` and
        ``replica.lag``, the worst in-rotation lag (a file tail walks
        the frames past its cursor, unpickling none).  The shape is
        rdbms/metrics.py's, so a coordinator folds it into ``metrics()``."""
        with self._lock:
            rotation = list(self.replicas)
            quarantined = list(self._quarantined)
        gauges = {
            'replica.in_rotation': float(len(rotation)),
            'replica.quarantined': float(len(quarantined)),
            'replica.lag': float(max((r.lag() for r in rotation),
                                     default=0)),
        }
        return merge_snapshots(
            [self.metrics.snapshot(), {'gauges': gauges}]
            + [replica.metrics.snapshot()
               for replica in rotation + quarantined])

    def catch_up(self) -> int:
        """Bring every in-rotation replica fully up to date (records
        applied)."""
        return sum(replica.catch_up() for replica in self.replicas)

    def close(self) -> None:
        """Close the replicas, quarantined ones included (the
        primary's owner closes the primary)."""
        for replica in self.replicas + self._quarantined:
            replica.close()

    def __enter__(self) -> 'ReplicaSet':
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
