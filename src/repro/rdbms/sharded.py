"""A sharded engine over key-range partitions of the base tables.

The paper's putback strategies are *deterministic* Datalog programs, so
a sharded deployment must produce bit-identical source updates to a
single-node engine — the distribution setting of the companion work
("Making View Update Strategies Programmable — Toward Controlling and
Sharing Distributed Data").  :class:`ShardedEngine` partitions every
base table by a declared shard key across N inner
:class:`~repro.rdbms.engine.Engine` instances, each with its own
:class:`~repro.rdbms.backends.base.Backend` — hot shards on
``MemoryBackend``, cold shards on ``SQLiteBackend`` — and composes the
engine's reusable transaction pipeline (``apply_statements`` /
``prepare_commit`` / ``apply_prepared``) rather than reimplementing
it.

**Partitioning.**  ``shard_keys`` declares, per relation (and per
view), the attribute whose value a :class:`Partitioner` maps to a shard
index: :class:`HashPartitioner` (stable modular/CRC hashing) or
:class:`RangePartitioner` (an explicit ordered range map).  A view is
*shard-local* when it declares a shard key and every relation its
putback can reach — its ``update_closure``, its sources, and the base
tables transitively underneath — is partitioned on the **same-named**
attribute.  Shard-local view updates then decompose exactly: a view
delta routed to the shards owning its rows is translated by each
shard's own trigger pipeline, and the resulting source deltas land on
the same shard by construction (the putback preserves the key
variable).

**Global fallback.**  A strategy whose ``update_closure`` writes a
relation partitioned on a *different* key (or not partitioned at all)
cannot be routed shard-locally; running it on one shard against
partitioned sources would be silently wrong.  Such views fall back to
a documented single-shard **global** placement, detected at
:meth:`define_view` time: the view is pinned to the global shard,
shard 0, and every base table underneath it is demoted to global
placement too (its rows migrate to shard 0).  Demotion refuses — with a
:class:`~repro.errors.SchemaError` — when a base is already serving an
existing shard-local view, since one relation cannot be both
partitioned and pinned.

**Routing.**  INSERTs route by the inserted row's key; DELETEs route by
a key-binding WHERE or broadcast; UPDATEs that do not touch the shard
key broadcast (rows cannot move); UPDATEs that *assign* the shard key
are derived centrally — the target's rows are gathered from every
shard's transaction state, the single engine's ``derive_view_delta``
derives the UPDATE's delta from them, ``Delta.split`` routes it, and
each owning shard receives its share as DELETE + INSERT statements.
``get`` answers by scatter-gather union over the per-shard view
caches.

**Atomicity.**  A transaction prepares every touched shard first (plan
runs, ⊥-constraint checks, schema validation — everything that can
fail) and applies the prepared storage batches only after *all* shards
prepared, so an abort mid-transaction leaves every shard untouched.
Routing runs once per transaction and holds the per-shard statement
work until something needs the shards: when it has proved a single
participant, that shard stages, prepares and commits in one message
(``commit_local`` — one participant needs no prepare vote, and its own
append is the transaction's one commit point); any other transaction,
and one with a key-moving UPDATE (whose derivation reads the shards),
takes the two-phase path.

**Shard transports.**  The coordinator drives every shard through
one client (:class:`~repro.rdbms.procpool.ProcessShard`) that speaks
one primitive — ``submit(method, *args) → token``, ``drain(token) →
result or raise`` — to one server-side object
(:class:`~repro.rdbms.procpool.WorkerRuntime`: the shard's engine plus
per-transaction slots).  Every phase is *submit to each shard, drain
in serial order, raise the first error after draining all*: the order
tokens are drained in is the order the serial loop would have run the
calls, so the first error raised is the serial-identical one no matter
which shard failed first (the fuzz oracle's ``sharded-batched`` and
``sharded-procs`` axes pin this).  The protocol:

======================  ==========  ==================================
call                    awaited     may fail with
======================  ==========  ==================================
``commit_local``        at once     as the next three (worker death:
                                    decided from the log)
``apply_statements``    at barrier  translation, schema validation
``flush_reads``         at barrier  translation, ⊥-constraints
``txn_rows``            at once     as ``flush_reads``
``prepare_commit``      scatter     translation, ⊥-constraints, schema
``apply_prepared``      scatter     storage I/O (worker death: repaired)
``abort``               at once     never (best effort)
``rows``, ``snapshot``  scatter     unknown relation
``load``                scatter     schema validation, storage I/O
``commit_lsn``          scatter     transport only
``count``, ``has_cache``,
``define_view``,
``drop_view``,
``metrics``             at once     schema (catalog calls)
======================  ==========  ==================================

*At barrier*: the statement fan-out is pipelined — a transaction's
first call on a shard opens its slot there, and routing submits
(``queue_apply``/``queue_flush``) without waiting; a barrier before
any synchronous read, and before prepare, drains every outcome in
submission order.  *Scatter*: :meth:`ShardedEngine._scatter`.  On top
of the table every call may raise
:class:`~repro.errors.ShardUnavailableError` when its transport can
die.  The coordinator cannot tell which transport carries the calls and
never creates a thread on either; ``execution`` picks one, in the
constructor:

* ``'inline'`` — **in-process** (:class:`LocalShard`, the default):
  the runtime lives on the coordinator's heap and every call runs
  inside ``submit``, on the calling thread — a scatter *is* the serial
  loop.  *Lock*: a reader on another thread (``ViewServer`` has its
  own) never waits behind a transaction's prepare — prepare stages in
  Python; only a commit (``apply_prepared``, the last phase of
  ``commit_local``) and a load (``load``, ``apply_load``) write
  storage, and they exclude ``rows``/``snapshot`` per shard with a
  lock.  During the
  brief apply phase consistency is per shard: a multi-shard
  scatter-gather racing the apply may combine shards from either side
  of the commit (cross-shard snapshot isolation for readers is future
  work).  *Liveness*: the transport cannot die — ``alive`` is always
  true, ``restart`` does nothing, nothing is repaired.
* ``'processes'`` — one **worker process** per shard, escaping the
  GIL; the one way shards run concurrently (wire protocol and worker
  lifecycle: :mod:`repro.rdbms.procpool`).  *Lock*: the worker serves
  one call at a time, so a read simply waits its turn.  *Overlap*: a
  scatter's calls are all in flight before the first is drained — each
  worker computes while the coordinator waits on another's reply.
  *Liveness*: a dead or wedged worker surfaces as
  :class:`~repro.errors.ShardUnavailableError`; the cluster transaction
  aborts on every surviving shard (staging never touches storage, so
  abandoning it *is* rollback) and the worker is restarted from its
  log.

**Fault tolerance.**  With ``wal_dir`` set, *both* executions are
durable: each shard logs to ``wal_dir/shard-<i>.wal`` — in its engine
inline, *inside the worker* in process mode, where the fsynced append
is the commit point, a restarted worker replays the committed prefix,
and a worker killed *mid-apply* is repaired from its prepare reply
(:meth:`~repro.rdbms.procpool.ProcessShard._repair_apply`): a SIGKILL
anywhere in the 2PC loses no committed transaction.  A one-message
commit whose worker died after the request went out is decided from
the restarted worker's LSN
(:meth:`~repro.rdbms.procpool.ProcessShard._repair_local`): one past
the pre-commit LSN the client kept means it committed (the record is
read back from the log for the listeners), the same LSN means nothing
happened and the request is sent once more; a send that failed is a
clean abort.  What no log covers yet is the *coordinator* dying
between two shards' applies: that leaves a multi-shard transaction
half-committed (ROADMAP item 15).  A process cluster
*without* ``wal_dir`` recovers its workers the same way, from unsynced
logs in a temporary directory the engine owns and removes on
:meth:`ShardedEngine.close` — nothing outlives the engine.
``commit_lsn`` and read-replica routing work uniformly across both
modes (process-mode replicas tail the shard logs by file path).
``rpc_timeout`` turns a *wedged* worker into
:class:`~repro.errors.ShardUnavailableError` instead of a hung
coordinator, and ``transient_retries`` re-runs a cluster transaction
that aborted cleanly on a worker failure (never one whose apply phase
partially committed).  Fault injection for all of this lives in
:mod:`repro.rdbms.faults`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import weakref
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.core.strategy import UpdateStrategy
from repro.core.validation import ValidationReport
from repro.errors import SchemaError, ShardUnavailableError
from repro.rdbms.backends import (create_shard_backends,
                                  shard_backend_specs)
from repro.rdbms.dml import (Delete, Insert, Statement, Update,
                             derive_view_delta)
from repro.rdbms.engine import (DmlSurface, Engine, PreparedCommit,
                                ViewEntry, coalesce_buckets, unpack_commit)
from repro.rdbms.metrics import GLOBAL, MetricsRegistry, merge_snapshots
from repro.rdbms.placement import (HashPartitioner, Partitioner,
                                   RangePartitioner, decide_placement,
                                   resolve_key)
from repro.rdbms.procpool import LocalShard, ProcessPool
from repro.rdbms.replica import ReplicaEngine, ReplicaSet
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema

__all__ = ['Partitioner', 'HashPartitioner', 'RangePartitioner',
           'LocalShard', 'ShardedEngine']


def _remove_owned_logs(path: str, owner_pid: int) -> None:
    """The finalizer of an engine-owned log directory.  Pid-guarded
    like the worker pool's: a forked worker inherits it, and its exit
    must not delete the logs its siblings — and its own successor —
    recover from."""
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


class _ClusterTxn:
    """One cross-shard transaction's coordinator-side state: the
    per-shard transaction handles in **first-touched order** (the order
    prepare joins in); the statement work routed but not yet sent, as
    ``(shard index, target, statements)`` with ``statements`` ``None``
    for a flush gate (``routed`` is ``None`` once the transaction has
    gone to its shards); and the submission-order log of pipelined
    ``(shard, token)`` pairs — drained at the next barrier in exactly
    the order the serial loop would have executed the calls, so the
    first error to surface is the serial-identical one."""

    __slots__ = ('handles', 'routed', 'log')

    def __init__(self):
        self.handles: dict[int, object] = {}
        self.routed: list | None = []
        self.log: list[tuple[object, object]] = []


# ---------------------------------------------------------------------------
# The sharded engine
# ---------------------------------------------------------------------------


class ShardedEngine(DmlSurface):
    """N inner engines over key-range partitions, one backend each.

    Drop-in for :class:`~repro.rdbms.engine.Engine` on the DML surface
    (``insert``/``delete``/``update``/``execute``/``execute_many``/
    ``transaction``/``rows``/``database``/``load``/``define_view``).

    Parameters
    ----------
    shards:
        Shard count (default 2; inferred from ``backends`` or
        ``partitioner`` when those are given).
    backends:
        Per-shard storage — ``None``/a kind name for uniform shards, or
        a sequence mixing kinds and prebuilt Backend instances (hot
        shards in memory, cold shards in SQLite files); resolved by
        :func:`repro.rdbms.backends.create_shard_backends`.
    partitioner:
        A :class:`Partitioner` (default :class:`HashPartitioner`).
    shard_keys:
        ``{relation_or_view: attribute name (or position)}`` — the
        declared shard key of each partitioned relation.  Relations
        without a key are *global*: stored wholly on shard 0.
    execution:
        The shard transport: ``'inline'`` (runtimes on the
        coordinator's heap, every call on the calling thread; default)
        or ``'processes'`` (one worker process per shard, overlapped);
        results are bit-identical either way.
    rpc_timeout:
        Process execution only: seconds each RPC waits for its reply
        before the shard surfaces as
        :class:`~repro.errors.ShardUnavailableError` — a *wedged*
        worker (alive but stuck) no longer blocks the coordinator
        forever.  ``None`` waits indefinitely (the pre-timeout
        behaviour).
    transient_retries:
        Retry a cluster transaction up to this many times after a
        worker failure that aborted it *cleanly* (prepare-phase death,
        dropped RPC — the abort rolled every shard back and the dead
        worker was restarted).  An apply-phase failure that may have
        partially committed is never retried.  ``retry_backoff`` is the
        initial sleep between attempts, doubling each retry.
    """

    def __init__(self, schema: DatabaseSchema, *,
                 shards: int | None = None,
                 backends=None,
                 partitioner: Partitioner | None = None,
                 shard_keys: Mapping[str, str | int] | None = None,
                 batch_deltas: bool = True,
                 execution: str = 'inline',
                 wal_dir=None,
                 wal_sync: bool = True,
                 read_replicas: int = 0,
                 replica_max_lag: int = 0,
                 rpc_timeout: float | None = 120.0,
                 transient_retries: int = 0,
                 retry_backoff: float = 0.05,
                 retry_backoff_cap: float = 2.0,
                 retry_max_wait: float = 15.0):
        if execution not in ('inline', 'processes'):
            raise SchemaError(f"execution must be 'inline' or "
                              f"'processes', got {execution!r}")
        if transient_retries < 0:
            raise SchemaError(f'transient_retries must be >= 0, '
                              f'got {transient_retries}')
        if retry_backoff_cap <= 0:
            raise SchemaError(f'retry_backoff_cap must be > 0, '
                              f'got {retry_backoff_cap}')
        if retry_max_wait <= 0:
            raise SchemaError(f'retry_max_wait must be > 0, '
                              f'got {retry_max_wait}')
        if read_replicas < 0:
            raise SchemaError(f'read_replicas must be >= 0, '
                              f'got {read_replicas}')
        if shards is None:
            if partitioner is not None:
                shards = partitioner.n_shards
            elif backends is not None and \
                    not isinstance(backends, str) and \
                    hasattr(backends, '__len__'):
                shards = len(backends)
            else:
                shards = 2
        self.schema = schema
        self.partitioner = partitioner or HashPartitioner(shards)
        if self.partitioner.n_shards != shards:
            raise SchemaError(
                f'partitioner covers {self.partitioner.n_shards} shards '
                f'but {shards} were requested')
        self.batch_deltas = batch_deltas
        self.execution = execution
        self._transient_retries = transient_retries
        self._retry_backoff = retry_backoff
        # The exponential backoff is bounded twice (the uncapped
        # doubling could sleep for minutes at large transient_retries):
        # no single sleep exceeds ``retry_backoff_cap`` and the summed
        # sleeps never exceed ``retry_max_wait`` — the budget runs out
        # before the attempt count does, the retry loop gives up.
        self._retry_backoff_cap = retry_backoff_cap
        self._retry_max_wait = retry_max_wait
        #: coordinator-side instrumentation: cluster phase timings
        #: (route/prepare/apply), transaction counts, retry traffic.
        #: :meth:`metrics` merges this with every shard's own snapshot.
        self._metrics = MetricsRegistry()
        #: Post-commit hooks, with ``Engine.commit_listeners``'
        #: contract: each callable receives the applied
        #: :class:`~repro.rdbms.engine.PreparedCommit` of every shard
        #: that committed a non-empty batch, once, after the cluster
        #: apply phase — rebuilt from the frozen commit records the
        #: prepare replies carry, since worker engines live behind the
        #: RPC boundary.
        self.commit_listeners: list = []
        # Each shard logs to ``wal_dir/shard-<i>.wal`` — opened by the
        # shard engine inline, *inside the worker* in process mode.
        # Process shards (recovered from their logs) and read replicas
        # (fed by them) need logs even when no ``wal_dir`` asks for
        # durability: in a temporary directory the engine owns, and
        # unsynced — a directory removed on close buys no durability.
        self._remove_owned_logs = None
        wal_paths: list = [None] * shards
        if wal_dir is None and (read_replicas
                                or execution == 'processes'):
            wal_dir = tempfile.mkdtemp(prefix='repro-wal-')
            wal_sync = False
            self._remove_owned_logs = weakref.finalize(
                self, _remove_owned_logs, wal_dir, os.getpid())
        if wal_dir is not None:
            base = Path(wal_dir)
            base.mkdir(parents=True, exist_ok=True)
            wal_paths = [base / f'shard-{i}.wal'
                         for i in range(shards)]
        if execution == 'processes':
            #: owns the finalizer that reaps the workers on coordinator
            #: GC and interpreter exit
            self._reaper = ProcessPool(
                schema, shard_backend_specs(backends, shards),
                wal_paths=wal_paths, batch_deltas=batch_deltas,
                wal_sync=wal_sync, rpc_timeout=rpc_timeout)
            self.shards = self._reaper.shards
            #: the inner engines live in the workers under process
            #: execution; in-process introspection goes via .engines
            self.engines: tuple[Engine, ...] = ()
        else:
            self.shards = tuple(
                LocalShard(index, schema, backend,
                           batch_deltas=batch_deltas, wal_path=path,
                           wal_sync=wal_sync)
                for index, (backend, path) in enumerate(zip(
                    create_shard_backends(backends, schema, shards),
                    wal_paths)))
            self.engines = tuple(shard.runtime.engine
                                 for shard in self.shards)
        for engine in self.engines:
            # Planner statistics (define_view seed AND drift
            # re-plans) come from cluster-wide aggregated counts,
            # never from one shard's local sizes.  (Process workers
            # cannot call back mid-transaction: their define_view
            # seed is the aggregated stats the coordinator ships,
            # and drift re-plans use local counts — which only ever
            # changes a join order, never a result.)
            engine.stats_provider = self._aggregated_stats
        #: one ReplicaSet per shard (empty tuple when read_replicas=0):
        #: reads fan across them, writes stay on the shard primaries.
        self.replica_sets: tuple[ReplicaSet, ...] = ()
        if read_replicas:
            # Inline mode shares the primary's WriteAheadLog instance
            # (exact lag); process mode tails the worker's log by file
            # path — same committed prefix, torn tails excluded by
            # checksum — with the ProcessShard client as the primary.
            primaries = self.engines or self.shards
            feeds = [engine.wal for engine in self.engines] \
                or wal_paths
            self.replica_sets = tuple(
                ReplicaSet(primary,
                           [ReplicaEngine(schema, feed)
                            for _ in range(read_replicas)],
                           max_lag=replica_max_lag)
                for primary, feed in zip(primaries, feeds))
        self._entries: dict[str, ViewEntry] = {}
        #: relation/view -> None (partitioned) or the pinned shard index
        self._placement: dict[str, int | None] = {}
        #: partitioned relation/view -> (key position, key attribute)
        self._keys: dict[str, tuple[int, str]] = {}
        #: unresolved key declarations for views defined later
        self._pending_keys: dict[str, str | int] = {}
        for name, key in dict(shard_keys or {}).items():
            if name in schema:
                self._placement[name] = None
                self._keys[name] = resolve_key(schema[name], key)
            else:
                self._pending_keys[name] = key
        for rel in schema.names():
            self._placement.setdefault(rel, 0)

    # -- awaiting shards ----------------------------------------------

    def _scatter(self, calls) -> list:
        """Run ``(shard, method, *args)`` calls and return their
        results in call order — the one way the coordinator awaits
        several shards: submit every call, then :meth:`_drain_all`.
        Worker processes overlap between the submits and the drains;
        an in-process shard runs each call inside ``submit``, so there
        this *is* the serial loop."""
        return self._drain_all([(shard, shard.submit(method, *args))
                                for shard, method, *args in calls])

    @staticmethod
    def _drain_all(pending) -> list:
        """Drain every ``(shard, token)`` in order, then raise the
        first failure — the serial-identical error.  Every token is
        drained even after a failure (an undrained reply would sit in
        its channel forever)."""
        results, errors = [], []
        for shard, token in pending:
            try:
                results.append(shard.drain(token))
            except Exception as error:
                errors.append(error)
        if errors:
            raise errors[0]
        return results

    def _restart_dead(self) -> None:
        """Replace every shard whose transport died, so the *next*
        call finds a serving cluster."""
        for shard in self.shards:
            if not shard.alive:
                shard.restart()

    # -- configuration introspection ----------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def is_view(self, name: str) -> bool:
        return name in self._entries

    def view(self, name: str) -> ViewEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise SchemaError(f'unknown view {name!r}') from None

    def relations(self) -> tuple[str, ...]:
        return self.schema.names() + tuple(self._entries)

    def placement(self, name: str):
        """``'partitioned'`` or the pinned (global) shard index."""
        place = self._placement_of(name)
        return 'partitioned' if place is None else place

    def _placement_of(self, name: str) -> int | None:
        try:
            return self._placement[name]
        except KeyError:
            raise SchemaError(f'unknown relation {name!r}') from None

    def classifier(self, name: str):
        """The partition predicate of ``name`` — the row → shard map
        that :meth:`repro.relational.delta.Delta.split` routes deltas
        with.  Global relations map every row to their pinned shard."""
        place = self._placement_of(name)
        if place is not None:
            return lambda row: place
        key = self._keys[name][0]
        shard_of = self.partitioner.shard_of
        return lambda row: shard_of(row[key])

    # -- storage access ------------------------------------------------

    def _shard_min_lsns(self, min_lsn) -> list:
        """Normalise a read bound: ``None``, one int for every shard,
        or a per-shard sequence (what :attr:`commit_lsn` returned)."""
        if min_lsn is None or isinstance(min_lsn, int):
            return [min_lsn] * self.n_shards
        bounds = list(min_lsn)
        if len(bounds) != self.n_shards:
            raise SchemaError(
                f'min_lsn sequence covers {len(bounds)} shards, '
                f'engine has {self.n_shards}')
        return bounds

    def rows(self, name: str, *, min_lsn=None) -> frozenset:
        """Scatter-gather union of ``name`` across its shards (the
        whole relation/view, exactly as the single engine reports it).
        With read replicas attached the fan-out lands on them instead
        of the primaries (which then only see the write path);
        ``min_lsn`` (an int, or the per-shard tuple from
        :attr:`commit_lsn`) is the read-your-writes bound.  A primary's
        ``rows`` copies under the shard lock (or is serialised by the
        worker), so an apply phase cannot mutate the rows mid-copy.
        The snapshot is built in one pass over the reads: each
        replica's live set is copied once, straight into the result
        (a pinned relation's part, already frozen on a primary, is
        returned as it is)."""
        bounds = self._shard_min_lsns(min_lsn)
        place = self._placement_of(name)
        holders = range(self.n_shards) if place is None else (place,)
        if self.replica_sets:
            reads = [self.replica_sets[index].read(
                name, min_lsn=bounds[index]) for index in holders]
        else:
            reads = self._scatter((self.shards[index], 'rows', name)
                                  for index in holders)
        return frozenset(reads[0]) if place is not None \
            else frozenset().union(*reads)

    @property
    def commit_lsn(self) -> tuple[int, ...]:
        """Per-shard committed LSNs (zeros where a shard keeps no log:
        in-process shards without ``wal_dir``) — pass the
        tuple back to :meth:`rows` as ``min_lsn`` to read your own
        writes through the replicas.  :attr:`Engine.commit_lsn`'s name;
        the sharded commit point is a vector."""
        return tuple(self._scatter((shard, 'commit_lsn')
                                   for shard in self.shards))

    def shard_rows(self, name: str) -> tuple[frozenset, ...]:
        """Per-shard contents of ``name`` (diagnostics and tests)."""
        return tuple(shard.rows(name) for shard in self.shards)

    def _gather_primary(self, name: str) -> frozenset:
        """Union of ``name`` over the *primary* shards — what internal
        machinery (row migrations, statistics) must read regardless of
        replica routing."""
        place = self._placement_of(name)
        holders = range(self.n_shards) if place is None else (place,)
        return frozenset().union(*(self.shards[index].rows(name)
                                   for index in holders))

    def count(self, name: str) -> int:
        """Cluster-wide cardinality, aggregated from the per-shard
        :meth:`Backend.count` (global relations live on one shard and
        the others report zero)."""
        if name in self._entries:
            return len(self._gather_primary(name))
        self._placement_of(name)
        return sum(client.count(name) for client in self.shards)

    def database(self) -> Database:
        """A frozen snapshot of the cluster-wide base-table state."""
        merged: dict[str, set] = {}
        for snapshot in self._scatter((shard, 'snapshot')
                                      for shard in self.shards):
            for name in snapshot.names():
                merged.setdefault(name, set()).update(snapshot[name])
        return Database.from_dict(merged)

    def load(self, name: str, rows: Iterable[tuple]) -> None:
        """Bulk-load a base table, splitting the rows across shards."""
        if name in self._entries or name not in self.schema:
            raise SchemaError(f'{name!r} is not a base table')
        loaded = self.schema[name].loaded_rows(rows)
        classify = self.classifier(name)
        shares: dict[int, set] = {i: set() for i in range(self.n_shards)}
        for row in loaded:
            shares[classify(row)].add(row)
        # Every shard checks its share (its backend may refuse a value)
        # BEFORE any shard is replaced, like the single engine: a bad
        # row must not leave the cluster with a mix of old and new
        # shard contents.
        self._scatter((shard, 'prepare_load', name, shares[index])
                      for index, shard in enumerate(self.shards))
        self._scatter((shard, 'apply_load') for shard in self.shards)

    def close(self) -> None:
        """Close every replica set and every shard — an in-process
        shard closes its engine (the backend's connection), a process
        shard stops its worker — then remove the log directory
        if the engine owns it.  Idempotent."""
        for replica_set in self.replica_sets:
            replica_set.close()
        for shard in self.shards:
            shard.close()
        if self._remove_owned_logs is not None:
            self._remove_owned_logs()

    def __enter__(self) -> 'ShardedEngine':
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- view definition ----------------------------------------------

    def define_view(self, strategy: UpdateStrategy, *,
                    report: ValidationReport | None = None,
                    validate_first: bool = True,
                    use_incremental: bool = True,
                    exist_ok: bool = False) -> ViewEntry:
        """Register an updatable view on every shard.

        Validation runs once here (not once per shard); each inner
        engine compiles against the *aggregated* cluster-wide
        cardinalities so the per-shard planners see the same join-order
        statistics a single node would.

        ``exist_ok`` makes registration idempotent: shards that already
        carry the view (their WAL replay re-registered it during
        recovery) adopt it instead of raising, and a coordinator that
        already lists it returns the existing entry.  This is how a
        restarted coordinator rebuilds its catalog over the surviving
        shard logs — peers in the data-sharing network lean on it after
        a crash.
        """
        name = strategy.view.name
        if exist_ok and name in self._entries:
            return self._entries[name]
        report, get_program = self._certify_view(strategy, report,
                                                 validate_first)
        placement, demotions = decide_placement(
            strategy, get_program, self._pending_keys.get(name),
            schema=self.schema, entries=self._entries,
            placement=self._placement, keys=self._keys)
        stats = self._aggregated_stats()
        demoted: list[tuple[str, tuple[int, str]]] = []
        created_on: list = []
        entry: ViewEntry | None = None
        try:
            for shard in self.shards:
                shard_entry, created = shard.define_view(
                    strategy, report=report,
                    use_incremental=use_incremental, stats=stats,
                    exist_ok=exist_ok)
                if created:
                    created_on.append(shard)
                # Shard 0's entry (a pickled copy under process
                # execution) is the cluster's catalog record.
                entry = entry or shard_entry
            # Cluster bookkeeping runs only once every shard accepted
            # the view; demotions are ordered after that so a failed
            # define_view cannot leave bases demoted.
            for base in demotions:
                undo = (base, self._keys[base])
                self._demote_to_global(base)
                demoted.append(undo)
            self._entries[name] = entry
            self._placement[name] = placement
            if placement is None:
                self._keys[name] = resolve_key(strategy.view,
                                               self._pending_keys[name])
        except BaseException:
            # All-or-nothing across shards: a view registered on a
            # subset of the shards would wedge its name forever, and
            # bases demoted for a view that never materialised must get
            # their partitioned layout back.  Only the shards on which
            # THIS call created the view are rolled back — one that
            # merely adopted a WAL-recovered view (``exist_ok``) keeps
            # it, or the drop would durably delete a view this call
            # never defined.  (The failing shard unregisters itself;
            # one whose worker died is skipped — its restart replays a
            # log that never recorded this view.)
            for shard in created_on:
                try:
                    shard.drop_view(name)
                except ShardUnavailableError:
                    pass
            self._restart_dead()
            self._entries.pop(name, None)
            for base, key in reversed(demoted):
                self._repartition(base, key)
            raise
        return self._entries[name]

    def _demote_to_global(self, base: str) -> None:
        """Re-place a partitioned base wholly onto shard 0, the global
        shard (the rows migrate; the key declaration is dropped).  The
        gathered copy is the recovery source: if any shard's load
        fails mid-migration, the partitioned layout is restored from
        it rather than leaving rows duplicated or half-moved."""
        gathered = set(self._gather_primary(base))
        try:
            for index, client in enumerate(self.shards):
                client.load(base, gathered
                            if index == 0 else ())
        except BaseException:
            # _placement has not flipped yet, so a plain reload routes
            # the gathered copy back through the partitioned layout.
            self.load(base, gathered)
            raise
        self._placement[base] = 0
        self._keys.pop(base, None)

    def _repartition(self, base: str, key: tuple[int, str]) -> None:
        """Undo a demotion: restore the key declaration and spread the
        (now global-shard) rows back over the partitioned layout."""
        gathered = set(self._gather_primary(base))
        self._placement[base] = None
        self._keys[base] = key
        self.load(base, gathered)

    def _aggregated_stats(self) -> dict[str, int]:
        """Cluster-wide cardinalities for the per-shard planners."""
        stats = {name: sum(client.count(name)
                           for client in self.shards)
                 for name in self.schema.names()}
        for view in self._entries:
            place = self._placement.get(view)
            holders = [self.shards[place]] if place is not None \
                else list(self.shards)
            if all(client.has_cache(view) for client in holders):
                stats[view] = sum(client.count(view)
                                  for client in holders)
        return stats

    # -- observability --------------------------------------------------

    def metrics(self) -> dict:
        """One merged metrics snapshot for the whole cluster: the
        coordinator's own series (cluster phase timings, retry
        traffic), this process's GLOBAL series (plan seals), every
        shard's snapshot (txn phases, WAL append latency — a worker
        process ships its own over the channel and adds its
        transport's RPC/restart counts; a dead worker contributes
        nothing), and each shard's replica-set routing stats.  See
        rdbms/metrics.py for the snapshot shape."""
        snapshots: list = [self._metrics.snapshot(), GLOBAL.snapshot()]
        snapshots.extend(shard.metrics() for shard in self.shards)
        snapshots.extend(replica_set.metrics_snapshot()
                         for replica_set in self.replica_sets)
        return merge_snapshots(snapshots)

    # -- DML -----------------------------------------------------------

    def execute_many(self, batches: Sequence[tuple[str,
                                                   Sequence[Statement]]]
                     ) -> None:
        """One atomic transaction across shards: route every bucket,
        then commit — in one message when routing proved a single
        participant, else by two-phase commit: prepare every touched
        shard (every
        *logical* failure mode: translation, ⊥-constraints, schema
        validation), apply only when all prepared.  Shards prepare in
        *first-touched* order — the order their first bucket was
        staged — so a multi-view abort surfaces the same first
        violation a single engine's first-staged pending drain would.
        (Exact first-error parity covers translation and ⊥-constraint
        failures; an unvalidated strategy whose putback emits
        schema-invalid source rows may surface its row-validation
        error in shard rather than global staging order.)
        The apply phase carries the same trust the single engine
        places in ``Backend.apply_deltas``: a storage-level I/O
        failure there is not compensated (durable cross-shard 2PC
        logs are out of scope for this reproduction; every shard's
        apply is attempted even if a sibling's storage write fails —
        a partially applied batch is left only on storage-level I/O
        failure).

        How each phase is awaited — the pipelined statement fan-out and
        its barriers, the prepare and apply scatters — is the module
        docstring's protocol table.  Prepare only stages in Python, so
        abandoning every prepared shard's work *is* the rollback: any
        failure (including a worker death) aborts the transaction on
        every shard and restarts dead workers before re-raising.

        ``transient_retries`` re-runs the transaction after a
        :class:`ShardUnavailableError` that aborted it *cleanly* —
        nothing was committed anywhere, and the restarted worker
        recovered its full committed state from its log, so a fresh
        attempt is exactly a new transaction.  A failure in the apply
        phase is never retried: sibling shards may already have applied
        (and the repair path has already made every repairable case
        *succeed*), so what reaches the caller from apply is a genuine
        partial-commit report.  Nor is a one-message commit whose
        outcome its shard's log could not decide."""
        if self.batch_deltas:
            batches = coalesce_buckets(batches)
        metrics = self._metrics
        attempts = 0
        waited = 0.0
        while True:
            try:
                tokens = self._execute_cluster(batches)
                break
            except ShardUnavailableError as error:
                if getattr(error, 'applied', False) \
                        or attempts >= self._transient_retries:
                    if attempts:
                        metrics.counter('retry.giveups')
                    raise
                # Exponential backoff, bounded per attempt and in
                # total: an uncapped 2**n sleep at large
                # transient_retries would park the coordinator for
                # minutes on a shard that is simply gone.
                delay = min(self._retry_backoff * (2 ** attempts),
                            self._retry_backoff_cap)
                if waited + delay > self._retry_max_wait:
                    metrics.counter('retry.giveups')
                    raise
                attempts += 1
                waited += delay
                metrics.counter('retry.attempts')
                time.sleep(delay)
        # Outside the retry loop: a listener's failure is not the
        # transaction's, which has committed.
        commits = tuple(PreparedCommit(*unpack_commit(token.record))
                        for token in tokens if token.record is not None)
        if commits:
            for listener in self.commit_listeners:
                listener(commits)

    def _execute_cluster(self, batches) -> list:
        """One attempt of the routed commit (see :meth:`execute_many`);
        returns the touched shards' prepare tokens."""
        metrics = self._metrics
        timed = metrics.enabled
        started = time.perf_counter() if timed else 0.0
        txn = _ClusterTxn()
        try:
            for target, statements in batches:
                self._route_bucket(txn, target, statements)
            if txn.routed is not None and len(txn.handles) == 1:
                # Routing proved one participant: it stages, prepares
                # and commits in one message, with no prepare vote.
                # (Its flush gates are dropped: the shard's own
                # apply_statements runs the same gate first.)
                (index,) = txn.handles
                prepared = [self.shards[index].commit_local(
                    [(target, statements)
                     for _, target, statements in txn.routed
                     if statements is not None])]
                metrics.counter('cluster.txns')
                return prepared
            self._barrier(txn)
            if timed:
                routed = time.perf_counter()
                metrics.observe('cluster.route_seconds',
                                routed - started)
            order = [(self.shards[index], handle)
                     for index, handle in txn.handles.items()]
            prepared = self._scatter((shard, 'prepare_commit', handle)
                                     for shard, handle in order)
            if timed:
                metrics.observe('cluster.prepare_seconds',
                                time.perf_counter() - routed)
        except BaseException:
            metrics.counter('cluster.aborts')
            self._abort(txn)
            raise
        apply_started = time.perf_counter() if timed else 0.0
        try:
            self._scatter((shard, 'apply_prepared', commit)
                          for (shard, _), commit in zip(order, prepared))
            if timed:
                metrics.counter('cluster.txns')
                metrics.observe('cluster.apply_seconds',
                                time.perf_counter() - apply_started)
        except BaseException as error:
            # Apply carries the single engine's storage trust (see
            # above): no compensation, but a worker that died here is
            # restarted so the cluster keeps serving.  Mark the error
            # as apply-phase so the transient-retry wrapper never
            # re-runs a transaction that may have partially committed.
            self._restart_dead()
            if isinstance(error, ShardUnavailableError):
                error.applied = True
            raise
        return prepared

    def _barrier(self, txn: _ClusterTxn) -> None:
        """Send the routed work, then drain every pipelined outcome in
        submission order and raise the first failure
        (:meth:`_drain_all`)."""
        routed, txn.routed = txn.routed or (), None
        for work in routed:
            self._send(txn, *work)
        log, txn.log = txn.log, []
        self._drain_all(log)

    def _abort(self, txn: _ClusterTxn) -> None:
        """Roll the cluster transaction back: drain what is still in
        flight (outcomes no longer matter), drop every shard's staged
        state — none when nothing was sent — and restart any worker
        that died, so the *next* transaction finds a serving
        cluster."""
        if txn.routed is None:
            try:
                self._barrier(txn)
            except Exception:
                pass
            for index, handle in txn.handles.items():
                try:
                    self.shards[index].abort(handle)
                except Exception:
                    pass
        self._restart_dead()

    # -- routing internals --------------------------------------------

    def _handle(self, txn: _ClusterTxn, index: int):
        if index not in txn.handles:
            txn.handles[index] = self.shards[index].begin()
        return txn.handles[index]

    def _queue(self, txn: _ClusterTxn, index: int, target: str,
               statements: list | None = None) -> None:
        """Route a bucket's share — or, ``statements`` ``None``, a
        flush gate — to shard ``index``: held in ``txn.routed`` until
        the transaction goes to its shards, sent at once after that.
        Handle creation position fixes first-touched (prepare) order;
        queue position fixes error order — both on the routing
        thread."""
        self._handle(txn, index)
        if txn.routed is None:
            self._send(txn, index, target, statements)
        else:
            txn.routed.append((index, target, statements))

    def _send(self, txn: _ClusterTxn, index: int, target: str,
              statements: list | None) -> None:
        shard, handle = self.shards[index], txn.handles[index]
        txn.log.append((shard, shard.queue_flush(handle, target)
                        if statements is None
                        else shard.queue_apply(handle, target,
                                               statements)))

    def _forward(self, txn: _ClusterTxn, target: str,
                 per_shard: dict[int, list[Statement]]) -> None:
        for index in sorted(per_shard):
            if per_shard[index]:
                self._queue(txn, index, target, per_shard[index])

    def _route_bucket(self, txn: _ClusterTxn, target: str,
                      statements: Sequence[Statement]) -> None:
        try:
            place = self._placement_of(target)
        except SchemaError:
            # A coordinator-side routing error must not outrank a
            # failure already in flight from an earlier bucket — the
            # serial loop would have hit that one first.
            self._barrier(txn)
            raise
        if not statements:
            # Mirror Engine.apply_statements exactly: an empty bucket
            # is a no-op BEFORE the flush gate, so it cannot split a
            # batched translation the single engine would coalesce.
            return
        # Cluster-wide statement-order gate, mirroring the single
        # engine's _flush_for_read: before ANY shard processes a bucket
        # on ``target``, every shard holding a pending view translation
        # that could still write ``target`` (or reads it as a source)
        # must drain it.  Without this, two faults routed to different
        # shards can surface in a different order than on a single
        # node — committing the same state but raising a different
        # error type, which the differential oracle forbids.  The
        # drains are independent plan runs, one per shard, pipelined
        # like the statements — per-shard FIFO keeps each shard's gate
        # ahead of this bucket's statements.
        for index in list(txn.handles):
            self._queue(txn, index, target)
        if place is not None:
            self._queue(txn, place, target, statements)
            return
        key_pos, key_attr = self._keys[target]
        per_shard: dict[int, list[Statement]] = {}

        def stage(index: int, statement: Statement) -> None:
            per_shard.setdefault(index, []).append(statement)

        def stage_by_where(statement: Delete | Update) -> None:
            routed = self._where_shard(target, statement.where, key_attr)
            for index in range(self.n_shards) if routed is None \
                    else (routed,):
                stage(index, statement)

        for statement in statements:
            if isinstance(statement, Insert):
                row = tuple(statement.values)
                if len(row) <= key_pos:
                    # Arity error: forward anywhere, the shard's schema
                    # validation produces the canonical SchemaError.
                    stage(0, statement)
                else:
                    stage(self.partitioner.shard_of(row[key_pos]),
                          statement)
            elif isinstance(statement, Delete):
                stage_by_where(statement)
            elif isinstance(statement, Update):
                if key_attr in statement.assignments:
                    # Rows may change owner: derive centrally, then
                    # re-emit as per-shard DELETE + INSERT.  Forward
                    # what is already staged first so statement order
                    # is preserved on every shard.
                    self._forward(txn, target, per_shard)
                    per_shard = {}
                    self._route_moving_update(txn, target, statement)
                else:
                    stage_by_where(statement)
            else:
                self._barrier(txn)   # in-flight failures rank first
                raise SchemaError(f'unknown statement {statement!r}')
        self._forward(txn, target, per_shard)

    def _where_shard(self, target: str, where,
                     key_attr: str) -> int | None:
        """The single shard a WHERE pins, when it binds the shard key
        to a constant; ``None`` means broadcast.  A mapping naming an
        unknown column is never pinned: the single engine raises its
        SchemaError from the first row it scans (and stays silent on
        an empty relation), and only a broadcast reproduces that
        data-dependent behavior."""
        if isinstance(where, Mapping) and key_attr in where and \
                set(where) <= set(self._target_schema(target).attributes):
            return self.partitioner.shard_of(where[key_attr])
        return None

    def _target_schema(self, target: str) -> RelationSchema:
        if target in self._entries:
            return self._entries[target].schema
        return self.schema[target]

    def _route_moving_update(self, txn: _ClusterTxn, target: str,
                             statement: Update) -> None:
        """An UPDATE that assigns the shard key: gather the target's
        rows from every shard's transaction state, derive the UPDATE's
        (Δ⁺, Δ⁻) from them with the single engine's
        :func:`~repro.rdbms.dml.derive_view_delta`, split it by the
        partition predicate (:meth:`Delta.split` — deletions route by
        the old row's owner, insertions by the new row's), and re-emit
        each shard's share as DELETE + INSERT statements.

        The gather is a synchronous read, so every pipelined outcome
        submitted before it must surface first (:meth:`_barrier`) — a
        failed earlier translation stops the derivation exactly where
        it stops the serial loop.  Every shard's read (and so its flush
        errors) comes before the derivation's own errors, as on a
        single node, where the flush gate drains before the UPDATE
        reads its target."""
        schema = self._target_schema(target)
        key_attr = self._keys[target][1]
        pinned = self._where_shard(target, statement.where, key_attr)
        shards = range(self.n_shards) if pinned is None else (pinned,)
        self._barrier(txn)
        rows: set = set()
        for index in shards:
            rows.update(self.shards[index].txn_rows(
                self._handle(txn, index), target))
        moved = derive_view_delta([statement], rows, schema)
        merged: dict[int, list[Statement]] = {}
        for index, part in sorted(
                moved.split(self.classifier(target)).items()):
            # UPDATE is deletions followed by insertions (App. D):
            # keep that order on every shard.
            merged[index] = \
                [Delete(dict(zip(schema.attributes, row)))
                 for row in sorted(part.deletions)] + \
                [Insert(row) for row in sorted(part.insertions)]
        self._forward(txn, target, merged)
