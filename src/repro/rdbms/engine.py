"""An RDBMS with programmable updatable views over pluggable storage.

This is the execution substrate substituting for PostgreSQL (§6.1): base
tables, views defined by *validated* update strategies, and DML against
views translated to source updates by the trigger pipeline of the paper —

1. derive the view delta from the DML statements (Algorithm 2),
2. check the ⊥-constraints on the updated view,
3. evaluate the (incrementalized) putback program and apply ΔS.

Views can be layered: a strategy's "source relations" may themselves be
views (the paper's case study defines ``employees`` over the views
``residents`` and ``ced``), in which case the computed delta on a view
source recursively becomes a view update — the engine cascades the
translation down to base tables, atomically.

Storage and plan execution live behind the
:class:`~repro.rdbms.backends.base.Backend` interface: the engine holds
only the view catalog and the transaction pipeline, and talks to the
backend for table/cache contents, committed deltas, index hints, and
plan evaluation.  ``Engine(schema)`` defaults to the in-process
:class:`~repro.rdbms.backends.memory.MemoryBackend` (or whatever
``REPRO_BACKEND`` names); ``Engine(schema, backend='sqlite')`` stores
relations in SQLite and executes the compiled plans as SQL.

Performance model (what makes Figure 6 reproducible): a transaction
stages *deltas* and commits them in place, so an incrementalized update
touches O(|ΔV|) tuples — no full-table copies, no full-view
rematerialisation.  The full (original) putback path evaluates the
whole program against the updated view and is deliberately O(|S|), as
in the paper.

The transaction pipeline is *delta-batched*: statement buckets only
derive and stage view deltas (Algorithm 2, visible to later statements
in the same transaction); the staged deltas of each touched view are
coalesced by sequential composition (:class:`~repro.relational.delta.
Composition`) and the view's incremental/putback plan runs **once** per
transaction over the merged effective delta.  The pending queue drains
in first-staged (bucket) order — which respects the view dependency
topology precomputed at ``define_view`` time
(``ViewEntry.update_closure``), since a putback only cascades onto
already-defined views.  A transaction touching one view N times
therefore costs one plan evaluation, not N (O(#views × plan cost)
instead of O(#statements × plan cost)); pending translations are
forced early only when a later bucket touches a relation one of them
could still write — or reads as a source.  Constraint checks
consequently see the transaction's *net* effect — SQL's
deferred-constraint semantics, the one the paper's ``put(S, V')``
states: a transaction commits ``put(S, V')`` for its net view ``V'``
(``tests/test_put_oracle.py`` holds the engine to exactly that).

A one-row write should cost its rules and little else (the paper
deploys a strategy as one trigger per view, §6.1), so the frame around
the plan run resolves each fact once per transaction: one record per
touched relation (:class:`_Touched` — view entry, schema, stored rows,
evaluation handle, staged and pending deltas), ∂put's inputs named at
``define_view``, and the transaction's timings and counts recorded in
one registry call at commit.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Iterable, Mapping, Sequence

from repro.core.incremental import incrementalize_plan
from repro.core.lvgn import is_lvgn
from repro.core.strategy import UpdateStrategy
from repro.core.validation import ValidationReport, validate
from repro.datalog.ast import Program, delete_pred, insert_pred
from repro.datalog.plan import ExecutionPlan, compile_program
from repro.errors import SchemaError, ValidationError
from repro.rdbms.backends import Backend, create_backend
from repro.rdbms.dml import (Delete, Insert, Statement, Update,
                             derive_view_delta)
from repro.rdbms.metrics import MetricsRegistry
from repro.rdbms.wal import WriteAheadLog
from repro.relational.database import Database
from repro.relational.delta import Composition, Delta
from repro.relational.schema import DatabaseSchema, RelationSchema

__all__ = ['Engine', 'DmlSurface', 'Transaction', 'ViewEntry',
           'PreparedCommit', 'coalesce_buckets', 'unpack_commit']

#: Off the transaction path: only a view falling back from ∂put to the
#: full putback (at ``define_view``) logs here.
_log = logging.getLogger(__name__)


@dataclass
class ViewEntry:
    """Everything the engine knows about one updatable view.

    Plans are compiled exactly once, at :meth:`Engine.define_view` time,
    and reused verbatim for every subsequent ``insert``/``delete``/
    ``update``/``execute_many`` batch — the engine's analogue of the
    SQL triggers BIRDS installs ahead of time.  Backends may compile
    further (the SQLite backend lowers these plans to SQL in its
    ``register_view`` hook).  Join orders follow the cardinalities seen
    at that moment and are not revisited as tables grow or shrink:
    ``drop_view`` + ``define_view`` re-seeds them from the current
    counts.
    """

    strategy: UpdateStrategy
    get_program: Program
    get_plan: ExecutionPlan
    incremental_program: Program | None
    incremental_plan: ExecutionPlan | None
    lvgn: bool
    use_incremental: bool
    source_names: tuple[str, ...]
    base_closure: frozenset  # base tables transitively underneath
    update_closure: frozenset  # relations the putback can write,
    #                            transitively through view sources
    #: Why incrementalization failed for this view (the view then runs
    #: the O(|S|) full putback); None when it did not.
    incremental_error: str | None = None
    # Named once here rather than on every flush: the view's schema,
    # ∂put's staged inputs ``+v`` / ``-v``, and the relations its
    # delta goals may write.
    schema: RelationSchema = field(init=False)
    name: str = field(init=False)
    delta_names: tuple[str, str] = field(init=False)
    updated: frozenset = field(init=False)

    def __post_init__(self):
        self.schema = self.strategy.view
        self.name = self.schema.name
        self.delta_names = (insert_pred(self.name), delete_pred(self.name))
        self.updated = self.strategy.updated_relations()

    def plans(self) -> tuple[ExecutionPlan, ...]:
        """The plans this view runs (for index pre-building): the get
        plan and ∂put, or the full putback when ∂put is not used — an
        index only a plan that never runs reads would still cost every
        write its maintenance."""
        return (self.get_plan, self.incremental_plan if self.use_incremental
                else self.strategy.putdelta_plan)


@dataclass
class PreparedCommit:
    """The outcome of :meth:`Engine.prepare_commit`: the storage batch
    plus cache bookkeeping, with every failure mode already behind us.
    Applying it (:meth:`Engine.apply_prepared`) only writes."""

    batch: list          # (name, delta, is_cache) triples
    changed_bases: set
    keep: set            # touched views whose caches stay valid
    #: Opaque durable sidecar the transaction carries into its commit
    #: record (e.g. a peer link's receive watermark, made durable
    #: atomically with the delta it acknowledges).  Replay collects
    #: notes into ``Engine.replayed_notes`` without interpreting them.
    note: object = None
    #: What the transaction measured up to its prepare, recorded with
    #: the commit's own sample in one registry call
    #: (:meth:`Engine.apply_prepared`): ``(histogram, seconds)`` pairs
    #: and the names of counters to tick.
    samples: list = field(default_factory=list, repr=False, compare=False)
    counters: list = field(default_factory=list, repr=False, compare=False)

    def wal_record(self) -> tuple:
        """The frozen ``commit`` record payload for this batch — what
        the WAL appends, and what a process-shard coordinator keeps
        from the prepare phase so it can re-commit the transaction on a
        worker that died before its append (apply repair).  The payload
        stays the historical 3-tuple unless a note is attached, so logs
        written before notes existed replay unchanged."""
        frozen = [(name, Delta(frozenset(delta.insertions),
                               frozenset(delta.deletions)), is_cache)
                  for name, delta, is_cache in self.batch]
        record = (frozen, frozenset(self.changed_bases),
                  frozenset(self.keep))
        if self.note is not None:
            record += (self.note,)
        return record


def unpack_commit(data: tuple) -> tuple:
    """Normalise a ``commit`` record payload to
    ``(batch, changed_bases, keep, note)`` — accepts both the
    historical 3-tuple and the note-carrying 4-tuple."""
    if len(data) == 3:
        return data + (None,)
    batch, changed_bases, keep, note = data
    return batch, changed_bases, keep, note


def coalesce_buckets(batches: Sequence[tuple[str, Sequence[Statement]]]
                     ) -> list[tuple[str, list[Statement]]]:
    """Merge *adjacent* statement buckets on the same target into one.

    Algorithm 2 folds a statement sequence into a single delta, and the
    fold is associative: two back-to-back buckets on the same target
    derive exactly the composition one concatenated bucket derives
    (each statement still sees the running state of everything before
    it).  Nothing observes the bucket boundary — translation and
    constraint checks are deferred to commit either way — so this is
    pure overhead removal: a transaction built as N single-statement
    buckets (the OLTP shape) pays one routing, derivation and staging
    pass instead of N."""
    out: list[tuple[str, list[Statement]]] = []
    for target, statements in batches:
        if out and out[-1][0] == target:
            out[-1][1].extend(statements)
        else:
            out.append((target, list(statements)))
    return out


class _Touched:
    """One relation's share of a transaction, resolved once — when the
    transaction first reads or writes the relation: its view entry
    (None for a base table) and schema, the backend's evaluation handle
    and stored rows (fetched on the first read: a relation that is only
    evaluated over never has its rows handed to Python), and what the
    transaction staged on it.

    ``delta`` is everything staged on the relation, ``overlay`` the
    stored rows with it applied (built only when the relation is read
    again after staging), and ``origins`` who staged it.  A view also
    carries its *pending* share for the batched pipeline: the staged
    but untranslated delta ∂put runs over, the origins that staged it,
    and ``pre``, the evaluation handle of the view before it — what
    the single plan run reads as the old ``v``.  A staged delta is
    held as it arrives (a frozen :class:`Delta`); a
    :class:`Composition` is built only when a second one comes."""

    __slots__ = ('entry', 'schema', 'stored', 'handle', 'delta', 'overlay',
                 'origins', 'pending', 'pending_origins', 'pre')

    def __init__(self, entry, schema, handle):
        self.entry = entry
        self.schema = schema
        self.handle = handle
        self.stored = None
        self.delta = None
        self.overlay = None
        self.origins = set()
        self.pending = None
        self.pending_origins = None
        self.pre = None


def _then(staged, delta):
    """``staged`` followed by ``delta``: a :class:`Composition` of the
    two — ``staged`` itself once it is one."""
    if staged.__class__ is not Composition:
        staged = Composition(staged.insertions, staged.deletions)
    staged.then(delta.insertions, delta.deletions)
    return staged


#: The origin of a base-table bucket's writes.
_DIRECT = ('<direct>',)


class _Working:
    """Uncommitted transaction state: one :class:`_Touched` record per
    relation the transaction has read or written, the queue of views
    with a pending (staged but untranslated) delta that the batched
    pipeline drains once per transaction, and what the transaction
    measured but has not yet recorded.

    Each staged write is tagged with its *origins* (the top-level DML
    targets, or ``'<direct>'`` for base-table DML) so commit can decide
    which view caches remain consistent: a view maintained by origin O is
    stale when some base underneath it was also written by a different
    origin in the same transaction."""

    def __init__(self, engine: 'Engine'):
        self.engine = engine
        self.touched: dict[str, _Touched] = {}
        # Views with a pending delta, in first-staged (bucket) order.
        self.pending: dict[str, _Touched] = {}
        self.note: object = None
        # ``(histogram, seconds)`` samples and counter names, recorded
        # in one registry call at commit (or when the transaction is
        # abandoned: Engine.abort).
        self.samples: list = []
        self.counters: list = []

    def touch(self, name: str) -> _Touched:
        """``name``'s record, resolved on first use: a view's cache is
        materialised here, once per transaction."""
        engine = self.engine
        entry = engine._views.get(name)
        if entry is not None:
            schema = entry.schema
            if not engine.backend.has_cache(name):
                engine._ensure_view_cache(name)
        else:
            schema = engine._bases.get(name)
            if schema is None:
                raise SchemaError(f'unknown relation {name!r}')
        touched = self.touched[name] = _Touched(
            entry, schema, engine.backend.eval_handle(name))
        return touched

    def rows(self, name: str):
        """Current contents of ``name`` as seen inside the transaction.

        The overlay is built at most once per relation and then updated
        in place by :meth:`stage` (O(|Δ|) per statement, not O(|R|)).
        Treat the result as read-only; it is the backend's live set
        (:meth:`Backend.rows`) or the transaction's mutable overlay."""
        touched = self.touched.get(name) or self.touch(name)
        stored = touched.stored
        if stored is None:
            stored = touched.stored = self.engine.backend.rows(name)
        delta = touched.delta
        if delta is None:
            return stored
        overlay = touched.overlay
        if overlay is None:
            overlay = touched.overlay = set(stored)
            overlay -= delta.deletions
            overlay |= delta.insertions
        return overlay

    def probe(self, name: str, positions: tuple[int, ...], key: tuple):
        """:meth:`Backend.probe` while :meth:`rows` is still the stored
        relation; None (no index: scan) once it is the transaction's
        copied overlay, a plain set."""
        if self.touched[name].delta is None:
            return self.engine.backend.probe(name, positions, key)
        return None

    def stage(self, touched: _Touched, delta, origins) -> None:
        """Stage ``delta`` — effective on the relation's current rows,
        so free of contradictions — on ``touched``'s relation."""
        touched.origins.update(origins)
        if not (delta.insertions or delta.deletions):
            return
        # Everything a commit logs and applies was staged here first:
        # refuse now what the backend cannot hold — once the log has
        # the row it is too late, and a view row would otherwise fail
        # to bind when the backend stages it for ∂put.
        self.engine.backend.check_storable(touched.schema, delta.insertions)
        staged = touched.delta
        touched.delta = delta if staged is None else _then(staged, delta)
        overlay = touched.overlay
        if overlay is not None:
            overlay -= delta.deletions
            overlay |= delta.insertions


class DmlSurface:
    """What :class:`Engine` and the sharded engine share above their
    transaction pipelines: the statement shorthands, each one a
    one-bucket :meth:`execute_many`, and the checks ``define_view``
    runs before it compiles anything.  A subclass supplies ``schema``,
    ``is_view`` and ``execute_many``."""

    def insert(self, target: str, values: tuple) -> None:
        self.execute(target, [Insert(tuple(values))])

    def delete(self, target: str, where=None) -> None:
        self.execute(target, [Delete(where)])

    def update(self, target: str, assignments: Mapping[str, object],
               where=None) -> None:
        self.execute(target, [Update(assignments, where)])

    def transaction(self) -> 'Transaction':
        return Transaction(self)

    def execute(self, target: str, statements: Sequence[Statement]) -> None:
        """Run a statement sequence against one relation, atomically."""
        self.execute_many([(target, statements)])

    def _certify_view(self, strategy: UpdateStrategy,
                      report: ValidationReport | None,
                      validate_first: bool) -> tuple:
        """``(report, view definition)`` for a new view, or raise: the
        name must be free, every relation the strategy updates must
        exist, and the definition is the certified one of ``report``
        (computed here under ``validate_first``) or, unvalidated,
        ``strategy.expected_get``."""
        name = strategy.view.name
        if name in self.schema or self.is_view(name):
            raise SchemaError(f'relation {name!r} already exists')
        for source in strategy.updated_relations():
            if source not in self.schema and not self.is_view(source):
                raise SchemaError(
                    f'view {name!r} updates unknown relation {source!r}')
        if report is None and validate_first:
            report = validate(strategy)
        if report is not None:
            report.raise_if_invalid()
            get_program = report.view_definition
        else:
            get_program = strategy.expected_get
        if get_program is None:
            raise ValidationError(
                f'no certified view definition available for {name!r}')
        return report, get_program


class Engine(DmlSurface):
    """Base tables + updatable views, with atomic cascading updates.

    ``backend`` selects the storage/execution substrate by name
    (``'memory'``/``'sqlite'``), accepts a prebuilt
    :class:`~repro.rdbms.backends.base.Backend` instance, or defaults
    to the ``REPRO_BACKEND`` environment variable.  The memory backend
    keeps persistent hash indexes on tables and view caches — the role
    PostgreSQL's B-tree indexes play in the paper's Figure 6 experiment;
    the SQLite backend maintains real SQL indexes instead.
    """

    def __init__(self, schema: DatabaseSchema,
                 backend: str | Backend | None = None, *,
                 wal: 'str | WriteAheadLog | None' = None,
                 wal_sync: bool = True):
        self.schema = schema
        self.backend = create_backend(backend, schema)
        self._bases: dict[str, RelationSchema] = {
            relation.name: relation for relation in schema}
        self._views: dict[str, ViewEntry] = {}
        # Durability: with a WAL attached, every committed transaction
        # appends its PreparedCommit batch *before* storage is touched
        # (the append is the commit point), and opening an engine on an
        # existing log replays the committed prefix — see rdbms/wal.py.
        # ``_wal_defines`` keeps each view's resolved define_view record
        # payload so checkpoint() can re-emit the catalog.
        if wal is not None and not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal, sync=wal_sync)
        self.wal = wal
        self._wal_replaying = False
        self._wal_defines: dict[str, tuple] = {}
        # One committer at a time: :meth:`execute_many` holds this
        # from ``begin`` to ``apply_prepared``, so no transaction
        # prepares against a state another is about to change.  It is
        # taken before ``_plan_lock``, never inside it.
        self._commit_lock = threading.Lock()
        # Lazy view materialisation, which a concurrent reader can race
        # a transaction on: two threads both missing the cache build it
        # once.
        self._plan_lock = threading.RLock()
        #: Post-commit hooks: each callable receives a sequence of
        #: applied :class:`PreparedCommit` objects — ``(prepared,)``
        #: here, one per shard that applied on a sharded engine — after
        #: storage is updated, only for a non-empty batch and never
        #: during WAL replay (recovery must not re-publish).  The peer
        #: network subscribes here to ship committed view deltas.  Hooks
        #: run under the commit lock, so one must not commit on the
        #: engine that calls it.
        self.commit_listeners: list = []
        #: Durable notes collected while replaying the WAL (from
        #: note-carrying commit records and standalone ``note``
        #: records, in log order).  Consumers that embedded state into
        #: the log — peer link watermarks — read it back here after
        #: construction.
        self.replayed_notes: list = []
        #: Extra snapshot-record providers for :meth:`checkpoint`: each
        #: callable yields ``(kind, data)`` pairs appended after the
        #: base/catalog records, so sidecar state embedded in commit
        #: records survives log compaction.
        self.checkpoint_extras: list = []
        #: Hot-path instrumentation (see rdbms/metrics.py): transaction
        #: phase timings, plan compiles, WAL append latency.
        #: ``engine.metrics.enabled = False`` turns every hook into a
        #: single attribute check (pinned as call counts by
        #: ``tests/test_metrics.py::TestInstrumentationCost``).
        self.metrics = MetricsRegistry()
        if self.wal is not None:
            self.wal.metrics = self.metrics
        if self.wal is not None and self.wal.last_lsn:
            self._recover()

    def metrics_snapshot(self) -> dict:
        """This engine's metrics as a picklable dict, with the WAL's
        cumulative stats folded in as ``wal.*`` counters."""
        snap = self.metrics.snapshot()
        if self.wal is not None:
            counters = snap['counters']
            for key, value in self.wal.stats.items():
                if key == 'last_record_bytes':
                    snap['gauges']['wal.last_record_bytes'] = value
                else:
                    counters[f'wal.{key}'] = value
        return snap

    # -- durability (write-ahead log) --------------------------------------

    @property
    def commit_lsn(self) -> int:
        """The LSN of this engine's newest committed record (0 without
        a WAL) — what a read-your-writes session passes as ``min_lsn``."""
        return self.wal.last_lsn if self.wal is not None else 0

    def _recover(self) -> None:
        """Replay the WAL's committed prefix into a fresh backend.
        Torn-tail truncation already happened when the log was opened,
        so every record seen here is a committed transaction or catalog
        operation."""
        self._wal_replaying = True
        try:
            for record in self.wal.records():
                self.apply_wal_record(record.kind, record.data)
        finally:
            self._wal_replaying = False

    def apply_wal_record(self, kind: str, data) -> None:
        """Apply one log record to this engine's state.  Shared by
        primary recovery and :class:`~repro.rdbms.replica.ReplicaEngine`
        catch-up — the replication path never re-runs ∂put/get plans,
        it replays exactly the deltas the primary computed."""
        if kind == 'load':
            name, rows = data
            self.backend.load(name, rows)
            self._invalidate_dependents({name})
        elif kind == 'define_view':
            strategy, report, use_incremental, stats = data
            # Replaying a checkpoint a reader has already seen: the
            # catalog entry exists, nothing to do.
            if strategy.view.name in self._views:
                return
            self.define_view(strategy, report=report,
                             validate_first=False,
                             use_incremental=use_incremental,
                             stats=stats)
        elif kind == 'drop_view':
            self.drop_view(data)
        elif kind == 'commit':
            batch, changed_bases, keep, note = unpack_commit(data)
            self._apply_logged_commit(batch, changed_bases, keep)
            if note is not None:
                self.replayed_notes.append(note)
        elif kind == 'note':
            self.replayed_notes.append(data)
        elif kind == 'checkpoint':
            pass  # end-of-snapshot sentinel; replica rotation marker
        else:
            raise SchemaError(f'unknown WAL record kind {kind!r}')

    def _apply_logged_commit(self, batch, changed_bases, keep) -> None:
        """Apply one logged transaction: the base-table deltas always,
        each view-cache delta only where a cache is actually
        materialised locally.  Cache bookkeeping mirrors
        :meth:`apply_prepared`/:meth:`_invalidate_dependents`, with one
        extra conservative rule: a view the primary *kept* but shipped
        no cache delta for (it had no materialisation there) cannot be
        maintained here either — drop ours rather than serve stale
        rows."""
        shipped = {name for name, _, is_cache in batch if is_cache}
        apply = [(name, delta, is_cache)
                 for name, delta, is_cache in batch
                 if not is_cache or self.backend.has_cache(name)]
        if apply:
            self.backend.apply_deltas(apply)
        for view, entry in self._views.items():
            if view in keep and view in shipped:
                continue
            if view in keep or entry.base_closure & changed_bases:
                self.backend.drop_cache(view)

    def _wal_append(self, kind: str, data) -> None:
        if self.wal is not None and not self._wal_replaying:
            self.wal.append(kind, data)

    def commit_logged(self, data: tuple) -> int:
        """Commit a transaction from its frozen ``commit`` record (the
        :meth:`PreparedCommit.wal_record` shape): append it — the
        commit point — then apply it through the logged-commit path.
        This is the coordinator's **apply repair**: the worker that
        prepared the batch died before its append, so the restarted
        worker commits the record the coordinator kept.  Returns the
        record's LSN."""
        if self.wal is None:
            raise SchemaError('commit_logged requires a write-ahead log')
        batch, changed_bases, keep, _note = unpack_commit(data)
        lsn = self.wal.append('commit', data)
        self._apply_logged_commit(batch, changed_bases, keep)
        return lsn

    def checkpoint(self) -> int:
        """Compact the WAL to a snapshot of current committed state
        (``load`` records for every base table, ``define_view`` records
        for the catalog) so recovery and new replicas replay
        O(|DB| + |tail|) instead of the full history.  Returns the new
        last LSN."""
        if self.wal is None:
            raise SchemaError('engine has no write-ahead log')

        def snapshot_records():
            database = self.backend.snapshot()
            for name in database.names():
                yield ('load', (name, frozenset(database[name])))
            for name in self._views:        # definition order = replay
                if name in self._wal_defines:  # order (sources first)
                    yield ('define_view', self._wal_defines[name])
            # Sidecar state embedded in commit records (peer link
            # watermarks) would vanish with the compacted history;
            # registered providers re-emit it into the snapshot.
            for provider in self.checkpoint_extras:
                yield from provider()
        return self.wal.checkpoint(snapshot_records())

    # -- basic access ------------------------------------------------------

    def is_view(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> ViewEntry:
        try:
            return self._views[name]
        except KeyError:
            raise SchemaError(f'unknown view {name!r}') from None

    def relations(self) -> tuple[str, ...]:
        return self.schema.names() + tuple(self._views)

    def _ensure_view_cache(self, name: str) -> None:
        """Materialise view ``name`` (and, recursively, its view
        sources) into the backend's cache storage.  Double-checked
        under ``_plan_lock`` so a concurrent reader and an in-flight
        transaction build the cache exactly once."""
        if self.backend.has_cache(name):
            return
        with self._plan_lock:
            if self.backend.has_cache(name):
                return
            entry = self._views[name]
            self.backend.materialize(entry, {s: self.eval_handle(s)
                                             for s in entry.source_names})

    def eval_handle(self, name: str):
        """The backend's evaluation handle for a table or (materialised)
        view — what compiled plans read when the relation is unstaged."""
        if name in self._views:
            self._ensure_view_cache(name)
        elif name not in self._bases:
            raise SchemaError(f'unknown relation {name!r}')
        return self.backend.eval_handle(name)

    def rows(self, name: str, *, min_lsn: int | None = None):
        """Contents of a base table or (materialized) view.

        Treat the result as read-only: it is the backend's live set
        (:meth:`Backend.rows`), updated in place by later commits —
        copy it to keep a snapshot.  ``min_lsn`` is the
        read-your-writes bound replica routing honors; on the primary
        every own commit is trivially visible, so it is accepted and
        ignored here (uniform read signature across Engine /
        ReplicaSet / ShardedEngine).
        """
        if name in self._views:
            self._ensure_view_cache(name)
        elif name not in self._bases:
            raise SchemaError(f'unknown relation {name!r}')
        return self.backend.rows(name)

    def database(self) -> Database:
        """A frozen snapshot of the base-table state."""
        return self.backend.snapshot()

    def load(self, name: str, rows: Iterable[tuple]) -> None:
        """Bulk-load a base table (replacing its contents)."""
        self.apply_load(name, self.prepare_load(name, rows))

    def prepare_load(self, name: str, rows: Iterable[tuple]) -> set:
        """Everything :meth:`load` does that can fail, with the log and
        storage untouched: ``rows`` as the checked set (the schema's
        types, and what the backend can store) that :meth:`apply_load`
        then stores."""
        if name in self._views or name not in self.schema:
            raise SchemaError(f'{name!r} is not a base table')
        loaded = self.schema[name].loaded_rows(rows)
        self.backend.check_storable(self.schema[name], loaded)
        return loaded

    def apply_load(self, name: str, loaded: set) -> None:
        """Store the set :meth:`prepare_load` returned (it is handed
        over to the backend): the log record first, then the table."""
        if self.wal is not None:
            self._wal_append('load', (name, frozenset(loaded)))
        self.backend.load(name, loaded)
        self._invalidate_dependents({name})

    def close(self) -> None:
        """Release backend resources (connections, files)."""
        if self.wal is not None:
            self.wal.close()
        self.backend.close()

    def __enter__(self) -> 'Engine':
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- view definition ---------------------------------------------------------

    def define_view(self, strategy: UpdateStrategy, *,
                    report: ValidationReport | None = None,
                    validate_first: bool = True,
                    use_incremental: bool = True,
                    stats: Mapping[str, int] | None = None,
                    exist_ok: bool = False) -> ViewEntry:
        """Register an updatable view.

        The strategy must be valid; pass a precomputed ``report`` to skip
        re-validation, or ``validate_first=False`` to trust the caller
        (the expected_get is then required and used as the view
        definition).  The plans compiled here are the view's for its
        lifetime; their join orders are seeded with the current
        cardinalities (re-seed by ``drop_view`` + ``define_view``).
        ``stats`` overrides those cardinalities — the sharded engine
        passes cluster-wide aggregated counts here, since any one
        shard's local sizes under-estimate the relation, and WAL replay
        the logged ones, so that recovery and replicas compile the same
        plans.  ``exist_ok`` adopts an
        already-registered view of the same name instead of raising —
        the restart idiom for engines recovered from a WAL, whose
        replay re-registered the catalog before the caller's setup code
        runs again.
        """
        name = strategy.view.name
        if exist_ok and name in self._views:
            return self._views[name]
        report, get_program = self._certify_view(strategy, report,
                                                 validate_first)

        metrics = self.metrics
        compile_started = perf_counter() if metrics.enabled else 0.0
        source_names = tuple(sorted(
            set(strategy.sources.names()) & (set(self.schema.names()) |
                                             set(self._views))))
        lvgn = is_lvgn(strategy.putdelta, name)
        if stats is None:
            stats = self._relation_stats()
        incremental_program = None
        incremental_plan = None
        incremental_error = None
        if use_incremental:
            try:
                incremental_program, incremental_plan = incrementalize_plan(
                    strategy, stats=stats)
            except Exception as exc:    # fall back to full put
                incremental_error = f'{type(exc).__name__}: {exc}'
                _log.warning('view %r: incrementalization failed, every '
                             'update runs the full putback (%s)',
                             name, incremental_error)
        closure: set[str] = set()
        for source in source_names:
            if source in self._views:
                closure |= self._views[source].base_closure
            else:
                closure.add(source)
        update_closure: set[str] = set()
        for updated in strategy.updated_relations():
            update_closure.add(updated)
            if updated in self._views:
                update_closure |= self._views[updated].update_closure
        entry = ViewEntry(strategy=strategy, get_program=get_program,
                          get_plan=compile_program(get_program,
                                                   stats=stats),
                          incremental_program=incremental_program,
                          incremental_plan=incremental_plan,
                          lvgn=lvgn,
                          use_incremental=use_incremental and
                          incremental_plan is not None,
                          source_names=source_names,
                          base_closure=frozenset(closure),
                          update_closure=frozenset(update_closure),
                          incremental_error=incremental_error)
        self._views[name] = entry
        try:
            self.backend.register_view(entry)
            self._register_index_hints(entry)
        except BaseException:
            # Exception safety: a backend that fails to compile or
            # index the view must not leave it half-registered.
            self._views.pop(name, None)
            raise
        # Log the *resolved* definition (certified report, chosen
        # incremental mode, the stats the plans were seeded with) so
        # recovery and replicas skip re-validation and re-derivation.
        record = (strategy, report, entry.use_incremental, dict(stats))
        self._wal_defines[name] = record
        self._wal_append('define_view', record)
        if metrics.enabled:
            metrics.counter('plan.compiles')
            metrics.observe('plan.compile_seconds',
                            perf_counter() - compile_started)
        return entry

    def drop_view(self, name: str) -> None:
        """Remove a view from the catalog (and drop its cache).  A
        no-op for unknown names, so coordinators can use it to roll
        back a partially propagated ``define_view``.  Refuses when
        another view still reads ``name`` as a source — dropping it
        would leave the catalog with dangling references.  The backend
        forgets what it kept under the name too (cache, index hints,
        compiled SQL): a hint that outlived its view would index a
        column position a narrower redefinition no longer has."""
        for other, entry in self._views.items():
            if other == name:
                continue
            if name in entry.source_names \
                    or name in entry.update_closure:
                raise SchemaError(
                    f'cannot drop view {name!r}: view {other!r} reads '
                    f'or updates it')
        if self._views.pop(name, None) is not None:
            self.backend.unregister_view(name)
            self._wal_defines.pop(name, None)
            self._wal_append('drop_view', name)

    def _relation_stats(self) -> dict[str, int]:
        """Observed cardinalities the planner seeds its join order with:
        current base-table sizes plus any already-materialised view."""
        stats = {name: self.backend.count(name)
                 for name in self.schema.names()}
        for view in self._views:
            if self.backend.has_cache(view):
                stats[view] = self.backend.count(view)
        return stats

    def _register_index_hints(self, entry: ViewEntry) -> None:
        """Pre-build the persistent access structures the view's
        compiled plans declare, the way a live RDBMS creates its B-trees
        at ``CREATE VIEW`` time rather than during the first update."""
        for plan in entry.plans():
            for pred, positions in plan.index_requirements:
                if pred not in self.schema and pred not in self._views:
                    continue  # delta inputs / auxiliary IDB predicates
                self.backend.add_index_hint(pred, positions)

    # -- DML -------------------------------------------------------------------

    def execute_many(self, batches: Sequence[tuple[str,
                                                   Sequence[Statement]]],
                     *, note: object = None) -> None:
        """One transaction spanning several targets (BEGIN ... END).

        ``note`` attaches an opaque durable sidecar to the
        transaction's commit record (see :class:`PreparedCommit.note`)
        — it becomes durable atomically with the deltas.  Calls on one
        engine commit one at a time, each preparing against the state
        the previous one left."""
        with self._commit_lock:
            working = self.begin()
            working.note = note
            try:
                for target, statements in coalesce_buckets(batches):
                    self.apply_statements(working, target, statements)
                prepared = self.prepare_commit(working)
            except BaseException:
                self.abort(working)
                raise
            self.apply_prepared(prepared)

    # -- the reusable transaction pipeline ---------------------------------
    #
    # A transaction is: ``begin()`` → ``apply_statements(...)`` per
    # statement bucket → ``prepare_commit()`` (everything that can
    # raise: pending translations, constraint checks, schema
    # validation) → ``apply_prepared()`` (pure storage writes), or
    # ``abort()`` instead of the last step.  The sharded engine drives
    # several engines through these pieces in lock-step — prepare on
    # every touched shard first, apply only once all shards prepared —
    # which is what makes a multi-shard abort leave every shard
    # untouched.
    #
    # Each phase appends its timing to the transaction
    # (``txn.apply_seconds`` per bucket, ``txn.flush_seconds`` and
    # ``txn.plan_runs`` per plan run, ``txn.prepare_seconds`` per
    # prepare); the commit adds its own and records them all with one
    # registry call, and ``abort`` records what an abandoned
    # transaction measured.

    def begin(self) -> _Working:
        """Open uncommitted transaction state (one per transaction)."""
        return _Working(self)

    def abort(self, working: _Working) -> None:
        """Abandon an open transaction.  Storage was never touched, so
        nothing is undone: only what the transaction measured so far is
        recorded."""
        if working.samples or working.counters:
            self.metrics.record(working.samples, working.counters)
            working.samples, working.counters = [], []

    def flush_reads(self, working: _Working, target: str) -> None:
        """Make ``target`` consistent for an out-of-band read inside
        the transaction: drain any pending view translation that could
        still write it (see :meth:`_flush_for_read`).  External
        coordinators (the sharded engine's cross-shard derivations)
        call this before reading ``working`` state directly."""
        self._flush_for_read(working, target)

    def apply_statements(self, working: _Working, target: str,
                         statements: Sequence[Statement]) -> None:
        """Run one statement bucket against ``working`` (derive and
        stage deltas; no storage is touched until commit)."""
        metrics = self.metrics
        started = perf_counter() if metrics.enabled else None
        try:
            if target not in self._views and target not in self._bases:
                raise SchemaError(f'unknown relation {target!r}')
            if not statements:
                return
            # Statement-order visibility: before this bucket reads
            # ``target``, translate any pending view delta that could
            # still write it (none is pending for the first bucket).
            if working.pending:
                self._flush_for_read(working, target)
            touched = working.touched.get(target) or working.touch(target)
            # Algorithm 2's delta is effective on the rows it was
            # derived against: staged as it is.
            delta = derive_view_delta(
                statements, working.rows(target), touched.schema,
                probe=partial(working.probe, target),
                counters=working.counters if started is not None else None)
            if touched.entry is None:
                working.stage(touched, delta, _DIRECT)
            elif delta.insertions or delta.deletions:
                self._defer_view_delta(working, touched, delta, (target,))
        finally:
            if started is not None:
                working.samples.append(('txn.apply_seconds',
                                        perf_counter() - started))

    def _defer_view_delta(self, working: _Working, view: _Touched,
                          delta: Delta, origins) -> None:
        """Stage a view delta — non-empty and effective on the view's
        current rows — visible to later statements at once, and queue
        it for the once-per-transaction batched translation."""
        if view.pending is None:
            name = view.entry.name
            # The view before the pending delta: the stored relation
            # while unstaged (on every backend it changes only at
            # commit), else a frozen copy, so that later overlay
            # updates cannot drift under the handle.
            view.pre = view.handle if view.delta is None \
                else frozenset(working.rows(name))
            view.pending = delta
            view.pending_origins = set(origins)
            working.pending[name] = view
        else:
            view.pending = _then(view.pending, delta)
            view.pending_origins.update(origins)
        working.stage(view, delta, origins)

    def _flush_for_read(self, working: _Working, target: str) -> None:
        """Conflict gate for statement-order visibility: a bucket on
        ``target`` both reads and writes it, so if any pending view
        could still *write* ``target`` (the bucket must see that write)
        or *reads* it as a source (the pending plan run must not see
        the bucket's write), drain the pending queue first."""
        for view in working.pending.values():
            entry = view.entry
            if target in entry.update_closure \
                    or target in entry.source_names:
                self._flush_pending(working)
                return

    def _flush_pending(self, working: _Working) -> None:
        """Drain the pending queue, one plan run per view, in
        first-staged (bucket) order; each flush recurses depth-first
        into its cascades.  The update graph is acyclic (strategies
        only update already-defined relations), so the drain
        terminates."""
        pending = working.pending
        while pending:
            self._flush_view(working, next(iter(pending)))

    def _flush_view(self, working: _Working, name: str) -> None:
        """The trigger pipeline for one view, run once over the
        composition of its pending deltas: evaluate ∂put (or the full
        putback) over the merged effective delta — the compiled program
        checks its own ⊥-rules first — and stage — or queue, for source
        views — the resulting ΔS."""
        view = working.pending.pop(name, None)
        if view is None:
            return
        staged, origins, view_handle = \
            view.pending, view.pending_origins, view.pre
        view.pending = view.pending_origins = view.pre = None
        entry = view.entry
        # The merged delta may keep a row written and undone since the
        # view was queued (in -v but not in v, or in +v and already in
        # v).  Such a row is still outside v' (a -v row) or inside it
        # (a +v row), which is all a ∂put rule asks of ±v on a steady
        # state.  Each source is read from storage while unstaged.
        touched = working.touched
        sources = {}
        for source in entry.source_names:
            record = touched.get(source) or working.touch(source)
            sources[source] = record.handle if record.delta is None \
                else working.rows(source)

        started = perf_counter() if self.metrics.enabled else None
        if entry.use_incremental:
            deltas = self.backend.evaluate_incremental_batch(
                entry, sources, view_handle, staged)
        else:
            deltas = self.backend.evaluate_putback(
                entry, sources, working.rows(name))
        if started is not None:
            working.samples.append(('txn.flush_seconds',
                                    perf_counter() - started))
            working.counters.append('txn.plan_runs')

        # The goals write only relations the strategy updates, each of
        # which ``define_view`` checked exists; their rows are staged
        # as far as they change the relation.
        for relation, (insertions, deletions) in deltas.items():
            record = touched.get(relation) or working.touch(relation)
            rows = working.rows(relation)
            delta = Delta(insertions - rows, deletions & rows)
            if not (delta.insertions or delta.deletions):
                continue
            if record.entry is not None:
                # Cascades translate depth-first: only *bucket* deltas
                # are coalesced across the transaction, and a view
                # queued after this one reads what the cascade writes.
                self._defer_view_delta(working, record, delta, origins)
                self._flush_view(working, relation)
            else:
                working.stage(record, delta, origins)

    def prepare_commit(self, working: _Working) -> 'PreparedCommit':
        """Everything commit does that can *fail*: drain the pending
        view translations (plan runs, ⊥-constraint checks) and validate
        every inserted base row — with storage still untouched.  The
        returned :class:`PreparedCommit` is then applied with
        :meth:`apply_prepared`; abandoning it (:meth:`abort`) aborts
        the transaction with no cleanup needed."""
        started = perf_counter() if self.metrics.enabled else None
        try:
            self._flush_pending(working)
            # One pass over the touched relations.  Every inserted base
            # row is validated before storage is touched, so a schema
            # error cannot leave a half-applied transaction behind
            # (whether the backend can hold them was asked when each
            # delta was staged — :meth:`_Working.stage`).
            batch: list[tuple[str, object, bool]] = []
            changed_bases: set[str] = set()
            views: list[_Touched] = []
            for name, touched in working.touched.items():
                delta = touched.delta
                if delta is None:
                    continue
                if touched.entry is None:
                    touched.schema.check_rows(delta.insertions)
                    batch.append((name, delta, False))
                    changed_bases.add(name)
                else:
                    # A staged view was materialised when first touched.
                    batch.append((name, delta, True))
                    views.append(touched)
            # A touched view's cache stays valid only when every write
            # under it came from its own update pipeline(s).
            keep: set[str] = set()
            for view in views:
                own = view.origins
                for base in view.entry.base_closure & changed_bases:
                    if working.touched[base].origins - own:
                        break
                else:
                    keep.add(view.entry.name)
            return PreparedCommit(batch=batch, changed_bases=changed_bases,
                                  keep=keep, note=working.note,
                                  samples=working.samples,
                                  counters=working.counters)
        finally:
            if started is not None:
                working.samples.append(('txn.prepare_seconds',
                                        perf_counter() - started))

    def apply_prepared(self, prepared: 'PreparedCommit') -> None:
        """Apply a prepared transaction: one backend delta batch plus
        cache invalidation bookkeeping.  Nothing here re-checks
        constraints or schemas — that all happened in
        :meth:`prepare_commit`.

        With a WAL attached the transaction's coalesced deltas are
        appended first — the append is the commit point; a crash after
        it replays the transaction, a crash before it aborts cleanly
        (committed-prefix semantics)."""
        metrics = self.metrics
        started = perf_counter() if metrics.enabled else None
        if prepared.batch:
            if self.wal is not None and not self._wal_replaying:
                self.wal.append('commit', prepared.wal_record())
            self.backend.apply_deltas(prepared.batch)
        if prepared.changed_bases:
            self._invalidate_dependents(prepared.changed_bases,
                                        keep=prepared.keep)
        if started is not None:
            prepared.samples.append(('txn.commit_seconds',
                                     perf_counter() - started))
            prepared.counters.append('txn.commits')
            metrics.record(prepared.samples, prepared.counters)
        # Post-commit hooks (peer delta publication).  Never during
        # replay: recovery rebuilds state, it must not re-publish — the
        # peer layer reconciles missed publications from its own outbox
        # instead.
        if prepared.batch and not self._wal_replaying:
            for listener in self.commit_listeners:
                listener((prepared,))

    def _invalidate_dependents(self, changed_bases: set[str],
                               keep: set[str] = frozenset()) -> None:
        for view, entry in self._views.items():
            if view in keep:
                continue
            if entry.base_closure & changed_bases:
                self.backend.drop_cache(view)


class Transaction:
    """Context manager batching statements into one atomic execution::

        with engine.transaction() as txn:
            txn.insert('v', (1, 'a'))
            txn.delete('v', where={'a': 2})
    """

    def __init__(self, engine: Engine):
        self.engine = engine
        self.batches: list[tuple[str, list[Statement]]] = []

    def _bucket(self, target: str) -> list[Statement]:
        if self.batches and self.batches[-1][0] == target:
            return self.batches[-1][1]
        bucket: list[Statement] = []
        self.batches.append((target, bucket))
        return bucket

    def insert(self, target: str, values: tuple) -> None:
        self._bucket(target).append(Insert(tuple(values)))

    def delete(self, target: str, where=None) -> None:
        self._bucket(target).append(Delete(where))

    def update(self, target: str, assignments, where=None) -> None:
        self._bucket(target).append(Update(assignments, where))

    def __enter__(self) -> 'Transaction':
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self.batches:
            self.engine.execute_many(self.batches)
        return False
