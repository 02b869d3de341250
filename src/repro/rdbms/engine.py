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
deferred-constraint semantics.  ``Engine(..., batch_deltas=False)``
restores statement-at-a-time translation (one plan run per bucket),
the reference the differential fuzz compares the batched pipeline to.
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
from repro.datalog.ast import Program
from repro.datalog.plan import ExecutionPlan, compile_program
from repro.errors import (ContradictionError, SchemaError, ValidationError,
                          ViewUpdateError)
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

#: Re-plan a view's compiled plans when a source relation's observed
#: cardinality drifts this far (either direction) from the stats the
#: plans were seeded with.
REPLAN_DRIFT_FACTOR = 10.0

#: How often the drift check actually samples the statistics provider:
#: on the first translation after (re)seeding, then every N-th.  A 10×
#: drift develops over many transactions, and sampling every flush
#: would put an O(#relations) count pass — cluster-wide, under the
#: sharded engine — on the per-transaction hot path.
REPLAN_CHECK_INTERVAL = 16

#: Off the transaction path: only a view falling back from ∂put to the
#: full putback (at ``define_view`` or a drift re-plan) logs here.
_log = logging.getLogger(__name__)


@dataclass
class ViewEntry:
    """Everything the engine knows about one updatable view.

    Plans are compiled exactly once, at :meth:`Engine.define_view` time,
    and reused verbatim for every subsequent ``insert``/``delete``/
    ``update``/``execute_many`` batch — the engine's analogue of the
    SQL triggers BIRDS installs ahead of time.  Backends may compile
    further (the SQLite backend lowers these plans to SQL in its
    ``register_view`` hook).
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
    # Cardinalities the current plans were seeded with, how many times
    # drift forced a recompilation, and how many drift probes have run
    # since the last (re)seed (see Engine._maybe_replan).
    stats_seed: Mapping[str, int] = field(default_factory=dict)
    replans: int = 0
    drift_probes: int = 0
    #: Why incrementalization last failed for this view (the view then
    #: runs the O(|S|) full putback, or keeps its previous ∂put plan on
    #: a re-plan); None when it never did.
    incremental_error: str | None = None

    @property
    def name(self) -> str:
        return self.strategy.view.name

    @property
    def schema(self) -> RelationSchema:
        return self.strategy.view

    def plans(self) -> tuple[ExecutionPlan, ...]:
        """Every plan this view can run (for index pre-building)."""
        plans = [self.get_plan, self.strategy.putdelta_plan]
        if self.incremental_plan is not None:
            plans.append(self.incremental_plan)
        return tuple(plans)


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
    it).  Under the batched pipeline nothing observes the bucket
    boundary — translation and constraint checks are deferred to commit
    either way — so this is pure overhead removal: a transaction built
    as N single-statement buckets (the OLTP shape) pays one routing,
    derivation and staging pass instead of N.  Statement-at-a-time mode
    must NOT coalesce: there a bucket boundary *is* the translation
    boundary, and merging would change which intermediate states get
    constraint-checked."""
    out: list[tuple[str, list[Statement]]] = []
    for target, statements in batches:
        if out and out[-1][0] == target:
            out[-1][1].extend(statements)
        else:
            out.append((target, list(statements)))
    return out


class _Working:
    """Uncommitted transaction state: accumulated per-relation deltas, a
    lazy materialisation overlay for relations re-read after staging,
    and the per-view *pending* queue of staged-but-untranslated deltas
    the batched pipeline drains once per transaction.

    Each staged write is tagged with its *origins* (the top-level DML
    targets, or ``'<direct>'`` for base-table DML) so commit can decide
    which view caches remain consistent: a view maintained by origin O is
    stale when some base underneath it was also written by a different
    origin in the same transaction."""

    def __init__(self, engine: 'Engine'):
        self.engine = engine
        self.deltas: dict[str, Composition] = {}
        self.note: object = None
        self.touched_views: set[str] = set()
        self.base_origins: dict[str, set[str]] = {}
        self.view_origins: dict[str, set[str]] = {}
        self._materialized: dict[str, set] = {}
        # Batched translation state, per view with untranslated deltas:
        # the composition of its staged effective deltas, the origins
        # that contributed them, and the pre-delta view state the
        # single plan run reads as ``v``.
        self.pending: dict[str, Composition] = {}
        self.pending_origins: dict[str, set[str]] = {}
        self.pending_state: dict[str, tuple] = {}

    def rows(self, name: str):
        """Current contents of ``name`` as seen inside the transaction.

        The overlay is built at most once per relation and then updated
        in place by :meth:`stage` (O(|Δ|) per statement, not O(|R|)).
        Treat the result as read-only; it is the backend's live set
        (:meth:`Backend.rows`) or the transaction's mutable overlay."""
        overlay = self._materialized.get(name)
        if overlay is not None:
            return overlay
        baseline = self.engine.rows(name)
        delta = self.deltas.get(name)
        if delta is None or delta.is_empty():
            return baseline
        overlay = set(baseline)
        overlay -= delta.deletions
        overlay |= delta.insertions
        self._materialized[name] = overlay
        return overlay

    def _unstaged(self, name: str) -> bool:
        """Does the transaction still read ``name`` straight from the
        backend's storage (nothing staged, no copied overlay)?"""
        delta = self.deltas.get(name)
        return (delta is None or delta.is_empty()) \
            and name not in self._materialized

    def relation_for_eval(self, name: str):
        """What evaluation should read for ``name``: the backend's
        stored relation when unstaged, else the staged rows."""
        if self._unstaged(name):
            return self.engine.eval_handle(name)
        return self.rows(name)

    def probe(self, name: str, positions: tuple[int, ...], key: tuple):
        """:meth:`Backend.probe` while :meth:`rows` is still the stored
        relation; None (no index: scan) once it is the transaction's
        copied overlay, a plain set."""
        if self._unstaged(name):
            return self.engine.backend.probe(name, positions, key)
        return None

    def pre_state(self, name: str) -> tuple:
        """``(eval handle, row set)`` of ``name`` *before* any pending
        delta — what the batched plan run reads as the old view.  For
        an unstaged view this is the backend's live set (no copy; on
        every backend it changes only at commit); once staged, a frozen
        copy is taken so later overlay updates cannot drift under the
        handle."""
        if self._unstaged(name):
            return (self.engine.eval_handle(name), self.engine.rows(name))
        frozen = frozenset(self.rows(name))
        return (frozen, frozen)

    def stage(self, name: str, delta: Delta, *, is_view: bool,
              origins: Iterable[str]) -> None:
        clash = delta.contradictions()
        if clash:
            raise ContradictionError(name, clash)
        # Everything a commit logs and applies was staged here first:
        # refuse now what the backend cannot hold — once the log has
        # the row it is too late, and a view row would otherwise fail
        # to bind when the backend stages it for ∂put.
        engine = self.engine
        engine.backend.check_storable(
            engine._views[name].schema if is_view else engine.schema[name],
            delta.insertions)
        staged = self.deltas.get(name)
        if staged is None:
            staged = self.deltas[name] = Composition()
        staged.then(delta.insertions, delta.deletions)
        overlay = self._materialized.get(name)
        if overlay is not None:
            overlay -= delta.deletions
            overlay |= delta.insertions
        if is_view:
            self.touched_views.add(name)
            self.view_origins.setdefault(name, set()).update(origins)
        else:
            self.base_origins.setdefault(name, set()).update(origins)


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

    ``batch_deltas`` (default on) coalesces each view's staged deltas
    and runs its plan once per transaction; ``False`` restores
    statement-at-a-time translation — one plan run per statement
    bucket, with constraints checked against every intermediate state
    (immediate rather than deferred semantics).
    """

    def __init__(self, schema: DatabaseSchema,
                 backend: str | Backend | None = None, *,
                 batch_deltas: bool = True,
                 wal: 'str | WriteAheadLog | None' = None,
                 wal_sync: bool = True):
        self.schema = schema
        self.backend = create_backend(backend, schema)
        self.batch_deltas = batch_deltas
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
        # Serialises the two catalog-mutating side paths that a
        # concurrent reader can race with a transaction on: lazy view
        # materialisation (two threads both missing the cache) and the
        # drift re-plan (two threads swapping a ViewEntry's plans and
        # ``replans``/``drift_probes`` counters).  The transaction
        # pipeline itself holds no engine-global mutable state — one
        # engine is driven by at most one transaction at a time, which
        # is what the parallel sharded engine's per-shard fan-out
        # guarantees.
        self._plan_lock = threading.RLock()
        #: Where planner statistics come from — both the seed at
        #: ``define_view`` time and the drift check/re-seed in
        #: :meth:`_maybe_replan`.  A coordinator embedding this engine
        #: (the sharded engine) overrides it with cluster-wide
        #: aggregated counts, so one shard's local sizes never drive a
        #: join order or a spurious re-plan.  None means this engine's
        #: own :meth:`_relation_stats` — not stored here as a bound
        #: method, a reference cycle that would keep a dropped engine
        #: (and its backend's rows) alive until a full collection.
        self.stats_provider = None
        #: Post-commit hooks: each callable receives a sequence of
        #: applied :class:`PreparedCommit` objects — ``(prepared,)``
        #: here, one per shard that applied on a sharded engine — after
        #: storage is updated, only for a non-empty batch and never
        #: during WAL replay (recovery must not re-publish).  The peer
        #: network subscribes here to ship committed view deltas.
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
        #: phase timings, plan compiles/replans, WAL append latency.
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
            self.backend.load(name, set(rows))
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
            self._maybe_replan(entry)
            sources = {s: self.eval_handle(s)
                       for s in entry.source_names}
            rows = self.backend.evaluate_get(entry, sources)
            self.backend.store_cache(name, rows)

    def eval_handle(self, name: str):
        """The backend's evaluation handle for a table or (materialised)
        view — what compiled plans read when the relation is unstaged."""
        if name in self._views:
            self._ensure_view_cache(name)
        elif name not in self.schema:
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
        elif name not in self.schema:
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
        definition).  ``stats`` overrides the observed cardinalities the
        planner seeds join orders with — the sharded engine passes
        cluster-wide aggregated counts here, since any one shard's local
        sizes under-estimate the relation.  ``exist_ok`` adopts an
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
            stats = self._planner_stats()
        incremental_program = None
        incremental_plan = None
        incremental_error = None
        if use_incremental:
            try:
                incremental_program, incremental_plan = incrementalize_plan(
                    strategy.putdelta, name, lvgn=lvgn, stats=stats)
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
                          stats_seed=dict(stats),
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

    def _planner_stats(self) -> dict[str, int]:
        """Cardinalities from :attr:`stats_provider`, else local."""
        return (self.stats_provider or self._relation_stats)()

    def _relation_stats(self) -> dict[str, int]:
        """Observed cardinalities the planner seeds its join order with:
        current base-table sizes plus any already-materialised view."""
        stats = {name: self.backend.count(name)
                 for name in self.schema.names()}
        for view in self._views:
            if self.backend.has_cache(view):
                stats[view] = self.backend.count(view)
        return stats

    def _maybe_replan(self, entry: ViewEntry) -> None:
        """Re-seed the view's compiled plans when a source relation's
        size has drifted >10× from the cardinalities they were planned
        with (the ROADMAP's "plan-level statistics" open item).

        Memory backend only: its join orders are fixed at compile time.
        The SQL lowering takes one thing from the static schedule — the
        staged deltas ``+v``/``-v`` are listed first and SQLite is made
        to keep them outermost (``CROSS JOIN``), which no cardinality
        drift changes; how the stored relations inside that loop are
        reached is SQLite's own optimizer's choice at every execution.
        Plans are immutable and the compile is memoized, so re-planning
        is just swapping the entry's plan references — in-flight
        evaluations are unaffected.
        """
        if self.backend.kind != 'memory':
            return
        with self._plan_lock:
            entry.drift_probes += 1
            if (entry.drift_probes - 1) % REPLAN_CHECK_INTERVAL:
                return
            factor = REPLAN_DRIFT_FACTOR
            stats = None
            drifted = False
            for rel in entry.source_names:
                if rel in self._views and not self.backend.has_cache(rel):
                    continue
                if stats is None:
                    stats = self._planner_stats()
                if rel not in stats:
                    continue
                seeded = max(entry.stats_seed.get(rel, 0), 1)
                current = max(stats[rel], 1)
                if current >= factor * seeded \
                        or seeded >= factor * current:
                    drifted = True
                    break
            if not drifted:
                return
            entry.get_plan = compile_program(entry.get_program,
                                             stats=stats)
            if entry.use_incremental:
                try:
                    entry.incremental_program, entry.incremental_plan = \
                        incrementalize_plan(entry.strategy.putdelta,
                                            entry.name, lvgn=entry.lvgn,
                                            stats=stats)
                except Exception as exc:  # keep the old incremental plan
                    entry.incremental_error = f'{type(exc).__name__}: {exc}'
                    _log.warning('view %r: re-incrementalization on '
                                 'drifted statistics failed, keeping the '
                                 'previous ∂put plan (%s)', entry.name,
                                 entry.incremental_error)
            entry.stats_seed = dict(stats)
            entry.replans += 1
            entry.drift_probes = 0
            self.metrics.counter('plan.replans')
            self._register_index_hints(entry)

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
        — it becomes durable atomically with the deltas."""
        working = self.begin()
        working.note = note
        if self.batch_deltas:
            batches = coalesce_buckets(batches)
        for target, statements in batches:
            self.apply_statements(working, target, statements)
        self._commit(working)

    # -- the reusable transaction pipeline ---------------------------------
    #
    # A transaction is: ``begin()`` → ``apply_statements(...)`` per
    # statement bucket → ``prepare_commit()`` (everything that can
    # raise: pending translations, constraint checks, schema
    # validation) → ``apply_prepared()`` (pure storage writes).  The
    # sharded engine drives several engines through these pieces in
    # lock-step — prepare on every touched shard first, apply only once
    # all shards prepared — which is what makes a multi-shard abort
    # leave every shard untouched.

    def begin(self) -> _Working:
        """Open uncommitted transaction state (one per transaction)."""
        return _Working(self)

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
        if not metrics.enabled:
            return self._apply_statements(working, target, statements)
        started = perf_counter()
        try:
            return self._apply_statements(working, target, statements)
        finally:
            metrics.observe('txn.apply_seconds',
                            perf_counter() - started)

    def _apply_statements(self, working: _Working, target: str,
                          statements: Sequence[Statement]) -> None:
        if target not in self._views and target not in self.schema:
            raise SchemaError(f'unknown relation {target!r}')
        if not statements:
            return
        # Statement-order visibility: before this bucket reads
        # ``target``, translate any pending view delta that could still
        # write it (a no-op for the common same-view statement runs).
        self._flush_for_read(working, target)
        is_view = target in self._views
        schema = self._views[target].schema if is_view \
            else self.schema[target]
        delta = derive_view_delta(statements, working.rows(target), schema,
                                  probe=partial(working.probe, target),
                                  metrics=self.metrics)
        if not is_view:
            working.stage(target, delta, is_view=False,
                          origins=('<direct>',))
        elif not delta.is_empty():
            self._defer_view_delta(working, target, delta,
                                   origins=(target,))

    def _defer_view_delta(self, working: _Working, name: str,
                          delta: Delta, origins: Iterable[str]) -> None:
        """Stage a view delta (visible to later statements immediately)
        and queue it for the once-per-transaction batched translation;
        in statement-at-a-time mode the translation runs right away."""
        effective = delta.effective_on(working.rows(name))
        if effective.is_empty():
            return
        if name not in working.pending:
            working.pending[name] = Composition()
            working.pending_origins[name] = set()
            working.pending_state[name] = working.pre_state(name)
        working.pending[name].then(effective.insertions, effective.deletions)
        working.pending_origins[name].update(origins)
        working.stage(name, effective, is_view=True, origins=origins)
        if not self.batch_deltas:
            self._flush_view(working, name)

    def _flush_for_read(self, working: _Working, target: str) -> None:
        """Conflict gate for statement-order visibility: a bucket on
        ``target`` both reads and writes it, so if any pending view
        could still *write* ``target`` (the bucket must see that write)
        or *reads* it as a source (the pending plan run must not see
        the bucket's write), drain the pending queue first — exactly
        the state statement-at-a-time translation would be in."""
        for name in working.pending:
            entry = self._views[name]
            if target in entry.update_closure \
                    or target in entry.source_names:
                self._flush_pending(working)
                return

    def _flush_pending(self, working: _Working) -> None:
        """Drain the pending queue, one plan run per view, in
        first-staged (bucket) order — the order statement-at-a-time
        translation runs in; each flush recurses depth-first into its
        cascades.  The update graph is acyclic (strategies only update
        already-defined relations), so the drain terminates."""
        while working.pending:
            self._flush_view(working, next(iter(working.pending)))

    def _flush_view(self, working: _Working, name: str) -> None:
        """The trigger pipeline for one view, run once over the
        composition of its staged deltas: evaluate ∂put (or the full
        putback) over the merged effective delta — the compiled program
        checks its own ⊥-rules first — and stage — or queue, for source
        views — the resulting ΔS."""
        staged = working.pending.pop(name, None)
        if staged is None:
            return
        view_handle, pre_rows = working.pending_state.pop(name)
        origins = working.pending_origins.pop(name)
        entry = self._views[name]
        self._maybe_replan(entry)
        # Re-projecting onto the pre-delta state drops write-then-undo
        # artifacts of the composition (a row deleted and re-inserted
        # contributes nothing net).
        effective = Delta(staged.insertions,
                          staged.deletions).effective_on(pre_rows)
        if effective.is_empty():
            return
        sources = {s: working.relation_for_eval(s)
                   for s in entry.source_names}

        metrics = self.metrics
        flush_started = perf_counter() if metrics.enabled else 0.0
        if entry.use_incremental:
            deltas = self.backend.evaluate_incremental_batch(
                entry, sources, view_handle, effective)
        else:
            deltas = self.backend.evaluate_putback(
                entry, sources, working.rows(name))
        if metrics.enabled:
            metrics.counter('txn.plan_runs')
            metrics.observe('txn.flush_seconds',
                            perf_counter() - flush_started)

        for relation in sorted(deltas.relations()):
            rel_delta = deltas[relation].effective_on(
                working.rows(relation))
            if rel_delta.is_empty():
                continue
            if relation in self._views:
                # Cascades translate depth-first, exactly as
                # statement-at-a-time recursion does — only *bucket*
                # deltas are coalesced across the transaction.  (In
                # statement-at-a-time mode the defer flushes itself.)
                self._defer_view_delta(working, relation, rel_delta,
                                       origins=origins)
                if self.batch_deltas:
                    self._flush_view(working, relation)
            elif relation in self.schema:
                working.stage(relation, rel_delta, is_view=False,
                              origins=origins)
            else:
                raise ViewUpdateError(
                    f'strategy for {name!r} updates unknown relation '
                    f'{relation!r}')

    def prepare_commit(self, working: _Working) -> 'PreparedCommit':
        """Everything commit does that can *fail*: drain the pending
        view translations (plan runs, ⊥-constraint checks) and validate
        every inserted base row — with storage still untouched.  The
        returned :class:`PreparedCommit` is then applied with
        :meth:`apply_prepared`; abandoning it aborts the transaction
        with no cleanup needed."""
        metrics = self.metrics
        if not metrics.enabled:
            return self._prepare_commit(working)
        started = perf_counter()
        try:
            return self._prepare_commit(working)
        finally:
            metrics.observe('txn.prepare_seconds',
                            perf_counter() - started)

    def _prepare_commit(self, working: _Working) -> 'PreparedCommit':
        self._flush_pending(working)
        # Validate every inserted base row before touching storage, so a
        # schema error cannot leave a half-applied transaction behind.
        # (Whether the backend can hold them was asked when each delta
        # was staged — :meth:`_Working.stage`.)
        for name, delta in working.deltas.items():
            if name not in self._views:
                self.schema[name].check_rows(delta.insertions)
        changed_bases: set[str] = set()
        batch: list[tuple[str, Delta, bool]] = []
        for name, delta in working.deltas.items():
            if delta.is_empty():
                continue
            if name in self._views:
                if self.backend.has_cache(name):
                    batch.append((name, delta, True))
            else:
                batch.append((name, delta, False))
                changed_bases.add(name)
        # A touched view's cache stays valid only when every write under
        # it came from its own update pipeline(s).
        keep: set[str] = set()
        for view in working.touched_views:
            entry = self._views[view]
            own = working.view_origins.get(view, set())
            foreign = set()
            for base in entry.base_closure & changed_bases:
                foreign |= working.base_origins.get(base, set()) - own
            if not foreign:
                keep.add(view)
        return PreparedCommit(batch=batch, changed_bases=changed_bases,
                              keep=keep, note=working.note)

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
        started = perf_counter() if metrics.enabled else 0.0
        if prepared.batch:
            if self.wal is not None and not self._wal_replaying:
                self.wal.append('commit', prepared.wal_record())
            self.backend.apply_deltas(prepared.batch)
        self._invalidate_dependents(prepared.changed_bases,
                                    keep=prepared.keep)
        if metrics.enabled:
            metrics.counter('txn.commits')
            metrics.observe('txn.commit_seconds',
                            perf_counter() - started)
        # Post-commit hooks (peer delta publication).  Never during
        # replay: recovery rebuilds state, it must not re-publish — the
        # peer layer reconciles missed publications from its own outbox
        # instead.
        if prepared.batch and not self._wal_replaying:
            for listener in self.commit_listeners:
                listener((prepared,))

    def _commit(self, working: _Working) -> None:
        self.apply_prepared(self.prepare_commit(working))

    def _invalidate_dependents(self, changed_bases: set[str],
                               keep: set[str] = frozenset()) -> None:
        if not changed_bases:
            return
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
