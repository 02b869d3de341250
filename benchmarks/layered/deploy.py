"""The three deployments a workload can run on, and their cold start.

A cold start builds a complete fresh deployment from strategy *text* and
generated base rows — parse, validate, plan compile, load, worker spawn,
replica catch-up, peer settle — through the first read of every view at
the place the application reads it.  Backends are always named
explicitly, so ``REPRO_BACKEND`` is ignored.

Each deployment exposes the same small surface to the measuring loop:
``commit(batch)`` (one call into the program), ``visible(view)`` (commit
followed by the read at that lane's read endpoint), ``after_write(view)``
(untimed propagation the lane needs, or ``None``), ``observe(model)``
(every relation on every endpoint next to what the model expects),
``snapshot()`` (program counters a traced run cannot get from spans)
and ``reopen(model)`` for the durable ones.
"""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter

from repro.benchsuite.catalog import ALL_ENTRIES, entry_by_name
from repro.core.strategy import UpdateStrategy
from repro.core.validation import validate
from repro.datalog.plan import clear_plan_cache
from repro.rdbms.engine import Engine
from repro.rdbms.peernet import PeerNetwork
from repro.rdbms.sharded import ShardedEngine
from repro.relational.generators import random_database
from repro.relational.schema import DatabaseSchema
from repro.sql import compile_strategy_to_sql

from layered.lanes import BASES, SHARD_KEYS, VIEWS
from layered.spec import CATALOG_N

ENTRIES = tuple(entry_by_name(view) for view in VIEWS)

#: The four views' source relations on one merged schema.
SCHEMA = DatabaseSchema(tuple(relation for entry in ENTRIES
                              for relation in entry.sources))

SHARED = 'luxuryitems'

#: Worker-side phase histograms (seconds) a traced cluster run adds to
#: the coordinator-side spans; nothing is wrapped inside the workers.
_WORKER_HISTOGRAMS = ('txn.apply_seconds', 'txn.prepare_seconds',
                      'txn.flush_seconds', 'txn.commit_seconds',
                      'wal.append_seconds')


def parse(entry) -> UpdateStrategy:
    return UpdateStrategy.parse(entry.name, entry.sources, entry.putdelta,
                                entry.expected_get)


def _define_and_read(engine, bases, lap) -> dict:
    """Load, define the four views with validation, read each once.
    ``lap`` marks places where the caller's stopwatch may take a
    reading of the box's speed."""
    for name in BASES:
        engine.load(name, bases[name])
    lap()
    for entry in ENTRIES:
        engine.define_view(parse(entry), validate_first=True)
        lap()
    return {view: engine.rows(view) for view in VIEWS}


def _observe(label: str, engine, model):
    for name in BASES:
        yield label, name, engine.rows(name), model.bases[name]
    for view in VIEWS:
        yield label, view, engine.rows(view), model.views[view]


class _SingleEngine:
    """One ``Engine`` (memory, or SQLite with an fsynced WAL)."""

    def __init__(self, bases, directory: Path, backend: str, wal: bool,
                 lap):
        self.log = directory / 'engine.wal' if wal else None
        self.durable = wal
        self.backend = backend
        self.engine = Engine(SCHEMA, backend=backend, wal=self.log,
                             wal_sync=True)
        self.commit = self.engine.execute_many
        self.first_reads = _define_and_read(self.engine, bases, lap)

    def visible(self, view):
        commit, rows = self.commit, self.engine.rows

        def commit_then_read(batch):
            commit(batch)
            return rows(view)
        return commit_then_read

    def after_write(self, view):
        return None

    def observe(self, model, full: bool = True):
        return _observe('engine', self.engine, model)

    def worker_pids(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}       # in-process: the spans see everything

    def checkpoint(self) -> bool:
        if not self.durable:
            return False
        self.engine.checkpoint()
        return True

    def close(self) -> None:
        self.engine.close()

    def reopen(self, model) -> tuple:
        """``(recovery seconds, observations)`` of an engine rebuilt
        from the log alone."""
        started = perf_counter()
        engine = Engine(SCHEMA, backend=self.backend, wal=self.log,
                        wal_sync=True)
        seconds = perf_counter() - started
        with engine:
            return seconds, list(_observe('reopened', engine, model))


class _Cluster:
    """Peer ``writer`` (two process shards, per-shard fsynced WALs, one
    read replica each) hosting all four views and sharing
    ``luxuryitems`` with peer ``reader`` (one Engine + WAL, applying
    deltas through its own putback).  Read endpoints: ``reader`` after
    ``settle()`` for the shared view, replica-routed
    ``rows(view, min_lsn=commit_lsn)`` for the other three."""

    durable = True

    def __init__(self, bases, directory: Path, lap):
        self.directory = directory
        self.net = PeerNetwork(retry_backoff=0.001)

        def writer(path: Path):
            engine = self._sharded(path, read_replicas=1)
            _define_and_read(engine, bases, lap)
            return engine

        self.net.add_peer('writer', writer, directory / 'writer',
                          shares=(SHARED,))
        self.net.add_peer('reader', self._reader_engine,
                          directory / 'reader', shares=(SHARED,))
        self.net.share(SHARED, ['writer', 'reader'])
        self.writer = self.net.peers['writer'].engine
        self.reader = self.net.peers['reader'].engine
        self.commit = self.writer.execute_many
        self.first_reads = {view: self._read(view)() for view in VIEWS}

    @staticmethod
    def _sharded(path: Path, *, read_replicas: int) -> ShardedEngine:
        return ShardedEngine(SCHEMA, shards=2, backends='memory',
                             execution='processes', wal_dir=path / 'wal',
                             wal_sync=True, read_replicas=read_replicas,
                             shard_keys=SHARD_KEYS)

    @staticmethod
    def _reader_engine(path: Path) -> Engine:
        entry = entry_by_name(SHARED)
        engine = Engine(entry.sources, backend='memory',
                        wal=path / 'engine.wal', wal_sync=True)
        engine.define_view(parse(entry), validate_first=True,
                           exist_ok=True)
        return engine

    def _read(self, view):
        if view == SHARED:
            settle, rows = self.net.settle, self.reader.rows

            def read():
                settle()
                return rows(view)
        else:
            writer = self.writer

            def read():
                return writer.rows(view, min_lsn=writer.commit_lsn)
        return read

    def visible(self, view):
        commit, read = self.commit, self._read(view)

        def commit_then_read(batch):
            commit(batch)
            return read()
        return commit_then_read

    def after_write(self, view):
        return self.net.settle if view == SHARED else None

    def observe(self, model, full: bool = True):
        """The read endpoints (replicas, reader) always; the shard
        primaries — a pickled copy of every relation over RPC — only
        when ``full``."""
        writer = self.writer
        if full:
            database = writer.database()
            for name in BASES:
                yield 'writer', name, database[name], model.bases[name]
            for view in VIEWS:
                primary = frozenset().union(*writer.shard_rows(view))
                yield 'writer', view, primary, model.views[view]
        bound = writer.commit_lsn
        for name in BASES:
            yield ('replica', name, writer.rows(name, min_lsn=bound),
                   model.bases[name])
        for view in VIEWS:
            yield ('replica', view, writer.rows(view, min_lsn=bound),
                   model.views[view])
        shared = model.views[SHARED]
        yield 'reader', 'items', self.reader.rows('items'), shared
        yield 'reader', SHARED, self.reader.rows(SHARED), shared

    def worker_pids(self) -> list:
        return [shard.process.pid for shard in self.writer.shards]

    def snapshot(self) -> dict:
        """What only the program's own counters know: the workers'
        phase histograms and WAL stats (``ShardedEngine.metrics()``
        merges them over RPC), RPC and replica counts, link stats.
        ``gauge.*`` keys are levels, the rest are monotonic."""
        merged = self.writer.metrics()
        counters, histograms = merged['counters'], merged['histograms']
        out = {key: counters.get(key, 0) for key in (
            'rpc.requests', 'retry.attempts', 'procpool.restarts',
            'replica.replica_reads', 'replica.records_applied')}
        for name in _WORKER_HISTOGRAMS:
            out[f'worker.{name}'] = histograms.get(name, {}).get('sum', 0.0)
        out['worker.prepares'] = histograms.get(
            'txn.prepare_seconds', {}).get('count', 0)
        out['worker.plan_runs'] = counters.get('txn.plan_runs', 0)
        out['worker.compiles'] = (counters.get('plan.compiles', 0)
                                  + counters.get('plan.replans', 0))
        out['worker.wal.bytes'] = counters.get('wal.bytes', 0)
        out['worker.wal.appends'] = counters.get('wal.appends', 0)
        stats = self.net.stats()
        for key in ('delivered', 'retries'):
            out[f'peer.{key}'] = sum(link[key]
                                     for link in stats['links'].values())
        out['peer.stale'] = sum(peer['stale']
                                for peer in stats['peers'].values())
        out['gauge.replica.lag'] = merged['gauges'].get('replica.lag', 0)
        out['gauge.global_views'] = sum(
            self.writer.placement(view) != 'partitioned' for view in VIEWS)
        return out

    def checkpoint(self) -> bool:
        return False

    def close(self) -> None:
        self.net.close()

    def reopen(self, model) -> tuple:
        """``(recovery seconds, observations)`` of both peers' engines
        rebuilt from their log directories alone: the catalog is
        re-declared, no row is loaded."""
        started = perf_counter()
        writer = self._sharded(self.directory / 'writer', read_replicas=0)
        reader = self._reader_engine(self.directory / 'reader')
        seconds = perf_counter() - started
        try:
            for entry in ENTRIES:
                writer.define_view(parse(entry), validate_first=False,
                                   exist_ok=True)
            observations = list(_observe('reopened', writer, model))
            observations.append(('reopened-reader', SHARED,
                                 reader.rows(SHARED), model.views[SHARED]))
            return seconds, observations
        finally:
            writer.close()
            reader.close()


def catalog_inputs(seed: int, scale: float) -> list:
    """Random base data at n = CATALOG_N for every expressible Table 1
    entry (a prefix of them at a tiny ``scale``)."""
    entries = [entry for entry in ALL_ENTRIES if entry.expressible]
    if scale < 1:
        entries = entries[:max(1, int(len(entries) * scale))]
    size = max(20, int(CATALOG_N * min(scale, 1.0)))
    return [(entry, random_database(entry.sources, entry.sizes(size),
                                    seed=seed,
                                    column_pools=entry.column_pools))
            for entry in entries]


def run_catalog(catalog, lap) -> bool:
    """The strategy author's path for each entry: text → validated →
    compiled to SQL → defined on an engine → first read."""
    ok = True
    for entry, data in catalog:
        strategy = parse(entry)
        report = validate(strategy)
        sql = compile_strategy_to_sql(strategy, report.view_definition)
        with Engine(entry.sources, backend='memory') as engine:
            for name in entry.sources.names():
                engine.load(name, data[name])
            engine.define_view(strategy, report=report)
            rows = engine.rows(entry.name)
        ok = ok and report.valid and bool(sql) and rows is not None
        lap()
    return ok


def cold_start(workload, inputs, directory: Path, catalog, lap):
    """Build a fresh deployment; returns ``(deployment, catalog_ok)``.
    The caller times this call and passes ``lap``, which is called
    between the stages.  The shared plan cache is cleared first so the
    K cold starts of a run are exchangeable."""
    clear_plan_cache()
    os.makedirs(directory, exist_ok=True)
    catalog_ok = run_catalog(catalog, lap) if catalog else True
    if workload.deployment == 'cluster':
        return _Cluster(inputs.bases, directory, lap), catalog_ok
    sqlite = workload.deployment == 'sqlite'
    return _SingleEngine(inputs.bases, directory,
                         'sqlite' if sqlite else 'memory', sqlite,
                         lap), catalog_ok
