"""Workload generation for the differential fuzz harness.

A :class:`Workload` is random base-table contents plus a random
multi-statement transaction sequence against one of the Figure-6
catalog views, fully determined by ``(view, seed)`` — so Hypothesis
shrinks over the seed, the CI smoke pins a seed corpus with
``@example``, and any failure reproduces from the two values in its
repr.  Base data comes from :mod:`repro.relational.generators` (the
paper's §6.2.2 protocol); statements mix

* template-valid view INSERTs (fresh rows satisfying the entry's
  ⊥-constraints),
* DELETEs by full row, by shard key, by WHERE-mapping, or everything,
* UPDATEs of constraint-neutral columns, and UPDATEs *of the shard
  key* (rows change owner under the sharded engine),
* direct base-table DML mixed into the same transaction,
* deliberately constraint-violating view INSERTs, one per violating
  transaction, at any position in it, so the raise behavior is
  differentially checked too.

Every configuration checks ⊥-constraints against a transaction's net
effect, so a violation a later statement repairs commits everywhere,
and the put axis of ``test_differential`` holds view-only transactions
to ``put(S, V')``.  What the generator still restricts, it restricts
to keep transactions worth running: view inserts are valid at their
position unless they are the violating one, and for the
inclusion-constrained entry (``outstanding_task``) view inserts and
key moves draw only from the *live* ``flow`` tid pool — maintained
through generated base-table DML — so most transactions commit.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.benchsuite.catalog import entry_by_name
from repro.rdbms.dml import Delete, Insert, Statement, Update
from repro.rdbms.engine import Engine
from repro.rdbms.replica import ReplicaEngine
from repro.rdbms.sharded import ShardedEngine
from repro.relational.generators import random_database, random_rows

__all__ = ['FUZZ_VIEWS', 'SHARD_KEYS', 'Workload', 'random_workload',
           'build_engines', 'SHARD_BACKENDS']

#: The Figure-6 catalog views the harness fuzzes (one selection, one
#: projection, one projection+join with ID+C constraints, one union).
FUZZ_VIEWS = ('luxuryitems', 'officeinfo', 'outstanding_task',
              'vw_brands')

#: Co-partitioned shard-key declarations per view (every relation a
#: putback can reach shares the view's key attribute, so all four are
#: shard-local under ShardedEngine placement).
SHARD_KEYS = {
    'luxuryitems': {'luxuryitems': 'iid', 'items': 'iid'},
    'officeinfo': {'officeinfo': 'wname', 'works': 'wname'},
    'outstanding_task': {'outstanding_task': 'tid', 'tasks': 'tid',
                         'flow': 'tid'},
    'vw_brands': {'vw_brands': 'bid', 'brands_domestic': 'bid',
                  'brands_imported': 'bid'},
}

#: Mixed per-shard storage for the sharded configurations: hot shards
#: in memory, one cold shard on SQLite.
SHARD_BACKENDS = ('memory', 'sqlite', 'memory')

#: A view column whose value never participates in a ⊥-constraint —
#: safe to UPDATE mid-transaction without transient violations.
_SAFE_COLUMN = {'luxuryitems': 'iname', 'officeinfo': 'office',
                'outstanding_task': 'title', 'vw_brands': 'bname'}

_KEY_COLUMN = {'luxuryitems': 'iid', 'officeinfo': 'wname',
               'outstanding_task': 'tid', 'vw_brands': 'bid'}

#: Which base relation's first column supplies "existing key" draws.
_KEY_SOURCE = {'luxuryitems': 'items', 'officeinfo': 'works',
               'outstanding_task': 'tasks', 'vw_brands':
               'brands_domestic'}

_HAS_CONSTRAINTS = {'luxuryitems': True, 'officeinfo': False,
                    'outstanding_task': True, 'vw_brands': True}

_FRESH_BASE = 5_000_000


@dataclass
class Workload:
    """One differential-fuzz scenario, reproducible from its repr."""

    view: str
    seed: int
    data: object = field(repr=False)            # relational Database
    transactions: list = field(repr=False)      # [[(target, [stmt])]]
    expects_violations: bool = field(repr=False, default=False)


class _FlowPool:
    """The *live* ``flow`` tid pool for ``outstanding_task``: a view
    insert (or key move) is only constraint-valid when its tid has at
    least one surviving ``flow`` row, so the generator updates this
    pool through every base-table statement it emits."""

    def __init__(self, data):
        self.counts: dict = {}
        for tid, _step in data['flow']:
            self.counts[tid] = self.counts.get(tid, 0) + 1

    def live(self) -> list:
        return sorted(t for t, count in self.counts.items() if count > 0)

    def insert(self, row) -> None:
        self.counts[row[0]] = self.counts.get(row[0], 0) + 1

    def delete(self, row) -> None:
        if self.counts.get(row[0], 0) > 0:
            self.counts[row[0]] -= 1


def _fresh_view_row(view: str, flow_pool, index: int,
                    rng: random.Random) -> tuple | None:
    """A view tuple that is insertable under the entry's constraints,
    or ``None`` when no valid tuple exists (empty flow pool)."""
    if view == 'luxuryitems':
        return (_FRESH_BASE + index, f'item{index}',
                1001 + rng.randrange(5000))
    if view == 'officeinfo':
        return (f'fuzz_{index}', f'office_{rng.randrange(6)}')
    if view == 'outstanding_task':
        live = flow_pool.live()
        if not live:
            return None
        return (rng.choice(live), f'task{index}',
                f'owner{rng.randrange(4)}', rng.randrange(4))
    if view == 'vw_brands':
        return (_FRESH_BASE + index, f'brand{index}',
                rng.choice(['domestic', 'imported']))
    raise KeyError(view)


def _violating_view_row(view: str, flow_pool, index: int,
                        rng: random.Random) -> tuple:
    """A view tuple whose insertion must raise ConstraintViolation."""
    if view == 'luxuryitems':
        return (_FRESH_BASE + index, 'cheap', rng.randrange(1000))
    if view == 'outstanding_task':
        live = flow_pool.live()
        if rng.random() < 0.5 or not live:
            # tid outside the flow table: the ID constraint fires.
            return (77_000_000 + index, 'ghost', 'nobody', 1)
        return (rng.choice(live), 'neg', 'owner', -1)
    if view == 'vw_brands':
        return (_FRESH_BASE + index, 'brand', 'neither')
    raise KeyError(view)


def _fresh_key(view: str, index: int):
    if view == 'officeinfo':
        return f'fuzz_{index}'
    return _FRESH_BASE + index


def _existing_key(view: str, data, rng: random.Random):
    rows = sorted(data[_KEY_SOURCE[view]])
    return rng.choice(rows)[0] if rows else _fresh_key(view, 0)


def random_workload(view: str, seed: int) -> Workload:
    """The deterministic scenario for ``(view, seed)``."""
    entry = entry_by_name(view)
    rng = random.Random((seed << 3) ^ 0x5EED)
    scale = rng.randint(10, 60)
    data = random_database(entry.sources, entry.sizes(scale),
                           seed=rng.randrange(2 ** 30),
                           column_pools=entry.column_pools)
    view_attrs = _view_attributes(view)
    key_col = _KEY_COLUMN[view]
    safe_col = _SAFE_COLUMN[view]
    counter = iter(range(seed % 997, 10_000_000, 1))
    inserted: list[tuple] = []
    flow_pool = _FlowPool(data) if view == 'outstanding_task' else None
    expects_violations = False

    def view_statement() -> Statement:
        nonlocal inserted
        roll = rng.random()
        if roll < 0.40:
            row = _fresh_view_row(view, flow_pool, next(counter), rng)
            if row is None:               # empty flow pool: no valid
                return Delete(None)       # insert exists — clear instead
            inserted.append(row)
            return Insert(row)
        if roll < 0.65:   # DELETE
            sub = rng.random()
            if sub < 0.45 and inserted:
                return Delete(dict(zip(view_attrs, rng.choice(inserted))))
            if sub < 0.75:
                return Delete({key_col: _existing_key(view, data, rng)})
            if sub < 0.95:
                return Delete({key_col: _fresh_key(view, next(counter))})
            return Delete(None)
        if roll < 0.85:   # UPDATE of a constraint-neutral column
            assignment = {safe_col: f'renamed_{next(counter)}'}
            sub = rng.random()
            if sub < 0.5 and inserted:
                return Update(assignment,
                              dict(zip(view_attrs, rng.choice(inserted))))
            if sub < 0.9:
                return Update(assignment,
                              {key_col: _existing_key(view, data, rng)})
            return Update(assignment, None)
        # UPDATE of the shard key: rows change owner when sharded.
        if view == 'outstanding_task':
            live = flow_pool.live()
            if not live:                  # no valid target key exists
                return Update({safe_col: f'renamed_{next(counter)}'},
                              None)
            new_key = rng.choice(live)    # stays in flow
        else:
            new_key = _fresh_key(view, next(counter))
        where = {key_col: _existing_key(view, data, rng)} \
            if rng.random() < 0.8 or not inserted \
            else dict(zip(view_attrs, rng.choice(inserted)))
        return Update({key_col: new_key}, where)

    def base_bucket() -> tuple[str, list[Statement]]:
        """A direct base-table bucket."""
        name = rng.choice(entry.sources.names())
        schema = entry.sources[name]
        if rng.random() < 0.6:
            pools = (entry.column_pools or {}).get(name)
            row = next(iter(random_rows(schema, 1, rng, pools)))
            if flow_pool is not None and name == 'flow':
                flow_pool.insert(row)
            return (name, [Insert(row)])
        rows = sorted(data[name])
        if not rows:
            return (name, [Delete({schema.attributes[0]:
                                   _fresh_key(view, next(counter))})])
        victim = rng.choice(rows)
        if flow_pool is not None and name == 'flow':
            flow_pool.delete(victim)
        return (name, [Delete(dict(zip(schema.attributes, victim)))])

    transactions: list = []
    for _ in range(rng.randint(1, 4)):
        violating = _HAS_CONSTRAINTS[view] and rng.random() < 0.22
        # A violating transaction ABORTS: none of its base-table writes
        # commit, so its pool mutations must not leak into the
        # validity reasoning of later transactions.
        pool_snapshot = dict(flow_pool.counts) if violating \
            and flow_pool is not None else None
        buckets: list = []
        if not violating or rng.random() < 0.5:
            for _bucket in range(rng.randint(1, 3)):
                if rng.random() < 0.2:
                    buckets.append(base_bucket())
                else:
                    statements = [view_statement()
                                  for _ in range(rng.randint(1, 4))]
                    buckets.append((view, statements))
        if violating:
            # A fresh violating row, anywhere in the transaction: the
            # clean buckets around it exercise the multi-shard abort,
            # and a later statement may repair it (a DELETE of
            # everything), which commits.
            row = _violating_view_row(view, flow_pool, next(counter),
                                      rng)
            buckets.insert(rng.randint(0, len(buckets)),
                           (view, [Insert(row)]))
            expects_violations = True
            if pool_snapshot is not None:
                flow_pool.counts = pool_snapshot
        transactions.append(buckets)
    return Workload(view=view, seed=seed, data=data,
                    transactions=transactions,
                    expects_violations=expects_violations)


def _view_attributes(view: str) -> tuple[str, ...]:
    return _strategy(view).view.attributes


_STRATEGIES: dict = {}


def _strategy(view: str):
    if view not in _STRATEGIES:
        _STRATEGIES[view] = entry_by_name(view).strategy()
    return _STRATEGIES[view]


class _ReplicatedEngine:
    """A WAL-backed primary plus one delta-fed replica, presented to
    the oracle as a single engine: writes run on the primary, every
    read catches the replica up and serves from *it* — so the standing
    per-transaction state comparison IS the bit-identity assertion for
    delta shipping.  :meth:`recovered_state` additionally replays the
    log into a fresh engine (crash recovery), which
    ``run_differential`` checks against the reference at workload end.
    """

    def __init__(self, strategy):
        self._strategy = strategy
        self._tmp = tempfile.TemporaryDirectory(prefix='repro-fuzz-wal-')
        self._path = Path(self._tmp.name) / 'primary.wal'
        self.primary = Engine(strategy.sources, wal=self._path,
                              wal_sync=False)
        self.replica = ReplicaEngine(strategy.sources, self.primary.wal)

    def load(self, name, rows):
        self.primary.load(name, rows)

    def define_view(self, strategy, **kwargs):
        return self.primary.define_view(strategy, **kwargs)

    def execute_many(self, batches):
        return self.primary.execute_many(batches)

    def rows(self, name):
        self.replica.catch_up()
        return self.replica.rows(name)

    def database(self):
        self.replica.catch_up()
        return self.replica.database()

    def recovered_state(self, view):
        """Crash-replay the log into a fresh engine and report its
        ``(database, view rows)`` — what a restart would serve."""
        recovered = Engine(self._strategy.sources, wal=self._path,
                           wal_sync=False)
        try:
            return (recovered.database(),
                    frozenset(recovered.rows(view)))
        finally:
            recovered.close()

    def close(self):
        self.replica.close()
        self.primary.close()
        self._tmp.cleanup()


def build_engines(workload: Workload, *,
                  extended: bool = False) -> dict[str, object]:
    """The differential configuration matrix, loaded with the
    workload's base data and the view materialised.

    The core matrix covers memory-vs-SQLite × sharded-vs-single ×
    inline-vs-processes × replicated-vs-direct with five entries (one
    per axis endpoint — ``sharded`` drives mixed-backend shards
    inline, ``sharded-procs`` the same shards as overlapped worker
    *processes*, ``replica`` serves every read from a WAL-fed
    :class:`_ReplicatedEngine` replica); ``extended`` adds a cluster of
    SQLite shards only, for the deep (``REPRO_FUZZ=long``) runs.
    """
    strategy = _strategy(workload.view)
    configs: dict[str, object] = {}

    def sharded(backends=SHARD_BACKENDS, **options) -> ShardedEngine:
        return ShardedEngine(strategy.sources, backends=list(backends),
                             shard_keys=SHARD_KEYS[workload.view],
                             **options)

    # Process-backed engines fork FIRST, before any other config has
    # opened SQLite connections the child would pointlessly inherit.
    configs['sharded-procs'] = sharded(execution='processes')
    configs['memory'] = Engine(strategy.sources, backend='memory')
    configs['replica'] = _ReplicatedEngine(strategy)
    configs['sqlite'] = Engine(strategy.sources, backend='sqlite')
    configs['sharded'] = sharded()
    if extended:
        configs['sharded-sqlite'] = sharded(('sqlite',) * 3)

    for engine in configs.values():
        for name in strategy.sources.names():
            engine.load(name, workload.data[name])
        engine.define_view(strategy, validate_first=False)
        engine.rows(workload.view)      # materialise the view cache
    return configs
