"""Concurrency suite for the sharded engine.

The coordinator creates no thread: in-process shards run every call on
the calling thread, worker processes are overlapped by submitting to
all before draining any.  What must hold around that, and what these
tests pin:

* overlapped worker processes commit the state, and raise the error,
  of the in-process serial loop — including WHICH constraint violation
  surfaces when several shards fail in the same transaction (the
  coordinator drains prepares in first-touched order);
* an abort after a sibling shard already prepared leaves every shard
  untouched;
* readers on other threads are never blocked by an in-flight
  transaction's prepare phase and observe pre-transaction state (only
  the apply phase takes the per-shard locks);
* SQLite storage works from whichever thread calls, on the backend's
  one connection (the thread-affinity regression);
* the planner's caches are safe under concurrent compiles;
* one engine commits one transaction at a time, each preparing against
  the state the previous one left.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.benchsuite.catalog import entry_by_name
from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.backends.memory import MemoryBackend
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.engine import Engine
from repro.rdbms.sharded import ShardedEngine

WAIT = 10.0         # generous upper bound; normal runs take milliseconds

BASE_ROWS = [(2, 'watch', 5000), (4, 'ring', 4000),
             (203, 'vase', 3000), (205, 'clock', 2500)]


class GateBackend(MemoryBackend):
    """A memory backend whose ∂put evaluation can be held at a gate.

    ``armed`` is off during setup (load / view materialisation); once
    armed, entering the incremental evaluation announces itself via
    ``entered`` and blocks until ``release`` — the window the tests
    use to observe a transaction mid-prepare."""

    def __init__(self, schema):
        super().__init__(schema)
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def evaluate_incremental_batch(self, entry, sources, view_handle,
                                   delta):
        if self.armed:
            self.entered.set()
            assert self.release.wait(WAIT), 'gate never released'
        return super().evaluate_incremental_batch(
            entry, sources, view_handle, delta)


def build_engine(luxury_strategy, *, execution='inline', backends=None):
    """Two hash shards of ``luxuryitems``: an even iid on shard 0, an
    odd one on shard 1."""
    engine = ShardedEngine(
        luxury_strategy.sources,
        backends=backends,
        shard_keys={'luxuryitems': 'iid', 'items': 'iid'},
        execution=execution)
    engine.load('items', BASE_ROWS)
    engine.define_view(luxury_strategy, validate_first=False)
    engine.rows('luxuryitems')
    assert [{row[0] % 2 for row in part}
            for part in engine.shard_rows('items')] == [{0}, {1}]
    return engine


def build_single(luxury_strategy):
    """The single-engine oracle over the same rows."""
    engine = Engine(luxury_strategy.sources)
    engine.load('items', BASE_ROWS)
    engine.define_view(luxury_strategy, validate_first=False)
    return engine


class TestParallelEquivalence:

    def test_parallel_matches_serial(self, luxury_strategy):
        """Worker processes, overlapped, against the in-process serial
        loop."""
        parallel = build_engine(luxury_strategy, execution='processes')
        serial = build_engine(luxury_strategy)
        txns = [
            [('luxuryitems', [Insert((14, 'tiara', 9000))]),
             ('luxuryitems', [Insert((215, 'bust', 8000))])],
            [('luxuryitems', [Delete({'iid': 14})]),
             ('items', [Insert((301, 'statue', 1500))])],
            [('luxuryitems', [Insert((16, 'orb', 7000)),
                              Delete({'iid': 215})])],
        ]
        for txn in txns:
            serial.execute_many(txn)
            parallel.execute_many(txn)
            assert parallel.database() == serial.database()
            assert parallel.rows('luxuryitems') \
                == serial.rows('luxuryitems')
        serial.close()
        parallel.close()


#: Both shard transports: the serial loop and overlapped workers.
EXECUTIONS = ('inline', 'processes')


class TestDeterministicFirstViolation:

    def _witness(self, luxury_strategy, execution, txn):
        engine = build_engine(luxury_strategy, execution=execution)
        before = engine.database()
        with pytest.raises(ConstraintViolation) as err:
            engine.execute_many(txn)
        assert engine.database() == before
        engine.close()
        return str(err.value)

    def test_first_touched_shard_wins_in_one_bucket(
            self, luxury_strategy):
        """Both shards violate inside one (coalesced) bucket: the
        fan-out forwards shards in sorted order, so shard 0 is
        first-touched and its witness must surface — from the serial
        loop and from overlapped workers alike, even though the workers
        may finish in either order."""
        txn = [('luxuryitems', [Insert((301, 'cheap_hi', 10))]),
               ('luxuryitems', [Insert((100, 'cheap_lo', 20))])]
        witnesses = {self._witness(luxury_strategy, execution, txn)
                     for execution in EXECUTIONS}
        assert len(witnesses) == 1
        assert 'cheap_lo' in witnesses.pop()   # shard 0 sorts first

    def test_first_touched_shard_wins_across_buckets(
            self, luxury_strategy):
        """Separated buckets (no coalescing): shard 1's working is
        created first, so its violation wins over shard 0's — the
        serial first-staged drain order, preserved by the scatter's
        drain order."""
        txn = [('luxuryitems', [Insert((301, 'cheap_hi', 10))]),
               ('items', [Insert((321, 'plain', 50))]),
               ('luxuryitems', [Insert((100, 'cheap_lo', 20))])]
        witnesses = {self._witness(luxury_strategy, execution, txn)
                     for execution in EXECUTIONS}
        assert len(witnesses) == 1
        assert 'cheap_hi' in witnesses.pop()   # shard 1 touched first


class TestMidFlightAbort:

    def test_abort_waits_for_inflight_prepare_and_rolls_back(
            self, luxury_strategy):
        """Shard 0's prepare is held at the gate, and shard 1's
        prepare fails once it is through: the coordinator must raise
        shard 1's violation and leave both shards untouched — shard 0
        had prepared."""
        gated = GateBackend(luxury_strategy.sources)
        engine = build_engine(luxury_strategy,
                              backends=[gated, 'memory'])
        before = engine.database()
        before_view = engine.rows('luxuryitems')
        gated.armed = True
        failed = {}

        def transaction():
            try:
                engine.execute_many([
                    ('luxuryitems', [Insert((18, 'valid', 6000))]),
                    ('luxuryitems', [Insert((219, 'cheap', 5))]),
                ])
            except ConstraintViolation as err:
                failed['error'] = err

        runner = threading.Thread(target=transaction)
        runner.start()
        # Shard 0 really is mid-prepare when we let the abort happen.
        assert gated.entered.wait(WAIT)
        gated.release.set()
        runner.join(WAIT)
        assert not runner.is_alive()
        gated.armed = False
        assert 'error' in failed
        assert engine.database() == before
        assert engine.rows('luxuryitems') == before_view
        for shard in engine.shard_rows('items'):
            assert not shard & {(18, 'valid', 6000), (219, 'cheap', 5)}
        engine.close()


class TestConcurrentReads:

    def test_get_during_inflight_prepare_sees_pre_state(
            self, luxury_strategy):
        """A reader during another transaction's prepare phase is not
        blocked and sees pre-transaction state; after commit it sees
        the update."""
        gated = GateBackend(luxury_strategy.sources)
        engine = build_engine(luxury_strategy,
                              backends=[gated, 'memory'])
        before_view = engine.rows('luxuryitems')
        gated.armed = True
        runner = threading.Thread(
            target=engine.execute_many,
            args=([('luxuryitems', [Insert((20, 'crown', 9999))])],))
        runner.start()
        assert gated.entered.wait(WAIT)
        # The transaction is mid-prepare on shard 0 right now.
        assert engine.rows('luxuryitems') == before_view
        assert engine.count('items') == len(BASE_ROWS)
        gated.release.set()
        runner.join(WAIT)
        assert not runner.is_alive()
        gated.armed = False
        assert engine.rows('luxuryitems') \
            == before_view | {(20, 'crown', 9999)}
        engine.close()


class TestTrueOverlap:
    """Readers on their own threads, truly overlapping the writer."""

    def test_stress_concurrent_readers_and_transactions(
            self, luxury_strategy):
        """Transactions against a sharded engine while reader threads
        hammer scatter-gather ``rows``: no exceptions, and the final
        state equals the single engine's, which nobody reads
        meanwhile."""
        sharded = build_engine(luxury_strategy)
        single = build_single(luxury_strategy)
        stop = threading.Event()
        errors: list = []

        def reader():
            while not stop.is_set():
                try:
                    rows = sharded.rows('luxuryitems')
                    assert isinstance(rows, frozenset)
                    sharded.count('items')
                except Exception as exc:      # pragma: no cover
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for n in range(30):
                txn = [('luxuryitems',
                        [Insert((2 * n + 20, f'a{n}', 2000 + n)),
                         Insert((2 * n + 421, f'b{n}', 3000 + n))])]
                sharded.execute_many(txn)
                single.execute_many(txn)
        finally:
            stop.set()
            for thread in readers:
                thread.join(WAIT)
        assert not errors
        assert sharded.database() == single.database()
        assert sharded.rows('luxuryitems') == single.rows('luxuryitems')
        sharded.close()
        single.close()


class TestSQLiteThreadAffinity:

    def test_sqlite_shard_from_worker_thread(self, luxury_strategy):
        """A SQLite shard driven from a thread other than the one that
        built it (a writer thread beside the caller's, say) used to
        die with SQLite's cross-thread ProgrammingError."""
        engine = build_engine(luxury_strategy,
                              backends=['sqlite', 'sqlite'])
        with ThreadPoolExecutor(1) as pool:
            pool.submit(engine.execute_many, [
                ('luxuryitems', [Insert((24, 'fan', 4000))]),
                ('luxuryitems', [Insert((225, 'lamp', 4500))]),
            ]).result()
        assert {(24, 'fan', 4000), (225, 'lamp', 4500)} \
            <= engine.rows('luxuryitems')
        engine.close()

    def test_engine_usable_from_foreign_thread(self):
        """A plain SQLite-backed Engine crosses threads freely: every
        thread takes its turn on the backend's one connection."""
        from repro.relational.schema import DatabaseSchema
        schema = DatabaseSchema.build(t={'a': 'int', 'b': 'string'})
        engine = Engine(schema, backend='sqlite')
        engine.load('t', {(1, 'x')})
        with ThreadPoolExecutor(2) as pool:
            pool.submit(engine.insert, 't', (2, 'y')).result()
            seen = pool.submit(engine.rows, 't').result()
        assert seen == {(1, 'x'), (2, 'y')}
        engine.close()
        # close() is idempotent, and any use after close refuses.
        engine.close()
        with pytest.raises(SchemaError):
            engine.backend.rows('t')

    def test_one_connection_across_server_threads(self, luxury_strategy,
                                                  monkeypatch):
        """A committer thread and two reader threads, all busy at
        once, share the backend's connection: ``sqlite3.connect`` runs
        once, in the constructor."""
        import sqlite3
        connect = sqlite3.connect
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, 'connect', counted)
        engine = Engine(luxury_strategy.sources, backend='sqlite')
        engine.load('items', BASE_ROWS)
        engine.define_view(luxury_strategy, validate_first=False)
        inserted = {(20 + i, f'gem{i}', 6000 + i) for i in range(8)}
        failures: list = []

        def commit():
            try:
                for row in sorted(inserted):
                    engine.execute_many([('luxuryitems', [Insert(row)])])
            except Exception as exc:                # noqa: BLE001
                failures.append(exc)

        def read():
            try:
                for name in ('luxuryitems', 'items') * 4:
                    frozenset(engine.rows(name))
            except Exception as exc:                # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=commit)] + [
            threading.Thread(target=read) for _ in range(2)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not failures
            assert inserted <= frozenset(engine.rows('luxuryitems'))
        finally:
            engine.close()
        assert len(calls) == 1


class TestPlannerLocking:

    def test_concurrent_compiles_share_one_plan(self):
        from repro.datalog.parser import parse_program
        from repro.datalog.plan import compile_program
        program = parse_program('v(X) :- r(X), not s(X).')
        plans = []
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(compile_program, program)
                       for _ in range(16)]
            plans = [f.result() for f in futures]
        assert all(plan is plans[0] for plan in plans)


def _purchase_engine(sharded: bool, customers: int):
    """``purchaseview`` (key P → C) over ``customers`` customers and no
    purchase, its cache materialised."""
    strategy = entry_by_name('purchaseview').strategy()
    engine = ShardedEngine(strategy.sources, shards=1) if sharded \
        else Engine(strategy.sources)
    engine.load('customers2', [(cid, f'c{cid}')
                               for cid in range(1, customers + 1)])
    engine.define_view(strategy, validate_first=False)
    engine.rows('purchaseview')
    return engine


@pytest.mark.parametrize('sharded', [False, True], ids=['engine', 'sharded'])
class TestOneCommitterAtATime:

    def test_second_committer_prepares_against_the_first(
            self, sharded, monkeypatch):
        """A commits purchase 11 of customer 1 and is held between its
        prepare and its apply; B inserts purchase 11 of customer 2
        meanwhile.  Had B prepared against the state A had not yet
        changed, both would commit and break the view's key P → C."""
        engine = _purchase_engine(sharded, 2)
        inner = engine.engines[0] if sharded else engine
        prepare = inner.prepare_commit
        held, release = threading.Event(), threading.Event()

        def hold(working):
            prepared = prepare(working)
            if threading.current_thread() is first:
                held.set()
                assert release.wait(WAIT)
            return prepared

        monkeypatch.setattr(inner, 'prepare_commit', hold)
        violations = []

        def insert(row):
            try:
                engine.insert('purchaseview', row)
            except ConstraintViolation:
                violations.append(row)

        first = threading.Thread(target=insert, args=((11, 1, 'c1', 6),))
        second = threading.Thread(target=insert, args=((11, 2, 'c2', 6),))
        try:
            first.start()
            assert held.wait(WAIT)
            second.start()
            second.join(0.5)          # it waits for A's commit
            release.set()
            first.join(WAIT)
            second.join(WAIT)
            assert not first.is_alive() and not second.is_alive()
            assert violations == [(11, 2, 'c2', 6)]
            assert engine.rows('purchases') == {(11, 1, 6, '2020-01-01')}
            assert engine.rows('purchaseview') == {(11, 1, 'c1', 6)}
        finally:
            release.set()
            engine.close()

    def test_racing_committers_keep_the_view_key(self, sharded):
        """Four threads (more than the cores CI has), a short switch
        interval: each inserts the same 30 purchases for its own
        customer.  Exactly one insert of each purchase commits; every
        other one is refused against it."""
        engine = _purchase_engine(sharded, 4)
        purchases = range(100, 130)
        refused = []

        def insert(cid):
            for puid in purchases:
                try:
                    engine.insert('purchaseview', (puid, cid, f'c{cid}', 1))
                except ConstraintViolation:
                    refused.append(puid)

        threads = [threading.Thread(target=insert, args=(cid,))
                   for cid in range(1, 5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            committed = sorted(puid for puid, *_ in engine.rows('purchases'))
            assert committed == list(purchases)
            assert sorted(refused) == sorted(list(purchases) * 3)
        finally:
            engine.close()
