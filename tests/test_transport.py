"""The shard transport contract, checked once for both transports.

One client class (``ProcessShard``; ``LocalShard`` only swaps its
lifecycle) speaks one primitive — ``submit``/``drain`` — to one runtime,
over a pipe to a worker process or directly on the caller's heap.  The
coordinator cannot tell which, so neither may these tests: every case
runs unchanged against both, first on a bare shard client, then on a
whole ``ShardedEngine``.  What only one transport can do (die, be
repaired, time out) stays in ``test_procpool.py``; what other threads
may do to an in-process shard meanwhile in ``test_parallel.py``."""

import inspect
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.backends import MemoryBackend
from repro.rdbms.dml import Delete, Insert, Update
from repro.rdbms.engine import Engine, unpack_commit
from repro.rdbms.peernet import PeerNetwork
from repro.rdbms.procpool import LocalShard, ProcessShard
from repro.rdbms.replica import ReplicaSet
from repro.rdbms.sharded import ShardedEngine

UNION_KEYS = {'v': 'a', 'r1': 'a', 'r2': 'a'}
TRANSPORTS = ['in-process', 'process']


@pytest.fixture(params=TRANSPORTS)
def make_shard(request, union_sources, tmp_path):
    """``make(index, wal=False)`` builds a shard client of the
    parametrised transport; all are closed at teardown.  A process
    shard always has a log (that is how its worker is recovered), so
    ``wal`` only decides for the in-process one."""
    made = []

    def make(index: int = 0, wal: bool = False):
        wal_path = tmp_path / f'shard-{index}.wal'
        if request.param == 'process':
            shard = ProcessShard(index, union_sources, 'memory',
                                 wal_path=wal_path, wal_sync=False)
        else:
            shard = LocalShard(index, union_sources,
                               MemoryBackend(union_sources),
                               wal_path=wal_path if wal else None,
                               wal_sync=False)
        made.append(shard)
        return shard

    yield make
    for shard in made:
        shard.close()


class TestShardClientContract:

    def test_first_error_is_in_submission_order_across_shards(
            self, make_shard):
        """Two shards fail in one pipelined batch: draining in
        submission order surfaces the first-submitted failure, every
        token yields exactly one outcome, and both channels stay
        aligned for the calls that follow."""
        first, second = make_shard(0), make_shard(1)
        for shard in (first, second):
            shard.load('r1', [(1,)])
        txn_b, txn_a = second.begin(), first.begin()
        log = [(second, second.queue_apply(txn_b, 'nope',
                                           [Insert((1,))])),
               (first, first.queue_apply(txn_a, 'r1',
                                         [Insert(('bad',))])),
               (second, second.queue_flush(txn_b, 'r1'))]
        with pytest.raises(SchemaError, match='nope'):
            ShardedEngine._drain_all(log)
        # Drained tokens are spent; the failures were replies, not
        # channel breaks.
        assert first.rows('r1') == second.rows('r1') == {(1,)}
        outcome = first.submit('rows', 'r1')
        assert first.drain(outcome) == {(1,)}

    def test_abort_leaves_storage_untouched(self, make_shard):
        shard = make_shard()
        shard.load('r1', [(1,)])
        txn = shard.begin()
        shard.drain(shard.queue_apply(txn, 'r1', [Insert((8,))]))
        shard.abort(txn)
        assert shard.rows('r1') == {(1,)}
        # The slot really is gone: prepare on the aborted txn fails.
        with pytest.raises(KeyError):
            shard.prepare_commit(txn)

    def test_txn_rows_flushes_pending_translations(self, make_shard,
                                                   union_strategy):
        """A view insert is staged as a pending translation; reading a
        source it writes, inside the transaction, must drain it first —
        and storage must not see any of it before commit."""
        shard = make_shard()
        shard.load('r1', [(1,)])
        shard.load('r2', [(2,)])
        shard.define_view(union_strategy)
        txn = shard.begin()
        shard.drain(shard.queue_apply(txn, 'v', [Insert((3,))]))
        assert shard.txn_rows(txn, 'r1') == {(1,), (3,)}
        assert shard.txn_rows(txn, 'v') == {(1,), (2,), (3,)}
        assert shard.rows('r1') == {(1,)}
        shard.apply_prepared(shard.prepare_commit(txn))
        assert shard.rows('r1') == {(1,), (3,)}

    def test_commit_advances_the_lsn_by_exactly_one(self, make_shard):
        """With a WAL, prepare reports the pre-commit LSN and apply —
        the commit point — appends exactly one record.  On both
        transports the token carries the frozen commit whenever the
        batch is non-empty (what apply repair re-commits and commit
        listeners receive), and ``None`` for the empty transaction,
        which appends nothing."""
        shard = make_shard(wal=True)
        shard.load('r1', [(1,)])
        before = shard.commit_lsn
        txn = shard.begin()
        shard.drain(shard.queue_apply(txn, 'r1', [Insert((2,))]))
        prepared = shard.prepare_commit(txn)
        assert prepared.lsn == before == shard.commit_lsn
        batch, changed_bases, keep, note = unpack_commit(prepared.record)
        assert [(name, delta.insertions, delta.deletions, is_cache)
                for name, delta, is_cache in batch] == [
            ('r1', {(2,)}, frozenset(), False)]
        assert (changed_bases, keep, note) == ({'r1'}, frozenset(), None)
        shard.apply_prepared(prepared)
        assert shard.commit_lsn == before + 1
        # ``begin`` only names a transaction; its first call opens the
        # runtime's slot — here a flush that stages nothing.
        empty = shard.begin()
        shard.drain(shard.queue_flush(empty, 'r1'))
        prepared = shard.prepare_commit(empty)
        assert prepared.record is None
        shard.apply_prepared(prepared)
        assert shard.commit_lsn == before + 1

    @pytest.mark.parametrize('make_shard', ['in-process'], indirect=True)
    def test_without_a_wal_the_lsn_is_zero(self, make_shard):
        """In-process only: a process shard always has a log."""
        shard = make_shard()
        shard.load('r1', [(1,)])
        assert shard.commit_lsn == 0
        assert shard.drain(shard.submit('commit_lsn')) == 0

    def test_define_view_reports_created_vs_adopted(self, make_shard,
                                                    union_strategy):
        shard = make_shard()
        entry, created = shard.define_view(union_strategy)
        assert created and entry.name == 'v'
        again, created = shard.define_view(union_strategy, exist_ok=True)
        assert not created and again.name == 'v'
        with pytest.raises(SchemaError, match='already exists'):
            shard.define_view(union_strategy)
        shard.drop_view('v')
        _, created = shard.define_view(union_strategy, exist_ok=True)
        assert created

    def test_catalog_and_storage_calls(self, make_shard, union_strategy):
        shard = make_shard()
        shard.load('r1', iter([(1,), (2,)]))       # any iterable
        shard.load('r2', [(3,)])
        assert shard.count('r1') == 2
        assert not shard.has_cache('v')
        shard.define_view(union_strategy)
        assert shard.rows('v') == {(1,), (2,), (3,)}
        assert shard.has_cache('v')
        assert set(shard.snapshot()['r2']) == {(3,)}
        assert shard.alive
        assert 'counters' in shard.metrics()


@pytest.fixture(params=TRANSPORTS)
def execution(request) -> dict:
    """``ShardedEngine`` options selecting the parametrised transport."""
    return {'execution': 'processes' if request.param == 'process'
            else 'inline'}


class TestClusterOnEitherTransport:

    def test_matches_single_engine(self, union_strategy, execution):
        single = Engine(union_strategy.sources)
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS, **execution)
        try:
            for engine in (single, sharded):
                engine.load('r1', [(1,), (4,)])
                engine.load('r2', [(2,), (5,)])
                engine.define_view(union_strategy, validate_first=False)
            for txn in ([('v', [Insert((3,)), Insert((6,))])],
                        [('v', [Delete({'a': 2})])],
                        [('v', [Update({'a': 9}, {'a': 4})])],
                        [('r1', [Insert((12,))]),
                         ('v', [Delete({'a': 9})])]):
                single.execute_many(txn)
                sharded.execute_many(txn)
                assert sharded.database() == single.database()
                assert frozenset(sharded.rows('v')) == \
                    frozenset(single.rows('v'))
        finally:
            single.close()
            sharded.close()

    def test_errors_raise_identically_and_roll_back(self,
                                                    luxury_strategy,
                                                    execution):
        single = Engine(luxury_strategy.sources)
        sharded = ShardedEngine(luxury_strategy.sources, shards=3,
                                shard_keys={'luxuryitems': 'iid',
                                            'items': 'iid'},
                                **execution)
        try:
            for engine in (single, sharded):
                engine.load('items', [(1, 'watch', 5000),
                                      (2, 'ring', 4000)])
                engine.define_view(luxury_strategy,
                                   validate_first=False)
            txn = [('luxuryitems', [Insert((7, 'socks', 8))])]
            for engine in (single, sharded):
                with pytest.raises(ConstraintViolation):
                    engine.execute_many(txn)
            assert sharded.database() == single.database()
        finally:
            single.close()
            sharded.close()

    def test_close_leaves_no_thread_and_no_worker(self, union_strategy,
                                                  execution):
        """After ``close()`` (here: leaving the context manager) no
        thread and no worker process survives, and a second ``close()``
        is a no-op."""
        before = set(threading.enumerate())
        with ShardedEngine(union_strategy.sources, shards=2,
                           shard_keys=UNION_KEYS,
                           **execution) as sharded:
            sharded.load('r1', [(0,), (1,), (2,), (3,)])
            sharded.define_view(union_strategy, validate_first=False)
            sharded.execute_many(
                [('v', [Insert((i,)) for i in range(10, 20)])])
            assert len(sharded.rows('v')) == 14
            processes = [shard.process for shard in sharded.shards
                         if shard.process is not None]
        assert set(threading.enumerate()) == before
        assert not any(process.is_alive() for process in processes)
        sharded.close()


class TestThreadBudget:
    """Who may create threads: nobody.  In-process shards run every
    call on the calling thread; worker processes are overlapped by
    submitting to all before draining any."""

    @pytest.mark.parametrize('shards', [1, 2, 4])
    def test_no_shard_thread_ever(self, union_strategy, execution,
                                  shards):
        before = set(threading.enumerate())
        sharded = ShardedEngine(union_strategy.sources, shards=shards,
                                shard_keys=UNION_KEYS, **execution)
        try:
            assert set(threading.enumerate()) == before
            sharded.load('r1', [(i,) for i in range(100)])
            sharded.define_view(union_strategy, validate_first=False)
            sharded.execute_many(              # 500 rows, every shard
                [('v', [Insert((i,)) for i in range(1000, 1500)])])
            assert len(sharded.rows('v')) == 600   # partitioned gather
            assert sharded.placement('v') == 'partitioned'
            assert set(threading.enumerate()) == before
        finally:
            sharded.close()
        assert set(threading.enumerate()) == before


class TestCoordinatorCrash:
    """ROADMAP item 15(a): the *coordinator* exits (``os._exit``, no
    shutdown) in the middle of a commit, and a cluster reopened over
    the same logs must hold the transaction wholly or not at all."""

    CHILD = Path(__file__).resolve().parent / '_coordinator_crash_child.py'
    LOADED = {'r1': {(0,), (1,), (2,)}, 'r2': {(4,), (5,)}}

    def _crash_and_reopen(self, union_strategy, execution, tmp_path,
                          case):
        # Reading the output to the end also waits for process
        # workers, which serve what is already in their pipe first.
        proc = subprocess.run(
            [sys.executable, str(self.CHILD), str(tmp_path),
             execution['execution'], case],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with ShardedEngine(union_strategy.sources, shards=3,
                           shard_keys=UNION_KEYS, wal_dir=tmp_path,
                           wal_sync=False, **execution) as reopened:
            reopened.define_view(union_strategy, validate_first=False,
                                 exist_ok=True)
            database = reopened.database()
            return ({name: set(database[name]) for name in self.LOADED},
                    set(reopened.rows('v')))

    def _outcomes(self, inserted):
        """The two whole outcomes: the transaction absent, or present."""
        absent = dict(self.LOADED)
        present = dict(self.LOADED, r1=self.LOADED['r1'] | inserted)
        return [(state, state['r1'] | state['r2'])
                for state in (absent, present)]

    def test_one_shard_commit_is_all_or_nothing(self, union_strategy,
                                                execution, tmp_path):
        """The one-message commit has one commit point, the shard's
        own append: the coordinator exiting after sending it leaves
        ``(7,)`` wholly present or wholly absent."""
        assert self._crash_and_reopen(
            union_strategy, execution, tmp_path, 'one-shard') \
            in self._outcomes({(7,)})

    @pytest.mark.xfail(strict=True, reason=(
        'ROADMAP item 15: a coordinator that exits between two shards\' '
        'applies leaves a cross-shard transaction half-committed'))
    def test_two_shard_commit_is_all_or_nothing(self, union_strategy,
                                                execution, tmp_path):
        """ROADMAP's repro: ``(7,)`` and ``(8,)`` commit on shards 1
        and 2, and the coordinator exits after the first apply was
        sent.  Today the reopened cluster shows ``(7,)`` without
        ``(8,)``; a durable commit decision flips this test."""
        assert self._crash_and_reopen(
            union_strategy, execution, tmp_path, 'two-shard') \
            in self._outcomes({(7,), (8,)})


def _keywords(function) -> set[str]:
    parameters = inspect.signature(function).parameters
    return {name for name, parameter in parameters.items()
            if parameter.kind is parameter.KEYWORD_ONLY}


class TestOptionSurface:
    """Every keyword doubles the configurations the oracles must
    cover: adding one is a deliberate diff to a pinned set here."""

    def test_sharded_engine_keyword_set_is_pinned(self):
        assert _keywords(ShardedEngine.__init__) == {
            'shards', 'backends', 'shard_keys', 'execution', 'wal_dir',
            'wal_sync', 'read_replicas', 'rpc_timeout'}

    def test_replica_set_and_peer_network_keyword_sets_are_pinned(self):
        assert list(inspect.signature(ReplicaSet.__init__).parameters) \
            == ['self', 'primary', 'replicas']
        assert _keywords(ReplicaSet.__init__) == set()
        assert _keywords(PeerNetwork.__init__) == {
            'retry_backoff', 'retry_backoff_cap', 'quarantine_after',
            'clock', 'sleep'}

    @pytest.mark.parametrize('option', [
        'partitioner', 'replica_max_lag', 'transient_retries',
        'retry_backoff', 'retry_backoff_cap', 'retry_max_wait'])
    def test_the_retry_partitioner_and_staleness_options_are_gone(
            self, union_sources, option):
        """A cleanly aborted transaction reaches the caller, placement
        is the one hash, and a replica read never serves stale rows:
        none of them is an option any more."""
        with pytest.raises(TypeError, match=option):
            ShardedEngine(union_sources, **{option: None})

    def test_the_replica_staleness_bound_is_gone(self):
        with pytest.raises(TypeError, match='max_lag'):
            ReplicaSet(None, [], max_lag=0)

    def test_the_thread_pool_options_are_gone(self, union_sources):
        with pytest.raises(TypeError, match='parallelism'):
            ShardedEngine(union_sources, parallelism=2)
        with pytest.raises(SchemaError, match="'inline' or 'processes'"):
            ShardedEngine(union_sources, execution='threads')

    def test_the_statement_at_a_time_option_is_gone(self, union_sources):
        """Every transaction is translated once per view over its net
        view delta: there is no second translation mode to ask for."""
        with pytest.raises(TypeError, match='batch_deltas'):
            Engine(union_sources, batch_deltas=False)
        with pytest.raises(TypeError, match='batch_deltas'):
            ShardedEngine(union_sources, batch_deltas=False)

    def test_the_global_shard_and_read_policy_options_are_gone(
            self, union_sources):
        """The global shard is shard 0 and replica reads rotate
        round-robin: neither is an option any more."""
        with pytest.raises(TypeError, match='global_shard'):
            ShardedEngine(union_sources, global_shard=1)
        with pytest.raises(TypeError, match='read_policy'):
            ShardedEngine(union_sources, read_policy='freshest')
