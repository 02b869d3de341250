"""Process-per-shard execution tests: the worker RPC runtime, the wire
protocol (pickle round-trips over every message type), worker-death
recovery (full-cluster rollback + restart), and shutdown hygiene (no
orphaned workers after close / GC / context-manager exit).

The randomized bit-identical-to-serial proof for process execution
lives in ``tests/fuzz/test_differential.py`` (the ``sharded-procs``
axis); these are the deterministic anchors for what only the process
transport can do — what it shares with the in-process one (the client
contract, single-engine equivalence, clean shutdown) is checked once
for both in ``tests/test_transport.py``.  The dispatch loop is
exercised both in-process (``serve_connection`` on a thread, so
coverage sees the worker side) and against real forked workers."""

import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import (ConstraintViolation, ContradictionError,
                          DatalogSyntaxError, ReproError, SchemaError,
                          ShardUnavailableError, ValidationError)
from repro.rdbms import faults, procpool
from repro.rdbms.backends import MemoryBackend, shard_backend_specs
from repro.rdbms.dml import Delete, Insert, Update
from repro.rdbms.engine import Engine
from repro.rdbms.procpool import (ProcessPool, ProcessShard,
                                  WorkerRuntime, _RpcChannel,
                                  serve_connection)
from repro.rdbms.sharded import ShardedEngine

UNION_KEYS = {'v': 'a', 'r1': 'a', 'r2': 'a'}
_SRC = str(Path(__file__).resolve().parent.parent / 'src')


def _procs_pair(union_strategy, shards=3):
    """(single Engine, process-backed ShardedEngine) with identical
    starting state — the process twin of test_sharded's helper."""
    single = Engine(union_strategy.sources)
    sharded = ShardedEngine(union_strategy.sources, shards=shards,
                            shard_keys=UNION_KEYS,
                            execution='processes')
    for engine in (single, sharded):
        engine.load('r1', [(1,), (4,)])
        engine.load('r2', [(2,), (5,)])
        engine.define_view(union_strategy, validate_first=False)
    return single, sharded


def _clean_abort_then_rerun(engine, txn, before=None) -> None:
    """Run ``txn``, which a worker failure aborts cleanly — the error
    says so (``applied`` is false) and every shard holds what it held
    ``before`` (default: read now) — then run it again, as the caller
    of a clean abort may."""
    before = engine.database() if before is None else before
    with pytest.raises(ShardUnavailableError) as failure:
        engine.execute_many(txn)
    assert failure.value.applied is False
    assert engine.database() == before
    engine.execute_many(txn)


# ---------------------------------------------------------------------------
# Wire protocol: every RPC message type round-trips through pickle
# ---------------------------------------------------------------------------


class TestWireProtocol:

    def _roundtrip(self, message):
        return pickle.loads(pickle.dumps(
            message, protocol=pickle.HIGHEST_PROTOCOL))

    def test_every_request_type_roundtrips(self, union_strategy):
        """One representative ``(seq, method, args)`` frame per worker
        RPC method survives pickling exactly (the coordinator→worker
        direction of the protocol)."""
        statements = [Insert((1,)), Delete({'a': 2}),
                      Update({'a': 3}, {'a': 1})]
        requests = [
            (1, 'commit_local', ([('v', statements)],)),
            (2, 'apply_statements', (7, 'v', statements)),
            (3, 'flush_reads', (7, 'v')),
            (4, 'txn_rows', (7, 'v')),
            (5, 'prepare_commit', (7,)),
            (6, 'apply_prepared', (7,)),
            (7, 'abort', (7,)),
            (8, 'rows', ('r1',)),
            (9, 'snapshot', ()),
            (10, 'load', ('r1', frozenset({(1,), (2,)}))),
            (11, 'count', ('r1',)),
            (12, 'has_cache', ('v',)),
            (13, 'define_view',
             (union_strategy, None, True, {'r1': 10, 'r2': 3})),
            (14, 'drop_view', ('v',)),
            (15, 'ping', ()),
            (16, 'close', ()),
        ]
        for request in requests:
            back = self._roundtrip(request)
            seq, method, args = back
            assert (seq, method) == request[:2]
            if method == 'define_view':
                strategy = args[0]
                assert strategy.view.name == union_strategy.view.name
                assert strategy.putdelta == union_strategy.putdelta
                assert args[1:] == request[2][1:]
            else:
                assert args == request[2]

    def test_every_reply_type_roundtrips(self, union_database):
        """Success replies carry frozensets, Database snapshots,
        strings, ints, bools and None — all exact through the pipe."""
        payloads = [None, 'pong', 42, True,
                    frozenset({(1, 'a'), (2, 'b')}),
                    union_database]
        for payload in payloads:
            seq, ok, back = self._roundtrip((3, True, payload))
            assert (seq, ok) == (3, True)
            assert back == payload

    @pytest.mark.parametrize('error', [
        SchemaError('no such relation'),
        ValidationError('putget failed'),
        DatalogSyntaxError('bad token', 3, 14),
        ContradictionError('r1', frozenset({(1,)})),
        ConstraintViolation('⊥ :- v(X), not X > 0.',
                            witness=frozenset({(-1,)})),
        ShardUnavailableError(2, 'worker died mid-request'),
    ])
    def test_every_error_class_roundtrips_exactly(self, error):
        """Error replies reconstruct the same class, message, and
        structured attributes (the ``__reduce__`` contract)."""
        _, ok, back = self._roundtrip((9, False, error))
        assert not ok
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert isinstance(back, ReproError)
        for attr in ('relation', 'tuples', 'constraint', 'witness',
                     'shard', 'reason', 'line', 'column'):
            if hasattr(error, attr):
                assert getattr(back, attr) == getattr(error, attr)


# ---------------------------------------------------------------------------
# The dispatch loop, in-process (coverage sees the worker side)
# ---------------------------------------------------------------------------


@pytest.fixture
def served_runtime(union_strategy):
    """A ``WorkerRuntime`` served by ``serve_connection`` on a thread
    over a real pipe, driven through ``_RpcChannel`` — the whole RPC
    stack minus the fork."""
    runtime = WorkerRuntime(union_strategy.sources, 'memory')
    parent_conn, child_conn = multiprocessing.Pipe(duplex=True)

    def serve_and_hang_up():
        # A real worker's exit closes the pipe (EOF on the
        # coordinator); in-process the thread must do it explicitly.
        try:
            serve_connection(runtime, child_conn)
        finally:
            child_conn.close()

    thread = threading.Thread(target=serve_and_hang_up, daemon=True)
    thread.start()
    channel = _RpcChannel(parent_conn, shard=0)
    yield runtime, channel
    if not channel.dead:
        try:
            channel.call('close')
        except (ShardUnavailableError, ReproError):
            pass
    thread.join(timeout=5)
    parent_conn.close()


class TestServeConnection:

    def test_full_transaction_lifecycle(self, served_runtime,
                                        union_strategy):
        runtime, channel = served_runtime
        channel.call('load', 'r1', frozenset({(1,)}))
        channel.call('load', 'r2', frozenset({(2,)}))
        channel.call('define_view', union_strategy, None, True, {})
        channel.call('apply_statements', 1, 'v', [Insert((3,))])
        assert channel.call('txn_rows', 1, 'v') == \
            frozenset({(1,), (2,), (3,)})
        channel.call('prepare_commit', 1)
        channel.call('apply_prepared', 1)
        assert channel.call('rows', 'r1') == frozenset({(1,), (3,)})
        assert channel.call('count', 'r1') == 2
        assert channel.call('has_cache', 'v')
        # The one-message transaction: staged, prepared and committed.
        token = channel.call('commit_local', [('v', [Insert((6,))])])
        assert token.record is not None
        assert channel.call('rows', 'r1') == frozenset({(1,), (3,), (6,)})
        snapshot = channel.call('snapshot')
        assert set(snapshot['r2']) == {(2,)}
        channel.call('drop_view', 'v')
        assert channel.call('ping') == 'pong'

    def test_pipelined_requests_reply_in_order(self, served_runtime):
        """Several requests in flight at once; drains return each
        token's own reply even when collected out of order."""
        _, channel = served_runtime
        t1 = channel.submit('load', 'r1', frozenset({(9,)}))
        t2 = channel.submit('ping')
        t3 = channel.submit('rows', 'r1')
        assert channel.drain(t3) == frozenset({(9,)})
        # A load's reply carries the shard log's LSN after it (no log: 0).
        assert channel.drain(t1) == (None, 0)
        assert channel.drain(t2) == 'pong'

    def test_request_failure_is_a_reply_not_a_loop_exit(
            self, served_runtime):
        _, channel = served_runtime
        with pytest.raises(SchemaError):
            channel.call('rows', 'nonexistent')
        assert channel.call('ping') == 'pong'   # worker kept serving

    def test_unknown_and_private_methods_rejected(self, served_runtime):
        _, channel = served_runtime
        with pytest.raises(SchemaError, match='unknown worker RPC'):
            channel.call('no_such_method')
        with pytest.raises(SchemaError, match='unknown worker RPC'):
            channel.call('_workings')
        assert channel.call('ping') == 'pong'

    def test_unpicklable_result_becomes_schema_error(
            self, served_runtime):
        """A reply that will not serialise must not wedge the channel:
        the coordinator is blocked on exactly that seq."""
        runtime, channel = served_runtime
        runtime.opaque = lambda: (lambda: 1)      # result: a lambda
        with pytest.raises(SchemaError, match='did not serialise'):
            channel.call('opaque')
        assert channel.call('ping') == 'pong'

    def test_unpicklable_error_becomes_schema_error(
            self, served_runtime):
        runtime, channel = served_runtime
        def explode():
            raise RuntimeError(lambda: 1)         # unpicklable args
        runtime.explode = explode
        with pytest.raises(SchemaError, match='did not serialise'):
            channel.call('explode')
        assert channel.call('ping') == 'pong'

    def test_close_stops_the_loop(self, served_runtime):
        _, channel = served_runtime
        channel.call('close')
        with pytest.raises(ShardUnavailableError):
            channel.call('ping')
        assert channel.dead

    def test_submit_after_death_raises_immediately(
            self, served_runtime):
        _, channel = served_runtime
        channel.call('close')
        with pytest.raises(ShardUnavailableError):
            channel.call('ping')
        with pytest.raises(ShardUnavailableError):
            channel.submit('ping')


# ---------------------------------------------------------------------------
# Real worker processes
# ---------------------------------------------------------------------------


class TestProcessShard:

    def test_backend_instances_rejected(self, union_sources, tmp_path):
        """Connections must not cross the fork: only kind names."""
        backend = MemoryBackend(union_sources)
        with pytest.raises(SchemaError, match='kind name'):
            ProcessShard(0, union_sources, backend,
                         wal_path=tmp_path / 'shard-0.wal')

    def test_no_worker_starts_without_a_log(self, union_sources):
        """The log is how a worker is recovered, so it is not optional:
        leaving it out, or passing ``None``, fails before any fork."""
        before = multiprocessing.active_children()
        with pytest.raises(TypeError, match='wal_path'):
            ProcessShard(0, union_sources, 'memory')
        with pytest.raises(TypeError):
            ProcessShard(0, union_sources, 'memory', wal_path=None)
        with pytest.raises(TypeError, match='wal_paths'):
            ProcessPool(union_sources, ['memory'])
        assert multiprocessing.active_children() == before

    def test_backend_specs_validate_before_any_fork(self, union_sources):
        """Every shard's spec is checked in the coordinator, before the
        first worker forks — a bad name must not surface as an opaque
        ``ShardUnavailableError`` from a dying worker."""
        def procs(backends, shards=2):
            return ShardedEngine(union_sources, shards=shards,
                                 backends=backends,
                                 execution='processes')
        before = multiprocessing.active_children()
        with pytest.raises(SchemaError, match='unknown backend'):
            procs('no-such-backend')
        with pytest.raises(SchemaError, match='unknown backend'):
            procs(['memory', 'no-such-backend'])
        with pytest.raises(SchemaError, match='2 shards'):
            procs(['memory'])                        # count mismatch
        with pytest.raises(SchemaError, match='not instances'):
            procs(['memory', MemoryBackend(union_sources)])
        assert multiprocessing.active_children() == before
        # Uniform names fan out; None means the backend default.
        assert shard_backend_specs('sqlite', 3) == ['sqlite'] * 3
        assert shard_backend_specs(None, 2) == [None, None]

    def test_restart_replays_catalog(self, union_strategy, tmp_path):
        shard = ProcessShard(0, union_strategy.sources, 'memory',
                             wal_path=tmp_path / 'shard-0.wal',
                             wal_sync=False)
        try:
            shard.load('r1', [(1,), (2,)])
            shard.load('r2', [(3,)])
            shard.define_view(union_strategy)
            os.kill(shard.process.pid, signal.SIGKILL)
            shard.process.join(5)
            assert not shard.alive
            shard.restart()
            assert shard.alive
            assert shard.rows('r1') == frozenset({(1,), (2,)})
            assert shard.rows('v') == frozenset({(1,), (2,), (3,)})
        finally:
            shard.close()

    def test_commit_lsn_is_known_after_a_commit(self, union_strategy,
                                                tmp_path):
        """A commit's reply tells the client its shard log's LSN, so
        ``commit_lsn`` then sends no request; so does the reply of any
        other call that writes the log (``load``, ``define_view``)."""
        shard = ProcessShard(0, union_strategy.sources, 'memory',
                             wal_path=tmp_path / 'shard-0.wal',
                             wal_sync=False)

        def sent() -> int:
            return shard.channel._seq

        try:
            for write in (lambda: shard.load('r1', [(1,)]),
                          lambda: shard.define_view(union_strategy)):
                write()
                before = sent()
                lsn = shard.commit_lsn
                assert sent() == before
                assert shard.channel.call('commit_lsn') == lsn
            token = shard.commit_local([('v', [Insert((2,))])])
            before = sent()
            assert shard.commit_lsn == token.lsn + 1 == lsn + 1
            assert sent() == before
            assert shard.channel.call('commit_lsn') == lsn + 1
        finally:
            shard.close()

    def test_close_is_idempotent_and_reaps(self, union_sources,
                                           tmp_path):
        shard = ProcessShard(0, union_sources, 'memory',
                             wal_path=tmp_path / 'shard-0.wal')
        process = shard.process
        shard.close()
        assert not process.is_alive()
        shard.close()                              # second close: no-op
        assert shard.process is None


class TestProcessPool:

    def test_pool_gc_reaps_workers(self, union_sources, tmp_path):
        """Dropping the last reference shuts the workers down (the
        ``weakref.finalize``) — no orphans from forgotten pools."""
        pool = ProcessPool(union_sources, ['memory', 'memory'],
                           wal_paths=[tmp_path / 'a.wal',
                                      tmp_path / 'b.wal'])
        processes = [shard.process for shard in pool.shards]
        assert all(p.is_alive() for p in processes)
        del pool
        gc.collect()
        for process in processes:
            process.join(timeout=5)
        assert not any(p.is_alive() for p in processes)

    def test_shutdown_idempotent(self, union_sources, tmp_path):
        pool = ProcessPool(union_sources, ['memory'],
                           wal_paths=[tmp_path / 'a.wal'])
        pool.shutdown()
        assert not any(s.alive for s in pool.shards)
        pool.shutdown()                            # detach() already ran


# ---------------------------------------------------------------------------
# The process-backed sharded engine
# ---------------------------------------------------------------------------


class TestProcessExecution:

    def test_worker_killed_mid_prepare_rolls_back_cluster(
            self, union_strategy, monkeypatch):
        """The satellite's centerpiece: worker 1 dies *inside*
        ``prepare_commit`` → the whole cluster transaction rolls back
        (no shard applied), the coordinator raises a clean
        ``ShardUnavailableError``, and the restarted worker serves the
        next transaction."""
        original = Engine.prepare_commit

        def dying(self, working):
            if procpool.WORKER_INDEX == 1:
                os._exit(1)                 # mid-prepare, no reply sent
            return original(self, working)

        # Patch BEFORE the fork so workers inherit it; undo in the
        # parent immediately — the coordinator (and any worker
        # restarted later) runs the real prepare.
        monkeypatch.setattr(Engine, 'prepare_commit', dying)
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS,
                                execution='processes')
        monkeypatch.undo()
        try:
            sharded.load('r1', [(0,), (1,), (2,)])
            sharded.define_view(union_strategy, validate_first=False)
            before = sharded.database()
            txn = [('v', [Insert((3,)), Insert((4,)), Insert((5,))])]
            with pytest.raises(ShardUnavailableError):
                sharded.execute_many(txn)
            # Full-cluster rollback: shards 0 and 2 had prepared but
            # never applied; the restarted shard 1 replayed its loads.
            assert sharded.database() == before
            assert all(shard.alive for shard in sharded.shards)
            # Recovery: the same transaction now commits (the
            # restarted worker forked from the unpatched parent).
            sharded.execute_many(txn)
            assert frozenset(sharded.rows('v')) == \
                frozenset({(0,), (1,), (2,), (3,), (4,), (5,)})
        finally:
            sharded.close()

    def test_sigkill_surfaces_cleanly_and_pool_recovers(
            self, union_strategy):
        """An externally killed worker: the next transaction touching
        it fails with ``ShardUnavailableError`` (not a pickle or pipe
        traceback), aborts cluster-wide, and the one after succeeds."""
        single, sharded = _procs_pair(union_strategy)
        try:
            victim = sharded.shards[2]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(5)
            txn = [('v', [Insert((3,)), Insert((2,)),  # hits shard 2
                          Insert((8,))])]
            with pytest.raises(ShardUnavailableError):
                sharded.execute_many(txn)
            assert all(shard.alive for shard in sharded.shards)
            sharded.execute_many(txn)
            single.execute_many(txn)
            assert sharded.database() == single.database()
        finally:
            single.close()
            sharded.close()

    def test_engine_context_manager(self, union_sources):
        with Engine(union_sources) as engine:
            engine.load('r1', [(1,)])
            assert frozenset(engine.rows('r1')) == {(1,)}

    def test_worker_index_is_none_in_coordinator(self):
        assert procpool.WORKER_INDEX is None

    def test_rpc_timeout_surfaces_wedged_worker(self, union_strategy):
        """The liveness satellite: a worker that *hangs* (alive, not
        replying) must abort the cluster transaction with
        ``ShardUnavailableError`` instead of blocking the coordinator
        forever — and the pool terminates and replaces it."""
        plan = faults.FaultPlan()
        plan.hang_worker(shard=1, method='prepare_commit', seconds=600)
        with plan.installed():
            sharded = ShardedEngine(union_strategy.sources, shards=3,
                                    shard_keys=UNION_KEYS,
                                    execution='processes',
                                    rpc_timeout=0.5)
        try:
            sharded.load('r1', [(0,), (1,), (2,)])
            sharded.define_view(union_strategy, validate_first=False)
            txn = [('v', [Insert((3,)), Insert((4,)), Insert((5,))])]
            with pytest.raises(ShardUnavailableError,
                               match='wedged|no reply'):
                sharded.execute_many(txn)
            # The wedged worker was reaped and replaced; the cluster
            # rolled back and keeps serving.
            assert all(shard.alive for shard in sharded.shards)
            sharded.execute_many(txn)
            assert frozenset(sharded.rows('v')) >= {(3,), (4,), (5,)}
        finally:
            sharded.close()

    def test_prepare_death_is_a_clean_abort_the_caller_reruns(
            self, union_strategy, monkeypatch):
        """A worker killed mid-prepare aborts the transaction cleanly;
        the coordinator restarts it, and the caller's re-run of the
        same transaction commits."""
        original = Engine.prepare_commit

        def dying(self, working):
            if procpool.WORKER_INDEX == 1:
                os._exit(1)
            return original(self, working)

        monkeypatch.setattr(Engine, 'prepare_commit', dying)
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS,
                                execution='processes')
        monkeypatch.undo()
        try:
            sharded.load('r1', [(0,), (1,), (2,)])
            sharded.define_view(union_strategy, validate_first=False)
            _clean_abort_then_rerun(sharded, [
                ('v', [Insert((3,)), Insert((4,)), Insert((5,))])])
            assert sharded.shards[1].generation == 1
            assert frozenset(sharded.rows('v')) == \
                frozenset({(0,), (1,), (2,), (3,), (4,), (5,)})
        finally:
            sharded.close()

    def test_dropped_rpc_is_a_clean_abort_the_caller_reruns(
            self, union_strategy):
        """A dropped RPC frame (coordinator-side send failure) breaks
        the channel exactly like a real ``OSError``: a clean abort, the
        worker is restarted, and the caller's re-run commits."""
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS,
                                execution='processes')
        plan = faults.FaultPlan()
        plan.drop_rpc(shard=2, method='prepare_commit')
        try:
            sharded.load('r1', [(0,), (1,), (2,)])
            sharded.define_view(union_strategy, validate_first=False)
            with plan.installed():   # rpc.send fires coordinator-side
                _clean_abort_then_rerun(sharded, [
                    ('v', [Insert((3,)), Insert((4,)), Insert((5,))])])
            assert plan.fired('rpc.send') == 1
            assert frozenset(sharded.rows('v')) == \
                frozenset({(0,), (1,), (2,), (3,), (4,), (5,)})
        finally:
            sharded.close()

    def test_duplicated_rpc_frame_executes_once(self, union_strategy):
        """At-least-once transport: a frame sent twice must be
        absorbed by the worker's sequence dedup — dispatching it again
        would double-execute the method AND desynchronise the reply
        stream (two replies for one token poisons every later drain)."""
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS,
                                execution='processes')
        plan = faults.FaultPlan()
        plan.dup_rpc(method='apply_statements')
        try:
            sharded.load('r1', [(0,), (1,), (2,)])
            sharded.define_view(union_strategy, validate_first=False)
            with plan.installed():
                sharded.execute_many(
                    [('v', [Insert((3,)), Insert((4,)), Insert((5,))])])
                # The channel stays aligned: later calls still pair
                # request to reply correctly.
                assert frozenset(sharded.rows('v')) == \
                    frozenset({(0,), (1,), (2,), (3,), (4,), (5,)})
            assert plan.fired('rpc.send') == 1
            sharded.execute_many([('v', [Insert((6,))])])
            assert (6,) in sharded.rows('v')
        finally:
            sharded.close()

    def test_reordered_rpc_frames_dispatch_fifo(self, union_strategy):
        """A held-back flush gate delivered after the statements that
        follow it on the same shard must be re-sequenced worker-side —
        the dispatch order is FIFO by sequence number, not arrival
        order — and the transaction commits as on a single engine."""
        single = Engine(union_strategy.sources)
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS,
                                execution='processes')
        plan = faults.FaultPlan()
        plan.reorder_rpc(shard=0, method='flush_reads')
        txn = [('v', [Insert((3,)), Insert((4,))]),   # shards 0, 1
               ('r1', [Delete({'a': 3})])]            # gates, shard 0
        try:
            for engine in (single, sharded):
                engine.load('r1', [(0,), (1,), (2,)])
                engine.define_view(union_strategy, validate_first=False)
            with plan.installed():
                sharded.execute_many(txn)
            single.execute_many(txn)
            assert plan.fired('rpc.send') == 1
            assert sharded.database() == single.database()
            assert frozenset(sharded.rows('v')) == \
                frozenset(single.rows('v'))
        finally:
            single.close()
            sharded.close()

    def test_no_orphans_at_interpreter_exit(self, tmp_path):
        """A script that builds a pool and exits WITHOUT closing must
        still reap its workers (the atexit side of the finalizer) —
        asserted by the interpreter actually exiting promptly."""
        script = tmp_path / 'leak.py'
        script.write_text(
            'import sys\n'
            f'sys.path.insert(0, {str(_SRC)!r})\n'
            'from repro.relational.schema import DatabaseSchema\n'
            'from repro.rdbms.procpool import ProcessPool\n'
            'schema = DatabaseSchema.build(r1={"a": "int"})\n'
            'pool = ProcessPool(schema, ["memory", "memory"],\n'
            f'                   wal_paths=[{str(tmp_path / "a.wal")!r},\n'
            f'                              {str(tmp_path / "b.wal")!r}])\n'
            'print(len([s for s in pool.shards if s.alive]))\n',
            encoding='utf-8')
        result = subprocess.run([sys.executable, str(script)],
                                capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == '2'


# ---------------------------------------------------------------------------
# Crash tolerance: in-worker WALs, deterministic kills, apply repair
# ---------------------------------------------------------------------------


class TestWalBackedWorkers:
    """The tentpole: each worker owns ``shard-<i>.wal``, the fsynced
    append is its commit point, restart replays the committed prefix,
    and a worker killed mid-apply is repaired from its prepare reply —
    SIGKILL anywhere loses zero committed transactions."""

    TXNS = (
        [('v', [Insert((7,)), Insert((8,))])],          # shards 1, 2
        [('v', [Delete({'a': 1})])],                    # shard 1
        [('v', [Insert((9,))]), ('r1', [Insert((12,))])],
        [('v', [Update({'a': 13}, {'a': 8})])],         # key-moving
    )

    def _wal_cluster(self, union_strategy, wal_dir,
                     execution='processes', **kwargs):
        engine = ShardedEngine(union_strategy.sources, shards=3,
                               shard_keys=UNION_KEYS,
                               execution=execution,
                               wal_dir=wal_dir, wal_sync=False,
                               **kwargs)
        engine.load('r1', [(0,), (1,), (2,)])
        engine.load('r2', [(4,), (5,)])
        engine.define_view(union_strategy, validate_first=False)
        return engine

    def test_commit_lsns_uniform_across_executions(self, union_strategy,
                                                   tmp_path):
        """``commit_lsn`` works identically for inline and process
        execution: same routing → same per-shard LSN vector."""
        inline = self._wal_cluster(union_strategy, tmp_path / 't',
                                   execution='inline')
        procs = self._wal_cluster(union_strategy, tmp_path / 'p')
        try:
            for txn in self.TXNS:
                inline.execute_many(txn)
                procs.execute_many(txn)
            assert procs.commit_lsn == inline.commit_lsn
            assert any(procs.commit_lsn)
        finally:
            inline.close()
            procs.close()

    def test_external_sigkill_loses_no_committed_transaction(
            self, union_strategy, tmp_path):
        """Kill a worker from outside between transactions: the next
        touching transaction aborts (and auto-restarts the worker from
        its log), after which state and LSNs match the inline-mode
        oracle exactly — committed deltas survived."""
        oracle = self._wal_cluster(union_strategy, tmp_path / 'o',
                                   execution='inline')
        victim = self._wal_cluster(union_strategy, tmp_path / 'v')
        try:
            first = self.TXNS[0]
            oracle.execute_many(first)
            victim.execute_many(first)
            os.kill(victim.shards[1].process.pid, signal.SIGKILL)
            victim.shards[1].process.join(5)
            nxt = self.TXNS[1]
            oracle.execute_many(nxt)
            with pytest.raises(ShardUnavailableError):
                victim.execute_many(nxt)         # abort + restart
            victim.execute_many(nxt)             # recovered worker
            assert victim.shards[1].generation == 1
            assert victim.commit_lsn == oracle.commit_lsn
            assert victim.database() == oracle.database()
            assert frozenset(victim.rows('v')) \
                == frozenset(oracle.rows('v'))
        finally:
            oracle.close()
            victim.close()

    def test_worker_death_in_exist_ok_define_keeps_adopted_views(
            self, luxury_strategy, tmp_path):
        """The process twin of test_sharded's rollback reproduction: a
        worker dying inside ``define_view(exist_ok=True)`` must not make
        the coordinator drop the view from the shards that adopted
        their WAL-recovered copy — after the failure, and after another
        reopen, every shard still carries it."""
        keys = {'luxuryitems': 'iid', 'items': 'iid'}

        def reopen():
            return ShardedEngine(luxury_strategy.sources, shards=2,
                                 shard_keys=keys, execution='processes',
                                 wal_dir=tmp_path, wal_sync=False)

        def adopted(engine):
            """Per shard: did it already carry the view?"""
            return [not shard.define_view(luxury_strategy,
                                          exist_ok=True)[1]
                    for shard in engine.shards]

        with reopen() as sharded:
            sharded.load('items', [(1, 'watch', 5000), (2, 'ring', 4000)])
            sharded.define_view(luxury_strategy, validate_first=False)
        plan = faults.FaultPlan()
        plan.kill_worker(shard=1, method='define_view')
        with plan.installed():
            sharded = reopen()      # both workers recover the view
        try:
            with pytest.raises(ShardUnavailableError):
                sharded.define_view(luxury_strategy,
                                    validate_first=False, exist_ok=True)
            assert sharded.shards[1].generation == 1   # kill DID happen
            assert adopted(sharded) == [True, True]
        finally:
            sharded.close()
        with reopen() as sharded:   # and nothing was dropped durably
            assert adopted(sharded) == [True, True]
            sharded.define_view(luxury_strategy, validate_first=False,
                                exist_ok=True)
            assert sharded.rows('luxuryitems') == {(1, 'watch', 5000),
                                                   (2, 'ring', 4000)}

    def test_kill_mid_apply_is_repaired_bit_identical(
            self, union_strategy, tmp_path):
        """The acceptance criterion: SIGKILL a worker *inside* the
        apply phase (before its commit-point append) mid-workload.  The
        coordinator repairs the shard from its prepare reply — the
        transaction SUCCEEDS — and the full workload's committed state
        and LSN vector are bit-identical to the fault-free oracle."""
        oracle = self._wal_cluster(union_strategy, tmp_path / 'o',
                                   execution='inline')
        plan = faults.FaultPlan()
        # Shard 1's second apply dispatch: mid-workload, after it has
        # already committed once.  The kill fires BEFORE the append —
        # the hardest case: siblings applied, this shard did not.
        plan.kill_worker(shard=1, method='apply_prepared', hit=2)
        with plan.installed():
            victim = self._wal_cluster(union_strategy, tmp_path / 'v')
        try:
            for txn in self.TXNS:
                oracle.execute_many(txn)
                victim.execute_many(txn)        # no exception: repaired
            assert victim.shards[1].generation == 1   # kill DID happen
            assert victim.commit_lsn == oracle.commit_lsn
            assert victim.database() == oracle.database()
            assert frozenset(victim.rows('v')) \
                == frozenset(oracle.rows('v'))
            assert victim.shard_rows('v') == oracle.shard_rows('v')
        finally:
            oracle.close()
            victim.close()

    def test_torn_frame_mid_apply_is_repaired(self, union_strategy,
                                              tmp_path):
        """A crash mid-``write(2)``: half the commit frame reaches the
        log, the worker dies.  Recovery truncates the torn tail (the
        append never committed) and the repair path re-commits — same
        oracle-identical outcome."""
        oracle = self._wal_cluster(union_strategy, tmp_path / 'o',
                                   execution='inline')
        plan = faults.FaultPlan()
        # Shard 1's WAL appends: load(r1) is 1, load(r2) is 2,
        # define_view is 3, first commit is 4 — tear the 5th append,
        # i.e. the second commit, mid-workload.
        plan.tear_frame(shard=1, hit=5)
        with plan.installed():
            victim = self._wal_cluster(union_strategy, tmp_path / 'v')
        try:
            for txn in self.TXNS:
                oracle.execute_many(txn)
                victim.execute_many(txn)
            assert victim.shards[1].generation == 1
            assert victim.commit_lsn == oracle.commit_lsn
            assert victim.database() == oracle.database()
        finally:
            oracle.close()
            victim.close()

    def test_fsync_error_kills_worker_and_repair_recovers(
            self, union_strategy, tmp_path):
        """A failed fsync poisons the worker's log; the worker dies
        (``os._exit(3)``) rather than serve non-durable commits, and
        the repair path restarts it and re-commits."""
        oracle = self._wal_cluster(union_strategy, tmp_path / 'o',
                                   execution='inline')
        plan = faults.FaultPlan()
        # Shard 1's 5th fsync = its second commit (see above).
        plan.fail_fsync(shard=1, hit=5)
        with plan.installed():
            victim = self._wal_cluster(union_strategy, tmp_path / 'v')
        try:
            for txn in self.TXNS:
                oracle.execute_many(txn)
                victim.execute_many(txn)
            assert victim.shards[1].generation == 1
            assert victim.commit_lsn == oracle.commit_lsn
            assert victim.database() == oracle.database()
        finally:
            oracle.close()
            victim.close()


class TestOneMessageCommit:
    """A transaction that routing proves has one participant shard is
    one request: the worker stages, prepares and commits in one call.
    Its crash outcome is decided from the shard's log, so a kill at any
    point of that call ends exactly where the fault-free inline oracle
    does — same state, same LSNs, one listener record per committed
    transaction."""

    _wal_cluster = TestWalBackedWorkers._wal_cluster
    #: One transaction over every shard: afterwards every client knows
    #: its shard's LSN from the prepare tokens.
    WARM = [('v', [Insert((30,)), Insert((31,)), Insert((32,))])]
    #: Every transaction's one participant is shard 1.
    LOCAL = (
        [('v', [Insert((7,))])],
        [('v', [Delete({'a': 1})])],
        [('v', [Insert((10,)), Insert((13,))]), ('r1', [Delete({'a': 7})])],
        [('r2', [Insert((16,))])],
    )

    def _pair(self, union_strategy, tmp_path, plan=None, **kwargs):
        """(inline oracle, process victim — forked under ``plan``), each
        recording what its commit listeners receive."""
        oracle = self._wal_cluster(union_strategy, tmp_path / 'o',
                                   execution='inline')
        with (plan or faults.FaultPlan()).installed():
            victim = self._wal_cluster(union_strategy, tmp_path / 'v',
                                       **kwargs)
        records = {}
        for name, engine in (('oracle', oracle), ('victim', victim)):
            records[name] = []
            engine.commit_listeners.append(records[name].append)
        return oracle, victim, records

    @staticmethod
    def _assert_converged(oracle, victim, records):
        assert victim.database() == oracle.database()
        assert victim.commit_lsn == oracle.commit_lsn
        assert victim.shard_rows('v') == oracle.shard_rows('v')
        assert records['victim'] == records['oracle']

    def test_requests_per_transaction(self, union_strategy, tmp_path):
        """One request for a one-shard transaction (two-phase commit
        sent four: begin, statements, prepare, apply) and three per
        participant for a two-shard one — and the result is the inline
        cluster's, listener records included."""
        oracle, victim, records = self._pair(union_strategy, tmp_path)

        def requests() -> int:
            return victim.metrics()['counters']['rpc.requests']

        try:
            for engine in (oracle, victim):
                engine.execute_many(self.WARM)
            sent = []
            for txn in TestWalBackedWorkers.TXNS + self.LOCAL:
                oracle.execute_many(txn)
                before = requests()
                victim.execute_many(txn)
                # Reading the count costs one ``metrics`` request per
                # shard itself.
                sent.append(requests() - before - victim.n_shards)
            two_shard, one_shard, one_shard_two_targets = sent[:3]
            assert two_shard == 2 * 3
            assert one_shard == one_shard_two_targets == 1
            assert sent[4:] == [1] * len(self.LOCAL)
            self._assert_converged(oracle, victim, records)
        finally:
            oracle.close()
            victim.close()

    @pytest.mark.parametrize('phase', ['apply_statements', 'prepare_commit',
                                       'apply_prepared'])
    def test_kill_before_the_commit_point_resends(
            self, union_strategy, tmp_path, phase, monkeypatch):
        """SIGKILL inside the one call — while staging, at prepare, or
        just before the WAL append — in the second transaction: the
        restarted worker's log shows the pre-transaction LSN, so the
        request is sent once more, and the transaction commits."""
        reads = []
        monkeypatch.setattr(procpool, 'read_records',
                            lambda *a, **k: reads.append(a) or iter(()))
        plan = faults.FaultPlan()
        plan.kill_worker(shard=1, method=phase, hit=2)
        oracle, victim, records = self._pair(union_strategy, tmp_path,
                                             plan)
        try:
            for txn in self.LOCAL:
                oracle.execute_many(txn)
                victim.execute_many(txn)        # no exception: resent
            assert victim.shards[1].generation == 1   # kill DID happen
            assert reads == []
            self._assert_converged(oracle, victim, records)
            assert len(records['victim']) == len(self.LOCAL)
        finally:
            oracle.close()
            victim.close()

    def test_death_after_the_append_reads_the_record_back(
            self, union_strategy, tmp_path, monkeypatch):
        """The worker dies after its append — the commit point — but
        before replying (a failed fsync: the frame is written, the
        worker exits).  The restarted worker's log is one record past
        the pre-transaction LSN: the transaction committed, and its
        record is read back from the log for the listeners — not sent
        again."""
        reads = []
        read_records = procpool.read_records

        def counted(*args, **kwargs):
            reads.append(args)
            return read_records(*args, **kwargs)

        monkeypatch.setattr(procpool, 'read_records', counted)
        plan = faults.FaultPlan()
        # Shard 1's fsyncs: the new log's header, load(r1), load(r2),
        # define_view, the first commit — the 6th is the second commit.
        plan.fail_fsync(shard=1, hit=6)
        oracle, victim, records = self._pair(union_strategy, tmp_path,
                                             plan)
        try:
            for txn in self.LOCAL:
                oracle.execute_many(txn)
                victim.execute_many(txn)
            assert victim.shards[1].generation == 1
            assert len(reads) == 1
            self._assert_converged(oracle, victim, records)
            assert len(records['victim']) == len(self.LOCAL)
        finally:
            oracle.close()
            victim.close()

    def test_a_resent_failure_is_the_transactions_outcome(
            self, union_strategy, tmp_path):
        """The kill lands in a transaction that fails on its own (a
        row of the wrong arity): the resent request raises what the
        inline cluster raises, and nothing commits."""
        plan = faults.FaultPlan()
        plan.kill_worker(shard=1, method='apply_statements', hit=1)
        oracle, victim, records = self._pair(union_strategy, tmp_path,
                                             plan)
        bad = [('v', [Insert((7,))]), ('r1', [Insert((10, 'x'))])]
        try:
            for engine in (oracle, victim):
                with pytest.raises(SchemaError):
                    engine.execute_many(bad)
            assert victim.shards[1].generation == 1
            self._assert_converged(oracle, victim, records)
            assert records['victim'] == []
        finally:
            oracle.close()
            victim.close()

    def test_dropped_request_is_a_clean_abort(self, union_strategy,
                                              tmp_path):
        """``rpc.send`` addresses the one request by the phase it
        carries, ``prepare_commit``.  A send that fails never reached
        the worker: a clean abort, and the caller's re-run commits."""
        plan = faults.FaultPlan()
        plan.drop_rpc(shard=1, method='prepare_commit', hit=2)
        oracle, victim, records = self._pair(union_strategy, tmp_path)
        try:
            with plan.installed():      # rpc.send fires coordinator-side
                for index, txn in enumerate(self.LOCAL):
                    oracle.execute_many(txn)
                    if index == 1:      # shard 1's second commit request
                        _clean_abort_then_rerun(victim, txn)
                    else:
                        victim.execute_many(txn)
            assert plan.fired('rpc.send') == 1
            self._assert_converged(oracle, victim, records)
        finally:
            oracle.close()
            victim.close()


class TestOwnedLogs:
    """A process cluster built *without* ``wal_dir`` still gives every
    worker a log — in a directory the engine owns — so there is one way
    to recover a worker: a kill between transactions loses nothing, a
    kill mid-apply is repaired, and the directory goes with the engine
    (never with a worker)."""

    COMMITTED = TestWalBackedWorkers.TXNS[:3]
    #: a key-moving UPDATE whose row leaves shard 0 for shard 1
    NEXT = [('v', [Update({'a': 13}, {'a': 9})])]

    def _ready(self, engine, union_strategy):
        engine.load('r1', [(0,), (1,), (2,)])
        engine.load('r2', [(4,), (5,)])
        engine.define_view(union_strategy, validate_first=False)
        return engine

    def _single(self, union_strategy):
        return self._ready(Engine(union_strategy.sources), union_strategy)

    def _cluster(self, union_strategy, **kwargs):
        return self._ready(
            ShardedEngine(union_strategy.sources, shards=3,
                          shard_keys=UNION_KEYS, execution='processes',
                          **kwargs), union_strategy)

    @pytest.mark.parametrize('shard', [0, 1])
    def test_sigkill_loses_no_committed_transaction(self, union_strategy,
                                                    shard):
        """Three commits, then the worker of ``shard`` — the one the
        next transaction moves a row out of, or the one it moves the
        row into — is SIGKILLed: that transaction aborts cleanly with
        ``ShardUnavailableError``, the restarted worker has every one
        of the three commits, and the caller's re-run commits — state
        equals the single engine's."""
        single = self._single(union_strategy)
        sharded = self._cluster(union_strategy)
        try:
            for txn in self.COMMITTED:
                single.execute_many(txn)
                sharded.execute_many(txn)
            committed = single.database()
            assert (9,) in sharded.shard_rows('v')[0]
            os.kill(sharded.shards[shard].process.pid, signal.SIGKILL)
            sharded.shards[shard].process.join(5)
            _clean_abort_then_rerun(sharded, self.NEXT, committed)
            single.execute_many(self.NEXT)
            assert (13,) in sharded.shard_rows('v')[1]
            assert sharded.shards[shard].generation == 1
            assert sharded.database() == single.database()
            assert frozenset(sharded.rows('v')) \
                == frozenset(single.rows('v'))
        finally:
            single.close()
            sharded.close()

    def test_kill_mid_apply_is_repaired(self, union_strategy):
        """A worker killed inside the apply phase — its siblings have
        applied — is restarted from its log and re-commits the record
        the coordinator kept: the transaction succeeds, it is not a
        partial-commit report."""
        single = self._single(union_strategy)
        plan = faults.FaultPlan()
        plan.kill_worker(shard=1, method='apply_prepared', hit=2)
        with plan.installed():
            sharded = self._cluster(union_strategy)
        try:
            for txn in TestWalBackedWorkers.TXNS:
                single.execute_many(txn)
                sharded.execute_many(txn)       # no exception: repaired
            assert sharded.shards[1].generation == 1   # kill DID happen
            assert sharded.database() == single.database()
            assert frozenset(sharded.rows('v')) \
                == frozenset(single.rows('v'))
        finally:
            single.close()
            sharded.close()

    def test_log_directory_goes_with_the_engine_not_with_a_worker(
            self, union_strategy):
        sharded = self._cluster(union_strategy)
        try:
            logs = Path(sharded.shards[0]._wal_path).parent
            names = sorted(path.name for path in logs.iterdir())
            assert names == ['shard-0.wal', 'shard-1.wal', 'shard-2.wal']
            # An orderly worker exit runs that process's exit handlers;
            # a kill runs none.  Neither may take the logs along.
            sharded.shards[0].channel.call('close')
            sharded.shards[0].process.join(5)
            os.kill(sharded.shards[2].process.pid, signal.SIGKILL)
            sharded.shards[2].process.join(5)
            assert sorted(path.name for path in logs.iterdir()) == names
        finally:
            sharded.close()
        assert not logs.exists()
        sharded.close()                         # idempotent
