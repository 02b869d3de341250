"""Engine-wide metrics tests: the registry itself (exactness under
concurrency, bounded reservoirs, snapshot merging) and the hook sites
up the stack — single engine phase timings, WAL stat fold-in, sharded
cluster merging across threads and worker processes (restart and
retry traffic included), the serving front-end's stats/metrics
coherence under grouped commits with mixed failures, and the replica
router's quarantine/reinstate gauges.

The drift properties under test: every transaction is counted exactly
once at each level (no double counting when worker snapshots are
merged with the coordinator's), monotonic counters never move
backwards across worker restarts, and live gauges reconverge after
quarantine/reinstate while their monotonic twins keep the history.

No pytest-asyncio in the image: server tests are plain sync functions
driving ``asyncio.run`` (the test_serve.py idiom)."""

import asyncio
import os
import signal
import threading
from collections import Counter

import pytest

from repro.errors import ConstraintViolation, ShardUnavailableError
from repro.rdbms import engine as engine_mod
from repro.rdbms import procpool
from repro.rdbms import sharded as sharded_mod
from repro.rdbms.dml import Delete, Insert, Update
from repro.rdbms.engine import Engine
from repro.rdbms.metrics import (MERGED_RESERVOIR_SIZE, RESERVOIR_SIZE,
                                 MetricsRegistry, merge_snapshots)
from repro.rdbms.replica import ReplicaEngine, ReplicaSet
from repro.rdbms.serve import Receipt, ViewServer
from repro.rdbms.sharded import ShardedEngine

UNION_KEYS = {'v': 'a', 'r1': 'a', 'r2': 'a'}


def _luxury_engine(luxury_strategy, **kwargs):
    engine = Engine(luxury_strategy.sources, **kwargs)
    engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000)])
    engine.define_view(luxury_strategy, validate_first=False)
    return engine


def _union_cluster(union_strategy, **kwargs):
    sharded = ShardedEngine(union_strategy.sources, shards=3,
                            shard_keys=UNION_KEYS, **kwargs)
    sharded.load('r1', [(1,)])
    sharded.load('r2', [(2,)])
    sharded.define_view(union_strategy, validate_first=False)
    return sharded


# ---------------------------------------------------------------------------
# The registry itself
# ---------------------------------------------------------------------------


class TestRegistry:

    def test_counter_gauge_observe(self):
        reg = MetricsRegistry()
        reg.counter('c')
        reg.counter('c', 4)
        reg.gauge('g', 1.5)
        reg.gauge('g', 2.5)                     # last write wins
        reg.observe('h', 0.25)
        reg.observe('h', 0.75)
        snap = reg.snapshot()
        assert snap['counters'] == {'c': 5}
        assert snap['gauges'] == {'g': 2.5}
        hist = snap['histograms']['h']
        assert hist['count'] == 2
        assert hist['sum'] == pytest.approx(1.0)
        assert hist['min'] == 0.25 and hist['max'] == 0.75
        assert hist['reservoir'] == [0.25, 0.75]

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter('c')
        reg.gauge('g', 1.0)
        reg.observe('h', 1.0)
        assert reg.snapshot() == {'counters': {}, 'gauges': {},
                                  'histograms': {}}

    def test_concurrent_writers_lose_nothing(self):
        """N threads hammering one counter and one histogram: the
        totals are exact — no lost increments, no dropped samples in
        the aggregate count/sum."""
        reg = MetricsRegistry()
        threads, per_thread = 8, 1000

        def work():
            for _ in range(per_thread):
                reg.counter('txns')
                reg.observe('lat', 0.001)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        snap = reg.snapshot()
        total = threads * per_thread
        assert snap['counters']['txns'] == total
        assert snap['histograms']['lat']['count'] == total
        assert snap['histograms']['lat']['sum'] == \
            pytest.approx(total * 0.001)

    def test_reservoir_bounded_but_aggregates_exact(self):
        reg = MetricsRegistry()
        n = 2 * RESERVOIR_SIZE + 7
        for i in range(n):
            reg.observe('h', float(i))
        hist = reg.snapshot()['histograms']['h']
        # Exact aggregates survive the trim...
        assert hist['count'] == n
        assert hist['sum'] == pytest.approx(n * (n - 1) / 2)
        assert hist['min'] == 0.0 and hist['max'] == float(n - 1)
        # ...the reservoir stays bounded and keeps the newest samples.
        reservoir = hist['reservoir']
        assert len(reservoir) <= 2 * RESERVOIR_SIZE
        assert reservoir[-1] == float(n - 1)
        tail = [float(v) for v in range(n - RESERVOIR_SIZE, n)]
        assert reservoir[-RESERVOIR_SIZE:] == tail

    def test_merge_sums_counters_gauges_and_hists(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter('c', 2)
        b.counter('c', 3)
        b.counter('only_b')
        a.gauge('g', 1.0)
        b.gauge('g', 2.0)
        a.observe('h', 0.1)
        b.observe('h', 0.9)
        merged = merge_snapshots([a.snapshot(), None, b.snapshot()])
        assert merged['counters'] == {'c': 5, 'only_b': 1}
        assert merged['gauges'] == {'g': 3.0}
        hist = merged['histograms']['h']
        assert hist['count'] == 2
        assert hist['min'] == 0.1 and hist['max'] == 0.9
        assert sorted(hist['reservoir']) == [0.1, 0.9]

    def test_merged_reservoir_is_capped(self):
        regs = []
        for _ in range(3):
            reg = MetricsRegistry()
            for i in range(2 * RESERVOIR_SIZE):
                reg.observe('h', float(i))
            regs.append(reg)
        merged = merge_snapshots([r.snapshot() for r in regs])
        hist = merged['histograms']['h']
        assert hist['count'] == 3 * 2 * RESERVOIR_SIZE
        assert len(hist['reservoir']) == MERGED_RESERVOIR_SIZE


# ---------------------------------------------------------------------------
# Single-engine hook sites
# ---------------------------------------------------------------------------


class TestEngineMetrics:

    def test_phase_counters_and_histograms(self, luxury_strategy):
        engine = _luxury_engine(luxury_strategy)
        try:
            base = engine.metrics_snapshot()
            assert base['counters']['plan.compiles'] >= 1
            assert base['histograms']['plan.compile_seconds']['count'] \
                >= 1
            commits_before = base['counters'].get('txn.commits', 0)
            engine.insert('luxuryitems', (3, 'yacht', 90_000))
            engine.insert('luxuryitems', (4, 'tiara', 70_000))
            snap = engine.metrics_snapshot()
            counters = snap['counters']
            assert counters['txn.commits'] == commits_before + 2
            assert counters['txn.plan_runs'] >= 2
            for phase in ('txn.prepare_seconds', 'txn.apply_seconds',
                          'txn.commit_seconds'):
                hist = snap['histograms'][phase]
                # One sample per transaction, per phase — the hook is
                # per-commit, so counts track txn.commits exactly.
                assert hist['count'] == counters['txn.commits']
                assert hist['sum'] >= 0.0
        finally:
            engine.close()

    def test_wal_stats_folded_into_snapshot(self, luxury_strategy,
                                            tmp_path):
        engine = Engine(luxury_strategy.sources,
                        wal=tmp_path / 'e.wal', wal_sync=False)
        engine.load('items', [(1, 'watch', 5000)])
        engine.define_view(luxury_strategy, validate_first=False)
        try:
            engine.insert('luxuryitems', (3, 'yacht', 90_000))
            snap = engine.metrics_snapshot()
            assert snap['counters']['wal.appends'] == \
                engine.wal.stats['appends'] > 0
            assert snap['counters']['wal.bytes'] > 0
            assert snap['gauges']['wal.last_record_bytes'] == \
                engine.wal.stats['last_record_bytes'] > 0
            assert snap['histograms']['wal.append_seconds']['count'] > 0
        finally:
            engine.close()

    @pytest.mark.parametrize('backend', ['memory', 'sqlite'])
    def test_where_path_counted_once_per_statement(self, luxury_strategy,
                                                   backend):
        """Which path answered each UPDATE/DELETE's WHERE.  A probe:
        any column→value mapping on both backends — ``{'iid': 3}`` and
        ``{'iname': 'boat'}`` read memory's hash index (built on first
        use), and on SQLite are one ``SELECT`` each, a search on the
        primary-key prefix and a scan in C on ``iname``, which has no
        index and never gets one for a statement — and full-row
        membership anywhere.  A scan: callables anywhere."""
        def dml_counters():
            return {name: value for name, value in
                    engine.metrics_snapshot()['counters'].items()
                    if name.startswith('dml.')}

        engine = _luxury_engine(luxury_strategy, backend=backend)
        try:
            engine.insert('luxuryitems', (3, 'yacht', 90_000))
            assert dml_counters() == {}
            expected = Counter({'dml.where_probes': 2})
            engine.execute('luxuryitems', [
                Update({'iname': 'boat'}, {'iid': 3}),
                Delete({'iname': 'boat'})])
            assert dml_counters() == expected
            engine.delete('luxuryitems', where=lambda row: row['iid'] == 1)
            engine.delete('luxuryitems',
                          where={'iid': 2, 'iname': 'ring', 'price': 4000})
            expected.update(('dml.where_scans', 'dml.where_probes'))
            assert dml_counters() == expected
        finally:
            engine.close()

    def test_disabled_engine_registry_stays_empty(self, luxury_strategy):
        engine = Engine(luxury_strategy.sources)
        engine.metrics.enabled = False
        engine.load('items', [(1, 'watch', 5000)])
        engine.define_view(luxury_strategy, validate_first=False)
        try:
            engine.insert('luxuryitems', (3, 'yacht', 90_000))
            engine.update('luxuryitems', {'iname': 'boat'},
                          where={'iid': 3})
            snap = engine.metrics.snapshot()
            assert snap['counters'] == {}
            assert snap['histograms'] == {}
        finally:
            engine.close()


class TestInstrumentationCost:
    """What the hooks cost one transaction, as counts: a disabled
    registry is an attribute load per site — no clock read in
    ``rdbms/engine.py``, no registry call — and an enabled one makes a
    pinned number of each."""

    @pytest.mark.parametrize('enabled, expected', [
        (False, {}),
        (True, {'perf_counter': 8, 'observe': 4, 'counter': 2})])
    def test_calls_per_view_insert(self, luxury_strategy, monkeypatch,
                                   enabled, expected):
        calls = {}

        def count_calls(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        engine = _luxury_engine(luxury_strategy)
        try:
            for iid in (3, 4):                  # both plan tiers warm
                engine.insert('luxuryitems', (iid, 'yacht', 90_000))
            engine.metrics.enabled = enabled
            count_calls(engine_mod, 'perf_counter')
            for method in ('counter', 'gauge', 'observe'):
                count_calls(MetricsRegistry, method)
            engine.insert('luxuryitems', (5, 'tiara', 70_000))
        finally:
            engine.close()
        assert calls == expected


# ---------------------------------------------------------------------------
# Sharded cluster: merged view, restarts, retry traffic
# ---------------------------------------------------------------------------


class TestShardedMetrics:

    def test_thread_cluster_counts_each_txn_once(self, union_strategy):
        sharded = _union_cluster(union_strategy)
        try:
            before = sharded.metrics()['counters']
            for i in range(5):
                sharded.execute_many([('v', [Insert((10 + i,))])])
            counters = sharded.metrics()['counters']
            # Exactly one cluster.txns tick per execute_many — the
            # coordinator counts it once, not once per shard.
            assert counters['cluster.txns'] == \
                before.get('cluster.txns', 0) + 5
            # The per-shard engines' commits are merged in on top.
            assert counters['txn.commits'] >= \
                before.get('txn.commits', 0) + 5
            assert counters.get('retry.attempts', 0) == 0
            assert counters.get('cluster.aborts', 0) == \
                before.get('cluster.aborts', 0)
        finally:
            sharded.close()

    def test_abort_counted_not_committed(self, luxury_strategy):
        sharded = ShardedEngine(luxury_strategy.sources, shards=2,
                                shard_keys={'items': 'iid',
                                            'luxuryitems': 'iid'})
        sharded.load('items', [(1, 'watch', 5000)])
        sharded.define_view(luxury_strategy, validate_first=False)
        try:
            before = sharded.metrics()['counters']
            with pytest.raises(ConstraintViolation):
                sharded.execute_many(
                    [('luxuryitems', [Insert((9, 'socks', 8))])])
            counters = sharded.metrics()['counters']
            assert counters['cluster.aborts'] == \
                before.get('cluster.aborts', 0) + 1
            assert counters.get('cluster.txns', 0) == \
                before.get('cluster.txns', 0)
        finally:
            sharded.close()

    @pytest.mark.parametrize('execution', ['inline', 'processes'])
    def test_where_path_counters_merge_cluster_wide(self, luxury_strategy,
                                                    execution):
        sharded = ShardedEngine(luxury_strategy.sources, shards=2,
                                shard_keys={'items': 'iid',
                                            'luxuryitems': 'iid'},
                                execution=execution)
        sharded.load('items', [(i, 'watch', 5000 + i) for i in range(6)])
        sharded.define_view(luxury_strategy, validate_first=False)
        try:
            for i in range(6):      # one keyed statement per txn, on the
                sharded.execute_many([          # shard that owns the key
                    ('luxuryitems', [Update({'iname': 'x'}, {'iid': i})])])
            counters = sharded.metrics()['counters']
            assert counters.get('dml.where_probes', 0) \
                + counters.get('dml.where_scans', 0) == 6
        finally:
            sharded.close()

    def test_process_cluster_ships_worker_counters(self,
                                                   union_strategy):
        sharded = _union_cluster(union_strategy,
                                 execution='processes')
        try:
            before = sharded.metrics()
            for i in range(2):
                sharded.execute_many([('v', [Insert((10 + i,))])])
            merged = sharded.metrics()
            counters = merged['counters']
            assert counters['cluster.txns'] == \
                before['counters'].get('cluster.txns', 0) + 2
            # Worker-side series crossed the RPC channel: the commits
            # happened in the forked processes, yet show up merged.
            assert counters['txn.commits'] >= 2
            assert counters['rpc.requests'] > \
                before['counters']['rpc.requests']
            assert merged['gauges']['procpool.alive'] == 3.0
            assert counters.get('procpool.restarts', 0) == 0
        finally:
            sharded.close()

    def test_restart_keeps_rpc_counter_monotonic(self, union_strategy,
                                                 tmp_path):
        """SIGKILL a worker, restart it: procpool.restarts ticks and
        rpc.requests never moves backwards even though the replacement
        worker's channel restarts its sequence numbers from zero."""
        sharded = _union_cluster(union_strategy,
                                 execution='processes',
                                 wal_dir=tmp_path, wal_sync=False)
        try:
            sharded.execute_many([('v', [Insert((10,))])])
            before = sharded.metrics()['counters']
            victim = sharded.shards[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(10)
            victim.restart()
            sharded.execute_many([('v', [Insert((11,))])])
            counters = sharded.metrics()['counters']
            assert counters['procpool.restarts'] == \
                before.get('procpool.restarts', 0) + 1
            assert counters['rpc.requests'] > before['rpc.requests']
        finally:
            sharded.close()

    def test_transient_retry_attempts_counted(self, union_strategy,
                                              monkeypatch):
        """The masked-death retry (test_procpool idiom): the client
        sees success, the metrics see the retry traffic."""
        original = Engine.prepare_commit

        def dying(self, working):
            if procpool.WORKER_INDEX == 1:
                os._exit(1)
            return original(self, working)

        monkeypatch.setattr(Engine, 'prepare_commit', dying)
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS,
                                execution='processes',
                                transient_retries=2,
                                retry_backoff=0.01)
        monkeypatch.undo()
        try:
            sharded.load('r1', [(0,), (1,), (2,)])
            sharded.define_view(union_strategy, validate_first=False)
            sharded.execute_many(
                [('v', [Insert((3,)), Insert((4,)), Insert((5,))])])
            counters = sharded.metrics()['counters']
            assert counters['retry.attempts'] >= 1
            assert counters.get('retry.giveups', 0) == 0
        finally:
            sharded.close()

    def test_giveup_counted_and_backoff_capped(self, union_strategy,
                                               monkeypatch):
        """A permanently unavailable cluster: every sleep is clamped
        to retry_backoff_cap, the loop gives up once the summed waits
        would exceed retry_max_wait, and both attempts and the give-up
        land in the metrics."""
        delays = []
        monkeypatch.setattr(sharded_mod.time, 'sleep', delays.append)
        sharded = _union_cluster(union_strategy,
                                 transient_retries=10,
                                 retry_backoff=1.0,
                                 retry_backoff_cap=0.25,
                                 retry_max_wait=0.6)

        def unavailable(batches):
            raise ShardUnavailableError('injected outage')

        sharded._execute_cluster = unavailable
        try:
            with pytest.raises(ShardUnavailableError,
                               match='injected outage'):
                sharded.execute_many([('v', [Insert((10,))])])
            # backoff would be 1.0, 2.0, ... — the cap clamps every
            # sleep to 0.25 and the 0.6 budget allows exactly two.
            assert delays == [0.25, 0.25]
            counters = sharded.metrics()['counters']
            assert counters['retry.attempts'] == 2
            assert counters['retry.giveups'] == 1
        finally:
            del sharded._execute_cluster
            sharded.close()


# ---------------------------------------------------------------------------
# Serving front-end: stats and metrics agree under concurrency
# ---------------------------------------------------------------------------


class TestServeMetrics:

    def test_stats_metrics_coherent_under_mixed_failures(
            self, luxury_strategy):
        """Grouped commit with one constraint violator among three
        good clients: submitted == committed + failed, every
        submission sits in exactly one group, and no submission is
        counted twice anywhere."""
        served = _luxury_engine(luxury_strategy)
        gate = threading.Event()
        real = served.execute_many

        def gated(buckets):
            gate.wait(timeout=10)
            return real(buckets)

        served.execute_many = gated
        good = [[('luxuryitems', [Insert((10 + i, f'good{i}', 3000))])]
                for i in range(3)]
        bad = [('luxuryitems', [Insert((99, 'socks', 8))])]

        async def main():
            async with ViewServer(served) as server:
                futures = [asyncio.ensure_future(server.submit(txn))
                           for txn in (good[0], bad, good[1], good[2])]
                while server._metrics.snapshot()['counters'].get(
                        'serve.submitted', 0) < 4:
                    await asyncio.sleep(0.01)
                gate.set()
                outcomes = await asyncio.gather(*futures,
                                                return_exceptions=True)
                return outcomes, server.metrics()

        outcomes, merged = asyncio.run(main())
        served.execute_many = real
        assert sum(isinstance(o, Receipt) for o in outcomes) == 3
        assert sum(isinstance(o, ConstraintViolation)
                   for o in outcomes) == 1
        counters = merged['counters']
        # Every submission resolved exactly once.
        assert counters['serve.submitted'] == 4
        assert counters['serve.committed'] + counters['serve.failed'] == 4
        group_hist = merged['histograms']['serve.group_size']
        # Every submission sits in exactly one group.
        assert group_hist['sum'] == pytest.approx(4.0)
        # group_seconds is only observed for group runs that succeed
        # (the failed group's latency is not a commit latency), so it
        # can never exceed the group count.
        group_seconds = merged['histograms'].get(
            'serve.group_seconds', {'count': 0})
        assert group_seconds['count'] <= group_hist['count']
        # The engine's own commits are merged in underneath.
        assert counters['txn.commits'] >= counters['serve.committed']
        served.close()

    def test_server_merges_cluster_metrics(self, union_strategy):
        sharded = _union_cluster(union_strategy)

        async def main():
            async with ViewServer(sharded) as server:
                for i in range(3):
                    await server.submit([('v', [Insert((10 + i,))])])
                return server.metrics()

        counters = asyncio.run(main())['counters']
        assert counters['serve.submitted'] == 3
        # One metrics() call spans the whole stack: server counters
        # next to the sharded coordinator's and the shard engines'.
        assert counters['cluster.txns'] >= 3
        assert counters['txn.commits'] >= 3
        sharded.close()


# ---------------------------------------------------------------------------
# Replica router: monotonic quarantines vs live rotation gauges
# ---------------------------------------------------------------------------


class TestReplicaMetrics:

    def _set(self, luxury_strategy, tmp_path, n=2, **kwargs):
        primary = Engine(luxury_strategy.sources,
                         wal=tmp_path / 'p.wal', wal_sync=False)
        primary.load('items', [(1, 'watch', 5000), (2, 'ring', 4000)])
        primary.define_view(luxury_strategy, validate_first=False)
        replicas = [ReplicaEngine(luxury_strategy.sources, primary.wal)
                    for _ in range(n)]
        return primary, ReplicaSet(primary, replicas, **kwargs)

    def test_quarantine_reinstate_gauges_reconverge(
            self, luxury_strategy, tmp_path):
        primary, router = self._set(luxury_strategy, tmp_path)
        try:
            snap = router.metrics_snapshot()
            assert snap['gauges']['replica.in_rotation'] == 2.0
            assert snap['gauges']['replica.quarantined'] == 0.0
            assert snap['counters']['replica.quarantines'] == 0

            router.quarantine(router.replicas[0])
            snap = router.metrics_snapshot()
            assert snap['gauges']['replica.in_rotation'] == 1.0
            assert snap['gauges']['replica.quarantined'] == 1.0
            assert snap['counters']['replica.quarantines'] == 1

            assert router.reinstate() == 1
            snap = router.metrics_snapshot()
            # Live gauges reconverge; the monotonic counter keeps the
            # history (that is the split the stats bugfix made).
            assert snap['gauges']['replica.in_rotation'] == 2.0
            assert snap['gauges']['replica.quarantined'] == 0.0
            assert snap['counters']['replica.quarantines'] == 1

            router.quarantine(router.replicas[0])
            assert router.metrics_snapshot()['counters'][
                'replica.quarantines'] == 2
        finally:
            router.close()
            primary.close()

    def test_router_snapshot_merges_into_engine_view(
            self, luxury_strategy, tmp_path):
        primary, router = self._set(luxury_strategy, tmp_path,
                                    max_lag=0)
        try:
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            # max_lag=0: the read forces a catch-up before serving.
            assert (4, 'yacht', 90_000) in router.read('items')
            merged = merge_snapshots([primary.metrics_snapshot(),
                                      router.metrics_snapshot()])
            counters = merged['counters']
            assert counters['replica.replica_reads'] == 1
            assert counters['replica.catch_ups'] >= 1
            assert 'wal.appends' in counters
            assert merged['gauges']['replica.in_rotation'] == 2.0
        finally:
            router.close()
            primary.close()

    def test_sharded_metrics_carry_what_the_benchmark_reads(
            self, luxury_strategy):
        """The layered benchmark reads ``replica.replica_reads``,
        ``replica.records_applied`` and ``replica.lag`` out of
        ``ShardedEngine.metrics()`` by name with a default of 0, so a
        renamed series would read as 0 without a word.  It also reports
        ``plan.compiles`` as the shard engines' compiles: a replica's
        embedded engine compiles the view too when it replays
        ``define_view``, and those compiles stay out of the merge."""
        engine = ShardedEngine(luxury_strategy.sources, shards=2,
                               shard_keys={'luxuryitems': 'iid',
                                           'items': 'iid'},
                               read_replicas=1)
        try:
            engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000)])
            engine.define_view(luxury_strategy, validate_first=False)
            engine.insert('luxuryitems', (4, 'yacht', 90_000))
            assert (4, 'yacht', 90_000) in engine.rows('items')
            assert (4, 'yacht', 90_000) in engine.rows('luxuryitems')
            merged = engine.metrics()
            counters, gauges = merged['counters'], merged['gauges']
            assert {name for name in counters
                    if name.startswith('replica.')} == {
                'replica.replica_reads', 'replica.primary_reads',
                'replica.catch_ups', 'replica.quarantines',
                'replica.stalled_reads', 'replica.records_applied',
                'replica.catch_up_seconds'}
            assert {name for name in gauges
                    if name.startswith('replica.')} == {
                'replica.in_rotation', 'replica.quarantined',
                'replica.lag'}
            # Two reads, each fanned out over both shards' replicas.
            assert counters['replica.replica_reads'] == 4
            assert counters['replica.primary_reads'] == 0
            assert counters['replica.records_applied'] > 0
            assert (gauges['replica.in_rotation'], gauges['replica.lag'],
                    gauges['replica.quarantined']) == (2.0, 0.0, 0.0)
            replica_compiles = sum(
                replica.engine.metrics.snapshot()['counters'].get(
                    'plan.compiles', 0)
                for replica_set in engine.replica_sets
                for replica in replica_set.replicas)
            assert replica_compiles > 0
            assert counters['plan.compiles'] == sum(
                shard.metrics()['counters'].get('plan.compiles', 0)
                for shard in engine.shards)
        finally:
            engine.close()
