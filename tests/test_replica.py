"""Read-replica tests: WAL-tailing catch-up, the never-runs-plans
property (deltas go straight to the backend, the ∂put/get plans ran
only on the primary), read-your-writes under ``min_lsn``, routing
policies and sharded replica fan-out.

The randomized bit-identity proof (replica == reference across every
execution mode, including post-SIGKILL replay) lives in
``tests/fuzz/test_differential.py``; these are the deterministic
anchors."""

import types

import pytest

from repro.errors import SchemaError
from repro.rdbms import faults, wal
from repro.rdbms.dml import Insert
from repro.rdbms.engine import Engine
from repro.rdbms.replica import ReplicaEngine, ReplicaSet
from repro.rdbms.wal import encode_record, read_records
from repro.rdbms.sharded import ShardedEngine


def _series(router) -> dict:
    """The router's merged snapshot: counters and gauges by name."""
    snap = router.metrics_snapshot()
    return {**snap['counters'], **snap['gauges']}


def _rotations(replica) -> int:
    return replica.metrics.snapshot()['counters'].get(
        'replica.rotations', 0)


def _primary(luxury_strategy, path):
    engine = Engine(luxury_strategy.sources, wal=path, wal_sync=False)
    engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                          (3, 'cap', 10)])
    engine.define_view(luxury_strategy, validate_first=False)
    engine.rows('luxuryitems')
    return engine


class TestReplicaEngine:

    def test_catch_up_reaches_identical_state(self, luxury_strategy,
                                              tmp_path):
        primary = _primary(luxury_strategy, tmp_path / 'p.wal')
        replica = ReplicaEngine(luxury_strategy.sources, primary.wal)
        try:
            applied = replica.catch_up()
            assert applied == primary.commit_lsn
            assert replica.applied_lsn == primary.commit_lsn
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            assert replica.lag() == 1
            assert replica.catch_up() == 1
            assert replica.database() == primary.database()
            assert frozenset(replica.rows('luxuryitems')) \
                == frozenset(primary.rows('luxuryitems'))
            assert replica.metrics.snapshot()['counters'][
                'replica.records_applied'] == primary.commit_lsn
        finally:
            replica.close()
            primary.close()

    def test_catch_up_never_runs_plans(self, luxury_strategy, tmp_path):
        """Replication is O(|Δ|) *because* no plan runs: the replica's
        backend evaluation surface is poisoned and catch-up must still
        reach the primary's state."""
        primary = _primary(luxury_strategy, tmp_path / 'p.wal')
        replica = ReplicaEngine(luxury_strategy.sources, primary.wal)
        try:
            backend = replica.engine.backend

            def poisoned(*args, **kwargs):      # pragma: no cover
                raise AssertionError('replica ran a plan')

            for method in ('materialize',
                           'evaluate_incremental_batch',
                           'evaluate_putback'):
                setattr(backend, method, poisoned)
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            with primary.transaction() as txn:
                txn.insert('luxuryitems', (5, 'jet', 500_000))
                txn.delete('luxuryitems', where={'iid': 2})
            replica.catch_up()
            assert replica.database() == primary.database()
        finally:
            replica.close()
            primary.close()

    def test_file_tailing_replica(self, luxury_strategy, tmp_path):
        """A replica pointed at the log *path* (another process's view
        of the world) replays the identical committed prefix."""
        path = tmp_path / 'p.wal'
        primary = _primary(luxury_strategy, path)
        replica = ReplicaEngine(luxury_strategy.sources, path)
        try:
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            assert replica.tail_lsn() == primary.commit_lsn
            replica.catch_up()
            assert replica.database() == primary.database()
        finally:
            replica.close()
            primary.close()

    def test_live_replica_survives_primary_checkpoint(
            self, luxury_strategy, tmp_path):
        """Regression: the primary compacts its WAL *while a replica
        is tailing it*.  The rewrite replaces history the replica
        already applied with a snapshot at fresh LSNs; catch-up must
        detect the rotation (header start LSN beyond its applied
        position), replay the snapshot prefix, and keep tailing — not
        double-apply or diverge."""
        path = tmp_path / 'p.wal'
        primary = _primary(luxury_strategy, path)
        replica = ReplicaEngine(luxury_strategy.sources, path)
        try:
            replica.catch_up()
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            primary.checkpoint()
            primary.insert('luxuryitems', (5, 'jet', 80_000))
            replica.catch_up()
            assert _rotations(replica) == 1
            assert replica.database() == primary.database()
            assert frozenset(replica.rows('luxuryitems')) \
                == frozenset(primary.rows('luxuryitems'))
            # Back to plain tailing afterwards: no spurious rotations.
            primary.insert('luxuryitems', (6, 'villa', 70_000))
            replica.catch_up()
            assert _rotations(replica) == 1
            assert replica.database() == primary.database()
        finally:
            replica.close()
            primary.close()

    def test_bounded_catch_up_never_stops_mid_snapshot(
            self, union_strategy, tmp_path):
        """Regression: ``catch_up(upto=)`` with a bound that falls
        inside a checkpoint's snapshot must keep applying until the
        end-of-snapshot sentinel — stopping between the snapshot's
        ``load`` records would leave some tables rewritten and others
        stale, a state the primary never had."""
        path = tmp_path / 'p.wal'
        primary = Engine(union_strategy.sources, wal=path,
                         wal_sync=False)
        primary.load('r1', [(1,), (2,)])
        primary.load('r2', [(7,), (8,)])
        replica = ReplicaEngine(union_strategy.sources, path)
        try:
            replica.catch_up()
            primary.insert('r1', (3,))
            primary.insert('r2', (9,))
            primary.checkpoint()
            # Bound the catch-up at the snapshot's very first record:
            # naively honoring it would stop after one ``load``.
            records = list(read_records(path))
            replica.catch_up(upto=records[0].lsn)
            assert replica.database() == primary.database()
            # The last record is the snapshot's end sentinel.
            assert replica.applied_lsn == records[-1].lsn
        finally:
            replica.close()
            primary.close()

    def test_checkpoint_while_caught_up_is_a_rotation(
            self, luxury_strategy, tmp_path):
        """Regression: a checkpoint taken while the replica has applied
        every record writes a header ``start_lsn`` *equal* to its
        ``applied_lsn``, so "header past applied" missed it — no
        rotation counted, and an ``upto`` bound inside the snapshot
        honoured.  The header's change against the replica's position
        is what reveals the rewrite."""
        path = tmp_path / 'p.wal'
        primary = _primary(luxury_strategy, path)
        replica = ReplicaEngine(luxury_strategy.sources, path)
        try:
            replica.catch_up()
            primary.checkpoint()
            snapshot_end = primary.commit_lsn
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            replica.catch_up(upto=replica.applied_lsn + 1)
            assert _rotations(replica) == 1
            assert replica.applied_lsn == snapshot_end
            replica.catch_up()
            assert replica.database() == primary.database()
        finally:
            replica.close()
            primary.close()

    @pytest.mark.parametrize('read_between', [False, True])
    def test_back_to_back_checkpoints(self, luxury_strategy, tmp_path,
                                      read_between):
        """Two checkpoints with no commit between them still give two
        different headers (each writes at least its sentinel), so a
        replica that read between them sees two rotations, and one that
        did not sees one."""
        path = tmp_path / 'p.wal'
        primary = _primary(luxury_strategy, path)
        replica = ReplicaEngine(luxury_strategy.sources, path)
        try:
            replica.catch_up()
            primary.checkpoint()
            if read_between:
                replica.catch_up()
            primary.checkpoint()
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            replica.catch_up()
            assert _rotations(replica) == 1 + read_between
            assert replica.applied_lsn == primary.commit_lsn
            assert replica.database() == primary.database()
        finally:
            replica.close()
            primary.close()

    def test_resumes_after_a_torn_frame_is_truncated(self,
                                                     luxury_strategy,
                                                     tmp_path):
        """A torn final frame stops the replica *before* it; the
        primary reopening truncates the frame and appends over the same
        bytes, and the replica resumes at its position to the primary's
        state."""
        path = tmp_path / 'p.wal'
        primary = _primary(luxury_strategy, path)
        replica = ReplicaEngine(luxury_strategy.sources, path)
        try:
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            replica.catch_up()
            primary.close()
            frame = encode_record('drop_view', 'luxuryitems')
            with open(path, 'ab') as handle:
                handle.write(frame[:len(frame) // 2])
            assert replica.catch_up() == 0
            assert replica.lag() == 0
            primary = Engine(luxury_strategy.sources, wal=path,
                             wal_sync=False)
            assert primary.wal.stats['truncated_tails'] == 1
            primary.insert('luxuryitems', (5, 'jet', 80_000))
            assert replica.lag() == 1
            assert replica.catch_up() == 1
            assert _rotations(replica) == 0
            assert replica.database() == primary.database()
            assert frozenset(replica.rows('luxuryitems')) \
                == frozenset(primary.rows('luxuryitems'))
        finally:
            replica.close()
            primary.close()

    @pytest.mark.parametrize('feed', ['shared', 'path'])
    @pytest.mark.parametrize('n', [100, 10_000])
    def test_catch_up_checks_only_new_frames(self, luxury_strategy,
                                             tmp_path, monkeypatch, feed,
                                             n):
        """Catch-up is O(|Δ|) per transaction whatever the log holds
        before it, as a count: after k commits a caught-up replica
        checksums exactly k frames, at a 100-row and at a 10 000-row
        initial ``load``, tailing the shared log or the file path."""
        path = tmp_path / 'p.wal'
        primary = Engine(luxury_strategy.sources, wal=path,
                         wal_sync=False)
        primary.load('items', [(iid, f'item{iid}', 10 * iid)
                               for iid in range(n)])
        primary.define_view(luxury_strategy, validate_first=False)
        replica = ReplicaEngine(luxury_strategy.sources,
                                primary.wal if feed == 'shared' else path)
        try:
            replica.catch_up()
            for iid in range(n, n + 3):
                primary.insert('luxuryitems', (iid, 'yacht', 90_000))
            checked = []
            crc32 = wal.zlib.crc32

            def counting(payload):
                checked.append(len(payload))
                return crc32(payload)

            monkeypatch.setattr(wal, 'zlib',
                                types.SimpleNamespace(crc32=counting))
            assert replica.catch_up() == 3
            assert len(checked) == 3
            assert replica.database() == primary.database()
        finally:
            replica.close()
            primary.close()

    def test_min_lsn_read_catches_up_first(self, luxury_strategy,
                                           tmp_path):
        primary = _primary(luxury_strategy, tmp_path / 'p.wal')
        replica = ReplicaEngine(luxury_strategy.sources, primary.wal)
        try:
            replica.catch_up()
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            lsn = primary.commit_lsn
            # Unbounded read serves the stale applied LSN...
            assert (4, 'yacht', 90_000) not in replica.rows('items')
            # ...the session's own-commit bound forces catch-up.
            assert (4, 'yacht', 90_000) \
                in replica.rows('items', min_lsn=lsn)
        finally:
            replica.close()
            primary.close()


class TestReplicaSet:

    def _set(self, luxury_strategy, tmp_path, n=2):
        primary = _primary(luxury_strategy, tmp_path / 'p.wal')
        replicas = [ReplicaEngine(luxury_strategy.sources, primary.wal)
                    for _ in range(n)]
        return primary, ReplicaSet(primary, replicas)

    def test_round_robin_spreads_reads(self, luxury_strategy, tmp_path):
        primary, router = self._set(luxury_strategy, tmp_path)
        try:
            router.catch_up()
            seen = {id(router._pick()) for _ in range(4)}
            assert len(seen) == 2               # both replicas rotated
            router.read('luxuryitems')
            series = _series(router)
            assert series['replica.replica_reads'] == 1
            assert series['replica.primary_reads'] == 0
        finally:
            router.close()
            primary.close()

    def test_max_lag_bounds_staleness(self, luxury_strategy, tmp_path):
        """The lag a read tolerates is zero: a read without a
        ``min_lsn`` bound never serves stale rows."""
        primary, router = self._set(luxury_strategy, tmp_path, n=1)
        try:
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            assert (4, 'yacht', 90_000) in router.read('items')
            assert _series(router)['replica.catch_ups'] >= 1
        finally:
            router.close()
            primary.close()

    def test_read_your_writes_via_commit_lsn(self, luxury_strategy,
                                             tmp_path):
        primary, router = self._set(luxury_strategy, tmp_path)
        try:
            router.catch_up()
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            token = router.commit_lsn()
            primary.insert('luxuryitems', (5, 'jet', 95_000))
            # Every routed read at the session's token sees the write,
            # whichever replica the rotation lands on, and catches up
            # no further than the token.
            for _ in range(4):
                assert (4, 'yacht', 90_000) \
                    in router.read('luxuryitems', min_lsn=token)
            assert all(replica.applied_lsn == token
                       for replica in router.replicas)
        finally:
            router.close()
            primary.close()

    def test_empty_set_falls_back_to_primary(self, luxury_strategy,
                                             tmp_path):
        primary = _primary(luxury_strategy, tmp_path / 'p.wal')
        router = ReplicaSet(primary, [])
        try:
            assert (1, 'watch', 5000) in router.read('items')
            assert _series(router)['replica.primary_reads'] == 1
        finally:
            router.close()
            primary.close()

    def test_broken_replica_quarantined_read_retries_sibling(
            self, luxury_strategy, tmp_path):
        """A replica whose tail raises is dropped from the rotation and
        the same read retries on the surviving replica — the reader
        never sees the error."""
        primary, router = self._set(luxury_strategy, tmp_path, n=2)
        plan = faults.FaultPlan()
        plan.fail_replica()                      # first catch-up raises
        try:
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            with plan.installed():
                rows = router.read('items')      # behind → catch-up
            assert (4, 'yacht', 90_000) in rows
            assert plan.fired('replica.catch_up') == 1
            series = _series(router)
            assert series['replica.quarantines'] == 1   # monotonic
            assert series['replica.quarantined'] == 1   # live gauge
            assert series['replica.in_rotation'] == 1
            assert series['replica.replica_reads'] == 1
            assert series['replica.primary_reads'] == 0
            assert len(router.quarantined) == 1
            assert len(router.replicas) == 1     # out of the rotation
        finally:
            router.close()
            primary.close()

    def test_last_replica_quarantined_degrades_to_primary(
            self, luxury_strategy, tmp_path):
        """With every replica quarantined the set serves from the
        primary; ``reinstate()`` is the operator's way back."""
        primary, router = self._set(luxury_strategy, tmp_path, n=1)
        plan = faults.FaultPlan()
        plan.fail_replica()
        try:
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            with plan.installed():
                assert (4, 'yacht', 90_000) in router.read('items')
            assert router.metrics.snapshot()['counters'] == {
                'replica.replica_reads': 0, 'replica.primary_reads': 1,
                'replica.catch_ups': 0, 'replica.quarantines': 1,
                'replica.stalled_reads': 0}
            series = _series(router)
            assert series['replica.in_rotation'] == 0
            assert series['replica.quarantined'] == 1
            assert router.replicas == []
            # Fault fixed: bring it back, reads route to it again.
            # The live gauges move back; the monotonic counter stays.
            assert router.reinstate() == 1
            assert router.quarantined == ()
            series = _series(router)
            assert series['replica.quarantined'] == 0
            assert series['replica.in_rotation'] == 1
            assert series['replica.quarantines'] == 1
            assert (4, 'yacht', 90_000) in router.read('items')
            assert _series(router)['replica.replica_reads'] == 1
        finally:
            router.close()
            primary.close()

    def test_metrics_counters_survive_quarantine(self, luxury_strategy,
                                                 tmp_path):
        """Regression: every ``replica.*`` counter of
        ``metrics_snapshot()`` is monotonic — quarantining a replica
        takes it out of the rotation, not out of the totals."""
        primary, router = self._set(luxury_strategy, tmp_path, n=2)
        try:
            for iid in range(4, 9):
                primary.insert('luxuryitems', (iid, f'item{iid}', 90_000))
            router.catch_up()
            snapshots = [router.metrics_snapshot()['counters']]
            router.quarantine(router.replicas[0])
            snapshots.append(router.metrics_snapshot()['counters'])
            assert router.reinstate() == 1
            snapshots.append(router.metrics_snapshot()['counters'])
            assert snapshots[0]['replica.records_applied'] > 0
            for before, after in zip(snapshots, snapshots[1:]):
                assert before.keys() == after.keys()
                for key, value in before.items():
                    assert after[key] >= value, key
        finally:
            router.close()
            primary.close()

    def test_stalled_tail_degrades_read_without_quarantine(
            self, luxury_strategy, tmp_path):
        """A catch-up pass that applies nothing (stalled tail) keeps
        the replica in rotation but the bounded read serves from the
        primary — staleness bounds hold, nothing stale is returned."""
        primary, router = self._set(luxury_strategy, tmp_path, n=1)
        plan = faults.FaultPlan()
        plan.stall_replica()
        try:
            primary.insert('luxuryitems', (4, 'yacht', 90_000))
            with plan.installed():
                assert (4, 'yacht', 90_000) in router.read('items')
            series = _series(router)
            assert series['replica.stalled_reads'] == 1
            assert series['replica.primary_reads'] == 1
            assert series['replica.quarantines'] == 0
            assert series['replica.quarantined'] == 0
            assert len(router.replicas) == 1     # still in rotation
            # The stall was transient: the next read is served by the
            # (now caught-up) replica.
            assert (4, 'yacht', 90_000) in router.read('items')
            assert _series(router)['replica.replica_reads'] == 1
        finally:
            router.close()
            primary.close()


class TestShardedReplicas:

    def _sharded(self, luxury_strategy, **kwargs):
        engine = ShardedEngine(luxury_strategy.sources, shards=2,
                               shard_keys={'luxuryitems': 'iid',
                                           'items': 'iid'},
                               **kwargs)
        engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                              (3, 'cap', 10)])
        engine.define_view(luxury_strategy, validate_first=False)
        return engine

    def test_routed_scatter_gather_matches_primary(self,
                                                   luxury_strategy):
        engine = self._sharded(luxury_strategy, read_replicas=2)
        try:
            assert len(engine.replica_sets) == 2
            engine.insert('luxuryitems', (4, 'yacht', 90_000))
            routed = engine.rows('luxuryitems')
            assert routed == engine._gather_primary('luxuryitems')
            assert (4, 'yacht', 90_000) in routed
        finally:
            engine.close()

    def test_commit_lsns_vector_read_your_writes(self, luxury_strategy):
        engine = self._sharded(luxury_strategy, read_replicas=1)
        try:
            engine.insert('luxuryitems', (4, 'yacht', 90_000))
            token = engine.commit_lsn
            assert len(token) == 2 and any(token)
            assert (4, 'yacht', 90_000) \
                in engine.rows('luxuryitems', min_lsn=token)
        finally:
            engine.close()

    def test_min_lsn_sequence_length_checked(self, luxury_strategy):
        engine = self._sharded(luxury_strategy, read_replicas=1)
        try:
            with pytest.raises(SchemaError, match='covers 3 shards'):
                engine.rows('luxuryitems', min_lsn=(1, 2, 3))
        finally:
            engine.close()

    def test_process_execution_replicas_tail_worker_logs(
            self, luxury_strategy, tmp_path):
        """Process-mode replicas tail the worker-owned shard logs by
        file path and serve the same routed reads as thread mode."""
        engine = ShardedEngine(luxury_strategy.sources, shards=2,
                               shard_keys={'luxuryitems': 'iid',
                                           'items': 'iid'},
                               execution='processes',
                               wal_dir=tmp_path, wal_sync=False,
                               read_replicas=1)
        try:
            engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                                  (3, 'cap', 10)])
            engine.define_view(luxury_strategy, validate_first=False)
            engine.insert('luxuryitems', (4, 'yacht', 90_000))
            token = engine.commit_lsn
            assert len(token) == 2 and any(token)
            routed = engine.rows('luxuryitems', min_lsn=token)
            assert routed == engine._gather_primary('luxuryitems')
            assert (4, 'yacht', 90_000) in routed
            assert engine.metrics()['counters'][
                'replica.replica_reads'] > 0
        finally:
            engine.close()

    @pytest.mark.parametrize('execution', ['inline', 'processes'])
    @pytest.mark.parametrize('keys', [{'luxuryitems': 'iid',
                                       'items': 'iid'}, {}],
                             ids=['partitioned', 'pinned'])
    def test_routed_read_is_a_snapshot(self, luxury_strategy, tmp_path,
                                       execution, keys):
        """``rows`` returns a snapshot, never a replica's live set: a
        later commit, and the read that makes the replicas apply it,
        leave a value returned earlier as it was.  Each value is the
        union of the shards' parts."""
        engine = ShardedEngine(luxury_strategy.sources, shards=2,
                               shard_keys=keys, execution=execution,
                               wal_dir=tmp_path, wal_sync=False,
                               read_replicas=1)
        try:
            engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                                  (3, 'cap', 10)])
            engine.define_view(luxury_strategy, validate_first=False)
            seen = engine.rows('luxuryitems',
                               min_lsn=engine.commit_lsn)
            assert type(seen) is frozenset
            assert seen == frozenset().union(
                *engine.shard_rows('luxuryitems'))
            before = set(seen)
            engine.insert('luxuryitems', (4, 'yacht', 90_000))
            engine.delete('luxuryitems', where={'iid': 1})
            after = engine.rows('luxuryitems',
                                min_lsn=engine.commit_lsn)
            assert (4, 'yacht', 90_000) in after
            assert (1, 'watch', 5000) not in after
            assert seen == before
            assert after == frozenset().union(
                *engine.shard_rows('luxuryitems'))
        finally:
            engine.close()

    def test_negative_replicas_rejected(self, luxury_strategy):
        with pytest.raises(SchemaError, match='read_replicas'):
            ShardedEngine(luxury_strategy.sources, shards=2,
                          shard_keys={'luxuryitems': 'iid',
                                      'items': 'iid'},
                          read_replicas=-1)
