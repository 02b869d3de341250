"""Write-ahead log tests: frame format, torn-tail truncation, engine
crash recovery (including real SIGKILL subprocesses dying mid-commit),
checkpoint compaction, and the O(|Δ|) record-size property the
replication design rests on.

Committed-prefix semantics under test: a transaction is committed
exactly when its record is fully in the log — dying *before* the
append loses the transaction, dying *after* the append (but before the
backend applies it) keeps it, and a torn final frame is truncated on
recovery, never half-applied.
"""

import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SchemaError
from repro.rdbms import faults
from repro.rdbms.engine import Engine
from repro.rdbms.replica import ReplicaEngine
from repro.rdbms.wal import (WriteAheadLog, encode_record, read_records,
                             scan_tail)
from repro.relational.schema import DatabaseSchema

CHILD = Path(__file__).resolve().parent / '_wal_crash_child.py'


def _schema():
    return DatabaseSchema.build(r1={'a': 'int'})


class TestWalFile:

    def test_append_and_read_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path / 'w.wal', sync=False) as wal:
            assert wal.append('load', ('r1', frozenset({(1,)}))) == 1
            assert wal.append('drop_view', 'v') == 2
            assert wal.last_lsn == 2
        records = list(read_records(tmp_path / 'w.wal'))
        assert [(r.lsn, r.kind) for r in records] == [(1, 'load'),
                                                      (2, 'drop_view')]
        assert records[0].data == ('r1', frozenset({(1,)}))

    def test_read_after_skips_committed_prefix(self, tmp_path):
        with WriteAheadLog(tmp_path / 'w.wal', sync=False) as wal:
            for i in range(5):
                wal.append('drop_view', f'v{i}')
        lsns = [r.lsn for r in read_records(tmp_path / 'w.wal', after=3)]
        assert lsns == [4, 5]

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match='unknown WAL record'):
            encode_record('bogus', None)
        with WriteAheadLog(tmp_path / 'w.wal', sync=False) as wal:
            with pytest.raises(SchemaError):
                wal.append('bogus', None)

    def test_reopen_continues_lsns(self, tmp_path):
        path = tmp_path / 'w.wal'
        with WriteAheadLog(path, sync=False) as wal:
            wal.append('drop_view', 'a')
        with WriteAheadLog(path, sync=False) as wal:
            assert wal.last_lsn == 1
            assert wal.append('drop_view', 'b') == 2

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = tmp_path / 'w.wal'
        with WriteAheadLog(path, sync=False) as wal:
            wal.append('drop_view', 'a')
            wal.append('drop_view', 'b')
        frame = encode_record('drop_view', 'torn')
        with open(path, 'ab') as handle:
            handle.write(frame[:len(frame) // 2])
        tail = scan_tail(path)
        assert tail.torn and tail.last_lsn == 2
        # Readers stop at the torn frame without the writer's help.
        assert [r.data for r in read_records(path)] == ['a', 'b']
        with WriteAheadLog(path, sync=False) as wal:
            assert wal.stats['truncated_tails'] == 1
            assert wal.last_lsn == 2
            wal.append('drop_view', 'c')        # appends continue
        assert [r.data for r in read_records(path)] == ['a', 'b', 'c']

    def test_crc_corruption_ends_committed_prefix(self, tmp_path):
        path = tmp_path / 'w.wal'
        with WriteAheadLog(path, sync=False) as wal:
            wal.append('drop_view', 'a')
            wal.append('drop_view', 'b')
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF                        # corrupt b's payload
        path.write_bytes(bytes(data))
        assert [r.data for r in read_records(path)] == ['a']
        assert scan_tail(path).last_lsn == 1

    def test_read_records_missing_file_is_empty(self, tmp_path):
        assert list(read_records(tmp_path / 'nope.wal')) == []

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / 'not.wal'
        path.write_bytes(b'PK\x03\x04 definitely not a WAL header')
        with pytest.raises(SchemaError, match='not a repro WAL'):
            scan_tail(path)

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / 'w.wal', sync=False)
        wal.close()
        wal.close()                             # idempotent
        with pytest.raises(SchemaError, match='closed'):
            wal.append('drop_view', 'a')

    def test_fsync_failure_poisons_the_log(self, tmp_path):
        """An append whose flush/fsync fails may have left a torn tail
        on disk, so the handle refuses every further append until
        reopened — crash-consistency over limping along."""
        path = tmp_path / 'w.wal'
        wal = WriteAheadLog(path, sync=False)
        wal.append('drop_view', 'a')
        plan = faults.FaultPlan()
        plan.fail_fsync()
        with plan.installed():
            with pytest.raises(OSError):
                wal.append('drop_view', 'b')
        assert plan.fired('wal.fsync') == 1     # not vacuous
        assert wal.stats['append_failures'] == 1
        with pytest.raises(SchemaError, match='reopen to recover'):
            wal.append('drop_view', 'c')
        wal.close()
        # Reopening recovers the committed prefix ('b' hit the OS —
        # only the fsync was injected to fail) and appends continue.
        with WriteAheadLog(path, sync=False) as recovered:
            assert recovered.last_lsn == 2
            assert recovered.append('drop_view', 'd') == 3


class TestEngineRecovery:

    def _build(self, union_strategy, path):
        engine = Engine(union_strategy.sources, wal=path, wal_sync=False)
        engine.load('r1', [(1,)])
        engine.load('r2', [(2,), (4,)])
        engine.define_view(union_strategy, validate_first=False)
        engine.insert('v', (3,))
        with engine.transaction() as txn:
            txn.insert('v', (9,))
            txn.delete('v', where={'a': 4})
        return engine

    def test_recovery_replays_to_identical_state(self, union_strategy,
                                                 tmp_path):
        path = tmp_path / 'e.wal'
        engine = self._build(union_strategy, path)
        expected_db = engine.database()
        expected_view = frozenset(engine.rows('v'))
        lsn = engine.commit_lsn
        engine.close()
        recovered = Engine(union_strategy.sources, wal=path,
                           wal_sync=False)
        try:
            assert recovered.database() == expected_db
            assert frozenset(recovered.rows('v')) == expected_view
            assert recovered.commit_lsn == lsn
            recovered.insert('v', (11,))        # still writable
            assert recovered.commit_lsn == lsn + 1
        finally:
            recovered.close()

    def test_drop_view_recovers(self, union_strategy, tmp_path):
        path = tmp_path / 'e.wal'
        engine = self._build(union_strategy, path)
        engine.drop_view('v')
        engine.close()
        recovered = Engine(union_strategy.sources, wal=path,
                           wal_sync=False)
        try:
            assert not recovered.is_view('v')
        finally:
            recovered.close()

    def test_checkpoint_compacts_and_preserves_state(self,
                                                     union_strategy,
                                                     tmp_path):
        path = tmp_path / 'e.wal'
        engine = self._build(union_strategy, path)
        for i in range(40):
            engine.insert('v', (100 + i,))
        records_before = sum(1 for _ in read_records(path))
        lsn_before = engine.commit_lsn
        expected_db = engine.database()
        new_lsn = engine.checkpoint()
        assert new_lsn >= lsn_before            # LSNs stay monotonic
        assert engine.commit_lsn == new_lsn
        records_after = sum(1 for _ in read_records(path))
        assert records_after < records_before   # compacted
        engine.insert('v', (999,))              # log keeps working
        engine.close()
        recovered = Engine(union_strategy.sources, wal=path,
                           wal_sync=False)
        try:
            assert recovered.database()['r1'] \
                == expected_db['r1'] | {(999,)}
            assert (9,) in recovered.rows('v')
        finally:
            recovered.close()

    def test_checkpoint_requires_wal(self, union_sources):
        engine = Engine(union_sources)
        try:
            with pytest.raises(SchemaError, match='no write-ahead log'):
                engine.checkpoint()
        finally:
            engine.close()

    def test_replica_catches_up_across_checkpoint(self, union_strategy,
                                                  tmp_path):
        path = tmp_path / 'e.wal'
        engine = self._build(union_strategy, path)
        replica = ReplicaEngine(union_strategy.sources, engine.wal)
        try:
            replica.catch_up()
            engine.insert('v', (50,))
            engine.checkpoint()                 # replica is mid-history
            engine.insert('v', (51,))
            assert replica.lag() > 0
            replica.catch_up()
            assert replica.database() == engine.database()
            assert frozenset(replica.rows('v')) \
                == frozenset(engine.rows('v'))
        finally:
            replica.close()
            engine.close()

    def test_record_bytes_track_delta_not_db(self, union_strategy,
                                             tmp_path):
        """The replication-cost property: one transaction's record size
        depends on |Δ|, not |DB|."""
        sizes = {}
        for tag, n in (('small', 100), ('large', 10_000)):
            engine = Engine(union_strategy.sources,
                            wal=tmp_path / f'{tag}.wal', wal_sync=False)
            try:
                engine.load('r1', [(i,) for i in range(n)])
                engine.define_view(union_strategy, validate_first=False)
                engine.insert('v', (1_000_000,))
                sizes[tag] = engine.wal.stats['last_record_bytes']
            finally:
                engine.close()
        assert sizes['small'] == sizes['large']

    def test_primary_rows_accepts_min_lsn(self, union_strategy,
                                          tmp_path):
        """``min_lsn`` is the uniform read signature: on the primary it
        is trivially satisfied (the primary is never behind itself)."""
        engine = self._build(union_strategy, tmp_path / 'e.wal')
        try:
            rows = engine.rows('v', min_lsn=engine.commit_lsn)
            assert (3,) in rows
        finally:
            engine.close()


class TestUnstorableValuesNeverReachTheLog:
    """The append is the commit point, so what the backend cannot hold
    must be refused before it: at the parent ``(2**70, 2.0)`` raised
    ``OverflowError`` *after* the append — every reopen then raised it
    again from replay — and ``(3, nan)`` committed, was never in the
    table, and was gone after a reopen."""

    SCHEMA = DatabaseSchema.build(r={'a': 'int', 'b': 'float'})

    @pytest.mark.parametrize('row', [(2 ** 70, 2.0), (3, float('nan')),
                                     (3, 2 ** 63)], ids=repr)
    @pytest.mark.parametrize('statement', ['insert', 'load'])
    def test_sqlite_refuses_before_the_append(self, tmp_path, row,
                                              statement):
        path = tmp_path / 'e.wal'
        engine = Engine(self.SCHEMA, backend='sqlite', wal=path,
                        wal_sync=False)
        engine.load('r', [(1, 1.0)])
        engine.insert('r', (2, 2.5))
        lsn = engine.commit_lsn
        with pytest.raises(SchemaError, match='SQLite stores'):
            if statement == 'insert':
                engine.insert('r', row)
            else:
                engine.load('r', [(4, 4.0), row])
        assert engine.commit_lsn == lsn
        engine.insert('r', (5, 5.0))         # the next transaction commits
        assert engine.commit_lsn == lsn + 1
        model = {(1, 1.0), (2, 2.5), (5, 5.0)}
        assert engine.rows('r') == model
        engine.close()
        reopened = Engine(self.SCHEMA, backend='sqlite', wal=path,
                          wal_sync=False)
        try:
            assert reopened.rows('r') == model
            assert reopened.commit_lsn == lsn + 1
        finally:
            reopened.close()

    def test_memory_logs_and_holds_them(self, tmp_path):
        engine = Engine(self.SCHEMA, backend='memory',
                        wal=tmp_path / 'e.wal', wal_sync=False)
        try:
            engine.insert('r', (2 ** 70, 2.0))
            engine.insert('r', (3, 2 ** 63))
            assert engine.commit_lsn == 2
            assert engine.rows('r') == {(2 ** 70, 2.0), (3, 2 ** 63)}
        finally:
            engine.close()


class TestCrashRecovery:
    """Real SIGKILLs: a child process dies at a precise point in the
    commit path and the parent recovers from its log."""

    N = 5

    def _crash(self, tmp_path, mode):
        path = tmp_path / 'crash.wal'
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(path), str(self.N), mode],
            capture_output=True, text=True, timeout=120)
        return path, proc

    def _recovered_rows(self, path):
        engine = Engine(_schema(), wal=path, wal_sync=False)
        try:
            return set(engine.rows('r1'))
        finally:
            engine.close()

    def test_clean_run_commits_everything(self, tmp_path):
        path, proc = self._crash(tmp_path, 'clean')
        assert proc.returncode == 0, proc.stderr
        assert self._recovered_rows(path) \
            == {(i,) for i in range(self.N)}

    def test_kill_before_append_loses_the_transaction(self, tmp_path):
        path, proc = self._crash(tmp_path, 'kill-before-append')
        assert proc.returncode == -signal.SIGKILL
        assert self._recovered_rows(path) \
            == {(i,) for i in range(self.N - 1)}

    def test_kill_after_append_keeps_the_transaction(self, tmp_path):
        """The WAL append is the commit point: the backend never
        applied this batch, but recovery must."""
        path, proc = self._crash(tmp_path, 'kill-after-append')
        assert proc.returncode == -signal.SIGKILL
        assert self._recovered_rows(path) \
            == {(i,) for i in range(self.N)}

    def test_kill_torn_tail_is_truncated(self, tmp_path):
        path, proc = self._crash(tmp_path, 'kill-torn')
        assert proc.returncode == -signal.SIGKILL
        assert scan_tail(path).torn
        assert self._recovered_rows(path) \
            == {(i,) for i in range(self.N - 1)}
        # Recovery truncated the torn frame physically.
        with WriteAheadLog(path, sync=False) as wal:
            assert wal.stats['truncated_tails'] == 0  # already clean

    def test_kill_during_checkpoint_preserves_log(self, tmp_path):
        """The checkpoint satellite: SIGKILL while the snapshot temp
        file is being written.  The atomic rename never ran, so the
        original log is untouched — recovery shows every committed
        transaction, and the stale temp is swept on reopen."""
        path, proc = self._crash(tmp_path, 'kill-checkpoint')
        assert proc.returncode == -signal.SIGKILL
        temp = path.with_name(path.name + '.ckpt')
        assert temp.exists()                    # died mid-temp-write
        assert not scan_tail(path).torn         # old log fully intact
        assert self._recovered_rows(path) \
            == {(i,) for i in range(self.N)}
        assert not temp.exists()                # reopen swept it
