"""Complexity claims held by counts, never by timings.

Each case runs one operation at two sizes and compares counts of the
work done — the claim in the README or a docstring is the test's
subject, the counts are its evidence.
"""

import gc
import sys

import pytest

from repro.benchsuite.catalog import FIGURE6_VIEWS, entry_by_name
from repro.benchsuite.workload import build_engine, update_statement
from repro.datalog import evaluator
from repro.datalog.plan import clear_plan_cache
from repro.rdbms.dml import Delete, Insert, Update
from repro.rdbms.metrics import GLOBAL
from repro.relational.database import Database
from repro.relational import schema as schema_mod
from repro.relational.schema import RelationSchema
from tests.test_backends import cache_fills


def _seals() -> int:
    return GLOBAL.snapshot()['counters'].get('plan.seals', 0)


class TestBulkLoadRunsOneCompiledCheck:
    """README, *Bulk load*: a valid load is checked by one compiled
    pass per relation, generated once per type tuple — never row by
    row through ``validate_tuple`` — so the checks compiled do not
    depend on the data's size."""

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_valid_load_never_checks_row_by_row(self, view, monkeypatch):
        by_row = []
        real = RelationSchema.validate_tuple

        def counting(self, row):
            by_row.append(row)
            return real(self, row)

        monkeypatch.setattr(RelationSchema, 'validate_tuple', counting)
        entry = entry_by_name(view)
        compiled = {}
        for n in (1_000, 10_000):
            schema_mod._row_check.cache_clear()
            with build_engine(entry, n, backend='memory') as engine:
                assert sum(len(engine.rows(name))
                           for name in entry.sources.names()) >= n
            compiled[n] = schema_mod._row_check.cache_info().misses
        assert by_row == []
        assert compiled[1_000] == compiled[10_000] \
            == len({rel.types for rel in entry.sources})


class TestColdStartRunsSealedCode:
    """README, *Evaluator hot path*: a rule is sealed before its first
    execution, and the number of rules a view's definition and first
    read seal does not depend on the data's size."""

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_seals_do_not_grow_with_n(self, view):
        entry = entry_by_name(view)
        seals = {}
        for n in (1_000, 10_000):
            clear_plan_cache()
            before = _seals()
            with build_engine(entry, n, backend='memory') as engine:
                assert engine.rows(view)
            seals[n] = _seals() - before
        assert seals[1_000] == seals[10_000] > 0


class TestSqliteFirstReadStaysInSQL:
    """README, *Storage backends*: a view's first read on SQLite is one
    ``INSERT … SELECT`` into its cache table, so the SQL it runs does
    not depend on the data's size — no row of the view is bound back
    from Python (an ``executemany`` traces one statement per row)."""

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_first_read_binds_no_view_row(self, view):
        entry = entry_by_name(view)
        traced = {}
        for n in (1_000, 10_000):
            with build_engine(entry, n, backend='sqlite') as engine:
                statements = []
                engine.backend._conn.set_trace_callback(statements.append)
                try:
                    assert engine.rows(view)
                finally:
                    engine.backend._conn.set_trace_callback(None)
            assert cache_fills(statements, view) == ['SELECT']
            traced[n] = len(statements)
        assert traced[1_000] == traced[10_000]


class TestViewWriteRunsOnePlanContext:
    """README, *Evaluator hot path*: a one-row view INSERT on memory
    runs ∂put as **one** sealed function — its ⊥-check and its delta
    goals inline, and no plan context, since no Figure 6 ∂put reads an
    IDB predicate — and builds no :class:`Database` (no frozen
    snapshot, no intermediate output instance), whatever the base's
    size."""

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_one_row_insert(self, view, monkeypatch):
        counts = [{'contexts': 0, 'databases': 0}]     # set-up's sink

        def counting(cls, name, key):
            real = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                counts[-1][key] += 1
                return real(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        counting(evaluator._PlanContext, '__init__', 'contexts')
        counting(Database, '__post_init__', 'databases')
        entry = entry_by_name(view)
        per_size = {}
        for n in (1_000, 10_000):
            with build_engine(entry, n, backend='memory') as engine:
                counts.append({'contexts': 0, 'databases': 0})
                engine.insert(view, update_statement(entry, engine, 0))
                counts.append({'contexts': 0, 'databases': 0})
                engine.insert(view, update_statement(entry, engine, 1))
                per_size[n] = counts[-1]
                counts.append({'contexts': 0, 'databases': 0})
        assert per_size[1_000] == per_size[10_000] \
            == {'contexts': 0, 'databases': 0}

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_one_row_update_and_delete_by_key(self, view, monkeypatch):
        """Nor does an UPDATE or a DELETE by key: a fully bound
        pass-through atom (``inflow(T)`` in ``outstanding_task``'s
        ``-tasks`` rule) is one probe of its source, not a top-down run
        that needs a plan context."""
        contexts = []
        real = evaluator._PlanContext.__init__

        def counting(self, *args):
            contexts.append(self)
            real(self, *args)
        monkeypatch.setattr(evaluator._PlanContext, '__init__', counting)
        entry = entry_by_name(view)
        with build_engine(entry, 1_000, backend='memory') as engine:
            rows = [update_statement(entry, engine, i) for i in range(4)]
            for row in rows:
                engine.insert(view, row)
            key, column = engine.view(view).schema.attributes[:2]
            engine.update(view, {column: 'w0'}, where={key: rows[0][0]})
            engine.delete(view, where={key: rows[1][0]})
            contexts.clear()
            engine.update(view, {column: 'w1'}, where={key: rows[2][0]})
            engine.delete(view, where={key: rows[3][0]})
            assert contexts == []


def _python_calls(function, *args) -> int:
    """How many Python functions ``function(*args)`` calls, itself
    included (``sys.setprofile`` ``call`` events; builtins are
    ``c_call`` events and do not count).  The cycle collector is off
    meanwhile: a collection would run whatever ``gc.callbacks`` hold
    (Hypothesis registers one) inside the count."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == 'call':
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


class TestViewInsertIsSetAtATime:
    """README, *Batch execution*: a view INSERT bucket is one pass per
    layer — one row check and one composition in Algorithm 2, one
    ∂put run whose per-row work is generated code, one index-keeping
    call per stored relation on apply — so a row more in the bucket
    costs no Python call (a partly bound scan or membership test reads
    its index's dict inline), and a one-row INSERT, UPDATE by key or
    DELETE by key costs a pinned number of calls, the same at either
    base size."""

    #: Python calls per extra row of a warm INSERT bucket.
    PER_ROW = {'luxuryitems': 0, 'officeinfo': 0, 'outstanding_task': 0,
               'vw_brands': 0}
    #: Python calls of a warm one-row INSERT, UPDATE of the view's
    #: second column (one no ⊥-rule reads) by key, and DELETE by key:
    #: the transaction's frame — one record per touched relation, one
    #: registry call — plus one sealed putback run and what it calls.
    ONE_ROW = {'luxuryitems': 43, 'officeinfo': 43,
               'outstanding_task': 46, 'vw_brands': 46}
    ONE_ROW_UPDATE = {'luxuryitems': 62, 'officeinfo': 62,
                      'outstanding_task': 65, 'vw_brands': 65}
    ONE_ROW_DELETE = {'luxuryitems': 56, 'officeinfo': 56,
                      'outstanding_task': 59, 'vw_brands': 59}

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_calls_per_row(self, view):
        entry = entry_by_name(view)
        one_row = {}
        for n in (1_000, 10_000):
            with build_engine(entry, n, backend='memory') as engine:
                rows = [update_statement(entry, engine, i)
                        for i in range(303)]
                for row in rows[:2]:        # seals, fills the cache
                    engine.insert(view, row)
                one_row[n] = _python_calls(
                    engine.execute_many, [(view, [Insert(rows[2])])])
                buckets = [_python_calls(engine.execute_many, [
                    (view, [Insert(row) for row in rows[first:last]])])
                    for first, last in ((3, 103), (103, 303))]
                assert set(engine.rows(view)) >= set(rows)
        assert one_row[1_000] == one_row[10_000] <= self.ONE_ROW[view]
        assert (buckets[1] - buckets[0]) / 100 <= self.PER_ROW[view]


    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_one_row_update_and_delete_by_key(self, view):
        entry = entry_by_name(view)
        counts = {}
        for n in (1_000, 10_000):
            with build_engine(entry, n, backend='memory') as engine:
                rows = [update_statement(entry, engine, i) for i in range(4)]
                for row in rows:
                    engine.insert(view, row)
                key, column = engine.view(view).schema.attributes[:2]
                # Warm: the first UPDATE and DELETE seal their code.
                engine.update(view, {column: 'w0'}, where={key: rows[0][0]})
                engine.delete(view, where={key: rows[1][0]})
                counts[n] = (
                    _python_calls(engine.execute_many, [(view, [Update(
                        {column: 'w1'}, {key: rows[2][0]})])]),
                    _python_calls(engine.execute_many, [(view, [Delete(
                        {key: rows[3][0]})])]))
                assert rows[2][:1] + ('w1',) + rows[2][2:] \
                    in engine.rows(view)
                assert rows[3] not in engine.rows(view)
        update, delete = counts[1_000]
        assert counts[1_000] == counts[10_000]
        assert update <= self.ONE_ROW_UPDATE[view]
        assert delete <= self.ONE_ROW_DELETE[view]


class TestValidationJudgesInBatches:
    """``fol/solver.py``'s module docstring: a goal's canonical
    candidates are judged in doubling batches from 16, so validating
    the 31 expressible Table 1 entries costs a pinned number of judge
    runs (``_Worlds.accepted``) and of solver plan runs
    (``execute_plan`` / ``execute_constraints``: two per judge run at
    most, plus the exact checks of accepted candidates).  Starting each
    goal at one candidate took 1 373 judge runs and 1 679 plan runs."""

    JUDGE_RUNS = 797
    PLAN_RUNS = 1_057

    def test_catalog_validation_runs(self, monkeypatch):
        from repro.benchsuite.catalog import ALL_ENTRIES
        from repro.core.validation import validate
        from repro.fol import solver
        counts = {'judge': 0, 'plan': 0}

        def counting(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(solver._Worlds, 'accepted', 'judge')
        counting(solver, 'execute_plan', 'plan')
        counting(solver, 'execute_constraints', 'plan')
        entries = [entry for entry in ALL_ENTRIES if entry.expressible]
        assert len(entries) == 31
        for entry in entries:
            validate(entry.strategy())
        assert counts['judge'] <= self.JUDGE_RUNS
        assert counts['plan'] <= self.PLAN_RUNS


class TestPeerPendingReadsWhatIsOwed:
    """``Peer.pending``'s docstring: a link's pending records are found
    by a scan back from the newest outbox record, so ``pump``,
    ``settle`` and ``lag`` read k + 1 records for k owed, not the whole
    outbox tail."""

    def test_pending_reads_k_plus_one_records(self, tmp_path):
        from repro.rdbms.dml import Delete, Insert, Update
        from repro.rdbms.peernet import Peer
        from tests.test_peernet import VIEW, plain_factory

        class Counted:
            """A published delta whose ``lsn`` reads are counted."""
            reads = 0

            def __init__(self, delta):
                self.delta = delta

            @property
            def lsn(self):
                Counted.reads += 1
                return self.delta.lsn

        owed, reads = 3, {}
        for n in (100, 1_000):
            peer = Peer('a', plain_factory, tmp_path / str(n),
                        shares=(VIEW,))
            try:
                for i in range(n):      # one publication each
                    peer.engine.execute(VIEW, [Insert((f'w{i}', 'o'))])
                tail = peer._tail[VIEW]
                assert len(tail) == n
                tail[:] = map(Counted, tail)
                after = tail[-owed - 1].delta.lsn
                Counted.reads = 0
                assert [d.delta for d in peer.pending(VIEW, after)] \
                    == [d.delta for d in tail[-owed:]]
                reads[n] = Counted.reads
            finally:
                peer.close()
        assert reads[100] == reads[1_000] <= owed + 1
