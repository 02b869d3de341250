"""Storage backend tests: the Backend interface, the SQLite backend's
SQL execution, interpreter fallback, and the cross-backend differential
anchor (identical workloads must yield bit-identical base states)."""

import sqlite3

import pytest

from repro.benchsuite.catalog import entry_by_name
from repro.benchsuite.workload import build_engine, update_statement
from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.backends import (MemoryBackend, SQLiteBackend,
                                  create_backend, default_backend_kind)
from repro.rdbms.engine import Engine

DIFFERENTIAL_VIEWS = ('luxuryitems', 'officeinfo', 'outstanding_task',
                      'vw_brands')


def _union_engine(union_strategy, backend):
    engine = Engine(union_strategy.sources, backend=backend)
    engine.load('r1', [(1,)])
    engine.load('r2', [(2,), (4,)])
    engine.define_view(union_strategy, validate_first=False)
    return engine


# ---------------------------------------------------------------------------
# Memory backend lifecycle
# ---------------------------------------------------------------------------


class TestMemoryClose:

    def test_close_empties_every_stored_relation(self, luxury_strategy):
        """Evaluation handles outlive the engine (plan contexts of the
        first, unsealed executions sit in reference cycles): after
        ``close()`` none of them holds a row or an index, so the data
        is freed by reference counting — checked with the cycle
        collector off."""
        import gc
        gc.disable()
        try:
            engine = Engine(luxury_strategy.sources, backend='memory')
            engine.load('items', [(1, 'watch', 5000), (2, 'gum', 5)])
            engine.define_view(luxury_strategy, validate_first=False)
            engine.insert('luxuryitems', (3, 'yacht', 90000))
            engine.update('luxuryitems', {'iname': 'boat'},
                          where={'iid': 3})
            backend = engine.backend
            handles = [backend.eval_handle(name)
                       for name in ('items', 'luxuryitems')]
            held = backend.rows('items')
            assert all(h.rows for h in handles)
            assert any(h._indexes for h in handles)
            engine.close()
            assert not any(h.rows or h._indexes for h in handles)
            assert not backend._tables and not backend._caches
            assert len(held) == 3            # a reader's set stays valid
            with pytest.raises(SchemaError):
                backend.rows('items')        # closed: serves no reads
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Factory / configuration
# ---------------------------------------------------------------------------


class TestFactory:

    def test_known_backends(self, union_sources):
        assert isinstance(create_backend('memory', union_sources),
                          MemoryBackend)
        assert isinstance(create_backend('sqlite', union_sources),
                          SQLiteBackend)

    def test_unknown_backend_rejected(self, union_sources):
        with pytest.raises(SchemaError):
            create_backend('postgres', union_sources)

    def test_instance_passthrough(self, union_sources):
        backend = SQLiteBackend(union_sources)
        assert create_backend(backend, union_sources) is backend
        engine = Engine(union_sources, backend=backend)
        assert engine.backend is backend

    def test_env_default(self, union_sources, monkeypatch):
        monkeypatch.setenv('REPRO_BACKEND', 'sqlite')
        assert default_backend_kind() == 'sqlite'
        assert isinstance(Engine(union_sources).backend, SQLiteBackend)
        monkeypatch.setenv('REPRO_BACKEND', 'no-such-backend')
        with pytest.raises(SchemaError):
            default_backend_kind()


# ---------------------------------------------------------------------------
# SQLite backend behavior
# ---------------------------------------------------------------------------


class TestSQLiteEngine:

    def test_basic_view_dml(self, union_strategy):
        engine = _union_engine(union_strategy, 'sqlite')
        assert engine.rows('v') == {(1,), (2,), (4,)}
        engine.insert('v', (3,))
        assert (3,) in engine.rows('r1')
        engine.delete('v', where={'a': 2})
        assert engine.rows('r2') == {(4,)}
        engine.update('v', {'a': 9}, where={'a': 4})
        assert engine.rows('v') == {(1,), (3,), (9,)}

    def test_constraint_violation_via_sql(self, luxury_strategy):
        engine = Engine(luxury_strategy.sources, backend='sqlite')
        engine.load('items', [(1, 'watch', 5000)])
        engine.define_view(luxury_strategy, validate_first=False)
        with pytest.raises(ConstraintViolation):
            engine.insert('luxuryitems', (2, 'gum', 5))
        # Atomicity: neither SQLite tables nor the cache changed.
        assert engine.rows('items') == {(1, 'watch', 5000)}
        assert engine.rows('luxuryitems') == {(1, 'watch', 5000)}

    def test_plans_lower_to_sql(self, luxury_strategy):
        engine = Engine(luxury_strategy.sources, backend='sqlite')
        engine.define_view(luxury_strategy, validate_first=False)
        backend = engine.backend
        assert backend.lowering_fallbacks('luxuryitems') == []
        compiled = backend.compiled_sql('luxuryitems')
        assert any(key.startswith('get:') for key in compiled)
        assert any(key.startswith('incremental:') for key in compiled)
        assert all('SELECT' in sql for sql in compiled.values())

    def test_snapshot_round_trip_types(self, union_sources):
        schema = union_sources.extend()
        backend = SQLiteBackend(schema)
        backend.load('r1', {(1,), (2,)})
        backend.load('r2', set())
        snap = backend.snapshot()
        assert snap['r1'] == {(1,), (2,)}
        assert all(isinstance(v, int) for row in snap['r1'] for v in row)

    def test_file_backed_database_persists(self, union_strategy,
                                           tmp_path):
        path = str(tmp_path / 'engine.db')
        backend = SQLiteBackend(union_strategy.sources, path=path)
        engine = Engine(union_strategy.sources, backend=backend)
        engine.load('r1', [(1,)])
        engine.load('r2', [(2,)])
        engine.define_view(union_strategy, validate_first=False)
        engine.insert('v', (7,))
        backend.close()
        with sqlite3.connect(path) as conn:
            rows = set(conn.execute('SELECT * FROM r1'))
        assert rows == {(1,), (7,)}

    def test_interpreter_fallback_still_correct(self, union_strategy):
        """A view whose programs cannot lower to SQL runs interpreted —
        same results, storage still in SQLite."""
        engine = _union_engine(union_strategy, 'sqlite')
        reference = _union_engine(union_strategy, 'sqlite')
        compiled = engine.backend._compiled['v']
        compiled.get = None
        compiled.incremental = None
        compiled.putback = None
        compiled.fallbacks.append(('test', 'forced'))
        for e in (engine, reference):
            e.insert('v', (3,))
            e.delete('v', where={'a': 2})
        assert engine.database() == reference.database()
        assert engine.rows('v') == reference.rows('v')
        assert engine.backend.lowering_fallbacks('v')

    def test_lowering_failure_records_fallback(self, union_strategy,
                                               monkeypatch):
        from repro.errors import TransformationError
        import repro.rdbms.backends.sqlite as sqlite_mod

        def boom(*args, **kwargs):
            raise TransformationError('not expressible')

        monkeypatch.setattr(sqlite_mod, 'query_to_sql', boom)
        engine = _union_engine(union_strategy, 'sqlite')
        fallbacks = engine.backend.lowering_fallbacks('v')
        assert {label for label, _ in fallbacks} \
            == {'get', 'incremental putback', 'putback'}
        # The engine still works end to end, interpreted.
        engine.insert('v', (3,))
        assert (3,) in engine.rows('r1')

    def test_unknown_relation_rejected(self, union_sources):
        backend = SQLiteBackend(union_sources)
        with pytest.raises(SchemaError):
            backend.rows('nope')

    @pytest.mark.parametrize('backend', ['memory', 'sqlite'])
    def test_all_anonymous_constraint_witness(self, backend):
        """A ⊥-rule whose variables are all anonymous still lowers to a
        valid witness query (its SELECT head is the constant 1)."""
        from repro.core.strategy import UpdateStrategy
        from repro.relational.schema import DatabaseSchema
        sources = DatabaseSchema.build(r1={'a': 'int'},
                                       junk={'a': 'int'})
        strategy = UpdateStrategy.parse('v', sources, """
            ⊥ :- junk(_).
            +r1(X) :- v(X), not r1(X).
            -r1(X) :- r1(X), not v(X).
        """, expected_get='v(X) :- r1(X).')
        engine = Engine(sources, backend=backend)
        engine.load('junk', [(1,)])
        engine.define_view(strategy, validate_first=False)
        with pytest.raises(ConstraintViolation):
            engine.insert('v', (5,))
        assert engine.rows('r1') == set()

    def test_runtime_sql_error_demotes_to_interpreter(self,
                                                      union_strategy):
        """SQL that compiled but fails at execution time falls back to
        the interpreter (and stays demoted) instead of leaking a raw
        sqlite3 error."""
        from dataclasses import replace
        engine = _union_engine(union_strategy, 'sqlite')
        compiled = engine.backend._compiled['v']
        prog = compiled.incremental
        broken = tuple((goal, 'SELECT * FROM no_such_relation')
                       for goal, _ in prog.delta_sql)
        compiled.incremental = replace(prog, delta_sql=broken)
        engine.insert('v', (3,))
        assert (3,) in engine.rows('r1')
        assert compiled.incremental is None
        assert any(label == 'incremental' and 'runtime' in reason
                   for label, reason
                   in engine.backend.lowering_fallbacks('v'))


# ---------------------------------------------------------------------------
# Cross-backend differential anchor
# ---------------------------------------------------------------------------


def _run_workload(view: str, backend: str) -> Engine:
    """The same deterministic mixed workload on either backend."""
    entry = entry_by_name(view)
    engine = build_engine(entry, 400, incremental=True, backend=backend)
    engine.rows(view)                       # materialise the cache
    # Single-statement inserts through the view.
    for i in range(4):
        engine.insert(view, update_statement(entry, engine, i))
    # Delete one freshly inserted view tuple (full-attribute WHERE).
    victim = update_statement(entry, engine, 0)
    view_attrs = engine.view(view).schema.attributes
    engine.delete(view, where=dict(zip(view_attrs, victim)))
    # A transaction mixing view and direct base writes.
    base = sorted(engine.view(view).base_closure)[0]
    base_row = next(iter(sorted(engine.rows(base))))
    with engine.transaction() as txn:
        txn.insert(view, update_statement(entry, engine, 77))
        txn.delete(base, where=dict(
            zip(engine.schema[base].attributes, base_row)))
    return engine


class TestCrossBackendDifferential:

    @pytest.mark.parametrize('view', DIFFERENTIAL_VIEWS)
    def test_identical_base_states(self, view):
        memory = _run_workload(view, 'memory')
        sqlite_engine = _run_workload(view, 'sqlite')
        assert memory.database() == sqlite_engine.database()
        assert memory.rows(view) == sqlite_engine.rows(view)

    @pytest.mark.parametrize('view', DIFFERENTIAL_VIEWS)
    def test_batched_transaction_identical_states(self, view):
        """A many-statement batched transaction leaves both backends —
        and both translation modes — in the same state."""
        entry = entry_by_name(view)
        engines = {}
        for backend in ('memory', 'sqlite'):
            for batch in (True, False):
                engine = build_engine(entry, 300, incremental=True,
                                      backend=backend)
                engine.batch_deltas = batch
                engine.rows(view)
                with engine.transaction() as txn:
                    for i in range(8):
                        txn.insert(view,
                                   update_statement(entry, engine, i))
                    victim = update_statement(entry, engine, 3)
                    attrs = engine.view(view).schema.attributes
                    txn.delete(view, where=dict(zip(attrs, victim)))
                engines[(backend, batch)] = engine
        reference = engines[('memory', False)]
        for key, engine in engines.items():
            assert engine.database() == reference.database(), key
            assert engine.rows(view) == reference.rows(view), key

    def test_one_temp_stage_per_relation_per_transaction(
            self, luxury_strategy):
        """The batched pipeline stages the whole transaction's delta as
        one multi-row TEMP shadow per relation and commits in one SQL
        transaction — asserted via the SQL trace of a 100-statement
        view transaction."""
        from repro.rdbms.dml import Insert
        engine = Engine(luxury_strategy.sources, backend='sqlite')
        engine.load('items', [(1, 'watch', 5000)])
        engine.define_view(luxury_strategy, validate_first=False)
        engine.rows('luxuryitems')
        engine.insert('luxuryitems', (2, 'ring', 2000))      # warm up
        statements: list = []
        engine.backend._conn.set_trace_callback(statements.append)
        try:
            engine.execute_many([
                ('luxuryitems', [Insert((100 + i, f'item{i}', 2000 + i))])
                for i in range(100)])
        finally:
            engine.backend._conn.set_trace_callback(None)
        temp_creates: dict[str, int] = {}
        for sql in statements:
            if sql.startswith('CREATE TEMP TABLE'):
                name = sql.split('"')[1]
                temp_creates[name] = temp_creates.get(name, 0) + 1
        assert temp_creates, 'expected TEMP staging in the trace'
        # One multi-row stage per staged relation for the whole
        # 100-statement transaction, not one per statement.
        assert set(temp_creates.values()) == {1}, temp_creates
        assert sum(1 for sql in statements if sql == 'BEGIN') == 1
        assert engine.rows('items') >= {(100 + i, f'item{i}', 2000 + i)
                                        for i in range(100)}

    def test_random_statement_sequences_union(self, union_strategy):
        """Property-style sweep on the union view: every prefix of a
        mixed insert/delete sequence leaves both backends in the same
        base state."""
        ops = [('ins', 3), ('ins', 9), ('del', 2), ('ins', 2),
               ('del', 9), ('del', 1), ('ins', 5), ('del', 5)]
        engines = [_union_engine(union_strategy, kind)
                   for kind in ('memory', 'sqlite')]
        for op, value in ops:
            for engine in engines:
                if op == 'ins':
                    engine.insert('v', (value,))
                else:
                    engine.delete('v', where={'a': value})
            fast, slow = engines
            assert fast.database() == slow.database()
            assert fast.rows('v') == slow.rows('v')
