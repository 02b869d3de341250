"""Storage backend tests: the Backend interface, the SQLite backend's
SQL execution, staging and query plans, interpreter fallback, and the
cross-backend differential anchor (identical workloads must yield
bit-identical base states)."""

import functools
import itertools
import re
import sqlite3
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.benchsuite.catalog import ALL_ENTRIES, entry_by_name
from repro.benchsuite.workload import build_engine, update_statement
from repro.core.lvgn import is_lvgn
from repro.core.strategy import UpdateStrategy
from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.backends import (MemoryBackend, SQLiteBackend,
                                  create_backend, default_backend_kind)
from repro.rdbms.dml import Delete, Insert, Update, derive_view_delta
from repro.rdbms.engine import Engine
from repro.relational.schema import DatabaseSchema, RelationSchema

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
        """Evaluation handles outlive the engine (plan contexts of
        generic-tier runs sit in reference cycles): after
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


class TestMemoryOwnership:

    def test_load_and_first_read_keep_the_set_they_are_handed(
            self, luxury_strategy, monkeypatch):
        """A bulk load stores the set ``Engine.load`` built, and a first
        read stores the set the get plan's rules built: no copy of
        either."""
        from repro.rdbms.backends import base
        handed = {}
        real_load, real_goal = MemoryBackend.load, base.execute_goal

        def load(self, name, rows):
            handed[name] = rows
            real_load(self, name, rows)

        def execute_goal(plan, edb, goal):
            handed[goal] = real_goal(plan, edb, goal)
            return handed[goal]

        monkeypatch.setattr(MemoryBackend, 'load', load)
        monkeypatch.setattr(base, 'execute_goal', execute_goal)
        with Engine(luxury_strategy.sources, backend='memory') as engine:
            engine.load('items', [(1, 'watch', 5000), (2, 'gum', 5)])
            engine.define_view(luxury_strategy, validate_first=False)
            for name in ('items', 'luxuryitems'):
                assert engine.rows(name) is handed[name]
            assert engine.rows('luxuryitems') == {(1, 'watch', 5000)}

    @pytest.mark.parametrize('kind', [set, frozenset])
    def test_load_copies_the_callers_set_and_keeps_its_tuples(
            self, luxury_strategy, kind):
        """A set handed to ``Engine.load`` is copied (a later change to
        it does not reach the table), but the stored rows are the
        caller's own tuple objects, not rebuilt ones."""
        rows = kind({(1, 'watch', 5000), (2, 'gum', 5)})
        with Engine(luxury_strategy.sources, backend='memory') as engine:
            engine.load('items', rows)
            stored = engine.rows('items')
            assert stored is not rows and stored == rows
            theirs = {id(row) for row in rows}
            assert {id(row) for row in stored} == theirs
            if kind is set:
                rows.add((3, 'cap', 10))
                assert (3, 'cap', 10) not in engine.rows('items')


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
                                               monkeypatch, caplog):
        from repro.errors import TransformationError
        import repro.rdbms.backends.sqlite as sqlite_mod

        def boom(*args, **kwargs):
            raise TransformationError('not expressible')

        monkeypatch.setattr(sqlite_mod, 'query_to_sql', boom)
        with caplog.at_level('WARNING', logger='repro.rdbms.backends.sqlite'):
            engine = _union_engine(union_strategy, 'sqlite')
        fallbacks = engine.backend.lowering_fallbacks('v')
        assert {label for label, _ in fallbacks} \
            == {'get', 'incremental putback', 'putback'}
        assert len(caplog.records) == 3
        assert all("view 'v'" in record.getMessage()
                   and 'not expressible' in record.getMessage()
                   for record in caplog.records)
        # The engine still works end to end, interpreted.
        engine.insert('v', (3,))
        assert (3,) in engine.rows('r1')

    def test_unknown_relation_rejected(self, union_sources):
        backend = SQLiteBackend(union_sources)
        with pytest.raises(SchemaError):
            backend.rows('nope')

    def test_closed_backend_refuses_every_use(self, union_strategy):
        from repro.relational.delta import Delta
        engine = _union_engine(union_strategy, 'sqlite')
        backend = engine.backend
        engine.close()
        engine.close()                      # idempotent
        backend.close()
        delta = Delta(frozenset({(9,)}), frozenset())
        for use in (lambda: backend.rows('r1'),
                    lambda: backend.probe('r1', (0,), (1,)),
                    lambda: backend.load('r1', {(1,)}),
                    lambda: backend.apply_deltas([('r1', delta, False)])):
            with pytest.raises(SchemaError, match='is closed'):
                use()

    @pytest.mark.parametrize('backend', ['memory', 'sqlite'])
    def test_all_anonymous_constraint_witness(self, backend):
        """A ⊥-rule whose variables are all anonymous still lowers to a
        valid witness query (its SELECT head is the constant 1).  The
        rule reads the view: ∂put carries only the delta form of such
        rules (a view-free one is ineffective in a steady state)."""
        from repro.core.strategy import UpdateStrategy
        from repro.relational.schema import DatabaseSchema, RelationSchema
        sources = DatabaseSchema.build(r1={'a': 'int'},
                                       junk={'a': 'int'})
        strategy = UpdateStrategy.parse('v', sources, """
            ⊥ :- v(_), junk(_).
            +r1(X) :- v(X), not r1(X).
            -r1(X) :- r1(X), not v(X).
        """, expected_get='v(X) :- r1(X).')
        engine = Engine(sources, backend=backend)
        engine.load('junk', [(1,)])
        engine.define_view(strategy, validate_first=False)
        with pytest.raises(ConstraintViolation):
            engine.insert('v', (5,))
        assert engine.rows('r1') == set()

    #: entry point -> (view, incremental?, program it runs, field broken)
    DEMOTIONS = {
        'get': ('luxuryitems', True, 'get', 'delta_sql'),
        'incremental': ('luxuryitems', True, 'incremental', 'delta_sql'),
        'putback': ('luxuryitems', False, 'putback', 'delta_sql'),
        # A general-path ∂put carries the delta form of its ⊥-rules.
        'constraints': ('vw_customers', True, 'incremental',
                        'constraint_sql'),
    }

    @staticmethod
    def _demotion_workload(engine, view: str) -> None:
        """The first read (``get``), then two view DELETEs, each one
        read back."""
        engine.rows(view)
        for _ in range(2):
            victim = min(engine.rows(view))
            engine.delete(view, where=dict(
                zip(engine.view(view).schema.attributes, victim)))
            engine.rows(view)

    @pytest.mark.parametrize('entry_point', DEMOTIONS)
    def test_runtime_sql_error_demotes_to_interpreter(self, entry_point,
                                                      caplog):
        """SQL that compiled but fails at execution time falls back to
        the interpreter (and stays demoted) instead of leaking a raw
        sqlite3 error — and says so, once, on the backend's logger —
        whichever evaluation runs it; the answer is the memory
        backend's and no staged row is left behind."""
        from dataclasses import replace
        view, incremental, label, field = self.DEMOTIONS[entry_point]
        entry = entry_by_name(view)
        engine = build_engine(entry, 60, incremental=incremental,
                              backend='sqlite')
        reference = build_engine(entry, 60, incremental=incremental,
                                 backend='memory')
        backend = engine.backend
        try:
            assert engine.view(view).use_incremental == incremental
            compiled = backend._compiled[view]
            prog = getattr(compiled, label)
            assert getattr(prog, field)
            broken = tuple((key, 'SELECT * FROM no_such_relation')
                           for key, _ in getattr(prog, field))
            setattr(compiled, label, replace(prog, **{field: broken}))
            before = backend.lowering_fallbacks(view)
            with caplog.at_level('WARNING',
                                 logger='repro.rdbms.backends.sqlite'):
                self._demotion_workload(engine, view)
            self._demotion_workload(reference, view)
            assert engine.database() == reference.database()
            assert engine.rows(view) == reference.rows(view)
            record, = caplog.records
            assert record.name == 'repro.rdbms.backends.sqlite'
            assert repr(view) in record.getMessage() \
                and 'no_such_relation' in record.getMessage()
            assert getattr(compiled, label) is None
            (gained_label, reason), = \
                backend.lowering_fallbacks(view)[len(before):]
            assert gained_label == label and reason.startswith('runtime:')
            staged = _temp_tables(backend)
            assert all(name.startswith('delta_') for name in staged)
            assert not any(staged.values())
        finally:
            engine.close()
            reference.close()


# ---------------------------------------------------------------------------
# SQLite row image: one live set per stored relation, commit in O(|Δ|)
# ---------------------------------------------------------------------------


def _table_rows(backend, name: str) -> set:
    return set(map(tuple, backend._conn.execute(
        f'SELECT * FROM "{name}"')))


class TestSqliteRowImage:
    """``SQLiteBackend.rows`` is the memory backend's contract: the
    backend's own live ``set``, updated in place after ``COMMIT`` — so
    a commit costs O(|Δ|) in Python, as counts and bytes, no timing."""

    def test_rows_is_one_live_set_across_commits(self, luxury_strategy):
        engine = _luxury_engine(luxury_strategy)
        backend = engine.backend
        images = {name: backend.rows(name)
                  for name in ('items', 'luxuryitems')}
        assert all(type(image) is set for image in images.values())
        engine.insert('luxuryitems', (3, 'yacht', 90000))
        engine.update('luxuryitems', {'iname': 'boat'}, where={'iid': 3})
        engine.delete('luxuryitems', where={'iid': 2})
        for name, image in images.items():
            assert backend.rows(name) is image
            assert engine.rows(name) is image
            assert image == _table_rows(backend, name)
        assert images['luxuryitems'] == {(1, 'watch', 5000),
                                         (3, 'boat', 90000)}

    @staticmethod
    def _insert_peak_bytes(n: int) -> int:
        import tracemalloc
        entry = entry_by_name('luxuryitems')
        engine = build_engine(entry, n, backend='sqlite')
        try:
            engine.rows('luxuryitems')
            for i in range(3):                              # warm up
                engine.insert('luxuryitems',
                              update_statement(entry, engine, i))
            row = update_statement(entry, engine, 3)
            tracemalloc.start()
            try:
                engine.insert('luxuryitems', row)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            engine.close()

    def test_insert_allocation_is_flat_in_relation_size(self):
        """Peak bytes allocated by one warmed-up view INSERT: within 2×
        between n = 200 and n = 20 000 (the per-commit frozenset
        rebuild read 26 KB vs 2.6 MB)."""
        small = self._insert_peak_bytes(200)
        large = self._insert_peak_bytes(20_000)
        assert large <= 2 * small, (small, large)

    def test_failed_batch_leaves_images_equal_to_tables(self,
                                                        union_strategy):
        """Images change only after ``COMMIT``: a batch whose second
        relation raises rolls SQLite back and touches no image."""
        from repro.relational.delta import Delta
        engine = _union_engine(union_strategy, 'sqlite')
        backend = engine.backend
        images = {name: engine.rows(name) for name in ('r1', 'r2', 'v')}
        before = {name: set(image) for name, image in images.items()}
        good = Delta(frozenset({(7,)}), frozenset({(1,)}))
        bad = Delta(frozenset({(8, 'one column too many')}), frozenset())
        with pytest.raises(sqlite3.Error):
            backend.apply_deltas([('r1', good, False), ('v', good, True),
                                  ('r2', bad, False)])
        for name, image in images.items():
            assert image == before[name] == _table_rows(backend, name)
        engine.insert('v', (7,))            # and the backend still works
        for name, image in images.items():
            assert backend.rows(name) is image
            assert image == _table_rows(backend, name)
        assert images['r1'] == {(1,), (7,)}

    def test_image_misses_rebuild_from_sqlite(self, union_strategy,
                                              tmp_path):
        """The image is a mirror, SQLite the truth: a dropped cache
        rematerialises, a reopened file-backed database reads its
        tables back, and a closed backend answers nothing."""
        path = str(tmp_path / 'engine.db')
        engine = _union_engine(
            union_strategy, SQLiteBackend(union_strategy.sources, path))
        backend = engine.backend
        old_view = engine.rows('v')
        backend.drop_cache('v')
        with pytest.raises(SchemaError):
            backend.rows('v')
        assert engine.rows('v') == old_view
        assert engine.rows('v') is not old_view
        engine.insert('v', (3,))
        engine.close()
        for name in ('r1', 'v'):
            with pytest.raises(SchemaError):
                backend.rows(name)
        assert old_view == {(1,), (2,), (4,)}   # the holder's copy stays

        reopened = SQLiteBackend(union_strategy.sources, path)
        try:
            assert not reopened._images
            assert reopened.rows('r1') == {(1,), (3,)}
            assert reopened.rows('r1') is reopened.rows('r1')
            assert reopened.count('r2') == 2
        finally:
            reopened.close()

    def test_readers_copy_the_live_set_while_a_writer_commits(self):
        """Four threads snapshot the view (the copy ``ViewServer.rows``
        makes — atomic for a real ``set`` under the GIL) while the
        writer commits 300 INSERTs: no snapshot raises, each lies
        between the initial and the final view."""
        entry = entry_by_name('luxuryitems')
        engine = build_engine(entry, 400, backend='sqlite')
        # The copy is only atomic for a real set: not a subclass, not a
        # wrapper whose iteration could interleave with the writer.
        assert type(engine.rows('luxuryitems')) is set
        initial = frozenset(engine.rows('luxuryitems'))
        inserts = [update_statement(entry, engine, i) for i in range(300)]
        final = initial | frozenset(inserts)
        taken = [0] * 4
        failures: list = []
        done = threading.Event()

        def reader(slot: int):
            try:
                while not done.is_set():
                    snap = frozenset(engine.rows('luxuryitems'))
                    taken[slot] += 1
                    if not initial <= snap <= final:
                        failures.append(snap)
            except BaseException as exc:           # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # switch threads mid-commit
        try:
            for thread in threads:
                thread.start()
            for row in inserts:
                engine.insert('luxuryitems', row)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert all(taken)
        assert engine.rows('luxuryitems') == final
        engine.close()


# ---------------------------------------------------------------------------
# What a backend cannot hold is refused before anything is written
# ---------------------------------------------------------------------------

WIDE = RelationSchema('w', ('k', 's', 'f'), ('int', 'string', 'float'))
NAN = float('nan')

#: Valid for ``w(k int, s string, f float)``, and nothing SQLite keeps:
#: a 65-bit integer (in either numeric column), a NaN (binds as NULL,
#: which ``INSERT OR IGNORE`` drops without a word) and a lone
#: surrogate (no UTF-8 encoding).
UNSTORABLE = [(2 ** 70, 'x', 2.0), (3, 'x', NAN),
              (3, 'x', -2 ** 63 - 1), (3, '\ud800', 2.0)]
STORABLE = {(2 ** 63 - 1, 'é\x00', float('inf')), (-2 ** 63, '', 1),
            (0, 'x', True), (1, 'x', 1e300)}


class TestStorableValues:

    @staticmethod
    def _engine(backend) -> Engine:
        engine = Engine(DatabaseSchema([WIDE]), backend=backend)
        engine.load('w', STORABLE)
        return engine

    @pytest.mark.parametrize('row', UNSTORABLE, ids=repr)
    def test_memory_holds_what_sqlite_refuses(self, row):
        engine = self._engine('memory')
        engine.insert('w', row)
        assert row in engine.rows('w')
        engine.load('w', [row])
        assert engine.rows('w') == {row}

    @pytest.mark.parametrize('row', UNSTORABLE, ids=repr)
    def test_sqlite_refuses_at_prepare_and_load(self, row):
        engine = self._engine('sqlite')
        backend = engine.backend
        try:
            image = engine.rows('w')
            assert image == STORABLE == _table_rows(backend, 'w')
            with pytest.raises(SchemaError, match='SQLite stores'):
                engine.insert('w', row)
            with pytest.raises(SchemaError, match='SQLite stores'):
                engine.execute_many([('w', [Insert((5, 'ok', 5.0)),
                                            Insert(row)])])
            with pytest.raises(SchemaError, match='SQLite stores'):
                engine.load('w', [(5, 'ok', 5.0), row])
            assert engine.rows('w') is image
            assert image == STORABLE == _table_rows(backend, 'w')
            assert not backend._conn.in_transaction
            engine.insert('w', (5, 'ok', 5.0))
            assert image == STORABLE | {(5, 'ok', 5.0)} \
                == _table_rows(backend, 'w')
        finally:
            engine.close()

    def test_view_rows_are_checked_like_base_rows(self, luxury_strategy):
        engine = _luxury_engine(luxury_strategy)
        try:
            before = {name: set(engine.rows(name))
                      for name in ('items', 'luxuryitems')}
            with pytest.raises(SchemaError, match='SQLite stores'):
                engine.insert('luxuryitems', (3, 'yacht', 2 ** 70))
            with pytest.raises(SchemaError, match='SQLite stores'):
                engine.update('luxuryitems', {'iname': '\udfff'},
                              where={'iid': 1})
            for name, rows in before.items():
                assert engine.rows(name) == rows \
                    == _table_rows(engine.backend, name)
        finally:
            engine.close()

    @pytest.mark.parametrize('failing', ['load', 'store_cache'])
    def test_failed_bulk_write_rolls_back(self, union_strategy, failing):
        """A row that fails to bind mid-``executemany`` (a ``frozenset``,
        injected past the engine's checks): the SQL transaction is
        rolled back — table, indexes, image and ``in_transaction`` as
        before — and the next commit succeeds."""
        engine = _union_engine(union_strategy, 'sqlite')
        backend = engine.backend
        try:
            backend.add_index_hint('v', (0,))
            images = {name: engine.rows(name) for name in ('r1', 'v')}
            before = {name: set(image) for name, image in images.items()}
            indexes = _indexes(backend)
            with pytest.raises(sqlite3.Error):
                if failing == 'load':
                    backend.load('r1', {(7,), (frozenset({8}),)})
                else:
                    backend.store_cache('v', {(7,), (frozenset({8}),)})
            assert not backend._conn.in_transaction
            for name, image in images.items():
                assert backend.rows(name) is image
                assert image == before[name] == _table_rows(backend, name)
            assert backend.has_cache('v') and _indexes(backend) == indexes
            engine.insert('v', (9,))
            for name, image in images.items():
                assert image == before[name] | {(9,)} \
                    == _table_rows(backend, name)
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# SQLite probe: a keyed WHERE is one SELECT on an access path SQLite has
# ---------------------------------------------------------------------------

#: A view column that takes part in no ⊥-constraint — safe to UPDATE.
SAFE_COLUMN = {'luxuryitems': 'iname', 'officeinfo': 'office',
               'outstanding_task': 'title', 'vw_brands': 'bname'}


class _CountingSet(set):
    """A set that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _scan(rows, positions, key) -> set:
    return {row for row in rows
            if all(row[p] == k for p, k in zip(positions, key))}


def _indexes(backend) -> set:
    return set(backend._conn.execute(
        "SELECT name, tbl_name, sql FROM sqlite_master "
        "WHERE type = 'index'"))


def _probe_texts(statements) -> list[str]:
    return [sql for sql in statements
            if re.match(r'SELECT \* FROM "[^"]+" WHERE ', sql)]


def _wide_backend() -> SQLiteBackend:
    """``w(k, s, f)`` with the plans' hint on ``f``: ``k`` and
    ``(k, s)`` are primary-key prefixes, ``f`` is hinted, ``s`` alone
    has no access path."""
    backend = SQLiteBackend(DatabaseSchema([WIDE]))
    backend.add_index_hint('w', (2,))
    backend.load('w', {(1, 'x', 0.5), (1, 'y', 2), (2, 'x', 0.5),
                       (3, 'z', 7.0)})
    return backend


class TestSqliteProbe:
    """ROADMAP 3b as counts: a column→value WHERE costs one ``SELECT``
    and no pass over the row image — indexed on a primary-key prefix or
    a hinted mask, a scan in C on any other column set."""

    @pytest.mark.parametrize('n', [200, 20_000])
    def test_keyed_statements_never_iterate_the_row_image(self, n):
        entry = entry_by_name('luxuryitems')
        engine = build_engine(entry, n, backend='sqlite')
        try:
            backend = engine.backend
            first, second = sorted(engine.rows('luxuryitems'))[:2]
            for name in ('luxuryitems', 'items'):
                backend._images[name] = _CountingSet(backend._images[name])
            engine.execute('luxuryitems', [
                Update({'iname': 'marked'}, {'iid': first[0]})])
            engine.execute('luxuryitems', [Delete({'iid': second[0]})])
            assert [backend._images[name].iterations
                    for name in ('luxuryitems', 'items')] == [0, 0]
            counters = engine.metrics.snapshot()['counters']
            assert counters['dml.where_probes'] == 2
            assert 'dml.where_scans' not in counters
            marked = (first[0], 'marked', first[2])
            for name in ('luxuryitems', 'items'):
                rows = engine.rows(name)
                assert marked in rows and first not in rows \
                    and second not in rows
                assert rows == _table_rows(backend, name)
        finally:
            engine.close()

    @pytest.mark.parametrize('view', DIFFERENTIAL_VIEWS)
    def test_every_probe_is_a_search_and_creates_no_index(self, view):
        """The key column of each Figure 6 view and every mask its
        plans hinted: SQLite answers each probe text with ``SEARCH``,
        and ``sqlite_master`` holds the indexes it held before."""
        engine = build_engine(entry_by_name(view), 60, backend='sqlite')
        try:
            backend = engine.backend
            key_column = engine.view(view).schema.attributes[0]
            victim = min(engine.rows(view))
            masks = {(view, (0,))} | {
                (name, mask)
                for name, hinted in backend._index_hints.items()
                for mask in hinted}
            for name, _mask in masks:
                engine.rows(name)            # materialised before tracing
            before = _indexes(backend)
            with _traced(backend) as statements:
                engine.update(view, {SAFE_COLUMN[view]: 'marked'},
                              where={key_column: victim[0]})
                engine.delete(view, where={key_column: victim[0]})
                for name, mask in sorted(masks):
                    rows = engine.rows(name)
                    key = tuple(min(rows)[p] for p in mask)
                    assert set(backend.probe(name, mask, key)) \
                        == _scan(rows, mask, key) != set()
            probes = _probe_texts(statements)
            assert len(probes) == 2 + len(masks)
            for sql in probes:
                details = [row[3] for row in backend._conn.execute(
                    'EXPLAIN QUERY PLAN ' + sql)]
                assert details and all(
                    detail.startswith('SEARCH') for detail in details), \
                    (sql, details)
            assert not [sql for sql in statements if 'INDEX' in sql]
            assert _indexes(backend) == before
        finally:
            engine.close()

    def test_keyed_update_is_one_select_and_no_ddl(self, luxury_strategy):
        engine = _luxury_engine(luxury_strategy)
        with _traced(engine.backend) as statements:
            engine.update('luxuryitems', {'iname': 'band'},
                          where={'iid': 2})
        assert len(_probe_texts(statements)) == 1
        assert len([sql for sql in statements
                    if sql.startswith('SELECT * FROM "luxuryitems"')]) == 1
        assert not [sql for sql in statements
                    if sql.startswith(('CREATE', 'DROP', 'ALTER'))]
        assert (2, 'band', 2000) in engine.rows('items')
        engine.close()

    @pytest.mark.parametrize('name, positions, key', [
        ('w', (1,), ('\ud800',)),           # SQLite cannot bind these,
        ('w', (0, 2), (1, 2 ** 70)),        # whatever the column set
        ('nowhere', (0,), (1,)),            # not stored
        ('w', (0,), (2 ** 70,)),            # SQLite cannot bind these
        ('w', (2,), (2 ** 70,)),
        ('w', (0,), ('\ud800',)),
        ('w', (0,), ({1},)),
    ])
    def test_no_access_path_or_no_binding_answers_none(self, name,
                                                       positions, key):
        backend = _wide_backend()
        try:
            assert backend.probe(name, positions, key) is None
            assert not backend._conn.in_transaction
        finally:
            backend.close()

    @pytest.mark.parametrize('positions, key, expected', [
        ((1,), ('x',), [(1, 'x', 0.5), (2, 'x', 0.5)]),   # no prefix, no hint
        ((0, 2), (1, 0.5), [(1, 'x', 0.5)]),
    ])
    def test_any_other_column_set_is_answered_by_sqlite(self, positions,
                                                        key, expected):
        backend = _wide_backend()
        try:
            before = _indexes(backend)
            assert sorted(backend.probe('w', positions, key)) == expected
            assert not backend._conn.in_transaction
            assert _indexes(backend) == before
        finally:
            backend.close()

    @pytest.mark.parametrize('n', [200, 20_000])
    def test_non_key_sweep_is_one_select_scanned_in_c(self, n):
        """The benchmark's sweep, ``DELETE … WHERE iname = ?``, on a
        column with no access path: one ``SELECT`` that SQLite plans as
        ``SCAN`` — O(|V|), in C — no pass over either row image, and no
        index created for it."""
        engine = build_engine(entry_by_name('luxuryitems'), n,
                              backend='sqlite')
        try:
            backend = engine.backend
            rows = engine.rows('luxuryitems')
            name = min(rows)[1]
            swept = _scan(rows, (1,), (name,))
            for relation in ('luxuryitems', 'items'):
                backend._images[relation] = _CountingSet(
                    backend._images[relation])
            before = _indexes(backend)
            with _traced(backend) as statements:
                engine.delete('luxuryitems', where={'iname': name})
            assert [backend._images[relation].iterations
                    for relation in ('luxuryitems', 'items')] == [0, 0]
            probes = _probe_texts(statements)
            assert len(probes) == 1
            details = [row[3] for row in backend._conn.execute(
                'EXPLAIN QUERY PLAN ' + probes[0])]
            assert len(details) == 1 and details[0].startswith('SCAN'), \
                details
            assert _indexes(backend) == before
            counters = engine.metrics.snapshot()['counters']
            assert counters['dml.where_probes'] == 1
            assert 'dml.where_scans' not in counters
            for relation in ('luxuryitems', 'items'):
                assert not swept & engine.rows(relation)
                assert engine.rows(relation) == _table_rows(backend,
                                                            relation)
        finally:
            engine.close()

    @pytest.mark.parametrize('where, matched', [
        ({'k': 1}, {(1, 'x', 0.5), (1, 'y', 2)}),
        ({'k': 1.0}, {(1, 'x', 0.5), (1, 'y', 2)}),
        ({'k': True}, {(1, 'x', 0.5), (1, 'y', 2)}),
        ({'k': '1'}, set()),
        ({'k': None}, set()),
        ({'k': NAN}, set()),
        ({'f': NAN}, set()),
        ({'f': 2.0}, {(1, 'y', 2)}),
        ({'f': 0.5}, {(1, 'x', 0.5), (2, 'x', 0.5)}),
        ({'s': 'y', 'k': 1}, {(1, 'y', 2)}),
        ({'s': 'x'}, {(1, 'x', 0.5), (2, 'x', 0.5)}),       # SCAN in C
        ({'k': 2 ** 70}, set()),                   # cannot bind: scans
        ({'f': 0.5, 'k': 1}, {(1, 'x', 0.5)}),
    ])
    def test_probe_and_scan_derive_the_same_delta(self, where, matched):
        backend = _wide_backend()
        try:
            rows = backend.rows('w')
            for statement in (Delete(where), Update({'s': 'new'}, where)):
                probed = derive_view_delta(
                    [statement], rows, WIDE,
                    probe=functools.partial(backend.probe, 'w'))
                assert probed == derive_view_delta([statement], rows, WIDE)
                assert probed.deletions == matched
        finally:
            backend.close()

    @pytest.mark.parametrize('key', [1, 1.0, True, '1', None, NAN, -0.0,
                                     2 ** 70, '\ud800', b'x'])
    def test_every_column_set_and_key_probes_as_it_scans(self, key):
        """Each non-empty column subset of ``w`` holding ``key`` in every
        column: the probe answers whatever SQLite can bind, and the
        delta derived from its rows is the one the scan derives."""
        backend = _wide_backend()
        backend.load('w', backend.rows('w') | {
            (0, '1', 1.0), (1, '1', -0.0), (1, '1', 1), (0, 'z', 0.0)})
        bindable = key not in (2 ** 70, '\ud800')
        try:
            rows = backend.rows('w')
            for size in (1, 2, 3):
                for positions in itertools.combinations(range(3), size):
                    answer = backend.probe('w', positions, (key,) * size)
                    assert (answer is not None) == bindable, positions
                    where = {WIDE.attributes[p]: key for p in positions}
                    for statement in (Delete(where),
                                      Update({'s': 'new'}, where)):
                        probed = derive_view_delta(
                            [statement], rows, WIDE,
                            probe=functools.partial(backend.probe, 'w'))
                        assert probed == derive_view_delta(
                            [statement], rows, WIDE), (positions, statement)
        finally:
            backend.close()

    def test_staged_targets_and_unhashable_values_are_not_probed(
            self, luxury_strategy):
        """The second bucket on a view the transaction already wrote
        reads the copied overlay, and an unhashable value can equal no
        stored one: neither reaches the backend."""
        engine = _luxury_engine(luxury_strategy)
        backend = engine.backend
        calls = []
        real = backend.probe
        backend.probe = lambda *args: calls.append(args) or real(*args)
        engine.execute_many([
            ('luxuryitems', [Update({'iname': 'first'}, {'iid': 1})]),
            ('items', [Insert((7, 'gum', 5))]),
            ('luxuryitems', [Update({'iname': 'second'}, {'iid': 2})])])
        assert calls == [('luxuryitems', (0,), (1,))]
        engine.delete('luxuryitems', where={'iid': [1]})
        assert len(calls) == 1
        assert engine.rows('items') == {(1, 'first', 5000),
                                        (2, 'second', 2000),
                                        (7, 'gum', 5)}
        counters = engine.metrics.snapshot()['counters']
        assert (counters['dml.where_probes'],
                counters['dml.where_scans']) == (1, 2)
        engine.close()

    def test_probe_survives_rebuilds_and_a_reopened_file(self, tmp_path):
        sources = DatabaseSchema.build(r={'a': 'int'},
                                       p={'a': 'int', 'b': 'int'})
        narrow = UpdateStrategy.parse('v', sources, """
            +r(X) :- v(X), not r(X).
            -r(X) :- r(X), not v(X).
        """, expected_get='v(X) :- r(X).')
        wide = UpdateStrategy.parse('v', sources, """
            +p(X, Y) :- v(X, Y), not p(X, Y).
            -p(X, Y) :- p(X, Y), not v(X, Y).
        """, expected_get='v(X, Y) :- p(X, Y).')
        path = str(tmp_path / 'probe.db')

        def keyed_delete(engine, key):
            """One keyed DELETE on ``v``: probed, never scanned."""
            scans = engine.metrics.snapshot()['counters'].get(
                'dml.where_scans', 0)
            engine.delete('v', where={'a': key})
            counters = engine.metrics.snapshot()['counters']
            assert counters.get('dml.where_scans', 0) == scans
            assert all(row[0] != key for row in engine.rows('v'))

        engine = Engine(sources, backend=SQLiteBackend(sources, path))
        engine.load('r', [(i,) for i in range(5)])
        engine.load('p', [(i, i * i) for i in range(5)])
        engine.define_view(narrow, validate_first=False)
        assert engine.backend.probe('v', (0,), (1,)) is None  # no cache
        engine.rows('v')
        keyed_delete(engine, 1)
        engine.backend.drop_cache('v')
        assert engine.backend.probe('v', (0,), (2,)) is None
        keyed_delete(engine, 2)              # rematerialised, probed
        engine.drop_view('v')
        engine.define_view(wide, validate_first=False)
        assert engine.backend.probe('v', (0, 1), (3, 9)) is None
        engine.rows('v')
        assert engine.backend.probe('v', (0, 1), (3, 9)) == [(3, 9)]
        assert engine.backend.probe('v', (1,), (9,)) == [(3, 9)]
        keyed_delete(engine, 3)
        engine.close()

        reopened = Engine(sources, backend=SQLiteBackend(sources, path))
        try:
            assert reopened.backend.probe('p', (0,), (4,)) == [(4, 16)]
            reopened.define_view(wide, validate_first=False)
            keyed_delete(reopened, 4)
            assert reopened.rows('p') == {(0, 0), (1, 1), (2, 4)}
            assert reopened.rows('r') == {(0,), (3,), (4,)}
        finally:
            reopened.close()

    def test_readers_read_while_a_writer_probes(self):
        """Four threads call ``engine.rows(view)`` while the writer
        commits 300 keyed UPDATEs — each one a ``SELECT`` on the
        backend's connection, under the backend mutex: nothing raises."""
        entry = entry_by_name('luxuryitems')
        engine = build_engine(entry, 1000, backend='sqlite')
        initial = frozenset(engine.rows('luxuryitems'))
        keys = sorted({row[0] for row in initial})[:300]
        size = len(initial)
        assert len(keys) == 300 and len({row[0] for row in initial}) == size
        taken = [0] * 4
        failures: list = []
        done = threading.Event()

        def reader(slot: int):
            try:
                while not done.is_set():
                    snap = frozenset(engine.rows('luxuryitems'))
                    taken[slot] += 1
                    if not size - 1 <= len(snap) <= size:
                        failures.append(len(snap))
            except BaseException as exc:           # noqa: BLE001
                failures.append(exc)

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)         # switch threads mid-probe
        try:
            for thread in threads:
                thread.start()
            for key in keys:
                engine.update('luxuryitems', {'iname': 'marked'},
                              where={'iid': key})
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert all(taken)
        assert engine.rows('luxuryitems') == {
            (row[0], 'marked', row[2]) if row[0] in set(keys) else row
            for row in initial}
        counters = engine.metrics.snapshot()['counters']
        assert counters['dml.where_probes'] == 300
        assert 'dml.where_scans' not in counters
        engine.close()


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

    def test_batch_over_a_crowded_tag_bucket(self):
        """One ``execute_many`` through ``vw_brands``' tag index, whose
        ``imported`` bucket a committed delete already re-keyed by row
        on memory: three inserts with that tag, a DELETE on the tag,
        the same inserts again, an UPDATE on one key.  Both backends
        end row for row alike."""
        entry = entry_by_name('vw_brands')
        fresh = [(20_000_000 + i, f'fresh{i}', 'imported') for i in range(3)]
        engines = {}
        for backend in ('memory', 'sqlite'):
            engine = build_engine(entry, 300, backend=backend)
            bid, bname, tag = engine.view('vw_brands').schema.attributes
            engine.backend.add_index_hint('vw_brands', (2,))
            victim = min(row for row in engine.rows('vw_brands')
                         if row[2] == 'imported')
            engine.delete('vw_brands', where={bid: victim[0],
                                              bname: victim[1]})
            if backend == 'memory':
                index = engine.backend.eval_handle(
                    'vw_brands')._indexes[(2,)][1]
                assert index['imported'].__class__ is dict
            engine.execute_many([('vw_brands', [
                *map(Insert, fresh), Delete({tag: 'imported'}),
                *map(Insert, fresh),
                Update({bname: 'renamed'}, {bid: fresh[0][0]})])])
            engines[backend] = engine
        memory, sqlite_engine = engines.values()
        assert sorted(index['imported']) == [
            (fresh[0][0], 'renamed', 'imported'), *fresh[1:]]
        assert sorted(memory.rows('vw_brands')) \
            == sorted(sqlite_engine.rows('vw_brands'))
        assert memory.database() == sqlite_engine.database()
        for engine in engines.values():
            engine.close()

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


# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------


class TestKeywordNamedRelations:
    """The lowering quotes what the backend's DDL quotes: a base table
    called ``order`` used to lose the SQL tier without an error (every
    plan demoted at first use, ``near "order": syntax error``)."""

    SOURCES = DatabaseSchema.build(order={'oid': 'int', 'group': 'int'})
    PUTDELTA = """
        ⊥ :- select(O, T), not T > 100.
        +order(O, T) :- select(O, T), not order(O, T).
        -order(O, T) :- order(O, T), T > 100, not select(O, T).
    """
    GET = 'select(O, T) :- order(O, T), T > 100.'

    def _engine(self, backend):
        strategy = UpdateStrategy.parse('select', self.SOURCES,
                                        self.PUTDELTA,
                                        expected_get=self.GET)
        engine = Engine(self.SOURCES, backend=backend)
        engine.load('order', [(1, 500), (2, 50), (3, 300)])
        engine.define_view(strategy, validate_first=False)
        assert engine.rows('select') == {(1, 500), (3, 300)}
        engine.insert('select', (4, 900))
        engine.update('select', {'group': 700}, where={'oid': 1})
        engine.delete('select', where={'group': 300})
        with pytest.raises(ConstraintViolation):
            engine.insert('select', (5, 5))
        return engine

    def test_sql_tier_survives_and_agrees_with_memory(self):
        sqlite_engine = self._engine('sqlite')
        assert sqlite_engine.backend.lowering_fallbacks('select') == []
        memory = self._engine('memory')
        assert sqlite_engine.database() == memory.database()
        assert sqlite_engine.rows('select') == memory.rows('select') \
            == {(1, 700), (4, 900)}


# ---------------------------------------------------------------------------
# Staging: no DDL on the transaction path
# ---------------------------------------------------------------------------


@contextmanager
def _traced(backend):
    """The SQL statements the backend's connection executes."""
    statements: list[str] = []
    backend._conn.set_trace_callback(statements.append)
    try:
        yield statements
    finally:
        backend._conn.set_trace_callback(None)


def _temp_tables(backend) -> dict[str, int]:
    """``{table: row count}`` of the connection's temp schema."""
    conn = backend._conn
    names = [name for (name,) in conn.execute(
        "SELECT name FROM temp.sqlite_master WHERE type = 'table'")]
    return {name: conn.execute(
                f'SELECT COUNT(*) FROM temp."{name}"').fetchone()[0]
            for name in names}


def _luxury_engine(luxury_strategy) -> Engine:
    engine = Engine(luxury_strategy.sources, backend='sqlite')
    engine.load('items', [(1, 'watch', 5000)])
    engine.define_view(luxury_strategy, validate_first=False)
    engine.rows('luxuryitems')
    engine.insert('luxuryitems', (2, 'ring', 2000))          # warm up
    return engine


class TestStaging:

    STAGES = {'delta_ins_luxuryitems': 0, 'delta_del_luxuryitems': 0}

    @staticmethod
    def _staging(statements, verb: str) -> dict[str, int]:
        """How many traced statements start with ``verb`` per staging
        table (an ``executemany`` traces once per row)."""
        counts: dict[str, int] = {}
        for sql in statements:
            match = re.match(verb + r' temp\."(delta_\w+)"', sql)
            if match:
                counts[match[1]] = counts.get(match[1], 0) + 1
        return counts

    def test_no_ddl_after_the_first_transaction(self, luxury_strategy):
        """A view INSERT, a keyed UPDATE and a 100-row batch: zero
        CREATE / DROP statements, every non-empty delta relation staged
        once (as many traced row inserts as it has rows) and emptied
        once, one SQL transaction for the commit."""
        engine = _luxury_engine(luxury_strategy)
        backend = engine.backend
        batch = [('luxuryitems', [Insert((100 + i, f'item{i}', 2000 + i))])
                 for i in range(100)]
        for run, staged in (
                (lambda: engine.insert('luxuryitems', (3, 'yacht', 90000)),
                 {'delta_ins_luxuryitems': 1}),
                (lambda: engine.update('luxuryitems', {'iname': 'boat'},
                                       where={'iid': 3}),
                 {'delta_ins_luxuryitems': 1, 'delta_del_luxuryitems': 1}),
                (lambda: engine.execute_many(batch),
                 {'delta_ins_luxuryitems': 100})):
            with _traced(backend) as statements:
                run()
            assert not [sql for sql in statements
                        if sql.startswith(('CREATE', 'DROP'))], statements
            assert self._staging(statements, 'INSERT INTO') == staged
            assert self._staging(statements, 'DELETE FROM') \
                == dict.fromkeys(staged, 1)
            assert statements.count('BEGIN') == 1
            assert _temp_tables(backend) == self.STAGES
        assert engine.rows('items') >= {(100 + i, f'item{i}', 2000 + i)
                                        for i in range(100)}
        assert (3, 'boat', 90000) in engine.rows('items')

    def test_failed_evaluations_leave_staging_empty(self, luxury_strategy):
        from dataclasses import replace
        engine = _luxury_engine(luxury_strategy)
        backend = engine.backend
        with pytest.raises(ConstraintViolation):
            engine.insert('luxuryitems', (4, 'gum', 5))
        assert _temp_tables(backend) == self.STAGES
        # SQL that fails at execution time demotes the program to the
        # interpreter — after the staged rows are gone again.
        compiled = backend._compiled['luxuryitems']
        broken = tuple((goal, 'SELECT * FROM no_such_relation')
                       for goal, _ in compiled.incremental.delta_sql)
        compiled.incremental = replace(compiled.incremental,
                                       delta_sql=broken)
        engine.insert('luxuryitems', (5, 'pearl', 7000))
        assert compiled.incremental is None
        assert (5, 'pearl', 7000) in engine.rows('items')
        assert _temp_tables(backend) == self.STAGES

    def test_another_thread_finds_the_staging_tables_in_place(
            self, luxury_strategy):
        """One connection for every thread: an INSERT from a thread
        that never used the backend stages into the tables the
        constructing thread's transactions created — no DDL."""
        engine = _luxury_engine(luxury_strategy)
        backend = engine.backend
        with _traced(backend) as statements:
            thread = threading.Thread(
                target=engine.insert,
                args=('luxuryitems', (6, 'tiara', 8000)))
            thread.start()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert self._staging(statements, 'INSERT INTO') \
            == {'delta_ins_luxuryitems': 1}
        assert not [sql for sql in statements
                    if sql.startswith('CREATE TEMP TABLE')]
        assert _temp_tables(backend) == self.STAGES
        assert (6, 'tiara', 8000) in engine.rows('items')

    def test_redefined_view_with_other_columns_restages(self):
        sources = DatabaseSchema.build(r={'a': 'int'},
                                       p={'a': 'int', 'b': 'int'})
        narrow = UpdateStrategy.parse('v', sources, """
            +r(X) :- v(X), not r(X).
            -r(X) :- r(X), not v(X).
        """, expected_get='v(X) :- r(X).')
        wide = UpdateStrategy.parse('v', sources, """
            +p(X, Y) :- v(X, Y), not p(X, Y).
            -p(X, Y) :- p(X, Y), not v(X, Y).
        """, expected_get='v(X, Y) :- p(X, Y).')
        engine = Engine(sources, backend='sqlite')
        engine.define_view(narrow, validate_first=False)
        engine.insert('v', (1,))
        engine.drop_view('v')
        engine.define_view(wide, validate_first=False)
        engine.insert('v', (2, 3))
        engine.delete('v', where={'a': 2})
        engine.insert('v', (4, 5))
        assert engine.rows('r') == {(1,)} and engine.rows('p') == {(4, 5)}
        assert engine.backend.lowering_fallbacks('v') == []
        columns = [row[1] for row in engine.backend._conn.execute(
            'PRAGMA temp.table_info("delta_ins_v")')]
        assert columns == ['a', 'b']

    def test_overlay_shadow_is_dropped_after_use(self, luxury_strategy):
        """A transaction that writes ``items`` and then updates the view
        over it evaluates against a TEMP shadow called ``items``; left
        behind (even empty) it would hide the stored table."""
        engine = _luxury_engine(luxury_strategy)
        backend = engine.backend
        with _traced(backend) as statements:
            with engine.transaction() as txn:
                txn.insert('items', (8, 'brooch', 3000))
                txn.insert('luxuryitems', (9, 'cufflinks', 4000))
        assert 'CREATE TEMP TABLE "items" ("iid", "iname", "price")' \
            in statements
        assert _temp_tables(backend) == self.STAGES
        stored = set(backend._conn.execute('SELECT * FROM "items"'))
        assert stored == engine.rows('items') >= {(8, 'brooch', 3000),
                                                  (9, 'cufflinks', 4000)}


# ---------------------------------------------------------------------------
# The plan gate
# ---------------------------------------------------------------------------


def _plan_offences(backend, view: str) -> list[tuple[str, str]]:
    """``(statement, detail line)`` for every step of ``view``'s ∂put
    goals and ⊥-checks where SQLite scans a stored base table or view
    cache, materialises a subquery, or builds an automatic index — the
    places where the lowering lost O(|Δ|)."""
    texts = backend.compiled_sql(view)
    offences = []
    for key, details in backend.query_plans(view).items():
        if not key.startswith('incremental:'):
            continue
        relation_of = {alias: relation for relation, alias in re.findall(
            r'"((?:[^"]|"")+)" (t\d+|s)\b', texts[key])}
        for detail in details:
            scan = re.match(r'SCAN (\w+)', detail)
            if 'MATERIALIZE' in detail or 'AUTOMATIC' in detail \
                    or (scan and backend._stored(
                        relation_of.get(scan[1], scan[1]))):
                offences.append((key, detail))
    return offences


class TestPlanGate:
    """ROADMAP 3d: ask SQLite how it runs each lowered ∂put statement.
    General-path strategies legitimately scan (their ∂put re-derives
    the view), so nothing raises at ``define_view`` — the gate is the
    LVGN fragment, where the paper's O(|Δ|) claim lives."""

    @staticmethod
    def _engine(entry) -> Engine:
        engine = build_engine(entry, 60, incremental=True,
                              backend='sqlite')
        engine.rows(entry.name)              # the cache a ∂put reads
        return engine

    def test_query_plans_cover_every_lowered_statement(self):
        engine = self._engine(entry_by_name('outstanding_task'))
        backend = engine.backend
        plans = backend.query_plans('outstanding_task')
        assert plans.keys() == backend.compiled_sql(
            'outstanding_task').keys()
        assert plans['incremental:-tasks'][0] == 'SCAN t0'   # the delta
        assert all(any(line.startswith(('SCAN', 'SEARCH'))
                       for line in details)
                   for details in plans.values())
        # Introspection leaves no staging residue behind.
        assert not any(_temp_tables(backend).values())
        assert set(_temp_tables(backend)) == {
            'delta_ins_outstanding_task', 'delta_del_outstanding_task'}

    @pytest.mark.parametrize(
        'entry', [e for e in ALL_ENTRIES if e.expressible
                  and is_lvgn(e.strategy().putdelta, e.name)],
        ids=lambda e: e.name)
    def test_lvgn_incremental_plans_probe_stored_relations(self, entry):
        engine = self._engine(entry)
        assert engine.view(entry.name).use_incremental
        assert engine.backend.lowering_fallbacks(entry.name) == []
        assert _plan_offences(engine.backend, entry.name) == []

    def test_gate_sees_a_scan(self):
        """The gate is not vacuous: a general-path entry trips it."""
        engine = self._engine(entry_by_name('tracks1'))
        offences = _plan_offences(engine.backend, 'tracks1')
        assert any('SCAN' in detail for _key, detail in offences)
        assert any('MATERIALIZE' in detail for _key, detail in offences)
