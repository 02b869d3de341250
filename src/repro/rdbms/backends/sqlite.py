"""The SQLite backend: tables in SQLite, compiled plans run as SQL.

This is the reproduction's analogue of how BIRDS actually deploys (the
paper's strategies run *inside PostgreSQL* as generated triggers): base
tables and materialised view caches live as SQLite tables, and the
nonrecursive plans a view needs — the ``get`` definition, the
incrementalized putback ``∂put``, the full putback, and every
⊥-constraint — are lowered to SQL text **once**, at ``define_view``
time, then executed on every subsequent update.  The compile-once
discipline of the plan layer carries over unchanged: ``register_view``
is the ``CREATE TRIGGER``, a view's first read is one ``INSERT …
SELECT`` into its cache table (:meth:`SQLiteBackend.materialize`: the
database computes and stores the view, as the paper's ``CREATE VIEW``
does, and no row of it passes through Python), and statement execution
is pure ``SELECT``.

Execution model
---------------

The backend runs on one SQLite connection, opened by the constructor
and used only under the backend's mutex — one session, as the paper's
triggers run in one.  Compiled queries reference relations by their
unqualified names.  At evaluation time, every input the engine's
transaction has *staged* is put in place under that name in the
``temp`` schema:

* the view deltas ``+v``/``-v`` fill the staging tables
  ``delta_ins_v``/``delta_del_v``, which shadow nothing.  They are
  created once per view, filled with one ``executemany`` and emptied
  after the evaluation — no DDL on the transaction path, so the
  connection's prepared statements survive from one transaction to the
  next;
* the overlay state of a relation the transaction already wrote is
  loaded into a ``TEMP`` table of the relation's own name — SQLite
  resolves unqualified names against ``temp`` first, so it shadows the
  stored table exactly like the evaluator's EDB-shadowing semantics —
  and dropped again: a leftover shadow would hide the table.

Unstaged relations are read in place.  The lowering lists the staged
deltas first and joins with ``CROSS JOIN`` (:mod:`repro.sql.translate`),
so in the steady state an incremental update stages the O(|ΔV|) delta
rows, loops over them, and reaches stored relations by key or index.

Programs the SQL lowering cannot express (an unbound builtin operand,
an operator outside the translatable fragment) fall back, per program,
to the shared interpreted execution of :class:`~repro.rdbms.backends.
base.Backend` — rows are pulled out of SQLite and the compiled
:class:`ExecutionPlan` runs in process.  So does a program whose SQL
fails when it runs (:meth:`SQLiteBackend._demote`), from then on.
"""

from __future__ import annotations

import functools
import logging
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.datalog.ast import (Program, Rule, delta_base, is_delta_pred,
                               is_insert_pred)
from repro.datalog.evaluator import execute_deltas
from repro.datalog.pretty import pretty_rule
from repro.errors import ConstraintViolation, ReproError, SchemaError
from repro.rdbms.backends.base import Backend, StoredRelation, _owned
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.schema import (AttributeType, DatabaseSchema,
                                     RelationSchema)
from repro.sql.translate import (SQLITE, ColumnNamer, constraint_to_sql,
                                 query_to_sql, quote_ident, sql_ident,
                                 sql_table)

__all__ = ['SQLiteBackend']

#: A program that runs interpreted instead of as SQL says so here, once,
#: when it is lowered or demoted — nothing per transaction logs.
_log = logging.getLogger(__name__)


@dataclass
class _ProgramSQL:
    """One Datalog program lowered to per-goal SQL, plus everything
    needed to stage its inputs (computed once, at compile time)."""

    delta_sql: tuple[tuple[str, str], ...]        # (goal, sql)
    constraint_sql: tuple[tuple[Rule, str], ...]  # (⊥-rule, witness sql)
    edb: frozenset                                # input relation names
    columns: dict                                 # edb name -> column tuple


@dataclass
class _CompiledView:
    """The compile-once SQL artifact bundle for one registered view."""

    get: _ProgramSQL | None = None
    incremental: _ProgramSQL | None = None
    putback: _ProgramSQL | None = None
    fallbacks: list = field(default_factory=list)  # programs that didn't lower


def _quoted(columns: Iterable[str]) -> str:
    return ', '.join(map(quote_ident, columns))


def _equals(columns: Iterable[str]) -> str:
    """``"c1" = ? AND "c2" = ? …`` — a keyed WHERE over ``columns``."""
    return ' AND '.join(f'{quote_ident(c)} = ?' for c in columns)


#: What :meth:`SQLiteBackend.check_storable` holds numeric columns to.
_NUMERIC = (AttributeType.INT, AttributeType.FLOAT)
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _locked(method):
    """Run a backend method under the instance mutex, the only way the
    connection is used: any caller's threads sharing one backend (its
    readers and its writer) take turns on it, and each commit's update
    of the Python-side row images is one step for the other methods.
    A closed backend refuses with :class:`SchemaError`."""
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._mutex:
            if self._closed:
                raise SchemaError(f'backend for {self.path!r} is closed')
            return method(self, *args, **kwargs)
    return wrapper


class SQLiteBackend(Backend):
    """Relational storage + SQL plan execution on a SQLite database.

    Thread model: one connection, opened by the constructor and closed
    by :meth:`close`, and every method that touches it holds the
    backend mutex — so whichever thread calls, no two statements ever
    run on it at once.  That is what makes ``check_same_thread=False``
    sound: the connection crosses threads, but never concurrently.
    Shards run concurrently as worker processes, each with its own
    backend.

    Row images: SQLite holds the truth, and next to it every stored
    relation that has been loaded, materialised or read has one Python
    ``set`` of its rows.  :meth:`rows` returns that set itself (the
    :class:`Backend` contract: live, read-only); a commit updates it in
    place, O(|Δ|), after its SQL ``COMMIT`` succeeded.  The image
    answers client reads, ``INSERT`` membership and ``effective_on``;
    it has no index, so a column→value ``WHERE`` asks SQLite instead
    (:meth:`probe`: one ``SELECT``, a search on the primary key or an
    index the plans hinted and a scan in C elsewhere — no index is ever
    created for a statement).  The two hold the same rows because
    :meth:`check_storable` lets the engine refuse, before it logs
    anything, what SQLite would not keep as given."""

    kind = 'sqlite'

    def __init__(self, schema: DatabaseSchema, path: str = ':memory:'):
        super().__init__(schema)
        self.path = path
        self._mutex = threading.RLock()
        self._closed = False
        self._conn = sqlite3.connect(path, isolation_level=None,
                                     check_same_thread=False)
        self._conn.execute('PRAGMA synchronous=OFF')
        #: delta relation -> columns of its staging table
        self._stages: dict[str, tuple[str, ...]] = {}
        self._base_names = frozenset(rel.name for rel in schema)
        self._cache_names: set[str] = set()
        self._view_attrs: dict[str, tuple[str, ...]] = {}
        self._compiled: dict[str, _CompiledView] = {}
        self._index_hints: dict[str, set[tuple[int, ...]]] = {}
        # One live Python-side row image per stored relation — what
        # rows() returns.  Kept by load / store_cache, read from SQLite
        # by the first rows() that finds none (a materialised cache),
        # and from then on updated in place, O(|Δ|), after each
        # successful COMMIT.
        self._images: dict[str, set] = {}
        for rel in schema:
            self._create_table(rel.name, rel.attributes)

    # -- DDL helpers --------------------------------------------------

    def _create_table(self, name: str, columns: tuple[str, ...]) -> None:
        # Columns carry no type affinity so values round-trip exactly
        # (REAL affinity would coerce the ints `validate_tuple` accepts
        # for float columns); the all-column primary key gives set
        # semantics and keyed deletes.  IF NOT EXISTS: a file-backed
        # database reopens with its base tables in place.
        cols = _quoted(columns)
        self._conn.execute(
            f'CREATE TABLE IF NOT EXISTS {sql_table(name)} ({cols}, '
            f'PRIMARY KEY ({cols})) WITHOUT ROWID')

    def _columns_of(self, name: str) -> tuple[str, ...]:
        if name in self._view_attrs:
            return self._view_attrs[name]
        if name in self.schema:
            return self.schema[name].attributes
        raise SchemaError(f'unknown relation {name!r}')

    def _build_indexes(self, name: str) -> None:
        columns = self._columns_of(name)
        for positions in self._index_hints.get(name, ()):
            suffix = '_'.join(str(p) for p in positions)
            index = quote_ident(f'ix_{sql_ident(name)}_{suffix}')
            cols = _quoted(columns[p] for p in positions)
            self._conn.execute(f'CREATE INDEX IF NOT EXISTS {index} '
                               f'ON {sql_table(name)} ({cols})')

    # -- storage ------------------------------------------------------

    def _stored(self, name: str) -> bool:
        return name in self._base_names or name in self._cache_names

    @contextmanager
    def _transaction(self):
        """A cursor inside ``BEGIN`` … ``COMMIT``, rolled back when the
        body raises — whatever a row that fails to bind leaves
        half-done is undone, and the connection is out of the SQL
        transaction either way.  Callers write the Python-side row
        images only after it exits cleanly."""
        cur = self._conn.cursor()
        cur.execute('BEGIN')
        try:
            yield cur
        except BaseException:
            cur.execute('ROLLBACK')
            raise
        cur.execute('COMMIT')

    def _insert_all(self, cur, name: str, rows) -> None:
        marks = ', '.join('?' * len(self._columns_of(name)))
        cur.executemany(f'INSERT OR IGNORE INTO {sql_table(name)} '
                        f'VALUES ({marks})', rows)

    @_locked
    def load(self, name: str, rows: set) -> None:
        rows = _owned(rows)
        with self._transaction() as cur:
            cur.execute(f'DELETE FROM {sql_table(name)}')
            self._insert_all(cur, name, rows)
        self._images[name] = rows

    def check_storable(self, schema: RelationSchema, rows) -> None:
        """SQLite's INTEGER is 64 bits wide, a NaN binds as NULL (which
        ``INSERT OR IGNORE`` then drops on the ``NOT NULL`` key without
        a word) and TEXT must encode as UTF-8: a row holding anything
        else would raise from — or vanish in — :meth:`apply_deltas`,
        after the log already has it.  One pass per column, its test
        chosen by the column's type."""
        for p, kind in enumerate(schema.types):
            if kind in _NUMERIC:
                refused = [row[p] for row in rows
                           if not (_INT64_MIN <= row[p] <= _INT64_MAX
                                   or isinstance(row[p], float)
                                   and row[p] == row[p])]
            else:
                try:                  # the whole column in one encode
                    ''.join([row[p] for row in rows]).encode()
                    continue
                except UnicodeEncodeError as exc:
                    refused = [exc.object[exc.start]]
            if refused:
                raise SchemaError(
                    f'{schema.name}.{schema.attributes[p]}: SQLite stores '
                    f'no integer outside 64 bits, no NaN and no text that '
                    f'is not UTF-8, got {refused[0]!r}')

    @_locked
    def rows(self, name: str):
        image = self._images.get(name)
        if image is None:
            if not self._stored(name):
                raise SchemaError(
                    f'unknown or unmaterialised relation {name!r}')
            image = self._images[name] = set(self._conn.execute(
                f'SELECT * FROM {sql_table(name)}'))
        return image

    @_locked
    def snapshot(self) -> Database:
        return Database({name: self.rows(name)
                         for name in sorted(self._base_names)})

    def _apply_one(self, cur, name: str, delta: Delta) -> None:
        if delta.deletions:
            where = _equals(self._columns_of(name))
            cur.executemany(f'DELETE FROM {sql_table(name)} WHERE {where}',
                            list(delta.deletions))
        if delta.insertions:
            self._insert_all(cur, name, delta.insertions)

    @_locked
    def apply_deltas(self, deltas) -> None:
        """One SQL transaction for the whole commit batch: either every
        relation's delta is durably applied or none is; the Python-side
        row images are updated, in place, only after a successful
        COMMIT."""
        with self._transaction() as cur:
            for name, delta, _is_cache in deltas:
                self._apply_one(cur, name, delta)
        for name, delta, _is_cache in deltas:
            image = self._images.get(name)
            if image is not None:
                image -= delta.deletions
                image |= delta.insertions

    # -- view caches --------------------------------------------------

    def has_cache(self, name: str) -> bool:
        return name in self._cache_names

    def _replace_cache(self, name: str, fill) -> None:
        """Drop and re-create the cache table of view ``name``,
        ``fill(cursor)`` it and build its hinted indexes, in one SQL
        transaction: DDL is transactional in SQLite, so a failure
        brings the replaced table (and its indexes) back."""
        with self._transaction() as cur:
            cur.execute(f'DROP TABLE IF EXISTS {sql_table(name)}')
            self._create_table(name, self._columns_of(name))
            fill(cur)
            self._build_indexes(name)
        self._cache_names.add(name)

    @_locked
    def store_cache(self, name: str, rows: Iterable[tuple]) -> None:
        rows = _owned(rows)
        self._replace_cache(
            name, lambda cur: self._insert_all(cur, name, rows))
        self._images[name] = rows

    @_locked
    def materialize(self, entry, sources: Mapping[str, object]) -> None:
        """The first read of a view whose ``get`` lowered, inside
        SQLite: the cache table is filled by one ``INSERT OR IGNORE …
        SELECT`` of the lowered ``get`` (:meth:`_replace_cache`), so no
        row of the view passes through Python to be stored; the row
        image is read back by the first :meth:`rows`.  An interpreted
        ``get`` — or one whose SQL fails now, which is then demoted —
        stores the interpreter's rows with :meth:`store_cache`."""
        name = entry.name

        def insert_select(_cursor, prog):
            (_, sql), = prog.delta_sql
            self._replace_cache(name, lambda cur: cur.execute(
                f'INSERT OR IGNORE INTO {sql_table(name)} {sql}'))
            self._images.pop(name, None)

        self._sql_or_interpreted(
            entry, 'get', sources, insert_select,
            lambda: Backend.materialize(self, entry, self._readable(sources)))

    @_locked
    def drop_cache(self, name: str) -> None:
        if name in self._cache_names:
            self._conn.execute(
                f'DROP TABLE IF EXISTS {sql_table(name)}')
            self._cache_names.discard(name)
        self._images.pop(name, None)

    # -- indexes ------------------------------------------------------

    @_locked
    def add_index_hint(self, name: str, positions: tuple[int, ...]) -> None:
        self._index_hints.setdefault(name, set()).add(positions)
        if self._stored(name):
            self._build_indexes(name)

    @_locked
    def probe(self, name: str, positions: tuple[int, ...], key: tuple):
        """One ``SELECT`` for any column set: SQLite's planner SEARCHes
        a leading prefix of the all-column primary key or a mask the
        plans hinted (:meth:`add_index_hint` built its index) and SCANs
        the table, in C, otherwise.  None — the caller scans the row
        image — only for a relation that is not stored and a key SQLite
        cannot bind.  Never creates an index: one per probed column set
        costs every insert its maintenance (README, *Storage
        backends*)."""
        if not self._stored(name):
            return None
        columns = self._columns_of(name)
        try:
            return self._conn.execute(
                f'SELECT * FROM {sql_table(name)} WHERE '
                + _equals(columns[p] for p in positions), key).fetchall()
        except (sqlite3.Error, OverflowError, UnicodeEncodeError):
            return None

    # -- compile-once SQL lowering ------------------------------------

    @_locked
    def register_view(self, entry) -> None:
        self._view_attrs[entry.name] = entry.schema.attributes
        namer = ColumnNamer(self.schema, extra=dict(self._view_attrs))
        compiled = _CompiledView()
        compiled.get = self._lower_query(entry.get_program, namer,
                                         goals=(entry.name,),
                                         label='get',
                                         compiled=compiled)
        if entry.incremental_program is not None:
            # Only the goals a putback run asks for (execute_deltas),
            # not a derived ∂put's auxiliary deltas such as ``+__bN``.
            compiled.incremental = self._lower_query(
                entry.incremental_program, namer,
                goals=[goal for goal, relation, _ in
                       entry.incremental_plan.delta_targets
                       if relation in entry.updated],
                label='incremental putback', compiled=compiled)
        compiled.putback = self._lower_query(
            entry.strategy.putdelta, namer,
            goals=entry.strategy.putdelta_plan.delta_goals,
            label='putback', compiled=compiled)
        self._compiled[entry.name] = compiled
        for label, reason in compiled.fallbacks:
            _log.warning('%s of view %r does not lower to SQL, runs '
                         'interpreted (%s)', label, entry.name, reason)

    @_locked
    def unregister_view(self, name: str) -> None:
        self.drop_cache(name)
        self._index_hints.pop(name, None)
        self._view_attrs.pop(name, None)
        self._compiled.pop(name, None)

    def _lower_query(self, program: Program, namer: ColumnNamer,
                     goals, label: str,
                     compiled: _CompiledView) -> _ProgramSQL | None:
        """Lower one program (goals + its ⊥-rules) or record a fallback."""
        try:
            delta_sql = tuple(
                (goal, query_to_sql(program, goal, namer, dialect=SQLITE))
                for goal in goals)
            constraint_sql = tuple(
                (rule, constraint_to_sql(program, rule, namer,
                                         dialect=SQLITE))
                for rule in program.constraints())
        except ReproError as exc:
            compiled.fallbacks.append((label, str(exc)))
            return None
        arities = program.arities()
        edb = frozenset(program.edb_preds())
        columns = {name: namer.columns(name, arities.get(name, 0))
                   for name in edb}
        return _ProgramSQL(delta_sql=delta_sql,
                           constraint_sql=constraint_sql,
                           edb=edb, columns=columns)

    # -- staged SQL execution -----------------------------------------

    def _staging_plan(self, prog: _ProgramSQL,
                      inputs: Mapping[str, object]) -> dict[str, tuple]:
        """Which EDB relations must be loaded as TEMP tables: explicitly
        provided row sets (staged transaction state, view deltas) plus
        any input with no stored table behind it (reads as empty)."""
        staged: dict[str, tuple] = {}
        for name in prog.edb:
            handle = inputs.get(name)
            if isinstance(handle, StoredRelation):
                continue                      # read the table in place
            if handle is not None:
                staged[name] = tuple(handle)
            elif not self._stored(name):
                staged[name] = ()             # undefined EDB: empty
        return staged

    def _ensure_stage(self, cur, name: str,
                      columns: tuple[str, ...]) -> None:
        """The staging table for delta relation ``name`` exists with
        ``columns`` — created on its first use, and again when a
        redefined view changed columns."""
        stages = self._stages
        known = stages.get(name)
        if known == columns:
            return
        table = sql_table(name)
        if known is not None:
            del stages[name]
            cur.execute(f'DROP TABLE temp.{table}')
        cur.execute(f'CREATE TEMP TABLE {table} ({_quoted(columns)})')
        stages[name] = columns

    @contextmanager
    def _staged(self, prog: _ProgramSQL, inputs: Mapping[str, object]):
        """A cursor with every staged input in place under its relation
        name.  View deltas fill the staging tables, which are
        only emptied on exit; any other staged relation is loaded as a
        TEMP shadow of its name and dropped on exit — left behind, an
        empty shadow would hide the stored table."""
        cur = self._conn.cursor()
        filled: list[str] = []
        shadows: list[str] = []
        try:
            for name, rows in self._staging_plan(prog, inputs).items():
                table = sql_table(name)
                columns = prog.columns[name]
                if is_delta_pred(name):
                    self._ensure_stage(cur, name, columns)
                    if rows:
                        filled.append(table)
                else:
                    cur.execute(f'CREATE TEMP TABLE {table} '
                                f'({_quoted(columns)})')
                    shadows.append(table)
                if rows:
                    marks = ', '.join('?' * len(columns))
                    cur.executemany(f'INSERT INTO temp.{table} '
                                    f'VALUES ({marks})', rows)
            yield cur
        finally:
            for table in filled:
                cur.execute(f'DELETE FROM temp.{table}')
            for table in shadows:
                cur.execute(f'DROP TABLE IF EXISTS temp.{table}')

    @staticmethod
    def _deltas_on(cur, prog: _ProgramSQL) -> dict:
        """Run the lowered ⊥-checks, then the lowered goals — those a
        putback run asks for (:meth:`register_view`) — into the
        interpreter's :func:`~repro.datalog.evaluator.execute_deltas`
        result."""
        # fetchone: SQLite produces witness rows lazily, so the check
        # short-circuits at the first violation instead of
        # materialising every witness.
        for rule, sql in prog.constraint_sql:
            witness = cur.execute(sql).fetchone()
            if witness is not None:
                raise ConstraintViolation(pretty_rule(rule),
                                          tuple(witness))
        pairs: dict[str, list] = {}
        for goal, sql in prog.delta_sql:
            pair = pairs.setdefault(delta_base(goal), [frozenset()] * 2)
            pair[not is_insert_pred(goal)] = set(map(tuple, cur.execute(sql)))
        return {relation: tuple(pair)
                for relation, pair in sorted(pairs.items()) if any(pair)}

    # -- plan execution -----------------------------------------------

    def eval_handle(self, name: str):
        return StoredRelation(name)

    def _readable(self, handles: Mapping[str, object]) -> dict:
        """Interpreter fallback: stored-table markers resolved to
        rows."""
        return {name: self.rows(handle.name)
                if isinstance(handle, StoredRelation) else handle
                for name, handle in handles.items()}

    def _demote(self, view: str, label: str, exc: Exception) -> None:
        """Compiled SQL failed at *execution* time: permanently route
        this program to the interpreter (the failure is deterministic —
        the same text would fail on every statement) and record why."""
        compiled = self._compiled[view]
        setattr(compiled, label, None)
        compiled.fallbacks.append((label, f'runtime: {exc}'))
        _log.warning('%s of view %r failed as SQL, runs interpreted '
                     'from now on (%s)', label, view, exc)

    def _sql_or_interpreted(self, entry, label: str,
                            inputs: Mapping[str, object], on_sql,
                            interpret):
        """``on_sql(cursor, program)`` over the ``label`` program of
        ``entry`` with ``inputs`` staged — or ``interpret()`` when that
        program did not lower, or when its SQL fails now (it is then
        demoted for good)."""
        prog = getattr(self._compiled[entry.name], label)
        if prog is None:
            return interpret()
        try:
            with self._staged(prog, inputs) as cur:
                return on_sql(cur, prog)
        except sqlite3.Error as exc:
            self._demote(entry.name, label, exc)
            return interpret()

    @_locked
    def evaluate_incremental_batch(self, entry,
                                   sources: Mapping[str, object],
                                   view_handle, delta: Delta) -> dict:
        """One SQL pass over the transaction's merged multi-row delta:
        the whole batch of coalesced +v/-v rows fills the staging
        tables with one ``executemany`` per relation and every view
        goal runs one SELECT — no DDL and no per-statement staging
        (asserted by the SQL-trace tests in tests/test_backends.py)."""
        plus, minus = entry.delta_names
        inputs = {**sources, entry.name: view_handle,
                  plus: delta.insertions, minus: delta.deletions}
        return self._sql_or_interpreted(
            entry, 'incremental', inputs, self._deltas_on,
            lambda: execute_deltas(entry.incremental_plan,
                                   self._readable(inputs), entry.updated))

    @_locked
    def evaluate_putback(self, entry, sources: Mapping[str, object],
                         view_rows) -> dict:
        inputs = {**sources, entry.name: view_rows}
        return self._sql_or_interpreted(
            entry, 'putback', inputs, self._deltas_on,
            lambda: Backend.evaluate_putback(
                self, entry, self._readable(sources), view_rows))

    # -- introspection / lifecycle ------------------------------------

    def lowering_fallbacks(self, view: str) -> list:
        """``(program_label, reason)`` pairs for every plan of ``view``
        that executes interpreted because SQL lowering failed."""
        return list(self._compiled[view].fallbacks)

    def _lowered(self, view: str):
        """``(program, {key: sql})`` per lowered program of ``view``."""
        compiled = self._compiled[view]
        for label, prog in (('get', compiled.get),
                            ('incremental', compiled.incremental),
                            ('putback', compiled.putback)):
            if prog is None:
                continue
            texts = {f'{label}:{goal}': sql for goal, sql in prog.delta_sql}
            texts.update((f'{label}:⊥:{pretty_rule(rule)}', sql)
                         for rule, sql in prog.constraint_sql)
            yield prog, texts

    def compiled_sql(self, view: str) -> dict[str, str]:
        """The cached SQL texts for ``view`` (debugging / tests)."""
        out: dict[str, str] = {}
        for _prog, texts in self._lowered(view):
            out.update(texts)
        return out

    @_locked
    def query_plans(self, view: str) -> dict[str, list[str]]:
        """SQLite's ``EXPLAIN QUERY PLAN`` detail lines for every cached
        SQL text of ``view`` (keys as in :meth:`compiled_sql`), taken
        with empty staging tables in place.  Introspection for tests
        and operators — nothing on the transaction path asks."""
        plans: dict[str, list[str]] = {}
        for prog, texts in self._lowered(view):
            with self._staged(prog, {}) as cur:
                for key, sql in texts.items():
                    plans[key] = [row[3] for row in cur.execute(
                        'EXPLAIN QUERY PLAN ' + sql)]
        return plans

    def close(self) -> None:
        """Close the connection (idempotent); every later call of a
        method that would use it raises :class:`SchemaError`."""
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            # The row images must not outlive the database they
            # mirror: post-close reads should fail, not answer from
            # one (a set handed out earlier stays its holder's).
            self._images.clear()
            self._conn.close()
