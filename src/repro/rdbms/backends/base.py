"""The storage/execution interface behind :class:`repro.rdbms.engine.
Engine`.

A :class:`Backend` owns everything the engine used to do directly
against :class:`~repro.datalog.evaluator.IndexedRelation` objects:

* base-table storage (bulk load, row access, frozen snapshots, applying
  committed deltas in place);
* materialised view caches (a view's first read evaluates its ``get``
  into one — :meth:`Backend.materialize` — and commits then maintain
  it; store/drop);
* the persistent index hints declared by compiled plans;
* plan evaluation — the incrementalized putback ``∂put``, the full
  putback, and ⊥-constraint checks.

The engine's transaction pipeline is backend-agnostic: it stages deltas
in Python, hands the backend *evaluation handles* for whatever each
evaluation must read (see :meth:`Backend.eval_handle`), and commits the
accumulated deltas through :meth:`Backend.apply_deltas`.

Two implementations ship: :class:`~repro.rdbms.backends.memory.
MemoryBackend` (indexed Python sets, the original engine substrate) and
:class:`~repro.rdbms.backends.sqlite.SQLiteBackend` (tables in SQLite,
plans lowered to SQL once per view).  The interpreted execution paths
are the base class's default evaluation methods, so every backend can
fall back to them for programs its native execution cannot express.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.datalog.evaluator import execute_deltas, execute_goal
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.schema import DatabaseSchema, RelationSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle with engine.py
    from repro.rdbms.engine import ViewEntry

__all__ = ['Backend', 'StoredRelation']


def _owned(rows) -> set:
    """The set a stored relation keeps: ``rows`` itself when the caller
    handed over a ``set`` (a load, a first read), else a copy — a
    ``frozenset`` (a replayed log record) included, which the in-place
    updates of a commit could not change."""
    return rows if rows.__class__ is set else set(rows)


class StoredRelation:
    """Evaluation handle meaning "read relation ``name`` from the
    backend's own storage" — the unstaged case.  Backends whose storage
    the interpreter cannot read directly (SQLite) return these from
    :meth:`Backend.eval_handle` and resolve them at evaluation time;
    staged relations always arrive as plain row sets."""

    __slots__ = ('name',)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f'StoredRelation({self.name!r})'


class Backend(ABC):
    """Pluggable storage + plan-execution substrate for the engine."""

    #: short name used by ``--backend`` flags and ``REPRO_BACKEND``
    kind: str = '?'

    def __init__(self, schema: DatabaseSchema):
        self.schema = schema

    # -- storage ------------------------------------------------------

    @abstractmethod
    def load(self, name: str, rows: set) -> None:
        """Replace the contents of base table ``name``.  The engine has
        already checked ``rows`` (plain tuples, valid for the schema,
        and storable — :meth:`check_storable`) and hands the set over:
        it is a fresh set no caller holds, and a backend keeps it
        itself (any other iterable — a log record's ``frozenset`` — is
        copied)."""

    def check_storable(self, schema: RelationSchema, rows) -> None:
        """Raise :class:`SchemaError` when a row of ``rows`` (already
        valid for ``schema``) holds a value this backend's medium
        cannot keep.  The engine asks while a commit or a bulk load can
        still fail — before the log append, before storage is touched.
        Nothing is refused by default: Python sets hold any value."""

    @abstractmethod
    def rows(self, name: str):
        """Current contents of a base table or a stored view cache: the
        backend's own live ``set``, on every backend — read-only for
        the caller, updated in place by each commit.  The same object
        is returned until the relation is reloaded or its cache rebuilt;
        a reader that needs a stable snapshot copies it.  On another
        thread ``frozenset(rows)`` is one step under the GIL and never
        sees a half-built set, but it may fall between a commit's
        deletions and its insertions."""

    @abstractmethod
    def snapshot(self) -> Database:
        """A frozen snapshot of all base tables."""

    def count(self, name: str) -> int:
        """Cardinality of a stored table or view cache."""
        return len(self.rows(name))

    @abstractmethod
    def apply_deltas(self, deltas: Sequence[tuple[str, Delta, bool]]
                     ) -> None:
        """Apply one transaction's committed deltas in place —
        ``(name, delta, is_cache)`` triples, each deletions first, then
        insertions (set semantics ``(R \\ Δ⁻) ∪ Δ⁺``).  A backend with
        a durable medium makes the whole batch atomic (the SQLite
        backend wraps it in one SQL transaction)."""

    # -- view caches --------------------------------------------------

    @abstractmethod
    def has_cache(self, name: str) -> bool:
        """Is a materialisation of view ``name`` currently stored?"""

    def materialize(self, entry: 'ViewEntry',
                    sources: Mapping[str, object]) -> None:
        """Evaluate the view definition of ``entry`` over ``sources``
        (source name → evaluation handle) and store the result as the
        view's cache, replacing any — a view's first read, and its
        re-materialisation after an invalidation.  One call, so a
        backend with a query engine computes and stores the view
        without handing its rows to Python (the SQLite backend runs one
        ``INSERT … SELECT``).  By default the interpreter evaluates the
        ``get`` plan and :meth:`store_cache` keeps the set its rules
        built."""
        self.store_cache(entry.name, execute_goal(entry.get_plan, sources,
                                                  entry.name))

    @abstractmethod
    def store_cache(self, name: str, rows: Iterable[tuple]) -> None:
        """Store (or replace) the materialisation of view ``name``
        from rows computed in Python.  The caller hands ``rows`` over:
        a backend keeps a ``set`` itself."""

    @abstractmethod
    def drop_cache(self, name: str) -> None:
        """Invalidate the stored materialisation of ``name`` (no-op when
        absent)."""

    # -- indexes ------------------------------------------------------

    @abstractmethod
    def add_index_hint(self, name: str, positions: tuple[int, ...]) -> None:
        """A compiled plan will probe ``name`` on ``positions``: build
        the matching access structure now and maintain it across
        updates and cache rebuilds."""

    def probe(self, name: str, positions: tuple[int, ...], key: tuple):
        """The rows of stored relation ``name`` whose values at
        ``positions`` equal ``key``, answered by the backend itself — a
        hash-index bucket, or a query the database evaluates — so that
        statement derivation need not iterate :meth:`rows` for a
        column→value WHERE; or None when the backend cannot answer
        (derivation then iterates :meth:`rows`).  The answer may hold
        rows that are only ``==`` to the stored ones (SQLite returns
        ``True`` as ``1``) and only narrows the candidates: the
        caller's predicate still decides every match.  None by
        default."""
        return None

    # -- plan execution -----------------------------------------------

    def register_view(self, entry: 'ViewEntry') -> None:
        """Called once per :meth:`Engine.define_view` — the backend's
        chance to compile the view's plans into its native execution
        form (the SQLite backend lowers them to SQL here)."""

    @abstractmethod
    def unregister_view(self, name: str) -> None:
        """Called when view ``name`` is dropped: forget everything kept
        under the name — its cache, its index hints, its compiled form
        — so a later view of that name (possibly with other columns)
        starts from nothing.  A no-op for unknown names."""

    @abstractmethod
    def eval_handle(self, name: str):
        """What plan evaluation should read for an *unstaged* relation:
        an object the interpreter accepts directly (memory hands out its
        persistent :class:`IndexedRelation`) or a :class:`StoredRelation`
        marker the backend resolves itself."""

    def evaluate_incremental_batch(self, entry: 'ViewEntry',
                                   sources: Mapping[str, object],
                                   view_handle, delta: Delta) -> dict:
        """Evaluate ``∂put`` over ``S ∪ {v, +v, -v}`` once for one
        transaction's *coalesced* view delta; the ⊥-rules it carries
        are checked first (raising :class:`ConstraintViolation`).  The
        result is :func:`~repro.datalog.evaluator.execute_deltas`':
        ``{relation: (insertions, deletions)}``, relations in sorted
        order, each with a row.

        Those ⊥-rules are the delta form :mod:`repro.core.incremental`
        derives for both incrementalization paths: they read ``±v``,
        so they hold on ``(S, V')`` only in a steady state — one where
        the constraints held before the update.  The engine's batched
        pipeline composes every staged delta of a view
        (:class:`~repro.relational.delta.Composition`) and calls this
        exactly once per touched view per transaction, with ``delta``
        that composition: the merged multi-row delta (only its
        ``insertions`` and ``deletions`` are read, and they are
        disjoint) — a single statement is a one-element batch.

        By default the interpreter runs it over the handles as they
        are: one sealed function checks the ⊥-rules and evaluates the
        delta goals (:func:`~repro.datalog.evaluator.execute_deltas`)."""
        plus, minus = entry.delta_names
        return execute_deltas(
            entry.incremental_plan,
            {**sources, entry.name: view_handle, plus: delta.insertions,
             minus: delta.deletions}, entry.updated)

    def evaluate_putback(self, entry: 'ViewEntry',
                         sources: Mapping[str, object],
                         view_rows) -> dict:
        """Evaluate the full putback program over ``S ∪ {v'}``, with
        :meth:`evaluate_incremental_batch`'s result.

        The strategy's ⊥-rules are checked against the same staged
        inputs first (one staging/freeze pass for both steps), raising
        :class:`ConstraintViolation`.  By default the interpreter runs
        it."""
        return execute_deltas(entry.strategy.putdelta_plan,
                              entry.strategy.putback_input(sources, view_rows),
                              entry.updated)

    def close(self) -> None:
        """Release backend resources (the SQLite connection, stored
        rows).  A closed backend serves no reads; row sets :meth:`rows`
        handed out earlier stay valid for their holder."""
