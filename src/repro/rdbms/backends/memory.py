"""The in-process backend: indexed Python sets, interpreted plans.

This preserves the original engine substrate exactly: tables and view
caches are :class:`~repro.datalog.evaluator.IndexedRelation` objects
whose hash indexes persist across updates and are maintained
incrementally on commit (the role PostgreSQL's B-trees play in the
paper's Figure 6 experiment), and every plan runs through the
slot-machine interpreter of :mod:`repro.datalog.evaluator`.
"""

from __future__ import annotations

from typing import Iterable

from repro.datalog.evaluator import IndexedRelation
from repro.errors import SchemaError
from repro.rdbms.backends.base import Backend, _owned
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema

__all__ = ['MemoryBackend']


class MemoryBackend(Backend):
    """Mutable indexed sets; evaluation by the compiled-plan interpreter."""

    kind = 'memory'

    def __init__(self, schema: DatabaseSchema):
        super().__init__(schema)
        self._tables: dict[str, IndexedRelation] = {
            rel.name: IndexedRelation(set()) for rel in schema}
        self._caches: dict[str, IndexedRelation] = {}
        # relation -> hash-index masks declared by registered plans;
        # applied eagerly to tables and to view caches on (re)build.
        self._index_hints: dict[str, set[tuple[int, ...]]] = {}

    # -- storage ------------------------------------------------------

    def _apply_index_hints(self, name: str,
                           relation: IndexedRelation) -> None:
        for positions in self._index_hints.get(name, ()):
            relation.ensure_index(positions)

    def _relation(self, name: str) -> IndexedRelation:
        # An IndexedRelation is always true: one expression, no nested
        # call on the hit paths.
        return self._tables.get(name) or self._caches.get(name) \
            or self._missing(name)

    @staticmethod
    def _missing(name: str):
        raise SchemaError(f'unknown or unmaterialised relation {name!r}')

    def load(self, name: str, rows: set) -> None:
        table = IndexedRelation(_owned(rows))
        self._apply_index_hints(name, table)
        self._tables[name] = table

    def rows(self, name: str):
        return (self._tables.get(name) or self._caches.get(name)
                or self._missing(name)).rows

    def snapshot(self) -> Database:
        return Database({name: frozenset(rel.rows)
                         for name, rel in self._tables.items()})

    def apply_deltas(self, deltas) -> None:
        for name, delta, is_cache in deltas:
            relation = (self._caches if is_cache else self._tables)[name]
            if delta.deletions:
                relation.difference_update(delta.deletions)
            if delta.insertions:
                relation.update(delta.insertions)

    # -- view caches --------------------------------------------------

    def has_cache(self, name: str) -> bool:
        return name in self._caches

    def store_cache(self, name: str, rows: Iterable[tuple]) -> None:
        cached = IndexedRelation(_owned(rows))
        self._apply_index_hints(name, cached)
        self._caches[name] = cached

    def drop_cache(self, name: str) -> None:
        self._caches.pop(name, None)

    # -- indexes ------------------------------------------------------

    def add_index_hint(self, name: str, positions: tuple[int, ...]) -> None:
        self._index_hints.setdefault(name, set()).add(positions)
        if name in self._tables:
            self._tables[name].ensure_index(positions)
        elif name in self._caches:
            self._caches[name].ensure_index(positions)

    def unregister_view(self, name: str) -> None:
        self.drop_cache(name)
        self._index_hints.pop(name, None)

    def probe(self, name: str, positions: tuple[int, ...], key: tuple):
        # First use of a mask builds its index and registers it as a
        # hint, so a re-materialised cache comes back with it.
        if positions not in self._index_hints.get(name, ()):
            self.add_index_hint(name, positions)
        return self._relation(name).lookup(positions, key)

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Empty every stored relation in place, then forget it: plan
        contexts and evaluation handles that still reference one (some
        sit in reference cycles only the cycle collector frees) hold
        an empty object, so a closed engine's rows and indexes are
        returned by reference counting."""
        for store in (self._tables, self._caches):
            for relation in store.values():
                relation.clear()
            store.clear()
        self._index_hints.clear()

    # -- plan execution -----------------------------------------------

    #: The persistent indexed relation itself — evaluation shares its
    #: hash indexes, nothing is copied.  Plans run interpreted
    #: (:class:`Backend`'s default evaluation): ∂put is one pass over
    #: the transaction's merged multi-row delta, however many
    #: statements were coalesced, in a single plan context.
    eval_handle = _relation
