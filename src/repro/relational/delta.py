"""Delta relations and their application (§3.1 of the paper).

A :class:`Delta` is the pair (Δ⁺R, Δ⁻R) of insertions and deletions for one
relation; a :class:`DeltaSet` collects deltas for a whole database (the
paper's ΔS); a :class:`Composition` folds a sequence of deltas into
one.  Application follows set semantics::

    R' = R ⊕ ΔR = (R \\ Δ⁻R) ∪ Δ⁺R

``DeltaSet.from_database`` extracts deltas from a Datalog output database by
interpreting the ``+r`` / ``-r`` predicate naming convention, which is how a
putback program's result becomes an update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.datalog.ast import (delta_base, is_delete_pred, is_delta_pred,
                               is_insert_pred)
from repro.errors import ContradictionError
from repro.relational.database import Database

__all__ = ['Delta', 'DeltaSet', 'Composition', 'apply_delta']


@dataclass(frozen=True)
class Delta:
    """Insertions and deletions for a single relation."""

    insertions: frozenset = frozenset()
    deletions: frozenset = frozenset()

    def __post_init__(self):
        # Deltas are allocated on every statement of every transaction:
        # skip the (re)freeze when the caller already passed frozensets.
        if type(self.insertions) is not frozenset:
            object.__setattr__(self, 'insertions',
                               frozenset(self.insertions))
        if type(self.deletions) is not frozenset:
            object.__setattr__(self, 'deletions',
                               frozenset(self.deletions))

    def is_empty(self) -> bool:
        return not self.insertions and not self.deletions

    def contradictions(self) -> frozenset:
        """Tuples both inserted and deleted (ill-definedness witnesses)."""
        return self.insertions & self.deletions

    def apply(self, rows: frozenset, relation: str = '?') -> frozenset:
        """``rows ⊕ delta``; raises :class:`ContradictionError` when the
        delta is contradictory."""
        clash = self.contradictions()
        if clash:
            raise ContradictionError(relation, clash)
        return (rows - self.deletions) | self.insertions

    def effective_on(self, rows: frozenset) -> 'Delta':
        """The part of the delta that actually changes ``rows``: deletions
        present in ``rows`` and insertions absent from it (cf. §5's steady
        state discussion)."""
        insertions = self.insertions - rows
        deletions = self.deletions & rows
        if len(insertions) == len(self.insertions) \
                and len(deletions) == len(self.deletions):
            return self          # already fully effective: no new object
        return Delta(insertions, deletions)

    def union(self, other: 'Delta') -> 'Delta':
        return Delta(self.insertions | other.insertions,
                     self.deletions | other.deletions)

    def split(self, classify) -> dict:
        """Partition the delta by a row predicate: ``classify(row)``
        names the partition (e.g. a shard index) each tuple belongs to.
        Returns ``{partition: Delta}`` with empty partitions omitted —
        the sharded engine uses this to route one logical delta to the
        shards owning its rows."""
        plus: dict[object, set] = {}
        minus: dict[object, set] = {}
        for row in self.insertions:
            plus.setdefault(classify(row), set()).add(row)
        for row in self.deletions:
            minus.setdefault(classify(row), set()).add(row)
        return {part: Delta(plus.get(part, ()), minus.get(part, ()))
                for part in set(plus) | set(minus)}

    def __len__(self) -> int:
        return len(self.insertions) + len(self.deletions)

    def __str__(self) -> str:
        parts = [f'+{sorted(self.insertions)}' if self.insertions else '',
                 f'-{sorted(self.deletions)}' if self.deletions else '']
        return ' '.join(p for p in parts if p) or '(no change)'


class Composition:
    """Sequential composition of deltas (the Algorithm 2 merge),
    accumulated in two mutable sets::

        Δ⁺ ← (Δ⁺ \\ δ⁻) ∪ δ⁺        Δ⁻ ← (Δ⁻ \\ δ⁺) ∪ δ⁻

    :meth:`then` appends one delta; later deltas take precedence, and
    when every appended delta is free of contradictions, so is the
    composition.  Composing N single-row deltas costs O(total rows),
    not the O(N²) of rebuilding frozensets each time.  Algorithm 2's
    running view state, a transaction's staged deltas and a view's
    pending queue are each one composition; ``insertions`` /
    ``deletions`` / ``is_empty`` are the read surface of
    :class:`Delta`, so commit and the backends read either."""

    __slots__ = ('insertions', 'deletions')

    def __init__(self):
        self.insertions: set = set()
        self.deletions: set = set()

    def then(self, insertions, deletions) -> None:
        if deletions:
            self.insertions -= deletions
        if insertions:
            self.insertions |= insertions
            self.deletions -= insertions
        if deletions:
            self.deletions |= deletions

    def is_empty(self) -> bool:
        return not self.insertions and not self.deletions


@dataclass(frozen=True)
class DeltaSet:
    """Deltas for a collection of relations (the paper's ΔS)."""

    deltas: Mapping[str, Delta] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, 'deltas',
            {name: delta for name, delta in dict(self.deltas).items()})

    @classmethod
    def from_database(cls, db: Database,
                      relations: Iterable[str] | None = None) -> 'DeltaSet':
        """Collect ``+r`` / ``-r`` relations of ``db`` into a delta set.

        When ``relations`` is given, only deltas for those base relations are
        collected; otherwise every delta predicate in ``db`` contributes.
        """
        wanted = None if relations is None else set(relations)
        deltas: dict[str, Delta] = {}
        for name in db.names():
            if not is_delta_pred(name):
                continue
            base = delta_base(name)
            if wanted is not None and base not in wanted:
                continue
            delta = deltas.get(base, Delta())
            if is_insert_pred(name):
                delta = Delta(delta.insertions | db[name], delta.deletions)
            elif is_delete_pred(name):
                delta = Delta(delta.insertions, delta.deletions | db[name])
            deltas[base] = delta
        return cls(deltas)

    # -- access ----------------------------------------------------------

    def __getitem__(self, relation: str) -> Delta:
        return self.deltas.get(relation, Delta())

    def __iter__(self) -> Iterator[str]:
        return iter(self.deltas)

    def relations(self) -> set[str]:
        return set(self.deltas)

    def is_empty(self) -> bool:
        return all(d.is_empty() for d in self.deltas.values())

    def contradictions(self) -> dict[str, frozenset]:
        return {name: d.contradictions()
                for name, d in self.deltas.items() if d.contradictions()}

    # -- operations ----------------------------------------------------------

    def apply_to(self, db: Database) -> Database:
        """``db ⊕ self``; raises :class:`ContradictionError` when any
        relation's delta is contradictory (Def. 3.1)."""
        result = db
        for name, delta in self.deltas.items():
            if delta.is_empty():
                continue
            result = result.with_relation(name,
                                          delta.apply(db[name], name))
        return result

    def effective_on(self, db: Database) -> 'DeltaSet':
        return DeltaSet({name: delta.effective_on(db[name])
                         for name, delta in self.deltas.items()
                         if not delta.effective_on(db[name]).is_empty()})

    def union(self, other: 'DeltaSet') -> 'DeltaSet':
        merged = dict(self.deltas)
        for name, delta in other.deltas.items():
            merged[name] = merged.get(name, Delta()).union(delta)
        return DeltaSet(merged)

    def split(self, classifiers: Mapping[str, object]) -> dict:
        """Partition every relation's delta by its own row predicate:
        ``classifiers[name](row)`` names the partition each tuple of
        ``name`` belongs to (every relation present in the delta set
        needs a classifier).  Returns ``{partition: DeltaSet}`` with
        empty partitions omitted."""
        parts: dict[object, dict[str, Delta]] = {}
        for name, delta in self.deltas.items():
            for part, piece in delta.split(classifiers[name]).items():
                parts.setdefault(part, {})[name] = piece
        return {part: DeltaSet(deltas) for part, deltas in parts.items()}

    def __str__(self) -> str:
        if self.is_empty():
            return 'ΔS = ∅'
        lines = []
        for name in sorted(self.deltas):
            delta = self.deltas[name]
            for row in sorted(delta.insertions):
                lines.append(f'+{name}{row}')
            for row in sorted(delta.deletions):
                lines.append(f'-{name}{row}')
        return '\n'.join(lines)


def apply_delta(db: Database, deltas: DeltaSet) -> Database:
    """Functional form of :meth:`DeltaSet.apply_to` (the paper's ⊕)."""
    return deltas.apply_to(db)
