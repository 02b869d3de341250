"""Delta relations and their application (§3.1 of the paper).

A :class:`Delta` is the pair (Δ⁺R, Δ⁻R) of insertions and deletions for one
relation; a :class:`DeltaSet` collects deltas for a whole database (the
paper's ΔS).  Application follows set semantics::

    R' = R ⊕ ΔR = (R \\ Δ⁻R) ∪ Δ⁺R

``DeltaSet.from_database`` extracts deltas from a Datalog output database by
interpreting the ``+r`` / ``-r`` predicate naming convention, which is how a
putback program's result becomes an update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.datalog.ast import (delta_base, is_delete_pred, is_delta_pred,
                               is_insert_pred)
from repro.errors import ContradictionError
from repro.relational.database import Database

__all__ = ['Delta', 'DeltaSet', 'apply_delta']


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

    def then(self, later: 'Delta') -> 'Delta':
        """Sequential composition (the Algorithm 2 merge): the single
        delta equivalent to applying ``self`` and then ``later``::

            Δ⁺ ← (Δ⁺ \\ δ⁻) ∪ δ⁺        Δ⁻ ← (Δ⁻ \\ δ⁺) ∪ δ⁻

        Later deltas take precedence; when both operands are free of
        contradictions, so is the composition.  This is how the batched
        transaction pipeline coalesces a view's staged deltas into the
        one delta its plan runs over."""
        if not (later.insertions or later.deletions):
            return self
        if not (self.insertions or self.deletions):
            return later
        return Delta((self.insertions - later.deletions)
                     | later.insertions,
                     (self.deletions - later.insertions)
                     | later.deletions)

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

    @classmethod
    def compose(cls, deltas: Sequence['Delta']) -> 'Delta':
        """Sequential composition of a whole sequence — ``then`` folded
        left, but accumulated in two mutable sets so composing N staged
        single-row deltas costs O(total rows), not O(N²) frozen-set
        rebuilds.  This is the once-per-transaction merge of the
        batched pipeline."""
        if not deltas:
            return cls()
        if len(deltas) == 1:
            return deltas[0]
        plus = set(deltas[0].insertions)
        minus = set(deltas[0].deletions)
        for later in deltas[1:]:
            if later.deletions:
                plus -= later.deletions
            if later.insertions:
                plus |= later.insertions
                minus -= later.insertions
            minus |= later.deletions
        return cls(plus, minus)

    @classmethod
    def merge(cls, parts: Iterable['Delta']) -> 'Delta':
        """Reassemble a delta from disjoint partitions (the inverse of
        :meth:`split`): a plain union, since no tuple belongs to two
        partitions."""
        plus: set = set()
        minus: set = set()
        for part in parts:
            plus |= part.insertions
            minus |= part.deletions
        return cls(plus, minus)

    def __len__(self) -> int:
        return len(self.insertions) + len(self.deletions)

    def __str__(self) -> str:
        parts = [f'+{sorted(self.insertions)}' if self.insertions else '',
                 f'-{sorted(self.deletions)}' if self.deletions else '']
        return ' '.join(p for p in parts if p) or '(no change)'


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

    @classmethod
    def single(cls, relation: str, insertions=(), deletions=()) -> 'DeltaSet':
        return cls({relation: Delta(frozenset(insertions),
                                    frozenset(deletions))})

    # -- access ----------------------------------------------------------

    def __getitem__(self, relation: str) -> Delta:
        return self.deltas.get(relation, Delta())

    def __iter__(self) -> Iterator[str]:
        return iter(self.deltas)

    def relations(self) -> set[str]:
        return set(self.deltas)

    def is_empty(self) -> bool:
        return all(d.is_empty() for d in self.deltas.values())

    def total_size(self) -> int:
        return sum(len(d) for d in self.deltas.values())

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

    @classmethod
    def merge(cls, parts: Iterable['DeltaSet']) -> 'DeltaSet':
        """Reassemble per-partition delta sets (inverse of
        :meth:`split`)."""
        merged: dict[str, Delta] = {}
        for part in parts:
            for name in part:
                merged[name] = merged.get(name, Delta()).union(part[name])
        return cls(merged)

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
