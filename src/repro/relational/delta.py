"""Delta relations and their application (§3.1 of the paper).

A :class:`Delta` is the pair (Δ⁺R, Δ⁻R) of insertions and deletions for one
relation; a :class:`DeltaSet` collects deltas for a whole database (the
paper's ΔS); a :class:`Composition` folds a sequence of deltas into
one.  Application follows set semantics::

    R' = R ⊕ ΔR = (R \\ Δ⁻R) ∪ Δ⁺R

A putback run's result — ``{relation: (insertions, deletions)}`` from
:func:`~repro.datalog.evaluator.execute_deltas`, which reads the
``+r`` / ``-r`` naming convention once, when the plan compiles — is the
``deltas`` of a :class:`DeltaSet` once each pair is a :class:`Delta`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import ContradictionError
from repro.relational.database import Database

__all__ = ['Delta', 'DeltaSet', 'Composition']


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


#: The delta of a relation a :class:`DeltaSet` does not change.
_NO_CHANGE = Delta()


class Composition:
    """Sequential composition of deltas (the Algorithm 2 merge),
    accumulated in two mutable sets::

        Δ⁺ ← (Δ⁺ \\ δ⁻) ∪ δ⁺        Δ⁻ ← (Δ⁻ \\ δ⁺) ∪ δ⁻

    :meth:`then` appends one delta; later deltas take precedence, and
    when every appended delta is free of contradictions, so is the
    composition.  Composing N single-row deltas costs O(total rows),
    not the O(N²) of rebuilding frozensets each time.  Algorithm 2's
    running view state is one composition, and so are a relation's
    staged deltas and a view's pending deltas once a transaction has
    a second one (``Composition(first.insertions, first.deletions)``
    starts from the first); ``insertions`` / ``deletions`` /
    ``is_empty`` are the read surface of :class:`Delta`, so commit
    and the backends read either."""

    __slots__ = ('insertions', 'deletions')

    def __init__(self, insertions=(), deletions=()):
        self.insertions: set = set(insertions)
        self.deletions: set = set(deletions)

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
        object.__setattr__(self, 'deltas', dict(self.deltas))

    # -- access ----------------------------------------------------------

    def __getitem__(self, relation: str) -> Delta:
        delta = self.deltas.get(relation)
        return _NO_CHANGE if delta is None else delta

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
