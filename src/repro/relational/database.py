"""Database instances as immutable maps from predicate symbols to relations.

A database ``D`` assigns a finite relation (a frozenset of value tuples) to
each predicate (§2.1).  Instances are value objects: equality is extensional,
updates produce new instances.  The same class represents EDBs, IDB outputs,
and the combined ``(S, V)`` instances the validation algorithm works on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

__all__ = ['Database']

Row = tuple


def _freeze(rows: Iterable[Row]) -> frozenset:
    """``rows`` as a frozenset of tuples, in one pass in C.  A frozenset
    is taken as frozen already: it cannot hold a list row, the shape
    the tuple pass exists to convert."""
    return rows if rows.__class__ is frozenset else frozenset(map(tuple, rows))


@dataclass(frozen=True)
class Database:
    """An immutable database instance.

    Missing relations read as empty, which lets partial instances (e.g. just
    the deltas produced by a putback program) compose smoothly.
    """

    relations: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        frozen = {name: _freeze(rows)
                  for name, rows in dict(self.relations).items()}
        object.__setattr__(self, 'relations', frozen)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[Row]]) -> 'Database':
        return cls(data)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, name: str) -> frozenset:
        return self.relations.get(name, frozenset())

    def get(self, name: str) -> frozenset:
        return self.relations.get(name, frozenset())

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def names(self) -> set[str]:
        return set(self.relations)

    def active_domain(self) -> set:
        """All constants appearing in any tuple of any relation."""
        domain: set = set()
        for rows in self.relations.values():
            for row in rows:
                domain.update(row)
        return domain

    # -- functional updates -------------------------------------------------

    def with_relation(self, name: str, rows: Iterable[Row]) -> 'Database':
        updated = dict(self.relations)
        updated[name] = _freeze(rows)
        return Database(updated)

    # -- dunder -----------------------------------------------------------------

    def __iter__(self) -> Iterator[str]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        names = self.names() | other.names()
        return all(self[n] == other[n] for n in names)

    def __hash__(self):
        items = tuple(sorted((n, rows) for n, rows in self.relations.items()
                             if rows))
        return hash(items)

    def __str__(self) -> str:
        lines = []
        for name in sorted(self.relations):
            rows = sorted(self.relations[name])
            body = ', '.join(str(r) for r in rows) if rows else '∅'
            lines.append(f'{name}: {{{body}}}')
        return '\n'.join(lines) if lines else '(empty database)'
