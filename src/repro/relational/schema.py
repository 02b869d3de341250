"""Database schemas: relation names, attribute names, and types.

A :class:`DatabaseSchema` plays the role of the paper's schema
``S = <r1, ..., rn>`` (§2.1).  Attribute names are optional decoration used
by SQL generation and the RDBMS layer; Datalog itself is positional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from repro.errors import SchemaError

__all__ = ['AttributeType', 'RelationSchema', 'DatabaseSchema']


class AttributeType:
    """Supported attribute types (plain string constants)."""

    INT = 'int'
    FLOAT = 'float'
    STRING = 'string'
    DATE = 'date'      # stored as ISO strings; ordered lexicographically

    ALL = (INT, FLOAT, STRING, DATE)

    _PYTHON = {INT: int, FLOAT: float, STRING: str, DATE: str}


@dataclass(frozen=True)
class RelationSchema:
    """Schema of one relation: ``name(attr1: type1, ..., attrk: typek)``."""

    name: str
    attributes: tuple[str, ...]
    types: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.attributes, tuple):
            object.__setattr__(self, 'attributes', tuple(self.attributes))
        if not self.types:
            object.__setattr__(
                self, 'types',
                tuple(AttributeType.STRING for _ in self.attributes))
        elif not isinstance(self.types, tuple):
            object.__setattr__(self, 'types', tuple(self.types))
        if len(self.types) != len(self.attributes):
            raise SchemaError(
                f'relation {self.name!r}: {len(self.attributes)} attributes '
                f'but {len(self.types)} types')
        for t in self.types:
            if t not in AttributeType.ALL:
                raise SchemaError(f'unknown attribute type {t!r} in '
                                  f'relation {self.name!r}')
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(
                f'relation {self.name!r} has duplicate attribute names')

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def validate_tuple(self, row: tuple) -> None:
        """Raise :class:`SchemaError` when ``row`` does not fit.  An
        ``int`` column takes any ``int`` but a ``bool``; a ``float``
        column any ``int`` or ``float``, ``bool`` included (the
        historical contract); a ``string`` or ``date`` column any
        ``str``.  Subclasses count, so an ``IntEnum`` is an ``int``."""
        if len(row) != len(self.attributes):
            raise SchemaError(
                f'relation {self.name!r} has arity {self.arity} but got a '
                f'tuple of length {len(row)}: {row!r}')
        for attribute, kind, value in zip(self.attributes, self.types, row):
            if not (isinstance(value, (int, float))
                    if kind == AttributeType.FLOAT
                    else isinstance(value, AttributeType._PYTHON[kind])
                    and not isinstance(value, bool)):
                raise SchemaError(f'{self.name}.{attribute} expects {kind}, '
                                  f'got {value!r}')

    def check_rows(self, rows) -> None:
        """Raise :class:`SchemaError` for the first row of ``rows``, in
        iteration order, that :meth:`validate_tuple` refuses (each row
        read as a tuple).  One compiled pass per type tuple
        (:func:`_row_check`) clears a batch of exact tuples whose values
        have exactly their column's class; any other batch is checked
        row by row, so the rows accepted and the message raised are
        :meth:`validate_tuple`'s.  Pass a collection: a refused batch is
        read twice."""
        if not _row_check(self.types)(rows):
            for row in rows:
                self.validate_tuple(tuple(row))

    def loaded_rows(self, rows) -> set:
        """``rows`` as a new, checked set of plain tuples: what a bulk
        load stores.  A ``set``/``frozenset`` is copied in one C pass
        that keeps its tuples (never the caller's set itself); any
        other input, or a set holding anything but exact tuples, is
        rebuilt row by row."""
        if isinstance(rows, (set, frozenset)):
            loaded = set(rows)
            if _row_check(self.types)(loaded):
                return loaded
        loaded = {tuple(r) for r in rows}
        self.check_rows(loaded)
        return loaded

    def __str__(self) -> str:
        cols = ', '.join(f'{a}: {t}'
                         for a, t in zip(self.attributes, self.types))
        return f'{self.name}({cols})'


@lru_cache(maxsize=None)
def _row_check(types: tuple[str, ...]):
    """The generated ``check(rows) -> bool`` of one type tuple: true
    when every row is an exact ``tuple`` of ``len(types)`` values, each
    of exactly its column's class (an ``int`` also in a ``float``
    column).  False says only "check row by row".  Cached by ``types``
    here, never on a schema, which is pickled into logs and shipped to
    worker processes."""
    values = ''.join(f'a{i}, ' for i in range(len(types)))
    refused = ' or '.join(
        f'a{i}.__class__ is not {AttributeType._PYTHON[kind].__name__}'
        + (f' and a{i}.__class__ is not int'
           if kind == AttributeType.FLOAT else '')
        for i, kind in enumerate(types)) or 'False'
    source = (
        'def check(rows):\n'
        '    for row in rows:\n'
        f'        if row.__class__ is not tuple or len(row) != {len(types)}:\n'
        '            return False\n'
        f'        ({values}) = row\n'
        f'        if {refused}:\n'
        '            return False\n'
        '    return True\n')
    namespace: dict = {}
    exec(compile(source, f'<row check {",".join(types)}>', 'exec'),
         namespace)
    return namespace['check']


@dataclass(frozen=True)
class DatabaseSchema:
    """An ordered collection of relation schemas."""

    relations: tuple[RelationSchema, ...]
    _by_name: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.relations, tuple):
            object.__setattr__(self, 'relations', tuple(self.relations))
        by_name = {}
        for rel in self.relations:
            if rel.name in by_name:
                raise SchemaError(f'duplicate relation name {rel.name!r}')
            by_name[rel.name] = rel
        object.__setattr__(self, '_by_name', by_name)

    @classmethod
    def build(cls, **relations: Iterable[str] | dict[str, str]
              ) -> 'DatabaseSchema':
        """Convenience constructor::

            DatabaseSchema.build(
                r1=['a', 'b'],                       # all-string attributes
                r2={'c': 'int', 'd': 'date'},        # typed attributes
            )
        """
        rels = []
        for name, spec in relations.items():
            if isinstance(spec, dict):
                rels.append(RelationSchema(name, tuple(spec),
                                           tuple(spec.values())))
            else:
                rels.append(RelationSchema(name, tuple(spec)))
        return cls(tuple(rels))

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self.relations)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> RelationSchema:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f'unknown relation {name!r}') from None

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.relations)

    def arity(self, name: str) -> int:
        return self[name].arity

    def extend(self, *more: RelationSchema) -> 'DatabaseSchema':
        return DatabaseSchema(self.relations + tuple(more))

    def __str__(self) -> str:
        return '\n'.join(str(r) for r in self.relations)
