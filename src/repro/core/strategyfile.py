"""The ``.dlog`` strategy file format and its loader.

A strategy file bundles everything :class:`UpdateStrategy` needs — the
source schema, the view declaration, the (optional) expected view
definition, and the putback rules — in one BIRDS-style text file::

    % luxuryitems: selection view over items (catalog entry #3)
    .source items(iid: int, iname: string, price: int).
    .view luxuryitems(iid: int, iname: string, price: int).

    .get
    luxuryitems(I, N, P) :- items(I, N, P), P > 1000.
    .end

    ⊥ :- luxuryitems(I, N, P), not P > 1000.
    +items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
    expensive(I, N, P) :- items(I, N, P), P > 1000.
    -items(I, N, P) :- expensive(I, N, P), not luxuryitems(I, N, P).

Directives start with ``.`` at the beginning of a line:

* ``.source name(attr: type, ...).`` — declare a base relation
  (types: ``int``, ``float``, ``string``, ``date``; ``: type`` may be
  omitted and defaults to ``string``);
* ``.view name(attr: type, ...).``  — declare the view;
* ``.get`` ... ``.end``             — the expected view definition block.

Everything else is the putback program (``%`` comments allowed).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.strategy import UpdateStrategy
from repro.datalog.pretty import pretty
from repro.errors import DatalogSyntaxError, SchemaError
from repro.relational.schema import (AttributeType, DatabaseSchema,
                                     RelationSchema)

__all__ = ['loads_strategy', 'load_strategy', 'dumps_strategy']

_DECL_RE = re.compile(
    r'^\.\s*(source|view)\s+([a-z][A-Za-z0-9_]*)\s*\((.*)\)\s*\.\s*$')

_TYPE_ALIASES = {
    'int': AttributeType.INT, 'integer': AttributeType.INT,
    'float': AttributeType.FLOAT, 'real': AttributeType.FLOAT,
    'double': AttributeType.FLOAT,
    'string': AttributeType.STRING, 'text': AttributeType.STRING,
    'varchar': AttributeType.STRING,
    'date': AttributeType.DATE, 'datetime': AttributeType.DATE,
}


def _parse_declaration(line: str, lineno: int) -> tuple[str,
                                                        RelationSchema]:
    match = _DECL_RE.match(line)
    if match is None:
        raise DatalogSyntaxError(
            f'malformed declaration: {line.strip()!r}', lineno)
    kind, name, columns = match.groups()
    attributes: list[str] = []
    types: list[str] = []
    for column in columns.split(','):
        column = column.strip()
        if not column:
            raise DatalogSyntaxError(
                f'empty column in declaration of {name!r}', lineno)
        if ':' in column:
            attr, type_name = (part.strip() for part in
                               column.split(':', 1))
        else:
            attr, type_name = column, 'string'
        resolved = _TYPE_ALIASES.get(type_name.lower())
        if resolved is None:
            raise DatalogSyntaxError(
                f'unknown column type {type_name!r} for {name}.{attr}',
                lineno)
        attributes.append(attr)
        types.append(resolved)
    return kind, RelationSchema(name, tuple(attributes), tuple(types))


def loads_strategy(text: str) -> UpdateStrategy:
    """Parse a strategy file from a string."""
    sources: list[RelationSchema] = []
    view: RelationSchema | None = None
    get_lines: list[str] = []
    rule_lines: list[str] = []
    in_get = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if in_get:
            if stripped == '.end':
                in_get = False
            else:
                get_lines.append(line)
            continue
        if stripped == '.get':
            in_get = True
            continue
        if stripped.startswith('.'):
            kind, schema = _parse_declaration(stripped, lineno)
            if kind == 'source':
                sources.append(schema)
            else:
                if view is not None:
                    raise SchemaError('multiple .view declarations')
                view = schema
            continue
        rule_lines.append(line)
    if in_get:
        raise DatalogSyntaxError('.get block not closed with .end')
    if view is None:
        raise SchemaError('strategy file declares no .view')
    if not sources:
        raise SchemaError('strategy file declares no .source relations')
    expected_get = '\n'.join(get_lines).strip() or None
    return UpdateStrategy.parse(view, DatabaseSchema(tuple(sources)),
                                '\n'.join(rule_lines),
                                expected_get=expected_get)


def load_strategy(path: str | Path) -> UpdateStrategy:
    """Parse a strategy file from disk."""
    return loads_strategy(Path(path).read_text(encoding='utf-8'))


def _declaration(kind: str, schema: RelationSchema) -> str:
    columns = ', '.join(f'{attr}: {type_name}' for attr, type_name in
                        zip(schema.attributes, schema.types))
    return f'.{kind} {schema.name}({columns}).'


def dumps_strategy(strategy: UpdateStrategy) -> str:
    """Render a strategy back into the file format (round-trips through
    :func:`loads_strategy`)."""
    lines = [f'% update strategy for view {strategy.view.name}']
    for relation in strategy.sources:
        lines.append(_declaration('source', relation))
    lines.append(_declaration('view', strategy.view))
    lines.append('')
    if strategy.expected_get is not None:
        lines.append('.get')
        lines.append(pretty(strategy.expected_get))
        lines.append('.end')
        lines.append('')
    lines.append(pretty(strategy.putdelta))
    return '\n'.join(lines) + '\n'
