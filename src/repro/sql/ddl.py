"""DDL generation: CREATE TABLE / CREATE VIEW statements (PostgreSQL)."""

from __future__ import annotations

from repro.datalog.ast import Program
from repro.relational.schema import (AttributeType, DatabaseSchema,
                                     RelationSchema)
from repro.sql.translate import ColumnNamer, query_to_sql, quote_ident

__all__ = ['create_table', 'create_schema', 'create_view']

_SQL_TYPES = {
    AttributeType.INT: 'integer',
    AttributeType.FLOAT: 'double precision',
    AttributeType.STRING: 'text',
    AttributeType.DATE: 'date',
}


def create_table(relation: RelationSchema) -> str:
    columns = ',\n  '.join(
        f'{quote_ident(attr)} {_SQL_TYPES[type_name]}'
        for attr, type_name in zip(relation.attributes, relation.types))
    return f'CREATE TABLE {quote_ident(relation.name)} (\n  {columns}\n);'


def create_schema(schema: DatabaseSchema) -> str:
    return '\n\n'.join(create_table(rel) for rel in schema)


def create_view(view: RelationSchema, get_program: Program,
                sources: DatabaseSchema) -> str:
    """``CREATE VIEW <name> AS <sql-defining-query>`` (§6.1)."""
    namer = ColumnNamer(sources, extra={view.name: view.attributes})
    body = query_to_sql(get_program, view.name, namer)
    return f'CREATE OR REPLACE VIEW {quote_ident(view.name)} AS\n{body};'
