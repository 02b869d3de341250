"""SQL compilation: Datalog → SQL queries, view DDL, trigger programs
(§6.1 of the paper)."""

from repro.sql.ddl import create_schema, create_table, create_view
from repro.sql.translate import (POSTGRES, SQLITE, ColumnNamer, SqlDialect,
                                 constraint_to_sql, plan_to_sql,
                                 query_to_sql, rule_to_select, sql_literal)
from repro.sql.triggers import (compile_strategy_to_sql,
                                constraint_checks_sql, delta_queries_sql,
                                trigger_program)

__all__ = [
    'create_schema', 'create_table', 'create_view', 'ColumnNamer',
    'SqlDialect', 'POSTGRES', 'SQLITE',
    'query_to_sql', 'constraint_to_sql', 'plan_to_sql',
    'rule_to_select', 'sql_literal',
    'compile_strategy_to_sql', 'constraint_checks_sql',
    'delta_queries_sql', 'trigger_program',
]
