"""Trigger-program generation: updatable views in PostgreSQL (§6.1).

For a validated strategy the compiler emits one SQL script containing

1. ``CREATE VIEW`` from the (derived or confirmed) view definition;
2. a trigger procedure implementing the paper's three steps — derive the
   view deltas from the DML statement, check the ⊥-constraints, compute
   and apply the source delta relations;
3. the ``INSTEAD OF INSERT OR UPDATE OR DELETE`` trigger wiring.

The delta-relation queries inside the procedure are real SQL translated
from the (optionally incrementalized) putback program; the updated view is
exposed to them as the CTE ``<view>_updated`` (original view minus the
deletion set, union the insertion set) so that the very same Datalog rules
run unchanged.

The emitted script is what the paper measures in Table 1's "Compiled SQL"
column; this library executes the equivalent pipeline natively in
:mod:`repro.rdbms` (the PostgreSQL substitution documented in DESIGN.md).
"""

from __future__ import annotations

from repro.core.strategy import UpdateStrategy
from repro.datalog.ast import (Program, delete_pred, delta_base,
                               insert_pred)
from repro.datalog.pretty import pretty_rule
from repro.errors import ValidationError
from repro.sql.ddl import create_view
from repro.sql.translate import (ColumnNamer, constraint_witness,
                                 query_to_sql, quote_ident, sql_ident,
                                 sql_literal, sql_table)

__all__ = ['compile_strategy_to_sql', 'trigger_program',
           'constraint_checks_sql', 'delta_queries_sql']


def _namer(strategy: UpdateStrategy, extra: dict | None = None
           ) -> ColumnNamer:
    extras = {strategy.view.name: strategy.view.attributes}
    ins = insert_pred(strategy.view.name)
    dele = delete_pred(strategy.view.name)
    extras[ins] = strategy.view.attributes
    extras[dele] = strategy.view.attributes
    if extra:
        extras.update(extra)
    return ColumnNamer(strategy.sources, extra=extras)


def constraint_checks_sql(strategy: UpdateStrategy) -> list[tuple[str, str]]:
    """``(constraint_text, exists_query)`` pairs for every ⊥-rule.

    The query selects a witness of the violation over the *updated* view
    (``<view>_updated``), to be wrapped in ``IF EXISTS (...) THEN RAISE``
    by the caller.
    """
    from repro.datalog.transform import rename_predicates
    view = strategy.view.name
    updated = f'{view}_updated'
    checks: list[tuple[str, str]] = []
    intermediates = Program(strategy.intermediate_rules())
    for index, rule in enumerate(strategy.constraints()):
        goal = f'violation_{index}'
        # Anonymous variables inside negated atoms never bind: they
        # cannot appear in the witness columns.
        probe, head_cols = constraint_witness(rule, goal)
        program = rename_predicates(
            Program(intermediates.rules + (probe,)), {view: updated})
        extra_cols = {goal: head_cols,
                      updated: strategy.view.attributes}
        check_namer = _namer(strategy, extra_cols)
        checks.append((pretty_rule(rule),
                       query_to_sql(program, goal, check_namer)))
    return checks


def delta_queries_sql(strategy: UpdateStrategy, *,
                      incremental: bool = False) -> list[tuple[str, str]]:
    """``(delta_predicate, sql)`` for each source delta relation.

    With ``incremental=True`` the queries come from the incrementalized
    program ``∂put`` and read the view-delta temporaries
    ``delta_ins_<view>`` / ``delta_del_<view>`` instead of the full view.
    """
    from repro.datalog.transform import prune_unreachable, rename_predicates
    view = strategy.view.name
    if incremental:
        program = Program(strategy.incremental_putdelta.proper_rules())
        extra_cols = {}
    else:
        # The full putback program reads the *updated* view.
        updated = f'{view}_updated'
        program = rename_predicates(
            Program(strategy.putdelta.proper_rules()), {view: updated})
        extra_cols = {updated: strategy.view.attributes}
    namer = _namer(strategy, extra_cols)
    results: list[tuple[str, str]] = []
    for pred in sorted(strategy.delta_preds()):
        if not program.rules_for(pred):
            continue  # dropped by incrementalization (no view dependence)
        sub_program = prune_unreachable(program, {pred})
        results.append((pred, query_to_sql(sub_program, pred, namer)))
    return results


def trigger_program(strategy: UpdateStrategy, *,
                    incremental: bool = True) -> str:
    """The trigger procedure + trigger DDL for one updatable view."""
    name = strategy.view.name
    view = quote_ident(name)
    ins, dele = sql_table(insert_pred(name)), sql_table(delete_pred(name))
    updated = quote_ident(f'{name}_updated')
    procedure = quote_ident(f'{name}_update_strategy')
    col_list = ', '.join(map(quote_ident, strategy.view.attributes))
    lines: list[str] = []
    lines.append(f'-- Trigger machinery for updatable view {name}')
    lines.append(f'CREATE TEMP TABLE IF NOT EXISTS {ins} (LIKE {view});')
    lines.append(f'CREATE TEMP TABLE IF NOT EXISTS {dele} (LIKE {view});')
    lines.append('')
    lines.append(f'CREATE OR REPLACE FUNCTION {procedure}()')
    lines.append('RETURNS trigger LANGUAGE plpgsql AS $$')
    lines.append('BEGIN')
    lines.append('  -- Step 1: derive view deltas from the DML statement')
    lines.append('  IF TG_OP = \'INSERT\' OR TG_OP = \'UPDATE\' THEN')
    lines.append(f'    INSERT INTO {ins} SELECT NEW.*;')
    lines.append(f'    DELETE FROM {dele} d WHERE ROW(d.*) = ROW(NEW.*);')
    lines.append('  END IF;')
    lines.append('  IF TG_OP = \'DELETE\' OR TG_OP = \'UPDATE\' THEN')
    lines.append(f'    INSERT INTO {dele} SELECT OLD.*;')
    lines.append(f'    DELETE FROM {ins} d WHERE ROW(d.*) = ROW(OLD.*);')
    lines.append('  END IF;')
    lines.append('')
    lines.append(f'  -- Updated view contents: ({name} \\ Δ-) ∪ Δ+')
    lines.append(f'  CREATE TEMP TABLE {updated} AS')
    lines.append(f'    SELECT {col_list} FROM {view}')
    lines.append(f'    EXCEPT SELECT {col_list} FROM {dele}')
    lines.append(f'    UNION  SELECT {col_list} FROM {ins};')
    lines.append('')
    lines.append('  -- Step 2: integrity constraints on the updated view')
    for text, query in constraint_checks_sql(strategy):
        indented = '\n    '.join(query.splitlines())
        lines.append(f'  IF EXISTS (\n    {indented}\n  ) THEN')
        message = f'Invalid view update: constraint "{text}" violated'
        lines.append(f'    RAISE EXCEPTION {sql_literal(message)};')
        lines.append('  END IF;')
    lines.append('')
    lines.append('  -- Step 3: compute and apply source delta relations')
    for pred, query in delta_queries_sql(strategy,
                                         incremental=incremental):
        base = quote_ident(delta_base(pred))
        result = quote_ident(f'{sql_ident(pred)}_result')
        indented = '\n    '.join(query.splitlines())
        lines.append(f'  CREATE TEMP TABLE {result} AS\n    {indented};')
        if pred.startswith('-'):
            lines.append(f'  DELETE FROM {base} WHERE ROW({base}.*) IN '
                         f'(SELECT ROW(r.*) FROM {result} r);')
        else:
            lines.append(f'  INSERT INTO {base} SELECT * FROM {result};')
        lines.append(f'  DROP TABLE {result};')
    lines.append(f'  DROP TABLE {updated};')
    lines.append('  RETURN NULL;')
    lines.append('END;')
    lines.append('$$;')
    lines.append('')
    lines.append(f'CREATE TRIGGER '
                 f'{quote_ident(f"{name}_update_strategy_trigger")}')
    lines.append(f'INSTEAD OF INSERT OR UPDATE OR DELETE ON {view}')
    lines.append('FOR EACH ROW')
    lines.append(f'EXECUTE PROCEDURE {procedure}();')
    return '\n'.join(lines)


def compile_strategy_to_sql(strategy: UpdateStrategy,
                            get_program: Program | None = None, *,
                            incremental: bool = True) -> str:
    """Full compilation: view DDL + trigger machinery (§6.1).

    ``get_program`` defaults to the strategy's expected view definition;
    pass ``ValidationReport.view_definition`` to compile the certified
    one.
    """
    get_program = get_program or strategy.expected_get
    if get_program is None:
        raise ValidationError(
            f'no view definition available for {strategy.view.name!r}: '
            f'validate the strategy first and pass report.view_definition')
    view_sql = create_view(strategy.view, get_program, strategy.sources)
    triggers = trigger_program(strategy, incremental=incremental)
    header = (f'-- Compiled by repro (BIRDS reproduction) — updatable view '
              f'{strategy.view.name}\n')
    return f'{header}\n{view_sql}\n\n{triggers}\n'
