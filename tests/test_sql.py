"""SQL compilation tests (§6.1): queries, DDL, trigger programs."""

import pytest

from repro.core.validation import validate
from repro.datalog.parser import parse_program
from repro.errors import TransformationError
from repro.fol.solver import SolverConfig
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.sql.ddl import create_schema, create_table, create_view
from repro.sql.translate import (POSTGRES, SQLITE, ColumnNamer,
                                 constraint_to_sql, plan_to_sql,
                                 query_to_sql, rule_to_select, sql_literal)
from repro.sql.triggers import (compile_strategy_to_sql,
                                constraint_checks_sql, delta_queries_sql,
                                trigger_program)

FAST = SolverConfig(random_trials=40)


class TestSqlLiterals:

    def test_string_escaping(self):
        assert sql_literal("it's") == "'it''s'"

    def test_numbers(self):
        assert sql_literal(42) == '42'
        assert sql_literal(2.5) == '2.5'

    def test_booleans_render_per_dialect(self):
        # bool is an int subclass: must not render as str(True).
        assert sql_literal(True) == 'TRUE'
        assert sql_literal(False) == 'FALSE'
        assert sql_literal(True, SQLITE) == '1'
        assert sql_literal(False, SQLITE) == '0'

    def test_none_renders_as_null(self):
        assert sql_literal(None) == 'NULL'
        assert sql_literal(None, SQLITE) == 'NULL'


class TestQueryTranslation:

    def test_select_join_where(self):
        program = parse_program('q(X, Z) :- r(X, Y), s(Y, Z), X > 1.')
        sql = query_to_sql(program, 'q')
        assert 'FROM "r" t0, "s" t1' in sql
        assert 't0."c1" = t1."c0"' in sql
        assert 't0."c0" > 1' in sql

    def test_join_separator_is_a_dialect_rendering(self):
        program = parse_program('q(X, Z) :- r(X, Y), s(Y, Z).')
        sql = query_to_sql(program, 'q', dialect=SQLITE)
        assert 'FROM "r" t0 CROSS JOIN "s" t1' in sql
        assert SQLITE.join == ' CROSS JOIN ' and POSTGRES.join == ', '

    def test_staged_deltas_lead_the_from_clause(self):
        # The planner's join order (delta inputs first), whatever the
        # source order — on SQLite CROSS JOIN makes it the loop order.
        program = parse_program(
            '-r(X, Y) :- r(X, Y), s(Y), -v(X, Y).\n'
            '+r(X, Y) :- s(Y), +v(X, Y), not r(X, Y).')
        minus = query_to_sql(program, '-r', dialect=SQLITE)
        assert 'FROM "delta_del_v" t0 CROSS JOIN ' in minus
        plus = query_to_sql(program, '+r', dialect=SQLITE)
        assert 'FROM "delta_ins_v" t0 CROSS JOIN "s" t1' in plus

    def test_schema_column_names(self):
        schema = DatabaseSchema.build(r={'alpha': 'int', 'beta': 'string'})
        program = parse_program("q(X) :- r(X, 'z').")
        sql = query_to_sql(program, 'q', ColumnNamer(schema))
        assert 't0."alpha"' in sql
        assert "t0.\"beta\" = 'z'" in sql

    def test_identifiers_are_quoted(self):
        # `order`, `group` and `select` are keywords; `a"b` needs
        # its quote doubled.
        schema = DatabaseSchema.build(order={'group': 'int', 'a"b': 'int'})
        program = parse_program('select(X) :- order(X, _), not order(_, X).')
        sql = query_to_sql(program, 'select', ColumnNamer(schema))
        assert 'FROM "order" t0' in sql
        assert 't0."group" AS "c0"' in sql
        assert 's."a""b" = t0."group"' in sql
        assert rule_to_select(program.rules[0], ColumnNamer(schema)) == sql

    def test_negation_becomes_not_exists(self):
        program = parse_program('q(X) :- r(X), not s(X).')
        sql = query_to_sql(program, 'q')
        assert 'NOT EXISTS (SELECT 1 FROM "s" s' in sql

    def test_negated_atom_with_wildcard(self):
        program = parse_program('q(X) :- r(X), not s(X, _).')
        sql = query_to_sql(program, 'q')
        # Only the bound column is constrained inside the subquery.
        assert 'NOT EXISTS' in sql and 's."c1"' not in sql

    def test_union_as_cte_union(self):
        program = parse_program('q(X) :- r1(X).\nq(X) :- r2(X).')
        sql = query_to_sql(program, 'q')
        assert sql.count('SELECT DISTINCT') == 2
        assert 'UNION' in sql
        # ... and inside the CTE of a predicate that has to bind.
        program = parse_program('q(X) :- r1(X).\nq(X) :- r2(X).\n'
                                'top(X) :- q(X).')
        sql = query_to_sql(program, 'top')
        cte = sql[sql.index('"q" AS ('):sql.index('\n)\n')]
        assert cte.count('SELECT DISTINCT') == 2 and 'UNION' in cte

    def test_equality_bound_constant_select(self):
        program = parse_program("q(X, T) :- r(X), T = 'tag'.")
        sql = query_to_sql(program, 'q')
        assert "'tag' AS \"c1\"" in sql

    def test_layered_idb_becomes_cte_chain(self):
        # mid has to *bind* X, and low Y inside it: both stay CTEs, in
        # evaluation order.
        program = parse_program("""
            low(Y) :- r(Y), Y > 1.
            mid(X) :- low(X), not t(X).
            q(X) :- mid(X), not s(X).
        """)
        sql = query_to_sql(program, 'q')
        assert sql.startswith('WITH "low" AS (')
        assert sql.index('"low" AS (') < sql.index('"mid" AS (') \
            < sql.index('FROM "mid" t')

    def test_delta_predicates_become_identifiers(self):
        program = parse_program('+r(X) :- v(X), not r(X).')
        sql = query_to_sql(program, '+r')
        assert '+r' not in sql
        program = parse_program('q(X) :- +r(X), not -r(X).')
        sql = query_to_sql(program, 'q')
        assert 'FROM "delta_ins_r" t0' in sql
        assert 'FROM "delta_del_r" s' in sql


class TestAuxiliaryPredicates:
    """Where an IDB predicate is unfolded at its use site and where it
    stays a CTE (tests/test_sql_execution.py runs every shape)."""

    def test_negated_predicate_unfolds_into_its_definition(self):
        program = parse_program("""
            in_office(N, O) :- works(N, O, _, _).
            +works(N, O) :- +officeinfo(N, O), not in_office(N, O).
        """)
        sql = query_to_sql(program, '+works')
        assert not sql.startswith('WITH')
        assert ('NOT EXISTS (SELECT 1 FROM "works" t1 WHERE '
                't0."c0" = t1."c0" AND t0."c1" = t1."c1")') in sql

    def test_one_not_exists_per_defining_rule(self):
        program = parse_program("""
            aux(X) :- r(X, _).
            aux(X) :- s(X), X > 1.
            q(X) :- t(X), not aux(X).
        """)
        sql = query_to_sql(program, 'q')
        assert sql.count('NOT EXISTS (SELECT 1 FROM') == 2
        assert ') AND NOT EXISTS (' in sql and 'WITH' not in sql

    def test_bound_positive_predicate_becomes_a_semi_join(self):
        program = parse_program("""
            inflow(T) :- flow(T, _).
            -tasks(T, N) :- tasks(T, N), inflow(T), -open(T, N).
        """)
        sql = query_to_sql(program, '-tasks')
        assert 'WITH' not in sql and '"inflow"' not in sql
        assert 'AND EXISTS (SELECT 1 FROM "flow" t2 WHERE ' in sql

    def test_unfolding_recurses_and_keeps_aliases_apart(self):
        program = parse_program("""
            low(X) :- r(X), not s(X).
            mid(X) :- t(X), not low(X).
            q(X) :- r(X), not mid(X).
        """)
        sql = query_to_sql(program, 'q')
        assert 'WITH' not in sql
        aliases = [word for word in sql.replace('(', ' ').split()
                   if word[0] == 't' and word[1:].isdigit()]
        assert aliases == ['t0', 't1', 't2']

    def test_cte_read_inside_an_unfolded_body_is_kept(self):
        program = parse_program("""
            pair(X, Y) :- r(X), r(Y).
            far(X) :- s(X), pair(X, Y), Y > 3.
            q(X) :- t(X), not far(X).
        """)
        sql = query_to_sql(program, 'q')
        assert sql.startswith('WITH "pair" AS (')
        assert '"far"' not in sql

    def test_recursion_is_rejected_not_unfolded_forever(self):
        from repro.errors import ReproError
        program = parse_program('q(X) :- r(X), not q(X).')
        with pytest.raises(ReproError):
            query_to_sql(program, 'q')


class TestDependencyConePruning:

    PROGRAM = """
        aux_a(X) :- r(X), X > 1.
        aux_b(X) :- s(X).
        +r(X) :- aux_a(X), not r(X).
        -r(X) :- aux_b(X), not v(X), Y > 1.
    """

    def test_with_clause_prunes_to_goal_cone(self):
        program = parse_program(self.PROGRAM)
        sql = query_to_sql(program, '+r')
        assert sql.startswith('WITH "aux_a" AS (')
        # aux_b feeds only -r: it must not appear in +r's WITH clause.
        assert 'aux_b' not in sql
        assert 'delta_del_r' not in sql

    def test_with_clause_drops_ctes_nothing_reads(self):
        # aux_a is in +r's cone, but unfolded where it is used.
        program = parse_program("""
            aux_a(X) :- r(X), X > 1.
            +r(X) :- v(X), aux_a(X).
        """)
        sql = query_to_sql(program, '+r')
        assert 'WITH' not in sql and 'aux_a' not in sql

    def test_goal_without_rules_rejected(self):
        program = parse_program('q(X) :- r(X).')
        with pytest.raises(TransformationError):
            query_to_sql(program, 'nope')

    def test_unlowerable_rule_outside_cone_is_harmless(self):
        # -r compares a variable nothing binds; +r's query never
        # touches it.
        from repro.errors import ReproError
        program = parse_program(self.PROGRAM)
        with pytest.raises(ReproError):
            query_to_sql(program, '-r')
        assert 'AS "c0"' in query_to_sql(program, '+r')


class TestConstraintToSql:

    def test_witness_query_carries_cone(self):
        program = parse_program("""
            aux(X) :- r(X), X > 10.
            bind(X) :- r(X), X < 5.
            unrelated(X) :- s(X).
            ⊥ :- v(X), not aux(X).
            ⊥ :- bind(X), not v(X).
            +r(X) :- v(X), not r(X).
        """)
        unfolded, kept = (constraint_to_sql(program, rule)
                          for rule in program.constraints())
        for sql in (unfolded, kept):
            assert 'unrelated' not in sql
            assert 'delta_ins_r' not in sql
        assert not unfolded.startswith('WITH')
        assert 'NOT EXISTS (SELECT 1 FROM "r" t1 WHERE ' in unfolded
        assert kept.startswith('WITH "bind" AS (') and 'aux' not in kept

    def test_non_constraint_rejected(self):
        program = parse_program('q(X) :- r(X).')
        with pytest.raises(TransformationError):
            constraint_to_sql(program, program.rules[0])

    def test_constraint_without_idb_needs_no_with(self):
        program = parse_program('⊥ :- v(X), X < 0.')
        sql = constraint_to_sql(program, program.constraints()[0])
        assert not sql.startswith('WITH')
        assert 't0."c0" < 0' in sql


class TestPlanToSql:

    def test_plan_lowering_matches_query_lowering(self):
        from repro.datalog.plan import compile_program
        program = parse_program('q(X, Z) :- r(X, Y), s(Y, Z).')
        plan = compile_program(program)
        assert plan_to_sql(plan, 'q') == query_to_sql(program, 'q')


class TestDdl:

    def test_create_table_types(self):
        rel = RelationSchema('t', ('a', 'b', 'c', 'd'),
                             ('int', 'float', 'string', 'date'))
        ddl = create_table(rel)
        assert ddl.startswith('CREATE TABLE "t" (')
        assert '"a" integer' in ddl
        assert '"b" double precision' in ddl
        assert '"c" text' in ddl
        assert '"d" date' in ddl

    def test_create_schema_joins_tables(self):
        schema = DatabaseSchema.build(r=['a'], s=['b'])
        ddl = create_schema(schema)
        assert ddl.count('CREATE TABLE') == 2

    def test_create_view_avoids_self_shadowing(self, union_strategy):
        sql = create_view(union_strategy.view,
                          union_strategy.expected_get,
                          union_strategy.sources)
        assert sql.startswith('CREATE OR REPLACE VIEW "v" AS')
        assert 'WITH "v" AS' not in sql


class TestTriggerProgram:

    def test_full_compilation_structure(self, union_strategy):
        report = validate(union_strategy, config=FAST)
        sql = compile_strategy_to_sql(union_strategy,
                                      report.view_definition)
        assert 'CREATE OR REPLACE VIEW "v" AS' in sql
        assert 'INSTEAD OF INSERT OR UPDATE OR DELETE ON "v"' in sql
        assert 'CREATE TEMP TABLE IF NOT EXISTS "delta_ins_v"' in sql
        assert 'delta_del_v' in sql
        assert 'RETURN NULL;' in sql

    def test_constraint_check_raises(self, luxury_strategy):
        sql = trigger_program(luxury_strategy)
        assert 'RAISE EXCEPTION' in sql
        assert 'luxuryitems_updated' in sql

    def test_constraint_queries_target_updated_view(self, luxury_strategy):
        checks = constraint_checks_sql(luxury_strategy)
        assert len(checks) == 1
        _text, query = checks[0]
        assert 'luxuryitems_updated' in query

    def test_incremental_deltas_read_delta_tables(self, union_strategy):
        queries = dict(delta_queries_sql(union_strategy,
                                         incremental=True))
        assert 'delta_ins_v' in queries['+r1']
        assert 'delta_del_v' in queries['-r1']

    def test_full_deltas_read_updated_view(self, union_strategy):
        queries = dict(delta_queries_sql(union_strategy,
                                         incremental=False))
        assert 'v_updated' in queries['+r1']

    def test_compile_without_view_definition_fails(self, union_sources):
        from repro.core.strategy import UpdateStrategy
        from repro.errors import ValidationError
        strategy = UpdateStrategy.parse('v', union_sources,
                                        '+r1(X) :- v(X), not r1(X).')
        with pytest.raises(ValidationError):
            compile_strategy_to_sql(strategy)

    def test_sql_size_scales_with_program(self, union_strategy,
                                          luxury_strategy):
        # Table 1's observation: bigger strategies compile to bigger SQL.
        report_a = validate(union_strategy, config=FAST)
        report_b = validate(luxury_strategy, config=FAST)
        sql_a = compile_strategy_to_sql(union_strategy,
                                        report_a.view_definition)
        sql_b = compile_strategy_to_sql(luxury_strategy,
                                        report_b.view_definition)
        assert len(sql_a) > 500 and len(sql_b) > 500
