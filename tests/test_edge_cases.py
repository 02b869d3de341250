"""Edge cases and failure-injection across module boundaries."""

import pytest

from repro.core.strategy import UpdateStrategy
from repro.core.validation import validate
from repro.datalog.ast import Atom, Lit, Program, Rule, Var
from repro.datalog.evaluator import evaluate
from repro.datalog.parser import parse_program
from repro.errors import (ConstraintViolation, ContradictionError,
                          ReproError, SchemaError)
from repro.fol.solver import SolverConfig
from repro.rdbms.engine import Engine
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema

FAST = SolverConfig(random_trials=40)


class TestZeroArityPredicates:

    def test_zero_arity_idb(self):
        # Constructed programmatically (the surface syntax needs ≥1 arg).
        rule = Rule(Atom('flag', ()), (Lit(Atom('r', (Var('X'),))),))
        program = Program((rule,))
        out = evaluate(program, Database.from_dict({'r': {(1,)}}))
        assert out['flag'] == {()}
        out_empty = evaluate(program, Database())
        assert out_empty['flag'] == frozenset()


class TestErrorHierarchy:

    def test_all_errors_are_repro_errors(self):
        from repro import errors
        for name in ('DatalogSyntaxError', 'SafetyError', 'SchemaError',
                     'FragmentError', 'ContradictionError',
                     'ConstraintViolation', 'ViewUpdateError',
                     'ValidationError', 'TransformationError',
                     'RecursionError_'):
            assert issubclass(getattr(errors, name), ReproError)

    def test_contradiction_error_payload(self):
        err = ContradictionError('r', frozenset({(1,)}))
        assert err.relation == 'r'
        assert (1,) in err.tuples

    def test_constraint_violation_payload(self):
        err = ConstraintViolation('false :- v(X).', witness=(1,))
        assert err.constraint == 'false :- v(X).'
        assert err.witness == (1,)


class TestEmptyAndDegenerateInstances:

    def test_put_on_empty_source(self, union_strategy):
        updated = union_strategy.put(Database(), {(7,)})
        assert updated['r1'] == {(7,)}

    def test_put_empty_view_clears_sources(self, union_strategy,
                                           union_database):
        updated = union_strategy.put(union_database, set())
        assert updated['r1'] == frozenset()
        assert updated['r2'] == frozenset()

    def test_engine_view_over_empty_tables(self, union_strategy):
        engine = Engine(union_strategy.sources)
        engine.define_view(union_strategy, validate_first=False)
        assert engine.rows('v') == frozenset()
        engine.insert('v', (1,))
        assert engine.rows('r1') == {(1,)}

    def test_delete_from_empty_view_is_noop(self, union_strategy):
        engine = Engine(union_strategy.sources)
        engine.define_view(union_strategy, validate_first=False)
        engine.delete('v')  # no WHERE: delete all of nothing
        assert engine.rows('v') == frozenset()


class TestDuplicateAndIdempotentUpdates:

    def test_double_insert_is_idempotent(self, union_strategy):
        engine = Engine(union_strategy.sources)
        engine.define_view(union_strategy, validate_first=False)
        engine.insert('v', (3,))
        engine.insert('v', (3,))
        assert engine.rows('r1') == {(3,)}

    def test_put_is_idempotent(self, union_strategy, union_database):
        view = {(1,), (9,)}
        once = union_strategy.put(union_database, view)
        twice = union_strategy.put(once, view)
        assert once == twice


class TestStringDomains:

    def test_date_boundary_comparisons(self):
        sources = DatabaseSchema.build(
            log={'d': 'date', 'message': 'string'})
        strategy = UpdateStrategy.parse('recent', sources, """
            ⊥ :- recent(D, M), D < '2020-01-01'.
            +log(D, M) :- recent(D, M), not log(D, M).
            fresh(D, M) :- log(D, M), not D < '2020-01-01'.
            -log(D, M) :- fresh(D, M), not recent(D, M).
        """, expected_get="recent(D, M) :- log(D, M), "
                          "not D < '2020-01-01'.")
        report = validate(strategy, config=FAST)
        assert report.valid
        source = Database.from_dict({
            'log': {('2019-12-31', 'old'), ('2020-01-01', 'new')}})
        assert strategy.get(source) == {('2020-01-01', 'new')}
        updated = strategy.put(source, {('2020-06-06', 'x')})
        assert ('2019-12-31', 'old') in updated['log']
        assert ('2020-01-01', 'new') not in updated['log']

    def test_quote_heavy_strings_through_sql(self):
        from repro.sql.translate import query_to_sql
        program = parse_program('''q(X) :- r(X), X = 'o''brien'.''')
        sql = query_to_sql(program, 'q')
        assert "'o''brien'" in sql


class TestViewOnViewOfSameName:

    def test_source_named_like_delta(self):
        # A relation literally named like a prefixed predicate is not
        # confused with a delta.
        sources = DatabaseSchema.build(plus_r={'a': 'int'})
        with pytest.raises(SchemaError):
            # putdelta must target known relations.
            UpdateStrategy.parse('v', sources,
                                 '+unknown(X) :- v(X).')


class TestLargeTransactionMerging:

    def test_many_statements_fold_into_one_delta(self, union_strategy):
        engine = Engine(union_strategy.sources)
        engine.load('r2', [(0,)])
        engine.define_view(union_strategy, validate_first=False)
        with engine.transaction() as txn:
            for value in range(20):
                txn.insert('v', (value,))
            for value in range(0, 20, 2):
                txn.delete('v', where={'a': value})
        # The folds delete every even value — including the pre-existing
        # (0,) from r2 — and keep the inserted odd ones.
        assert engine.rows('v') == {(v,) for v in range(1, 20, 2)}
        assert engine.rows('r2') == frozenset()
