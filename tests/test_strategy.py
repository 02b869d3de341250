"""UpdateStrategy tests: construction checks and put semantics (§3.1)."""

import pytest

from repro.core.strategy import UpdateStrategy
from repro.errors import (ConstraintViolation, ContradictionError,
                          SchemaError, ViewUpdateError)
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema


class TestConstruction:

    def test_view_schema_inferred(self, union_strategy):
        assert union_strategy.view.arity == 1
        assert union_strategy.view.types == ('int',)

    def test_view_type_inference_through_get(self, luxury_strategy):
        assert luxury_strategy.view.types == ('int', 'string', 'int')

    def test_view_must_occur(self, union_sources):
        with pytest.raises(SchemaError):
            UpdateStrategy.parse('ghost', union_sources,
                                 '+r1(X) :- r1(X).')

    def test_view_must_not_be_defined(self, union_sources):
        with pytest.raises(SchemaError):
            UpdateStrategy.parse('v', union_sources, """
                v(X) :- r1(X).
                +r1(X) :- v(X).
            """)

    def test_delta_on_view_rejected(self, union_sources):
        with pytest.raises(SchemaError):
            UpdateStrategy.parse('v', union_sources,
                                 '+v(X) :- r1(X), not v(X).')

    def test_source_redefinition_rejected(self, union_sources):
        with pytest.raises(SchemaError):
            UpdateStrategy.parse('v', union_sources, """
                r1(X) :- r2(X).
                +r2(X) :- v(X).
            """)

    def test_delta_arity_mismatch(self, union_sources):
        with pytest.raises(SchemaError):
            UpdateStrategy.parse('v', union_sources,
                                 '+r1(X, Y) :- v(X), v(Y).')

    def test_unsafe_rule_rejected(self, union_sources):
        from repro.errors import SafetyError
        with pytest.raises(SafetyError):
            UpdateStrategy.parse('v', union_sources,
                                 '+r1(X) :- v(Y), not r1(X).')

    def test_recursive_program_rejected(self, union_sources):
        from repro.errors import RecursionError_
        with pytest.raises(RecursionError_):
            UpdateStrategy.parse('v', union_sources, """
                aux(X) :- aux(X).
                +r1(X) :- v(X), aux(X).
            """)

    def test_expected_get_must_define_view(self, union_sources):
        with pytest.raises(SchemaError):
            UpdateStrategy.parse('v', union_sources,
                                 '+r1(X) :- v(X), not r1(X).',
                                 expected_get='w(X) :- r1(X).')

    def test_explicit_view_schema(self, union_sources):
        view = RelationSchema('v', ('value',), ('int',))
        strategy = UpdateStrategy(view, union_sources,
                                  putdelta=__import__(
                                      'repro.datalog.parser',
                                      fromlist=['parse_program']
                                  ).parse_program(
                                      '+r1(X) :- v(X), not r1(X).'))
        assert strategy.view.attributes == ('value',)


class TestIntrospection:

    def test_delta_preds(self, union_strategy):
        assert union_strategy.delta_preds() == {'-r1', '-r2', '+r1'}

    def test_updated_relations(self, union_strategy):
        assert union_strategy.updated_relations() == {'r1', 'r2'}

    def test_rule_partitions(self, luxury_strategy):
        assert len(luxury_strategy.constraints()) == 1
        assert len(luxury_strategy.intermediate_rules()) == 1
        assert luxury_strategy.program_size() == 4


class TestPutSemantics:

    def test_example_3_1(self, union_strategy, union_database):
        view = {(1,), (3,), (4,)}
        updated = union_strategy.put(union_database, view)
        assert updated['r1'] == {(1,), (3,)}
        assert updated['r2'] == {(4,)}

    def test_getput_on_current_view(self, union_strategy, union_database):
        view = union_strategy.get(union_database)
        assert union_strategy.put(union_database, view) == union_database

    def test_compute_delta(self, union_strategy, union_database):
        deltas = union_strategy.compute_delta(union_database,
                                              {(1,), (3,), (4,)})
        assert deltas['r1'].insertions == {(3,)}
        assert deltas['r2'].deletions == {(2,)}

    def test_constraint_enforcement(self, luxury_strategy):
        source = Database.from_dict({'items': {(1, 'watch', 5000)}})
        with pytest.raises(ConstraintViolation):
            luxury_strategy.put(source, {(2, 'gum', 5)})

    def test_constraint_can_be_skipped(self, luxury_strategy):
        source = Database.from_dict({'items': {(1, 'watch', 5000)}})
        updated = luxury_strategy.put(source, {(2, 'gum', 5)},
                                      enforce_constraints=False)
        assert (2, 'gum', 5) in updated['items']

    def test_contradictory_strategy_raises_on_put(self, union_sources):
        strategy = UpdateStrategy.parse('v', union_sources, """
            +r1(X) :- v(X), r1(X).
            -r1(X) :- v(X), r1(X).
        """)
        source = Database.from_dict({'r1': {(1,)}})
        with pytest.raises(ContradictionError):
            strategy.put(source, {(1,)})

    def test_get_requires_expected(self, union_sources):
        strategy = UpdateStrategy.parse(
            'v', union_sources, '+r1(X) :- v(X), not r1(X).')
        with pytest.raises(ViewUpdateError):
            strategy.get(Database())

    def test_view_rows_validated(self, luxury_strategy):
        source = Database.from_dict({'items': set()})
        with pytest.raises(SchemaError):
            luxury_strategy.put(source, {('not-an-int', 'x', 2000)})

    def test_case_study_ced(self, ced_strategy):
        source = Database.from_dict({
            'ed': {('alice', 'cs'), ('bob', 'math')},
            'eed': {('bob', 'math')}})
        # Current view: alice/cs.  Move bob back into math.
        updated = ced_strategy.put(source, {('alice', 'cs'),
                                            ('bob', 'math')})
        assert updated['eed'] == frozenset()
        # And retire alice's cs membership.
        updated2 = ced_strategy.put(source, set())
        assert ('alice', 'cs') in updated2['eed']
