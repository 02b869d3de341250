"""Schema, Database and generator tests."""

import random

import pytest

from repro.errors import SchemaError
from repro.relational.database import Database
from repro.relational.generators import random_database, random_rows
from repro.relational.schema import (AttributeType, DatabaseSchema,
                                     RelationSchema)


class TestRelationSchema:

    def test_default_types_are_string(self):
        rel = RelationSchema('r', ('a', 'b'))
        assert rel.types == ('string', 'string')

    def test_arity(self):
        assert RelationSchema('r', ('a', 'b', 'c')).arity == 3

    def test_type_count_mismatch(self):
        with pytest.raises(SchemaError):
            RelationSchema('r', ('a', 'b'), ('int',))

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            RelationSchema('r', ('a',), ('blob',))

    def test_duplicate_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema('r', ('a', 'a'))

    def test_validate_tuple_ok(self):
        rel = RelationSchema('r', ('a', 'b'), ('int', 'string'))
        rel.validate_tuple((1, 'x'))

    def test_validate_tuple_wrong_arity(self):
        rel = RelationSchema('r', ('a',), ('int',))
        with pytest.raises(SchemaError):
            rel.validate_tuple((1, 2))

    def test_validate_tuple_wrong_type(self):
        rel = RelationSchema('r', ('a',), ('int',))
        with pytest.raises(SchemaError):
            rel.validate_tuple(('x',))

    def test_bool_is_not_int(self):
        rel = RelationSchema('r', ('a',), ('int',))
        with pytest.raises(SchemaError):
            rel.validate_tuple((True,))

    def test_int_accepted_as_float(self):
        rel = RelationSchema('r', ('a',), ('float',))
        rel.validate_tuple((1,))

    def test_date_stored_as_string(self):
        rel = RelationSchema('r', ('d',), ('date',))
        rel.validate_tuple(('1962-01-01',))


class TestDatabaseSchema:

    def test_build_convenience(self):
        schema = DatabaseSchema.build(r=['a'], s={'x': 'int'})
        assert schema.names() == ('r', 's')
        assert schema['s'].types == ('int',)

    def test_duplicate_relation(self):
        with pytest.raises(SchemaError):
            DatabaseSchema((RelationSchema('r', ('a',)),
                            RelationSchema('r', ('b',))))

    def test_unknown_relation_lookup(self):
        schema = DatabaseSchema.build(r=['a'])
        with pytest.raises(SchemaError):
            schema['missing']

    def test_contains_and_arity(self):
        schema = DatabaseSchema.build(r=['a', 'b'])
        assert 'r' in schema
        assert schema.arity('r') == 2

    def test_extend(self):
        schema = DatabaseSchema.build(r=['a'])
        extended = schema.extend(RelationSchema('s', ('x',)))
        assert 's' in extended and 'r' in extended


class TestDatabase:

    def test_missing_relation_is_empty(self):
        assert Database()['nope'] == frozenset()

    def test_equality_ignores_empty_relations(self):
        assert Database.from_dict({'r': set()}) == Database()

    def test_hash_consistent_with_eq(self):
        a = Database.from_dict({'r': {(1,)}, 's': set()})
        b = Database.from_dict({'r': {(1,)}})
        assert a == b and hash(a) == hash(b)

    def test_from_dict_freezes_each_relation_once(self, monkeypatch):
        """List rows come out as tuples, in one freezing pass per
        relation; a frozenset is kept, not copied."""
        from repro.relational import database
        calls = []
        real = database._freeze
        monkeypatch.setattr(database, '_freeze',
                            lambda rows: calls.append(rows) or real(rows))
        kept = frozenset({(3,)})
        db = Database.from_dict({'r': [[1, 'a'], (2, 'b')], 's': kept})
        assert len(calls) == 2
        assert db['r'] == {(1, 'a'), (2, 'b')}
        assert all(row.__class__ is tuple for row in db['r'])
        assert db['s'] is kept

    def test_with_relation(self):
        db = Database().with_relation('r', {(1,)})
        assert db['r'] == {(1,)}

    def test_active_domain(self):
        db = Database.from_dict({'r': {(1, 'a')}, 's': {(2,)}})
        assert db.active_domain() == {1, 'a', 2}


class TestGenerators:

    def test_random_rows_count_and_types(self):
        rel = RelationSchema('r', ('a', 'b'), ('int', 'string'))
        rows = random_rows(rel, 50, random.Random(1))
        assert len(rows) == 50
        for row in rows:
            rel.validate_tuple(row)

    def test_column_pools_respected(self):
        rel = RelationSchema('r', ('a', 'b'), ('int', 'string'))
        rows = random_rows(rel, 30, random.Random(1),
                           column_pools={'b': ['x', 'y']})
        assert {row[1] for row in rows} <= {'x', 'y'}

    def test_random_database_sizes(self):
        schema = DatabaseSchema.build(r={'a': 'int'}, s={'b': 'string'})
        db = random_database(schema, {'r': 10, 's': 5}, seed=3)
        assert len(db['r']) == 10
        assert len(db['s']) == 5

    def test_deterministic_given_seed(self):
        schema = DatabaseSchema.build(r={'a': 'int'})
        a = random_database(schema, {'r': 20}, seed=42)
        b = random_database(schema, {'r': 20}, seed=42)
        assert a == b

    def test_date_pool_generation(self):
        rel = RelationSchema('r', ('d',), ('date',))
        rows = random_rows(rel, 10, random.Random(0))
        for (value,) in rows:
            assert len(value) == 10 and value[4] == '-'
