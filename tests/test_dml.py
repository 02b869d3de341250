"""DML statement and Algorithm 2 (view delta derivation) tests."""

from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.strategy import UpdateStrategy
from repro.datalog.evaluator import IndexedRelation
from repro.errors import SchemaError, ViewUpdateError
from repro.rdbms.backends import SQLiteBackend
from repro.rdbms.dml import (Delete, Insert, Update, _RunningState,
                             compile_where, derive_view_delta, match_where)
from repro.rdbms.engine import Engine
from repro.relational.schema import DatabaseSchema, RelationSchema

SCHEMA = RelationSchema('v', ('a', 'b'), ('int', 'string'))


class TestWhereMatching:

    def test_none_matches_all(self):
        assert match_where((1, 'x'), None, SCHEMA)

    def test_dict_condition(self):
        assert match_where((1, 'x'), {'a': 1}, SCHEMA)
        assert not match_where((1, 'x'), {'a': 2}, SCHEMA)

    def test_multi_column_dict(self):
        assert match_where((1, 'x'), {'a': 1, 'b': 'x'}, SCHEMA)
        assert not match_where((1, 'x'), {'a': 1, 'b': 'y'}, SCHEMA)

    def test_callable_condition(self):
        assert match_where((5, 'x'), lambda row: row['a'] > 3, SCHEMA)

    def test_unknown_column(self):
        with pytest.raises(SchemaError):
            match_where((1, 'x'), {'zzz': 1}, SCHEMA)

    def test_compile_where_matches_match_where(self):
        cases = [None, {'a': 1}, {'a': 2}, {'a': 1, 'b': 'x'},
                 {'a': 1, 'b': 'y'}, lambda row: row['a'] > 3]
        for where in cases:
            compiled = compile_where(where, SCHEMA)
            for row in ((1, 'x'), (5, 'x'), (2, 'y')):
                assert compiled(row) == match_where(row, where, SCHEMA)

    def test_compile_where_unknown_column_stays_lazy(self):
        """Exactly match_where's data-dependent raise: an unknown
        column only fires when every condition *before* it matched —
        an earlier failing condition still returns False."""
        where = {'a': 999, 'zzz': 1}
        compiled = compile_where(where, SCHEMA)
        assert compiled((1, 'x')) is False       # a != 999: no raise
        assert not match_where((1, 'x'), where, SCHEMA)
        with pytest.raises(SchemaError):
            compiled((999, 'x'))                  # a matched: raise
        with pytest.raises(SchemaError):
            match_where((999, 'x'), where, SCHEMA)

    def test_bool_stays_acceptable_float(self):
        """The historical validate_tuple contract: bool (an int
        subclass) passes for float columns, is rejected for int."""
        floaty = RelationSchema('f', ('x',), ('float',))
        floaty.validate_tuple((True,))
        inty = RelationSchema('i', ('x',), ('int',))
        with pytest.raises(SchemaError):
            inty.validate_tuple((True,))


class TestStatementDeltas:

    def test_insert(self):
        delta = derive_view_delta([Insert((1, 'x'))], frozenset(), SCHEMA)
        assert delta.insertions == {(1, 'x')}

    def test_insert_existing_row_is_noop(self):
        delta = derive_view_delta([Insert((1, 'x'))],
                                  frozenset({(1, 'x')}), SCHEMA)
        assert delta.is_empty()

    def test_insert_validates_types(self):
        with pytest.raises(SchemaError):
            derive_view_delta([Insert(('bad', 'x'))], frozenset(), SCHEMA)

    def test_delete_by_condition(self):
        current = frozenset({(1, 'x'), (2, 'y')})
        delta = derive_view_delta([Delete({'b': 'y'})], current, SCHEMA)
        assert delta.deletions == {(2, 'y')}

    def test_delete_everything(self):
        current = frozenset({(1, 'x'), (2, 'y')})
        delta = derive_view_delta([Delete(None)], current, SCHEMA)
        assert delta.deletions == current

    def test_fully_keyed_delete_uses_membership(self):
        current = frozenset({(1, 'x')})
        delta = derive_view_delta([Delete({'a': 1, 'b': 'x'})], current,
                                  SCHEMA)
        assert delta.deletions == {(1, 'x')}

    def test_update_constant_assignment(self):
        current = frozenset({(1, 'x'), (2, 'y')})
        delta = derive_view_delta([Update({'b': 'z'}, {'a': 1})], current,
                                  SCHEMA)
        assert delta.insertions == {(1, 'z')}
        assert delta.deletions == {(1, 'x')}

    def test_update_callable_assignment(self):
        current = frozenset({(1, 'x')})
        delta = derive_view_delta(
            [Update({'a': lambda row: row['a'] + 10})], current, SCHEMA)
        assert delta.insertions == {(11, 'x')}

    def test_update_requires_assignments(self):
        with pytest.raises(ViewUpdateError):
            derive_view_delta([Update({})], frozenset({(1, 'x')}), SCHEMA)


class TestAlgorithm2Merging:

    def test_insert_then_delete_cancels(self):
        delta = derive_view_delta(
            [Insert((1, 'x')), Delete({'a': 1})], frozenset(), SCHEMA)
        assert delta.is_empty()

    def test_delete_then_insert_reinstates(self):
        current = frozenset({(1, 'x')})
        delta = derive_view_delta(
            [Delete({'a': 1}), Insert((1, 'x'))], current, SCHEMA)
        assert delta.is_empty()

    def test_later_statements_see_earlier_effects(self):
        # Insert then update the inserted row.
        delta = derive_view_delta(
            [Insert((1, 'x')), Update({'b': 'z'}, {'a': 1})],
            frozenset(), SCHEMA)
        assert delta.insertions == {(1, 'z')}
        assert delta.deletions == frozenset()

    def test_update_chain(self):
        current = frozenset({(1, 'x')})
        delta = derive_view_delta(
            [Update({'b': 'y'}, {'a': 1}), Update({'b': 'z'}, {'a': 1})],
            current, SCHEMA)
        assert delta.insertions == {(1, 'z')}
        assert delta.deletions == {(1, 'x')}

    def test_result_is_effective(self):
        # Deleting an absent row and inserting a present one: no-ops.
        current = frozenset({(1, 'x')})
        delta = derive_view_delta(
            [Delete({'a': 99}), Insert((1, 'x'))], current, SCHEMA)
        assert delta.is_empty()

    def test_paper_appendix_d_example(self):
        # "if the sequence is inserting a tuple t and then deleting this
        # tuple, t is no longer inserted."
        delta = derive_view_delta(
            [Insert((7, 'q')), Delete({'a': 7, 'b': 'q'})],
            frozenset(), SCHEMA)
        assert delta.is_empty()


# -- probe ≡ scan -------------------------------------------------------
#
# ``derive_view_delta`` over a plain set iterates it for every WHERE;
# given an IndexedRelation's ``lookup`` it reads one hash bucket for
# column→value WHEREs.  The two must be indistinguishable.

WIDE = RelationSchema('w', ('k', 's', 'f'), ('int', 'string', 'float'))
NAN = float('nan')


def _big_k(row):
    return row['k'] > 1


def _next_k(row):
    return row['k'] + 1


_KEYS = st.sampled_from([0, 1, 2, 3, 1.0, True, 9])
_TAGS = st.sampled_from(['x', 'y'])
_FLOATS = st.sampled_from([0.0, 1.0, 1, NAN])
_ROWS = st.tuples(st.integers(0, 3), _TAGS, _FLOATS)
_WHERES = st.one_of(
    st.builds(lambda k: {'k': k}, _KEYS),                    # key
    st.builds(lambda s: {'s': s}, _TAGS),                    # non-key
    st.builds(lambda k, s: {'k': k, 's': s}, _KEYS, _TAGS),  # multi
    st.builds(lambda k, s: {'s': s, 'k': k}, _KEYS, _TAGS),
    st.builds(lambda r: dict(zip(WIDE.attributes, r)), _ROWS),  # full row
    st.builds(lambda k: {'zzz': 1, 'k': k}, _KEYS),          # unknown first
    st.builds(lambda k: {'k': k, 'zzz': 1}, _KEYS),          # unknown last
    st.sampled_from([None, {}, _big_k, {'f': NAN}, {'f': float('nan')},
                     {'f': 1}, {'k': [1]}, {'k': 1, 's': {'x'}}]))
_ASSIGNMENTS = st.sampled_from([
    {'s': 'z'}, {'k': 5}, {'f': 2}, {'k': _next_k}, {'k': 1, 's': 'x'},
    {'zzz': 1}, {'k': 'bad'}, {}])
_STATEMENTS = st.one_of(
    st.builds(Insert, st.one_of(_ROWS, _ROWS, _ROWS,
                                st.just(('bad', 'x', 1.0)))),
    st.builds(Delete, _WHERES),
    st.builds(Update, _ASSIGNMENTS, _WHERES))


def _outcome(statements, current, **keywords):
    try:
        delta = derive_view_delta(statements, current, WIDE, **keywords)
    except (SchemaError, ViewUpdateError) as error:
        return type(error), str(error)
    return delta.insertions, delta.deletions


class _CountingSet(set):
    """A set that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestProbeEqualsScan:

    @given(st.lists(_ROWS, max_size=12),
           st.lists(_STATEMENTS, min_size=1, max_size=5))
    def test_same_delta_or_same_error(self, rows, statements):
        relation = IndexedRelation(set(rows))
        assert _outcome(statements, relation.rows,
                        probe=relation.lookup) \
            == _outcome(statements, set(rows))
        # The same through SQLite's own indexes: ``k`` and ``(k, s)``
        # are primary-key prefixes, ``s`` and ``f`` hinted.  It stores
        # no NaN (the engine refuses one), a WHERE may still hold one.
        stored = {row for row in rows if row[2] == row[2]}
        backend = SQLiteBackend(DatabaseSchema([WIDE]))
        try:
            backend.add_index_hint('w', (1,))
            backend.add_index_hint('w', (2,))
            backend.load('w', stored)
            assert _outcome(statements, backend.rows('w'),
                            probe=partial(backend.probe, 'w')) \
                == _outcome(statements, set(stored))
        finally:
            backend.close()

    def test_mapping_where_never_iterates_an_indexed_relation(self):
        rows = _CountingSet({(k, s, 0.0) for k in range(50) for s in 'xy'})
        relation = IndexedRelation(rows)
        relation.ensure_index((0,))      # the build is the one iteration
        relation.ensure_index((0, 1))
        built = rows.iterations
        statements = [Insert((7, 'z', 0.0)),
                      Update({'f': 2.0}, {'k': 7}),
                      Delete({'s': 'x', 'k': 7}),
                      Delete({'k': 1.0})]
        delta = derive_view_delta(statements, rows, WIDE,
                                  probe=relation.lookup)
        assert rows.iterations == built
        assert delta.insertions == {(7, 'z', 2.0), (7, 'y', 2.0)}
        assert delta.deletions == {(7, 'x', 0.0), (7, 'y', 0.0),
                                   (1, 'x', 0.0), (1, 'y', 0.0)}

    def test_matching_copies_the_probed_bucket(self):
        """``lookup`` hands out the live bucket; ``matching`` returns a
        list of its own, so the caller may mutate the relation next.
        Iterating a ``dict`` bucket that changes size raises
        ``RuntimeError`` (a ``list`` one would silently skip rows)."""
        rows = {(k, 'x', 0.0) for k in range(6)}
        relation = IndexedRelation(set(rows))
        relation.ensure_index((1,))
        # Re-keys the bucket by row:
        relation.difference_update({(0, 'x', 0.0)})
        bucket = relation.lookup((1,), ('x',))
        assert bucket.__class__ is dict
        state = _RunningState(relation.rows, probe=relation.lookup)
        matched = state.matching({'s': 'x'}, WIDE)
        assert matched.__class__ is list and matched is not bucket
        for row in matched:
            relation.difference_update({row})
        assert sorted(matched) == sorted(rows - {(0, 'x', 0.0)})
        assert not relation.rows and not relation._indexes[(1,)][1]

    @pytest.mark.parametrize('where', [
        None, _big_k, {}, {'zzz': 1}, {'k': [1]}])
    def test_other_shapes_scan_even_with_a_probe(self, where):
        rows = _CountingSet({(1, 'x', 0.0)})
        relation = IndexedRelation(rows)

        def probe(positions, key):
            raise AssertionError('probed')
        try:
            derive_view_delta([Delete(where)], rows, WIDE, probe=probe)
        except SchemaError:
            pass                         # the unknown column, from row 1
        assert rows.iterations == 1 and not relation._indexes


# -- INSERT runs ≡ the statement-at-a-time fold -------------------------
#
# ``derive_view_delta`` checks and composes a run of consecutive INSERTs
# as one step.  The reference below derives every statement alone,
# against the running state materialised as a set.

_RUN_ROWS = st.tuples(st.integers(0, 2), st.sampled_from(['x', 'y']),
                      st.sampled_from([0.0, 1.5]))
_RUN_WHERES = st.one_of(
    st.builds(lambda k: {'k': k}, st.integers(0, 2)),
    st.builds(lambda s: {'s': s}, st.sampled_from(['x', 'y'])),
    st.builds(lambda r: dict(zip(WIDE.attributes, r)), _RUN_ROWS),
    st.just(None))
_RUN_STATEMENTS = st.lists(st.one_of(
    st.builds(Insert, _RUN_ROWS), st.builds(Insert, _RUN_ROWS),
    st.builds(Insert, _RUN_ROWS),
    st.sampled_from([Insert((1, 'x')),                   # wrong arity
                     Insert(('bad', 'x', 1.0))]),        # wrong type
    st.builds(Delete, _RUN_WHERES),
    st.builds(Update, st.sampled_from([{'s': 'z'}, {'k': 2}, {'f': 0.0},
                                       {'k': 'bad'}]), _RUN_WHERES)),
    min_size=1, max_size=12)


def _statement_fold(statements, current):
    """(Δ⁺, Δ⁻) of ``statements`` one at a time, or the first error."""
    state = set(current)
    try:
        for statement in statements:
            if isinstance(statement, Insert):
                WIDE.validate_tuple(statement.values)
                state.add(statement.values)
                continue
            victims = {row for row in state
                       if match_where(row, statement.where, WIDE)}
            state -= victims
            if isinstance(statement, Update):
                for row in victims:
                    named = dict(zip(WIDE.attributes, row))
                    named.update(statement.assignments)
                    new_row = tuple(named[a] for a in WIDE.attributes)
                    WIDE.validate_tuple(new_row)
                    state.add(new_row)
    except SchemaError as error:
        return type(error), str(error)
    return state - current, current - state


class TestInsertRunsEqualTheStatementFold:

    @given(st.lists(_RUN_ROWS, max_size=8), _RUN_STATEMENTS)
    def test_same_delta_or_same_first_error(self, rows, statements):
        """Duplicate rows, a row deleted and inserted again, and a
        refused row inside a run included."""
        current = frozenset(rows)
        expected = _statement_fold(statements, current)
        assert _outcome(statements, current) == expected

    @pytest.mark.parametrize('backend', ['memory', 'sqlite'])
    @given(rows=st.lists(_RUN_ROWS, max_size=8),
           statements=_RUN_STATEMENTS)
    def test_engine_applies_the_fold(self, backend, rows, statements):
        """The same through an engine's own table, its hash indexes or
        SQLite's answering the WHEREs: the table ends as the fold says,
        or the statement's error leaves it as it was."""
        expected = _statement_fold(statements, frozenset(rows))
        if expected[0] is not SchemaError:
            plus, minus = expected
            expected = (set(rows) - minus) | plus
        with Engine(DatabaseSchema([WIDE]), backend=backend) as engine:
            engine.load('w', set(rows))
            try:
                engine.execute('w', statements)
                outcome = set(engine.rows('w'))
            except SchemaError as error:
                assert engine.rows('w') == set(rows)
                outcome = type(error), str(error)
        assert outcome == expected


# -- the same, through a memory engine, as counts ------------------------

def _luxury_engine(n, incremental=True):
    """A memory engine over ``items`` with ``n`` rows, all of them in
    the materialised ``luxuryitems`` view, and both stored relations'
    row sets swapped for iteration-counting ones."""
    from tests.conftest import LUXURY_GET, LUXURY_PUTDELTA
    sources = DatabaseSchema.build(
        items={'iid': 'int', 'iname': 'string', 'price': 'int'},
        audit={'iid': 'int'})
    engine = Engine(sources, backend='memory')
    engine.load('items', [(i, f'item{i}', 2000 + i) for i in range(n)])
    engine.define_view(UpdateStrategy.parse(
        'luxuryitems', sources, LUXURY_PUTDELTA, expected_get=LUXURY_GET),
        validate_first=False, use_incremental=incremental)
    assert len(engine.rows('luxuryitems')) == n
    stored = [engine.backend.eval_handle(name)
              for name in ('luxuryitems', 'items')]
    for relation in stored:
        relation.rows = _CountingSet(relation.rows)
    return engine, stored


def _keyed_round(engine, key):
    """One statement of each indexed shape: keyed UPDATE, keyed DELETE,
    and a DELETE on a column that is no key."""
    engine.update('luxuryitems', {'iname': 'marked'}, where={'iid': key})
    engine.update('luxuryitems', {'iname': 'marked'},
                  where={'iid': key + 1})
    engine.delete('luxuryitems', where={'iid': key + 2})
    engine.delete('luxuryitems', where={'iname': 'marked'})


class TestIndexProbedEngineStatements:

    @pytest.mark.parametrize('n', [2_000, 64_000])
    def test_mapping_where_iterates_no_stored_relation(self, n):
        engine, stored = _luxury_engine(n)
        _keyed_round(engine, 10)         # warm-up: builds the indexes
        for relation in stored:
            relation.rows.iterations = 0
        _keyed_round(engine, 20)
        assert [relation.rows.iterations for relation in stored] == [0, 0]
        gone = {10, 11, 12, 20, 21, 22}
        assert engine.rows('items') == {
            (i, f'item{i}', 2000 + i) for i in range(n) if i not in gone}
        assert engine.rows('luxuryitems') == engine.rows('items')
        counters = engine.metrics.snapshot()['counters']
        assert counters['dml.where_probes'] == 8
        assert 'dml.where_scans' not in counters

    def test_callable_where_still_scans(self):
        engine, (view, _items) = _luxury_engine(50)
        engine.delete('luxuryitems', where=lambda row: row['iid'] == 7)
        assert view.rows.iterations == 1
        counters = engine.metrics.snapshot()['counters']
        assert counters['dml.where_scans'] == 1
        assert 'dml.where_probes' not in counters
        assert (7, 'item7', 2007) not in engine.rows('items')

    @pytest.mark.parametrize('incremental', [True, False])
    def test_staged_view_falls_back_to_the_overlay_scan(self, incremental):
        """A second bucket on a view the transaction already wrote reads
        the copied overlay, which has no index: scan, same result,
        whichever plan translates the view."""
        engine, (view, _items) = _luxury_engine(50, incremental)
        engine.execute_many([
            ('luxuryitems', [Update({'iname': 'first'}, {'iid': 3})]),
            ('audit', [Insert((3,))]),
            ('luxuryitems', [Update({'price': 9000}, {'iname': 'first'}),
                             Delete({'iid': 4})]),
        ])
        counters = engine.metrics.snapshot()['counters']
        assert counters['dml.where_probes'] == 1
        assert counters['dml.where_scans'] == 2
        expected = {(i, f'item{i}', 2000 + i) for i in range(50)
                    if i not in (3, 4)} | {(3, 'first', 9000)}
        assert engine.rows('items') == expected
        assert engine.rows('luxuryitems') == expected

    def test_rematerialised_cache_comes_back_indexed(self):
        """A mask statement derivation probed is an index hint: the
        cache a foreign base write dropped is rebuilt with it."""
        engine, _stored = _luxury_engine(50)
        engine.update('luxuryitems', {'iname': 'x'}, where={'iid': 3})
        engine.insert('items', (99, 'direct', 5000))     # drops the cache
        assert not engine.backend.has_cache('luxuryitems')
        engine.rows('luxuryitems')
        rebuilt = engine.backend.eval_handle('luxuryitems')
        assert (0,) in rebuilt._indexes
        rebuilt.rows = _CountingSet(rebuilt.rows)
        engine.delete('luxuryitems', where={'iid': 99})
        assert rebuilt.rows.iterations == 0
        assert (99, 'direct', 5000) not in engine.rows('items')
