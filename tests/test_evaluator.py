"""Evaluator tests: joins, negation, builtins, laziness, indexes."""

from contextlib import nullcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datalog.evaluator import (IndexedRelation, constraint_violations,
                                     evaluate, evaluate_query)
from repro.datalog.parser import parse_program
from repro.errors import SchemaError
from repro.relational.database import Database
from tests import _generic_tier as generic_tier


def db(**relations):
    return Database.from_dict(relations)


class _Counted:
    """A value that counts every ``==`` asked of any instance."""

    calls = 0
    __slots__ = ('value',)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return hash(self.value)

    def __eq__(self, other):
        _Counted.calls += 1
        return isinstance(other, _Counted) and self.value == other.value


class TestBasicEvaluation:

    def test_copy_rule(self):
        out = evaluate(parse_program('v(X) :- r(X).'), db(r={(1,), (2,)}))
        assert out['v'] == {(1,), (2,)}

    def test_union(self):
        program = parse_program('v(X) :- r1(X).\nv(X) :- r2(X).')
        out = evaluate(program, db(r1={(1,)}, r2={(2,)}))
        assert out['v'] == {(1,), (2,)}

    def test_join(self):
        program = parse_program('v(X, Z) :- r(X, Y), s(Y, Z).')
        out = evaluate(program, db(r={(1, 'a'), (2, 'b')},
                                   s={('a', 10), ('a', 11)}))
        assert out['v'] == {(1, 10), (1, 11)}

    def test_projection(self):
        program = parse_program('v(X) :- r(X, _).')
        out = evaluate(program, db(r={(1, 'a'), (1, 'b'), (2, 'c')}))
        assert out['v'] == {(1,), (2,)}

    def test_selection_with_constant(self):
        program = parse_program("v(X) :- r(X, 'keep').")
        out = evaluate(program, db(r={(1, 'keep'), (2, 'drop')}))
        assert out['v'] == {(1,)}

    def test_repeated_variable_in_atom(self):
        program = parse_program('v(X) :- r(X, X).')
        out = evaluate(program, db(r={(1, 1), (1, 2)}))
        assert out['v'] == {(1,)}

    def test_layered_idb(self):
        program = parse_program('a(X) :- r(X).\nb(X) :- a(X), s(X).')
        out = evaluate(program, db(r={(1,), (2,)}, s={(2,), (3,)}))
        assert out['b'] == {(2,)}

    def test_missing_relation_reads_empty(self):
        out = evaluate(parse_program('v(X) :- nothing(X).'), db())
        assert out['v'] == frozenset()


class TestNegation:

    def test_difference(self):
        program = parse_program('v(X) :- r(X), not s(X).')
        out = evaluate(program, db(r={(1,), (2,)}, s={(2,)}))
        assert out['v'] == {(1,)}

    def test_negated_idb(self):
        program = parse_program("""
            a(X) :- r(X), X > 1.
            v(X) :- r(X), not a(X).
        """)
        out = evaluate(program, db(r={(1,), (2,)}))
        assert out['v'] == {(1,)}

    def test_negation_with_anonymous_wildcard(self):
        # not s(X, _) means "no s-tuple with first column X".
        program = parse_program('v(X) :- r(X), not s(X, _).')
        out = evaluate(program, db(r={(1,), (2,)}, s={(2, 'x')}))
        assert out['v'] == {(1,)}

    @pytest.mark.parametrize('sealing', [True, False],
                             ids=['sealed', 'generic'])
    @pytest.mark.parametrize('body', ['t(X), not aux(X, _y), s(_y, _)',
                                      't(X), s(_y, _), not aux(X, _y)',
                                      's(_y, _), t(X), not aux(X, _y)'])
    def test_underscore_name_bound_elsewhere_is_no_wildcard(
            self, body, sealing):
        # s(_y, _) binds _y, so the negation reads that value — not "any"
        # — wherever it stands in the body, run after run.
        program = parse_program(f'p(X) :- {body}.')
        edb = db(t={(1,), (3,)}, aux={(1, 5), (3, 7)}, s={(7, 0), (9, 0)})
        with nullcontext() if sealing else generic_tier.installed():
            for _ in range(2):
                assert evaluate(program, edb)['p'] == {(1,), (3,)}

    def test_idb_shadowing(self):
        # When the program defines v, an EDB relation named v is hidden.
        program = parse_program('v(X) :- r(X).')
        out = evaluate(program, db(r={(1,)}, v={(9,)}))
        assert out['v'] == {(1,)}


class TestBuiltins:

    def test_comparison(self):
        program = parse_program('v(X) :- r(X), X > 10.')
        out = evaluate(program, db(r={(5,), (15,)}))
        assert out['v'] == {(15,)}

    def test_equality_binds(self):
        program = parse_program("v(X, Y) :- r(X), Y = 'tag'.")
        out = evaluate(program, db(r={(1,)}))
        assert out['v'] == {(1, 'tag')}

    def test_negated_equality(self):
        program = parse_program('v(X) :- r(X), not X = 2.')
        out = evaluate(program, db(r={(1,), (2,)}))
        assert out['v'] == {(1,)}

    def test_string_comparison_is_lexicographic(self):
        program = parse_program("v(X) :- r(X), X > '1962-06-01'.")
        out = evaluate(program, db(r={('1962-01-01',), ('1962-12-31',)}))
        assert out['v'] == {('1962-12-31',)}

    def test_mixed_type_comparison_raises(self):
        program = parse_program('v(X) :- r(X), X > 5.')
        with pytest.raises(SchemaError):
            evaluate(program, db(r={('abc',)}))

    def test_le_ge(self):
        program = parse_program('v(X) :- r(X), X >= 2, X <= 3.')
        out = evaluate(program, db(r={(1,), (2,), (3,), (4,)}))
        assert out['v'] == {(2,), (3,)}


class TestQueriesAndConstraints:

    def test_evaluate_query(self):
        program = parse_program('v(X) :- r(X).')
        assert evaluate_query(program, db(r={(1,)}), 'v') == {(1,)}

    def test_constraint_violation_detected(self):
        program = parse_program('⊥ :- r(X), X > 2.')
        violations = constraint_violations(program, db(r={(5,)}))
        assert len(violations) == 1
        assert violations[0][1] == (5,)

    def test_constraint_satisfied(self):
        program = parse_program('⊥ :- r(X), X > 2.')
        assert constraint_violations(program, db(r={(1,)})) == []

    def test_constraint_over_idb(self):
        program = parse_program("""
            big(X) :- r(X), X > 10.
            ⊥ :- big(X).
        """)
        assert constraint_violations(program, db(r={(20,)}))
        assert not constraint_violations(program, db(r={(5,)}))


class TestFirstWitnessMode:
    """The short-circuit mode of ``execute_constraints``: stop at the
    first witness of the first violated rule."""

    def test_stops_at_first_violated_rule(self):
        from repro.datalog.plan import compile_program
        program = parse_program("""
            ⊥ :- r(X), X > 2.
            ⊥ :- r(X), X < 0.
        """)
        plan = compile_program(program)
        edb = db(r={(-1,), (5,), (7,)})
        full = plan.constraint_violations(edb)
        assert len(full) == 2
        first = plan.constraint_violations(edb, first_witness=True)
        assert len(first) == 1
        rule, witness = first[0]
        assert witness in {(-1,), (5,), (7,)}

    def test_run_rule_limit_stops_enumeration(self):
        from repro.datalog.evaluator import _PlanContext, _run_rule
        from repro.datalog.plan import compile_rule
        rule = parse_program('h(X) :- r(X).').rules[0]
        plan = compile_rule(rule)
        ctx = _PlanContext({'r': {(i,) for i in range(100)}})
        out: set = set()
        _run_rule(plan, ctx, out, limit=1)
        assert len(out) == 1
        unlimited: set = set()
        _run_rule(plan, ctx, unlimited)
        assert len(unlimited) == 100

    def test_satisfied_constraints_agree(self):
        from repro.datalog.plan import compile_program
        plan = compile_program(parse_program('⊥ :- r(X), X > 2.'))
        edb = db(r={(1,)})
        assert plan.constraint_violations(edb) == []
        assert plan.constraint_violations(edb, first_witness=True) == []


class TestProbeMemoization:

    def test_repeated_probes_run_rules_once(self, monkeypatch):
        from repro.datalog import evaluator
        from repro.datalog.plan import compile_program
        program = parse_program("""
            aux(X) :- r(X).
            v(X) :- s(X), aux(X).
        """)
        plan = compile_program(program)
        ctx = evaluator._PlanContext({'r': {(1,)}, 's': set()}, plan)
        calls = []
        original = evaluator._probe_rule

        def counted(rule_plan, c, row):
            calls.append(row)
            return original(rule_plan, c, row)

        monkeypatch.setattr(evaluator, '_probe_rule', counted)
        assert ctx.probe('aux', (1,)) is True
        assert ctx.probe('aux', (1,)) is True      # memoized
        assert ctx.probe('aux', (2,)) is False
        assert ctx.probe('aux', (2,)) is False     # negative memoized
        assert calls == [(1,), (2,)]


class TestLazyEvaluation:

    def test_goals_limits_materialisation(self):
        program = parse_program("""
            cheap(X) :- r(X).
            expensive(X) :- r(X), s(X).
            v(X) :- cheap(X).
        """)
        out = evaluate(program, db(r={(1,)}, s={(1,)}), goals=('v',))
        assert out['v'] == {(1,)}
        assert 'expensive' not in out.names()

    def test_fully_bound_idb_probe(self):
        # `aux` is only probed with bound arguments: the lazy path.
        program = parse_program("""
            aux(X) :- big(X, _).
            v(X) :- small(X), not aux(X).
        """)
        out = evaluate(program, db(small={(1,), (2,)}, big={(2, 9)}),
                       goals=('v',))
        assert out['v'] == {(1,)}

    def test_probe_head_constants(self):
        program = parse_program("""
            tagged(X, 'yes') :- r(X).
            v(X) :- s(X), tagged(X, 'yes').
        """)
        out = evaluate(program, db(r={(1,)}, s={(1,), (2,)}), goals=('v',))
        assert out['v'] == {(1,)}


class TestIndexedRelation:

    def test_lookup_builds_index(self):
        rel = IndexedRelation(frozenset({(1, 'a'), (2, 'b'), (1, 'c')}))
        assert set(rel.lookup((0,), (1,))) == {(1, 'a'), (1, 'c')}

    def test_fully_bound_exists(self):
        rel = IndexedRelation(frozenset({(1, 'a')}))
        assert rel.exists((0, 1), (1, 'a'), 2)
        assert not rel.exists((0, 1), (1, 'x'), 2)

    def test_add_maintains_indexes(self):
        rel = IndexedRelation({(1, 'a')})
        assert set(rel.lookup((0,), (1,))) == {(1, 'a')}
        rel.update({(1, 'b')})
        assert set(rel.lookup((0,), (1,))) == {(1, 'a'), (1, 'b')}

    def test_discard_maintains_indexes(self):
        rel = IndexedRelation({(1, 'a'), (1, 'b')})
        rel.lookup((0,), (1,))
        rel.difference_update({(1, 'a')})
        assert set(rel.lookup((0,), (1,))) == {(1, 'b')}
        rel.difference_update({(1, 'b')})
        assert rel.lookup((0,), (1,)) == ()

    def test_add_existing_is_noop(self):
        rel = IndexedRelation({(1,)})
        rel.update({(1,)})
        assert rel.rows == {(1,)}

    def test_bucket_keeps_insertion_order_across_shrink_and_regrow(self):
        rel = IndexedRelation(set())
        rel.ensure_index((0,))
        for tag in 'abc':
            rel.update({(1, tag)})
        assert list(rel.lookup((0,), (1,))) == [(1, 'a'), (1, 'b'),
                                                (1, 'c')]
        rel.difference_update({(1, 'a')})
        rel.difference_update({(1, 'b')})
        assert list(rel.lookup((0,), (1,))) == [(1, 'c')]
        rel.update({(1, 'd')})
        rel.update({(1, 'a')})
        assert list(rel.lookup((0,), (1,))) == [(1, 'c'), (1, 'd'),
                                                (1, 'a')]
        rel.difference_update({(1, 'd')})  # list -> dict, order kept
        rel.update({(1, 'e')})
        bucket = rel.lookup((0,), (1,))
        assert bucket.__class__ is dict
        assert list(bucket) == [(1, 'c'), (1, 'a'), (1, 'e')]

    @pytest.mark.parametrize('k', [500, 2_000])
    def test_discarding_a_crowded_bucket_compares_no_rows(self, k):
        """Deleting all k rows of one bucket, newest first, is O(k) in
        total: no row of the bucket is compared with another (a
        ``list.remove`` per delete would make ~k²/2 comparisons)."""
        rows = [(_Counted(i), 'same') for i in range(k)]
        rel = IndexedRelation(set(rows))
        rel.ensure_index((1,))
        newest_first = list(rel.lookup((1,), ('same',)))[::-1]
        _Counted.calls = 0
        for row in newest_first:
            rel.difference_update({row})
        assert _Counted.calls <= k
        assert not rel.rows and not rel._indexes[(1,)][1]

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 9)),
                    max_size=40))
    def test_insert_only_relation_keeps_list_buckets(self, rows):
        """A relation that is only built and added to — a solver world,
        a load, a plan run's snapshot — never pays for a dict bucket."""
        half = len(rows) // 2
        rel = IndexedRelation(set(rows[:half]))
        for mask in ((0,), (1,), (0, 1)):
            rel.ensure_index(mask)
        for row in rows[half:]:
            rel.update({row})
        for _key_of, index in rel._indexes.values():
            assert not any(bucket.__class__ is dict
                           for bucket in index.values())

    @pytest.mark.parametrize('mask', [(0,), (1,), (2,), (1, 2)],
                             ids=['unique', 'colliding', 'two-valued',
                                  'pair'])
    def test_built_index_matches_one_grown_row_by_row(self, mask):
        """``ensure_index`` over stored rows gives every key the bucket
        that adding the same rows one at a time gives — same rows, same
        order — before and after later discards."""
        rows = {(i, i // 3, i % 2) for i in range(40)}
        built = IndexedRelation(set(rows))
        built.ensure_index(mask)
        grown = IndexedRelation(set())
        grown.ensure_index(mask)
        for row in built.rows:
            grown.update({row})

        def buckets(rel):
            return {key: list(rel.lookup(mask, key))
                    for key in {tuple(row[p] for p in mask)
                                for row in rows}}

        assert buckets(built) == buckets(grown)
        for row in sorted(rows)[::7]:
            built.difference_update({row})
            grown.difference_update({row})
        assert buckets(built) == buckets(grown)

    def test_single_column_mask_is_keyed_by_the_bare_value(self):
        """``1``, ``1.0`` and ``True`` are one key, as under ``==``."""
        rel = IndexedRelation({(1, 'a'), (2, 'b')})
        for key in (1, 1.0, True):
            assert list(rel.lookup((0,), (key,))) == [(1, 'a')]
        assert list(rel.lookup((0, 1), (1.0, 'a'))) == [(1, 'a')]

    def test_clear_empties_rows_and_indexes_in_place(self):
        rows = {(1, 'a'), (1, 'b')}
        rel = IndexedRelation(rows)
        rel.ensure_index((0,))
        rel.clear()
        assert not rel.rows and not rel._indexes
        assert rows == {(1, 'a'), (1, 'b')}      # the holder's set stays

    @given(st.data())
    def test_indexes_follow_any_interleaving_of_add_and_discard(self, data):
        """Model test: after every step each built index equals one
        rebuilt from ``rows``, every bucket iterates in insertion
        order (across a list bucket's conversion to a dict), an emptied
        bucket leaves no key behind, and a bucket a discard touched is
        never a list while it holds several rows."""
        value = st.integers(0, 2)
        row = st.tuples(value, value, st.sampled_from('wxyz'))
        masks = [(0,), (1,), (0, 1), (1, 2)]
        rel = IndexedRelation(set(data.draw(st.lists(row, max_size=12))))
        order: dict = {}                # mask -> rows, oldest first
        touched: set = set()            # (mask, key) a discard hit

        def key_of(mask, r):
            return tuple(r[p] for p in mask)

        def bucket_of(mask, key):
            return rel._indexes[mask][1].get(
                key[0] if len(mask) == 1 else key)

        first = data.draw(st.lists(st.sampled_from(masks), unique=True,
                                   min_size=1))
        steps = [('index', None, mask) for mask in first] \
            + data.draw(st.lists(st.tuples(
                st.sampled_from(['add', 'discard', 'index']), row,
                st.sampled_from(masks)), max_size=40))
        for op, r, mask in steps:
            if op == 'index':
                if mask not in order:
                    order[mask] = list(rel.rows)   # the build's order
                rel.ensure_index(mask)
            elif op == 'add':
                if r not in rel.rows:
                    for rows in order.values():
                        rows.append(r)
                rel.update({r})
            else:
                for built_mask, rows in order.items():
                    if r in rows:
                        rows.remove(r)
                        touched.add((built_mask, key_of(built_mask, r)))
                rel.difference_update({r})
            for touched_mask, key in list(touched):
                bucket = bucket_of(touched_mask, key)
                if bucket is None or bucket.__class__ is tuple:
                    touched.discard((touched_mask, key))   # fresh again
                else:
                    assert bucket.__class__ is dict
            assert set(rel._indexes) == set(order)
            fresh = IndexedRelation(set(rel.rows))
            for mask, rows in order.items():
                assert set(rows) == rel.rows
                fresh.ensure_index(mask)
                built, rebuilt = rel._indexes[mask][1], \
                    fresh._indexes[mask][1]
                assert set(built) == set(rebuilt)      # no stale key
                for key in {key_of(mask, r) for r in rows}:
                    expected = [r for r in rows if key_of(mask, r) == key]
                    assert list(rel.lookup(mask, key)) == expected
                    assert set(fresh.lookup(mask, key)) == set(expected)

    def test_evaluate_accepts_indexed_relations(self):
        program = parse_program('v(X) :- r(X), not s(X).')
        edb = {'r': IndexedRelation({(1,), (2,)}),
               's': IndexedRelation({(2,)})}
        assert evaluate(program, edb)['v'] == {(1,)}
