"""Tests for the GetPut / PutGet composition programs (§4.3–4.4)."""

from repro.core.putget import (getput_check_program, new_source_rules,
                               putget_check_program)
from repro.datalog.evaluator import evaluate
from repro.datalog.parser import parse_program
from repro.relational.database import Database
from repro.relational.delta import DeltaSet


class TestNewSourceRules:

    def test_rnew_shapes(self, union_strategy):
        rename, rules = new_source_rules(union_strategy.putdelta,
                                         union_strategy.sources)
        assert rename == {'r1': 'r1_new', 'r2': 'r2_new'}
        # r1 has +/- rules: two rnew rules; r2 only deletion: one rule.
        r1_rules = [r for r in rules if r.head.pred == 'r1_new']
        r2_rules = [r for r in rules if r.head.pred == 'r2_new']
        assert len(r1_rules) == 2
        assert len(r2_rules) == 1

    def test_rnew_computes_updated_source(self, union_strategy):
        _rename, rules = new_source_rules(union_strategy.putdelta,
                                          union_strategy.sources)
        program = parse_program('')
        from repro.datalog.ast import Program
        program = Program(union_strategy.putdelta.proper_rules() + rules)
        edb = Database.from_dict({'r1': {(1,)}, 'r2': {(2,), (4,)},
                                  'v': {(1,), (3,), (4,)}})
        out = evaluate(program, edb)
        assert out['r1_new'] == {(1,), (3,)}
        assert out['r2_new'] == {(4,)}


class TestPutGetComposition:

    def test_putget_program_matches_paper(self, union_strategy):
        # §4.4 lists the exact composed program for Example 4.1; check the
        # composed result semantically: v_new == get(put(S, V)).
        program, (extra, missing) = putget_check_program(
            union_strategy.putdelta, union_strategy.expected_get, 'v', 1,
            union_strategy.sources)
        edb = Database.from_dict({'r1': {(1,)}, 'r2': {(2,), (4,)},
                                  'v': {(1,), (3,), (4,)}})
        out = evaluate(program, edb)
        assert out['v_new'] == {(1,), (3,), (4,)}
        assert not out[extra]
        assert not out[missing]

    def test_putget_detects_extra_tuples(self, union_sources):
        # A bad strategy that inserts into BOTH relations yields no
        # violation, but one that fails to delete does.
        from repro.core.strategy import UpdateStrategy
        bad = UpdateStrategy.parse('v', union_sources, """
            +r1(X) :- v(X), not r1(X), not r2(X).
        """, expected_get='v(X) :- r1(X).\nv(X) :- r2(X).')
        program, (extra, missing) = putget_check_program(
            bad.putdelta, bad.expected_get, 'v', 1, bad.sources)
        # Source tuple (9,) not in updated view V={(1,)}: never deleted.
        edb = Database.from_dict({'r1': {(9,)}, 'r2': set(),
                                  'v': {(1,)}})
        out = evaluate(program, edb)
        assert (9,) in out[extra]

    def test_putget_detects_missing_tuples(self, union_sources):
        from repro.core.strategy import UpdateStrategy
        bad = UpdateStrategy.parse('v', union_sources, """
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
        """, expected_get='v(X) :- r1(X).\nv(X) :- r2(X).')
        program, (extra, missing) = putget_check_program(
            bad.putdelta, bad.expected_get, 'v', 1, bad.sources)
        # Inserting (3,) into the view is never propagated.
        edb = Database.from_dict({'r1': set(), 'r2': set(), 'v': {(3,)}})
        out = evaluate(program, edb)
        assert (3,) in out[missing]


class TestGetPutPrograms:

    def test_one_check_per_delta(self, union_strategy):
        program, goals = getput_check_program(
            union_strategy.putdelta, union_strategy.expected_get, 'v',
            union_strategy.sources)
        assert set(goals) == {'__gp_ins_r1__', '__gp_del_r1__',
                              '__gp_del_r2__'}
        # One program carries every goal; no rule reads one.
        assert {rule.head.pred for rule in program.rules[-3:]} == set(goals)
        assert not any(set(goals) & rule.body_preds()
                       for rule in program.rules)

    def test_steady_state_has_no_effective_delta(self, union_strategy):
        program, goals = getput_check_program(
            union_strategy.putdelta, union_strategy.expected_get, 'v',
            union_strategy.sources)
        edb = Database.from_dict({'r1': {(1,)}, 'r2': {(2,)}})
        out = evaluate(program, edb)
        for goal in goals:
            assert not out[goal], goal

    def test_violating_get_produces_witness_rows(self, union_sources):
        from repro.core.strategy import UpdateStrategy
        # Wrong expected get (only r1): deleting r2 rows in steady state.
        strategy = UpdateStrategy.parse('v', union_sources, """
            -r2(X) :- r2(X), not v(X).
        """, expected_get='v(X) :- r1(X).')
        program, goals = getput_check_program(
            strategy.putdelta, strategy.expected_get, 'v',
            strategy.sources)
        edb = Database.from_dict({'r1': set(), 'r2': {(7,)}})
        goal, = goals
        assert evaluate(program, edb)[goal] == {(7,)}


# ---------------------------------------------------------------------------
# Hypothesis-driven round-trip laws (PutGet / GetPut), per backend
# ---------------------------------------------------------------------------
#
# §4.3–4.4 verify the laws *statically*; these run them dynamically over
# randomly generated view states and deltas, through the full engine
# pipeline on each storage backend: the validated strategy must satisfy
#
#     PutGet:  get(put(S, V')) = V'     for any reachable V'
#     GetPut:  put(S, get(S))  = S      (a no-op round trip)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategy import UpdateStrategy
from repro.errors import ConstraintViolation
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.engine import Engine
from repro.relational.schema import DatabaseSchema

BACKENDS = ('memory', 'sqlite')

_int_rows = st.frozensets(st.tuples(st.integers(0, 12)), max_size=8)
_lux_rows = st.frozensets(
    st.tuples(st.integers(0, 20), st.sampled_from(['a', 'b', 'c']),
              st.integers(1, 3000)), max_size=8)
_lux_view_rows = st.frozensets(
    st.tuples(st.integers(0, 20), st.sampled_from(['a', 'b', 'c']),
              st.integers(1001, 3000)), max_size=8)

_CACHE: dict = {}


def _strategy(name: str) -> UpdateStrategy:
    if name in _CACHE:
        return _CACHE[name]
    if name == 'union':
        strategy = UpdateStrategy.parse(
            'v', DatabaseSchema.build(r1={'a': 'int'}, r2={'a': 'int'}),
            """
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
            +r1(X) :- v(X), not r1(X), not r2(X).
            """, expected_get='v(X) :- r1(X).\nv(X) :- r2(X).')
    else:
        strategy = UpdateStrategy.parse(
            'luxuryitems', DatabaseSchema.build(
                items={'iid': 'int', 'iname': 'string', 'price': 'int'}),
            """
            ⊥ :- luxuryitems(I, N, P), not P > 1000.
            +items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
            expensive(I, N, P) :- items(I, N, P), P > 1000.
            -items(I, N, P) :- expensive(I, N, P),
                not luxuryitems(I, N, P).
            """,
            expected_get='luxuryitems(I, N, P) :- items(I, N, P), '
                         'P > 1000.')
    _CACHE[name] = strategy
    return strategy


def _engine(name: str, backend: str, loads: dict) -> Engine:
    strategy = _strategy(name)
    engine = Engine(strategy.sources, backend=backend)
    for relation, rows in loads.items():
        engine.load(relation, rows)
    engine.define_view(strategy, validate_first=False)
    return engine


def _reach(engine, view: str, target_rows) -> None:
    """Drive the view to an arbitrary state V' through plain DML."""
    engine.execute(view, [Delete(None)] +
                   [Insert(row) for row in sorted(target_rows)])


class TestPutGetLaw:

    @pytest.mark.parametrize('backend', BACKENDS)
    @given(r1=_int_rows, r2=_int_rows, target=_int_rows)
    @settings(deadline=None, max_examples=40)
    def test_union_putget(self, backend, r1, r2, target):
        engine = _engine('union', backend, {'r1': r1, 'r2': r2})
        _reach(engine, 'v', target)
        # PutGet on the live cache…
        assert frozenset(engine.rows('v')) == target
        # …and on a cold engine rebuilt from the committed sources.
        rebuilt = _engine('union', backend, {
            'r1': engine.rows('r1'), 'r2': engine.rows('r2')})
        assert frozenset(rebuilt.rows('v')) == target

    @pytest.mark.parametrize('backend', BACKENDS)
    @given(items=_lux_rows, target=_lux_view_rows)
    @settings(deadline=None, max_examples=40)
    def test_luxury_putget(self, backend, items, target):
        engine = _engine('luxury', backend, {'items': items})
        _reach(engine, 'luxuryitems', target)
        assert frozenset(engine.rows('luxuryitems')) == target
        rebuilt = _engine('luxury', backend,
                          {'items': engine.rows('items')})
        assert frozenset(rebuilt.rows('luxuryitems')) == target

    @pytest.mark.parametrize('backend', BACKENDS)
    @given(items=_lux_rows,
           cheap=st.tuples(st.integers(50, 60), st.just('x'),
                           st.integers(0, 1000)))
    @settings(deadline=None, max_examples=25)
    def test_luxury_unreachable_state_rejected(self, backend, items,
                                               cheap):
        """States violating the ⊥-constraint are not reachable, and the
        attempt leaves S untouched (PutGet trivially preserved)."""
        engine = _engine('luxury', backend, {'items': items})
        before = engine.database()
        with pytest.raises(ConstraintViolation):
            engine.insert('luxuryitems', cheap)
        assert engine.database() == before


class TestGetPutLaw:

    @pytest.mark.parametrize('backend', BACKENDS)
    @given(r1=_int_rows, r2=_int_rows)
    @settings(deadline=None, max_examples=40)
    def test_union_getput(self, backend, r1, r2):
        engine = _engine('union', backend, {'r1': r1, 'r2': r2})
        current = sorted(engine.rows('v'))
        # Re-asserting the current view is a no-op on the sources.
        engine.execute('v', [Insert(row) for row in current])
        assert frozenset(engine.rows('r1')) == r1
        assert frozenset(engine.rows('r2')) == r2

    @pytest.mark.parametrize('backend', BACKENDS)
    @given(items=_lux_rows)
    @settings(deadline=None, max_examples=40)
    def test_luxury_getput(self, backend, items):
        engine = _engine('luxury', backend, {'items': items})
        strategy = _strategy('luxury')
        source = engine.database()
        delta = strategy.compute_delta(source, engine.rows('luxuryitems'))
        effective = DeltaSet({name: piece.effective_on(source[name])
                              for name, piece in delta.deltas.items()})
        assert effective.is_empty(), str(effective)
