"""Incrementalization tests (§5, Lemma 5.2, Appendix C).

The headline property: for a valid strategy in a steady state, the
incremental program produces the same updated source as the full putback
program, for arbitrary view deltas (Proposition 5.1).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.catalog import entry_by_name
from repro.core.incremental import (_delta_form, binarize, incrementalize,
                                    incrementalize_general,
                                    incrementalize_lvgn)
from repro.core.strategy import UpdateStrategy
from repro.datalog.ast import (Program, delete_pred, insert_pred,
                               is_delta_pred)
from repro.datalog.evaluator import evaluate
from repro.datalog.parser import parse_program
from repro.datalog.pretty import pretty
from repro.relational.database import Database
from repro.relational.delta import DeltaSet
from tests.test_put_oracle import GENERAL_PATH


def incremental_matches_full(strategy, get_text, source, delta_plus,
                             delta_minus, *, general=False):
    """Prop. 5.1: S ⊕ putdelta(S, V') == S ⊕ ∂put(S, V, ΔV)."""
    get_program = parse_program(get_text)
    view = strategy.view.name
    current = evaluate(get_program, source)[view]
    delta_plus = frozenset(delta_plus) - current
    delta_minus = frozenset(delta_minus) & current
    new_view = (current - delta_minus) | delta_plus

    full = strategy.put(source, new_view, enforce_constraints=False)

    if general:
        dput = incrementalize_general(strategy.putdelta, view)
    else:
        dput = incrementalize_lvgn(strategy.putdelta, view)
    edb = dict(source.relations)
    edb[view] = current
    edb[insert_pred(view)] = delta_plus
    edb[delete_pred(view)] = delta_minus
    out = evaluate(dput, edb)
    deltas = DeltaSet.from_database(out,
                                    relations=strategy.updated_relations())
    incremental = DeltaSet({
        name: delta.effective_on(source[name])
        for name, delta in deltas.deltas.items()}).apply_to(source)
    assert incremental == full, (pretty(dput), deltas)


class TestLvgnShortcut:

    def test_example_5_2_shape(self):
        # The paper's Example 5.2 derived program, up to rule order.
        putdelta = parse_program("""
            +r(X, Y) :- v(X, Y), not r(X, Y).
            m(X, Y) :- r(X, Y), Y > 2.
            -r(X, Y) :- m(X, Y), not v(X, Y).
        """)
        dput = incrementalize_lvgn(putdelta, 'v')
        text = pretty(dput)
        assert '+r(X, Y) :- +v(X, Y), not r(X, Y).' in text
        assert '-v(X, Y)' in text
        assert 'v(X, Y),' not in text.replace('+v', '').replace('-v', '')

    def test_view_free_delta_rules_dropped(self):
        putdelta = parse_program("""
            +r(X) :- v(X), not r(X).
            -s(X) :- s(X), t(X).
        """)
        dput = incrementalize_lvgn(putdelta, 'v')
        assert not dput.rules_for('-s')

    def test_constraints_substituted(self):
        putdelta = parse_program("""
            ⊥ :- v(X), X > 10.
            +r(X) :- v(X), not r(X).
        """)
        dput = incrementalize_lvgn(putdelta, 'v')
        (constraint,) = dput.constraints()
        assert constraint.body[0].atom.pred == '+v'

    def test_self_join_rejected(self):
        putdelta = parse_program('+r(X, Y) :- v(X, Y), v(Y, X).')
        from repro.errors import FragmentError
        with pytest.raises(FragmentError):
            incrementalize_lvgn(putdelta, 'v')

    def test_auto_dispatch(self, union_strategy):
        dput = incrementalize(union_strategy.putdelta, 'v')
        assert '+v' in {l.atom.pred for r in dput.proper_rules()
                        for l in r.body
                        if hasattr(l, 'atom')}


class TestLvgnEquivalence:

    def _union(self, union_strategy):
        return union_strategy, 'v(X) :- r1(X).\nv(X) :- r2(X).'

    @given(st.frozensets(st.tuples(st.integers(0, 5)), max_size=4),
           st.frozensets(st.tuples(st.integers(0, 5)), max_size=4),
           st.frozensets(st.tuples(st.integers(0, 5)), max_size=3),
           st.frozensets(st.tuples(st.integers(0, 5)), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_union_equivalence(self, r1, r2, plus, minus):
        from tests.conftest import UNION_PUTDELTA, UNION_GET
        from repro.relational.schema import DatabaseSchema
        strategy = UpdateStrategy.parse(
            'v', DatabaseSchema.build(r1={'a': 'int'}, r2={'a': 'int'}),
            UNION_PUTDELTA)
        source = Database.from_dict({'r1': r1, 'r2': r2})
        incremental_matches_full(strategy, UNION_GET, source,
                                 plus - minus, minus - plus)

    @given(st.frozensets(st.tuples(st.text('ab', min_size=1, max_size=2),
                                   st.text('xy', min_size=1, max_size=2)),
                         max_size=4),
           st.frozensets(st.tuples(st.text('ab', min_size=1, max_size=2),
                                   st.text('xy', min_size=1, max_size=2)),
                         max_size=4),
           st.frozensets(st.tuples(st.text('ab', min_size=1, max_size=2),
                                   st.text('xy', min_size=1, max_size=2)),
                         max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_ced_equivalence(self, ed, eed, plus):
        from tests.conftest import CED_PUTDELTA, CED_GET
        from repro.relational.schema import DatabaseSchema
        strategy = UpdateStrategy.parse(
            'ced', DatabaseSchema.build(ed=['e', 'd'], eed=['e', 'd']),
            CED_PUTDELTA)
        source = Database.from_dict({'ed': ed, 'eed': eed})
        incremental_matches_full(strategy, CED_GET, source, plus, set())


class TestBinarize:

    def test_shapes(self):
        program = parse_program(
            'h(X, Z) :- r(X, Y), s(Y, Z), not t(X), Z > 1.')
        binary = binarize(program)
        for rule in binary.rules:
            rel_lits = [l for l in rule.body if hasattr(l, 'atom')]
            assert len(rel_lits) <= 2

    def test_semantics_preserved(self):
        program = parse_program(
            'h(X, Z) :- r(X, Y), s(Y, Z), not t(X), Z > 1.')
        binary = binarize(program)
        rng = random.Random(5)
        for _ in range(15):
            db = Database.from_dict({
                'r': {(rng.randint(0, 2), rng.randint(0, 2))
                      for _ in range(4)},
                's': {(rng.randint(0, 2), rng.randint(0, 4))
                      for _ in range(4)},
                't': {(rng.randint(0, 2),) for _ in range(2)}})
            assert evaluate(binary, db)['h'] == evaluate(program, db)['h']

    def test_union_heads_preserved(self):
        program = parse_program('h(X) :- r(X).\nh(X) :- s(X).')
        binary = binarize(program)
        assert len(binary.rules_for('h')) == 2


class TestGeneralIncrementalization:

    def test_projection_view_strategy(self):
        # Putback with the view used twice (projection-ish): outside the
        # shortcut, handled by the Appendix C construction.
        from repro.relational.schema import DatabaseSchema
        putdelta_text = """
            vt(I, T) :- tracks1(I, T, _).
            +tracks(I, T) :- tracks1(I, T, Q), not tracks(I, T).
            -tracks(I, T) :- tracks(I, T), not vt(I, T).
        """
        get_text = "tracks1(I, T, Q) :- tracks(I, T), Q = 0."
        strategy = UpdateStrategy.parse(
            'tracks1',
            DatabaseSchema.build(tracks={'i': 'int', 't': 'string'}),
            putdelta_text, expected_get=get_text)
        rng = random.Random(9)
        for _ in range(20):
            source = Database.from_dict({
                'tracks': {(rng.randint(0, 3), 'x')
                           for _ in range(rng.randint(0, 3))}})
            plus = {(rng.randint(0, 3), 'x', 0)
                    for _ in range(rng.randint(0, 2))}
            minus = {(rng.randint(0, 3), 'x', 0)
                     for _ in range(rng.randint(0, 2))}
            incremental_matches_full(strategy, get_text, source,
                                     plus - minus, minus - plus,
                                     general=True)

    def test_general_on_lvgn_program_matches(self, union_strategy):
        source = Database.from_dict({'r1': {(1,), (2,)}, 'r2': {(3,)}})
        incremental_matches_full(
            union_strategy, 'v(X) :- r1(X).\nv(X) :- r2(X).', source,
            {(5,)}, {(1,)}, general=True)


class TestDeltaConstraints:
    """The delta form of a ⊥-rule with k view occurrences, shared by
    both incrementalization paths."""

    SHAPES = (
        '⊥ :- v(K, A), v(K, B), not A = B.',            # a key
        '⊥ :- v(X, Y), not v(Y, X).',                   # a negated occurrence
        '⊥ :- r(X), not v(X, X).',
        '⊥ :- v(X, Y), r(Y), X > 2.',
    )

    @staticmethod
    def _violated(rules, edb) -> bool:
        from repro.datalog.plan import compile_program
        plan = compile_program(Program(tuple(rules)), cache=False)
        return bool(plan.constraint_violations(edb, first_witness=True))

    @pytest.mark.parametrize('shape', SHAPES)
    def test_delta_form_finds_exactly_the_new_violations(self, shape):
        """In a steady state (the rule holds on ``v``), the derived
        rules over ``{v, +v, -v}`` fire exactly when the rule fails
        on ``v' = (v \\ -v) ∪ +v``."""
        (rule,) = parse_program(shape).rules
        derived = _delta_form(rule, 'v')
        rng = random.Random(shape)
        pairs = [(a, b) for a in range(4) for b in range(4)]
        fired = set()
        for _ in range(1000):
            view = frozenset(rng.sample(pairs, rng.randint(0, 5)))
            r = frozenset((x,) for x in range(4) if rng.random() < 0.5)
            if self._violated([rule], {'v': view, 'r': r}):
                continue
            minus = frozenset(t for t in view if rng.random() < 0.3)
            plus = frozenset(rng.sample(pairs, 3)) - view
            edb = {'v': view, 'r': r, '+v': plus, '-v': minus}
            new = {'v': (view - minus) | plus, 'r': r}
            violated = self._violated([rule], new)
            assert self._violated(derived, edb) == violated, \
                (view, plus, minus)
            fired.add(violated)
        assert fired == {True, False}

    def test_one_occurrence_is_the_lemma_5_2_substitution(self):
        (rule,) = parse_program('⊥ :- r(X), not v(X, X).').rules
        assert [pretty(r) for r in _delta_form(rule, 'v')] \
            == ['false :- r(X), -v(X, X).']

    def test_key_becomes_one_rule_per_occurrence_and_alternative(self):
        (rule,) = parse_program(self.SHAPES[0]).rules
        assert sorted(pretty(r) for r in _delta_form(rule, 'v')) == [
            'false :- +v(K, A), +v(K, B), not A = B.',
            'false :- +v(K, A), v(K, B), not -v(K, B), not A = B.',
            'false :- v(K, A), not -v(K, A), +v(K, B), not A = B.']

    def test_negated_wildcard_rejected(self):
        from repro.errors import FragmentError
        (rule,) = parse_program('⊥ :- r(X), not v(X, _).').rules
        with pytest.raises(FragmentError):
            _delta_form(rule, 'v')

    def test_general_path_refuses_a_constraint_over_a_changed_predicate(
            self):
        """``vt`` depends on the view, so ∂put has no ``vt`` for the ⊥
        rule to read: the view runs the full putback instead."""
        from repro.errors import TransformationError
        putdelta = parse_program("""
            vt(I) :- v(I, _).
            ⊥ :- v(I, J), not vt(J).
            +r(I, J) :- v(I, J), not r(I, J).
            -r(I, J) :- r(I, J), not vt(I).
        """)
        with pytest.raises(TransformationError):
            incrementalize_general(putdelta, 'v')

    @pytest.mark.parametrize('name', GENERAL_PATH)
    def test_general_path_checks_every_view_constraint_from_the_delta(
            self, name):
        from repro.core.incremental import incrementalize_plan
        from repro.datalog.plan import ScanStep
        strategy = entry_by_name(name).strategy()
        _program, plan = incrementalize_plan(strategy.putdelta, name,
                                             lvgn=False)
        expected = [r for rule in strategy.constraints()
                    for r in _delta_form(rule, name)]
        assert expected and \
            [c.rule for c in plan.constraint_plans] == expected
        for cplan in plan.constraint_plans:
            first = cplan.rule_plan.steps[0]
            assert isinstance(first, ScanStep) \
                and first.pred in {insert_pred(name), delete_pred(name)}
