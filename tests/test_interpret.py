"""FO model checking tests + cross-validation of the translation
pipeline (evaluator vs. direct FO interpretation)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.evaluator import evaluate
from repro.datalog.parser import parse_program
from repro.fol.datalog_to_fol import predicate_to_fol
from repro.fol.formula import (FoAtom, FoCmp, FoConst, FoEq, FoVar, Forall,
                               Not, make_and, make_exists, make_or)
from _fo_reference import active_domain, answers, satisfies
from repro.fol.normalize import to_ranf, to_srnf
from repro.relational.database import Database


def r(*terms):
    return FoAtom('r', tuple(
        FoVar(t) if isinstance(t, str) and t.isupper() else FoConst(t)
        for t in terms))


class TestSatisfies:

    def test_atom(self):
        db = Database.from_dict({'r': {(1,)}})
        assert satisfies(db, r('X'), {'X': 1})
        assert not satisfies(db, r('X'), {'X': 2})

    def test_equality_and_comparison(self):
        db = Database()
        assert satisfies(db, FoEq(FoConst(3), FoConst(3)))
        assert satisfies(db, FoCmp('<', FoConst(1), FoConst(2)))
        assert not satisfies(db, FoCmp('>=', FoConst(1), FoConst(2)))

    def test_connectives(self):
        db = Database.from_dict({'r': {(1,)}, 's': {(2,)}})
        formula = make_and([r('X'), Not(FoAtom('s', (FoVar('X'),)))])
        assert satisfies(db, formula, {'X': 1})
        disj = make_or([r('X'), FoAtom('s', (FoVar('X'),))])
        assert satisfies(db, disj, {'X': 2})

    def test_exists_over_active_domain(self):
        db = Database.from_dict({'r': {(1,), (5,)}})
        formula = make_exists((FoVar('X'),),
                              make_and([r('X'),
                                        FoCmp('>', FoVar('X'),
                                              FoConst(3))]))
        assert satisfies(db, formula)

    def test_forall(self):
        db = Database.from_dict({'r': {(1,), (2,)}})
        all_small = Forall((FoVar('X'),),
                           make_or([Not(r('X')),
                                    FoCmp('<', FoVar('X'), FoConst(10))]))
        assert satisfies(db, all_small)
        all_big = Forall((FoVar('X'),),
                         make_or([Not(r('X')),
                                  FoCmp('>', FoVar('X'), FoConst(1))]))
        assert not satisfies(db, all_big)

    def test_formula_constants_join_domain(self):
        db = Database()
        domain = active_domain(db, FoEq(FoVar('X'), FoConst(42)))
        assert 42 in domain

    def test_answers(self):
        db = Database.from_dict({'r': {(1,), (2,), (5,)}})
        formula = make_and([r('X'), FoCmp('>', FoVar('X'), FoConst(1))])
        assert answers(db, formula) == {(2,), (5,)}


def _random_db(rng) -> Database:
    return Database.from_dict({
        'p': {(rng.randint(0, 2),) for _ in range(rng.randint(0, 3))},
        'q': {(rng.randint(0, 2), rng.randint(0, 2))
              for _ in range(rng.randint(0, 3))}})


PROGRAMS = [
    'goal(X) :- p(X).',
    'goal(X) :- p(X), not q(X, X).',
    'goal(X, Y) :- q(X, Y), p(Y).',
    'goal(X) :- q(X, _), X > 0.',
    'goal(X) :- p(X).\ngoal(X) :- q(X, X).',
    "mid(X) :- q(X, Y), Y = 1.\ngoal(X) :- p(X), not mid(X).",
]


class TestCrossValidation:
    """D ⊨ ϕ_goal(t) iff t ∈ eval(program)[goal]: the evaluator, the
    Datalog→FO translation, and the FO interpreter must agree."""

    @pytest.mark.parametrize('text', PROGRAMS)
    def test_translation_agrees_with_interpretation(self, text):
        program = parse_program(text)
        variables, formula = predicate_to_fol(program, 'goal')
        rng = random.Random(hash(text) % 1000)
        for _ in range(12):
            db = _random_db(rng)
            direct = evaluate(program, db)['goal']
            via_fo = answers(db, formula, variables)
            assert direct == via_fo, (text, db)

    @pytest.mark.parametrize('text', PROGRAMS)
    def test_srnf_ranf_preserve_semantics(self, text):
        program = parse_program(text)
        variables, formula = predicate_to_fol(program, 'goal')
        normalized = to_ranf(to_srnf(formula))
        rng = random.Random(hash(text) % 997)
        for _ in range(8):
            db = _random_db(rng)
            assert answers(db, formula, variables) == \
                answers(db, normalized, variables)


@given(st.frozensets(st.tuples(st.integers(0, 2)), max_size=4),
       st.frozensets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                     max_size=4))
@settings(max_examples=60, deadline=None)
def test_property_difference_query(p_rows, q_rows):
    db = Database.from_dict({'p': p_rows, 'q': q_rows})
    program = parse_program('goal(X) :- p(X), not q(X, _).')
    variables, formula = predicate_to_fol(program, 'goal')
    assert evaluate(program, db)['goal'] == answers(db, formula, variables)
