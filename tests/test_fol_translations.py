"""Datalog ↔ FO translation tests: the Lemma 3.1 and Appendix B pipelines.

The central property: translating a Datalog query to FO and back yields an
equivalent query on random databases.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.evaluator import evaluate
from repro.datalog.parser import parse_program
from repro.errors import TransformationError
from repro.fol.datalog_to_fol import predicate_to_fol
from repro.fol.fol_to_datalog import fol_to_datalog
from repro.fol.formula import (FoAtom, FoConst, FoEq, FoVar, Forall, Not,
                               free_variables, make_and, make_exists,
                               make_or)
from repro.fol.normalize import (NOT_SAFE, is_safe_range, range_restricted,
                                 to_ranf, to_srnf)
from repro.relational.database import Database


def round_trip_equivalent(program_text, goal, databases):
    """Evaluate a query directly and through the FO round-trip."""
    program = parse_program(program_text)
    variables, formula = predicate_to_fol(program, goal)
    assert is_safe_range(formula), formula
    back, back_goal = fol_to_datalog(formula, f'{goal}__rt',
                                     tuple(v.name for v in variables))
    for db in databases:
        direct = evaluate(program, db)[goal]
        indirect = evaluate(back, db)[back_goal]
        assert direct == indirect, (db, formula)


def small_dbs(*names, arity=1, values=(0, 1, 2)):
    rng = random.Random(0)
    dbs = []
    for _ in range(12):
        data = {}
        for name in names:
            rows = set()
            for _ in range(rng.randint(0, 4)):
                rows.add(tuple(rng.choice(values) for _ in range(arity)))
            data[name] = rows
        dbs.append(Database.from_dict(data))
    return dbs


class TestDatalogToFolRoundTrip:

    def test_union(self):
        round_trip_equivalent('v(X) :- r1(X).\nv(X) :- r2(X).', 'v',
                              small_dbs('r1', 'r2'))

    def test_difference(self):
        round_trip_equivalent('v(X) :- r1(X), not r2(X).', 'v',
                              small_dbs('r1', 'r2'))

    def test_join(self):
        round_trip_equivalent('v(X, Y) :- r(X, Y), s(Y, X).', 'v',
                              small_dbs('r', 's', arity=2))

    def test_projection(self):
        round_trip_equivalent('v(X) :- r(X, _).', 'v',
                              small_dbs('r', arity=2))

    def test_selection_with_comparison(self):
        round_trip_equivalent('v(X) :- r(X), X > 1.', 'v',
                              small_dbs('r'))

    def test_constants_in_head(self):
        round_trip_equivalent("v(X, 'tag') :- r(X).", 'v', small_dbs('r'))

    def test_layered_idb(self):
        round_trip_equivalent("""
            mid(X) :- r1(X), not r2(X).
            v(X) :- mid(X), r3(X).
        """, 'v', small_dbs('r1', 'r2', 'r3'))

    def test_negated_idb(self):
        round_trip_equivalent("""
            mid(X) :- r1(X), r2(X).
            v(X) :- r1(X), not mid(X).
        """, 'v', small_dbs('r1', 'r2'))

    def test_anonymous_in_negated_atom(self):
        round_trip_equivalent('v(X) :- r(X), not s(X, _).', 'v',
                              [Database.from_dict(
                                  {'r': {(1,), (2,)}, 's': {(2, 0)}})])

    @pytest.mark.parametrize('body', ['t(X), not aux(X, _y), s(_y, _)',
                                      't(X), s(_y, _), not aux(X, _y)',
                                      's(_y, _), t(X), not aux(X, _y)'])
    def test_underscore_name_bound_outside_the_negation(self, body):
        # Quantified with the rule's other variables, not inside the ¬.
        round_trip_equivalent(f'p(X) :- {body}.', 'p', [Database.from_dict(
            {'t': {(1,), (3,)}, 'aux': {(1, 5), (3, 7)},
             's': {(7, 0), (9, 0)}})])

    def test_repeated_head_variable(self):
        round_trip_equivalent('v(X, X) :- r(X).', 'v', small_dbs('r'))

    def test_goal_must_exist(self):
        with pytest.raises(TransformationError):
            predicate_to_fol(parse_program('v(X) :- r(X).'), 'nope')


class TestSafeRangeAnalysis:

    def x(self):
        return FoVar('X')

    def test_atom_is_safe(self):
        assert is_safe_range(FoAtom('r', (FoVar('X'),)))

    def test_negation_alone_unsafe(self):
        assert not is_safe_range(Not(FoAtom('r', (FoVar('X'),))))

    def test_guarded_negation_safe(self):
        formula = make_and([FoAtom('r', (FoVar('X'),)),
                            Not(FoAtom('s', (FoVar('X'),)))])
        assert is_safe_range(formula)

    def test_disjunction_needs_both_sides(self):
        mixed = make_or([FoAtom('r', (FoVar('X'),)),
                         Not(FoAtom('s', (FoVar('X'),)))])
        assert not is_safe_range(mixed)

    def test_equality_to_constant_restricts(self):
        assert is_safe_range(FoEq(FoVar('X'), FoConst(1)))

    def test_var_var_equality_propagates_in_conjunction(self):
        formula = make_and([FoAtom('r', (FoVar('X'),)),
                            FoEq(FoVar('X'), FoVar('Y'))])
        assert range_restricted(formula) == {'X', 'Y'}

    def test_unrestricted_quantified_var(self):
        formula = make_exists((FoVar('Y'),),
                              make_and([FoAtom('r', (FoVar('X'),)),
                                        Not(FoAtom('s', (FoVar('Y'),)))]))
        assert range_restricted(to_srnf(formula)) is NOT_SAFE

    def test_forall_eliminated_by_srnf(self):
        formula = Forall((FoVar('X'),), FoAtom('r', (FoVar('X'),)))
        srnf = to_srnf(formula)
        assert isinstance(srnf, Not)

    def test_comparison_restricts_nothing(self):
        from repro.fol.formula import FoCmp
        assert range_restricted(FoCmp('<', FoVar('X'), FoConst(1))) == set()


class TestRanf:

    def test_push_into_or(self):
        # r(X) ∧ (s(X) ∨ ¬t(X)) — the disjunction is not self-contained.
        formula = make_and([
            FoAtom('r', (FoVar('X'),)),
            make_or([FoAtom('s', (FoVar('X'),)),
                     Not(FoAtom('t', (FoVar('X'),)))])])
        ranf = to_ranf(formula)
        program, goal = fol_to_datalog(ranf, 'q', ('X',))
        for db in small_dbs('r', 's', 't'):
            expected = {row for row in db['r']
                        if row in db['s'] or row not in db['t']}
            assert evaluate(program, db)[goal] == expected

    def test_push_into_negated_quantifier(self):
        # r(X) ∧ ¬∃Y (s(X, Y) ∧ ¬t(Y))
        formula = make_and([
            FoAtom('r', (FoVar('X'),)),
            Not(make_exists((FoVar('Y'),),
                            make_and([FoAtom('s', (FoVar('X'), FoVar('Y'))),
                                      Not(FoAtom('t', (FoVar('Y'),)))])))])
        program, goal = fol_to_datalog(formula, 'q', ('X',))
        rng = random.Random(1)
        for _ in range(10):
            db = Database.from_dict({
                'r': {(rng.randint(0, 2),) for _ in range(3)},
                's': {(rng.randint(0, 2), rng.randint(0, 2))
                      for _ in range(3)},
                't': {(rng.randint(0, 2),) for _ in range(2)}})
            expected = {row for row in db['r']
                        if not any(s[0] == row[0] and (s[1],) not in db['t']
                                   for s in db['s'])}
            assert evaluate(program, db)[goal] == expected

    def test_unsafe_formula_rejected(self):
        with pytest.raises(TransformationError):
            fol_to_datalog(Not(FoAtom('r', (FoVar('X'),))), 'q', ('X',))
