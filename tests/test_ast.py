"""Unit tests for AST helpers and the Program container."""

import pytest

from repro.datalog.ast import (Atom, BuiltinLit, Const, Lit, Program, Rule,
                               Var, delete_pred, delta_base, insert_pred,
                               is_anonymous, is_delete_pred, is_delta_pred,
                               is_insert_pred)
from repro.datalog.parser import parse_program, parse_rule


class TestDeltaNaming:

    def test_insert_pred(self):
        assert insert_pred('r') == '+r'

    def test_delete_pred(self):
        assert delete_pred('r') == '-r'

    def test_predicates_classified(self):
        assert is_insert_pred('+r') and not is_insert_pred('r')
        assert is_delete_pred('-r') and not is_delete_pred('+r')
        assert is_delta_pred('+r') and is_delta_pred('-r')
        assert not is_delta_pred('r')

    def test_delta_base(self):
        assert delta_base('+r') == 'r'
        assert delta_base('-r') == 'r'
        assert delta_base('r') == 'r'


class TestTerms:

    def test_anonymous_detection(self):
        assert is_anonymous(Var('_anon0'))
        assert is_anonymous(Var('_x'))
        assert not is_anonymous(Var('X'))
        assert not is_anonymous(Const('_'))

    def test_const_str_quotes_strings(self):
        assert str(Const('a')) == "'a'"
        assert str(Const(3)) == '3'


class TestAtom:

    def test_variables_in_order_with_repeats(self):
        atom = Atom('r', (Var('X'), Const(1), Var('Y'), Var('X')))
        assert atom.variables() == (Var('X'), Var('Y'), Var('X'))
        assert atom.var_names() == {'X', 'Y'}

    def test_substitute(self):
        atom = Atom('r', (Var('X'), Var('Y')))
        result = atom.substitute({'X': Const(5)})
        assert result == Atom('r', (Const(5), Var('Y')))


class TestBuiltin:

    def test_normalize_negated_equality(self):
        builtin = BuiltinLit('=', Var('X'), Const(1), positive=False)
        normal = builtin.normalized()
        assert normal.op == '<>' and normal.positive

    def test_normalize_negated_comparison(self):
        builtin = BuiltinLit('<', Var('X'), Const(1), positive=False)
        assert builtin.normalized().op == '>='

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            BuiltinLit('~', Var('X'), Const(1))


class TestRule:

    def test_positive_atoms_and_builtins(self):
        rule = parse_rule('h(X) :- r(X), not s(X), X > 1.')
        assert [a.pred for a in rule.positive_atoms()] == ['r']
        assert len(rule.builtins()) == 1

    def test_variables(self):
        rule = parse_rule('h(X, Y) :- r(X, Z), not s(Y).')
        assert rule.variables() == {'X', 'Y', 'Z'}

    def test_substitution_covers_head_and_body(self):
        rule = parse_rule('h(X) :- r(X), X > 1.')
        result = rule.substitute({'X': Var('W')})
        assert result.head.args == (Var('W'),)
        assert result.body[1].left == Var('W')


class TestProgram:

    def test_rules_for(self):
        program = parse_program('v(X) :- r1(X).\nv(X) :- r2(X).')
        assert len(program.rules_for('v')) == 2
        assert program.rules_for('missing') == ()

    def test_constraints_split(self):
        program = parse_program('⊥ :- v(X), X > 2.\n+r(X) :- v(X).')
        assert len(program.constraints()) == 1
        assert len(program.proper_rules()) == 1
        assert len(program.without_constraints()) == 1

    def test_extend(self):
        program = parse_program('v(X) :- r(X).')
        extended = program.extend(parse_program('w(X) :- v(X).').rules)
        assert extended.idb_preds() == {'v', 'w'}

    def test_iteration_and_len(self):
        program = parse_program('v(X) :- r(X).\nw(X) :- v(X).')
        assert len(list(program)) == len(program) == 2

    def test_all_preds(self):
        program = parse_program('v(X) :- r(X), not s(X).')
        assert program.all_preds() == {'v', 'r', 's'}
