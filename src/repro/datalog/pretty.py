"""Pretty-printing of Datalog programs.

``parse_program(pretty(p))`` reproduces ``p`` up to the canonicalisation the
parser performs (``<>`` becomes negated ``=``); a property-based test pins
this round-trip down.
"""

from __future__ import annotations

from repro.datalog.ast import (Atom, Lit, Literal, Program, Rule, Term,
                               Var)

__all__ = ['pretty', 'pretty_rule', 'pretty_literal', 'pretty_term']


def pretty_term(term: Term) -> str:
    if isinstance(term, Var):
        return term.name
    value = term.value
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


def pretty_atom(atom: Atom) -> str:
    args = ', '.join(pretty_term(t) for t in atom.args)
    return f'{atom.pred}({args})'


def pretty_literal(literal: Literal) -> str:
    if isinstance(literal, Lit):
        text = pretty_atom(literal.atom)
        return text if literal.positive else f'not {text}'
    text = (f'{pretty_term(literal.left)} {literal.op} '
            f'{pretty_term(literal.right)}')
    return text if literal.positive else f'not {text}'


def pretty_rule(rule: Rule) -> str:
    head = 'false' if rule.head is None else pretty_atom(rule.head)
    if not rule.body:
        return f'{head}.'
    body = ', '.join(pretty_literal(l) for l in rule.body)
    return f'{head} :- {body}.'


def pretty(program: Program | Rule) -> str:
    """Render a program (or single rule) as parseable source text."""
    if isinstance(program, Rule):
        return pretty_rule(program)
    return '\n'.join(pretty_rule(r) for r in program.rules)
