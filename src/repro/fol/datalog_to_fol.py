"""Translation of nonrecursive Datalog queries into FO formulas.

Implements the construction in the proof of Lemma 3.1: for an IDB predicate
``r`` defined by rules ``r(~X) :- body_i``, the formula is::

    ϕ_r(~X) = ∨_i ∃ ~E_i . ∧_j β_{i,j}

where each body literal becomes an atom / negated formula / equality /
comparison and bound variables (those not in the head) are existentially
quantified.  IDB body atoms are unfolded recursively (the program must be
nonrecursive).  Head constants and repeated head variables are normalised
into equalities against a canonical variable tuple.
"""

from __future__ import annotations

from repro.datalog.ast import (BuiltinLit, Const, Lit, Program, Rule, Var,
                               is_anonymous)
from repro.datalog.dependency import check_nonrecursive
from repro.datalog.safety import bound_variables
from repro.errors import TransformationError
from repro.fol.formula import (BOTTOM, FoAtom, FoCmp, FoConst, FoEq, FoTerm,
                               FoVar, Formula, Not, free_variables, make_and,
                               make_exists, make_or, substitute)

__all__ = ['predicate_to_fol', 'rule_body_to_fol', 'literal_to_fol',
           'term_to_fol']


def term_to_fol(term) -> FoTerm:
    if isinstance(term, Var):
        return FoVar(term.name)
    if isinstance(term, Const):
        return FoConst(term.value)
    raise TransformationError(f'unknown Datalog term {term!r}')


def literal_to_fol(literal, idb_unfold=None, bound=frozenset()) -> Formula:
    """Translate one body literal.

    ``idb_unfold(pred, args) -> Formula | None`` supplies unfolding for IDB
    predicates; ``None`` keeps the atom opaque (EDB).  ``bound`` names the
    variables a positive literal or ``=`` of the enclosing body binds.
    """
    if isinstance(literal, Lit):
        args = tuple(term_to_fol(t) for t in literal.atom.args)
        inner = None
        if idb_unfold is not None:
            inner = idb_unfold(literal.atom.pred, args)
        if inner is None:
            inner = FoAtom(literal.atom.pred, args)
        if literal.positive:
            return inner
        # Anonymous variables inside a negated atom are existentially
        # quantified *inside* the negation: not r(X, _) ≡ ¬∃Y r(X, Y) —
        # unless the body binds the name elsewhere, which makes it an
        # ordinary variable (the evaluator's and the SQL lowering's
        # reading, whatever the literal order).
        anon = tuple(FoVar(t.name) for t in literal.atom.args
                     if is_anonymous(t) and t.name not in bound)
        if anon:
            inner = make_exists(anon, inner)
        return Not(inner)
    if isinstance(literal, BuiltinLit):
        left = term_to_fol(literal.left)
        right = term_to_fol(literal.right)
        if literal.op == '=':
            inner = FoEq(left, right)
        else:
            inner = FoCmp(literal.op, left, right)
        return inner if literal.positive else Not(inner)
    raise TransformationError(f'unknown literal {literal!r}')


def rule_body_to_fol(rule: Rule, head_vars: tuple[FoVar, ...],
                     idb_unfold=None) -> Formula:
    """FO formula for a single rule, with head arguments normalised to the
    canonical tuple ``head_vars`` (∃-closing body-only variables)."""
    if rule.head is None:
        raise TransformationError('constraint rules have no head formula; '
                                  'translate the body directly')
    if len(head_vars) != rule.head.arity:
        raise TransformationError(
            f'canonical tuple of length {len(head_vars)} does not match '
            f'head {rule.head}')
    head_names = {v.name for v in head_vars}
    # Standardize apart: body variables colliding with canonical names that
    # are NOT the intended head occurrence get renamed first.
    rename: dict[str, object] = {}
    taken = set(rule.variables()) | head_names
    counter = 0
    for name in sorted(rule.variables()):
        if name in head_names:
            while f'B{counter}' in taken:
                counter += 1
            rename[name] = Var(f'B{counter}')
            taken.add(f'B{counter}')
            counter += 1
    renamed = rule.substitute(rename) if rename else rule

    equalities: list[Formula] = []
    for canon, term in zip(head_vars, renamed.head.args):
        equalities.append(FoEq(canon, term_to_fol(term)))
    positive = bound_variables(renamed)
    body = [literal_to_fol(l, idb_unfold, positive) for l in renamed.body]
    conjunction = make_and(equalities + body)
    bound = sorted(free_variables(conjunction) - head_names)
    return make_exists(tuple(FoVar(n) for n in bound), conjunction)


def predicate_to_fol(program: Program, pred: str,
                     canonical: tuple[FoVar, ...] | None = None,
                     edb: set[str] | None = None) -> tuple[tuple[FoVar, ...],
                                                           Formula]:
    """FO formula equivalent to the Datalog query ``(program, pred)``.

    Every predicate not defined by ``program`` (or listed in ``edb``) stays
    an opaque relational atom.  Returns ``(canonical_vars, formula)``; the
    formula's free variables are exactly the canonical variables.
    """
    check_nonrecursive(program)
    arities = program.arities()
    if pred not in arities:
        raise TransformationError(f'predicate {pred!r} not used in program')
    arity = arities[pred]
    if canonical is None:
        canonical = tuple(FoVar(f'X{i}') for i in range(arity))
    idb = program.idb_preds()
    if edb is not None:
        idb = idb - set(edb)

    cache: dict[tuple, Formula] = {}

    def unfold(name: str, args: tuple[FoTerm, ...]):
        if name not in idb:
            return None
        base_vars = tuple(FoVar(f'U{name}_{i}') for i in range(len(args)))
        key = (name, len(args))
        if key not in cache:
            rules = program.rules_for(name)
            if not rules:
                cache[key] = BOTTOM
            else:
                cache[key] = make_or(
                    rule_body_to_fol(r, base_vars, unfold) for r in rules)
        formula = cache[key]
        binding = {v.name: arg for v, arg in zip(base_vars, args)}
        return substitute(formula, binding)

    result = unfold(pred, canonical)
    if result is None:
        # The goal itself is EDB: identity query.
        result = FoAtom(pred, canonical)
    return canonical, result
