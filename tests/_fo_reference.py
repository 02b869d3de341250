"""Direct model checking of FO formulas over finite databases.

``satisfies(db, formula, binding)`` decides ``D ⊨ φ[binding]`` by
structural recursion, quantifying over the database's *active domain*
plus the formula's own constants — the standard finite-model semantics
underlying safe-range queries (Appendix B) and the GNFO satisfiability
arguments (Lemma 3.1).

Only tests use it: it is the independent referee ``test_interpret.py``
checks ``predicate_to_fol``, ``to_srnf`` and ``to_ranf`` against, so a
bug would have to hit the evaluator, the translators *and* this
interpreter consistently to go unnoticed.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SchemaError, TransformationError
from repro.fol.formula import (And, Bottom, Exists, FoAtom, FoCmp, FoConst,
                               FoEq, FoVar, Forall, Formula, Not, Or, Top,
                               free_variables)
from repro.relational.database import Database

__all__ = ['satisfies', 'answers', 'active_domain']


def _formula_constants(formula: Formula) -> set:
    if isinstance(formula, FoAtom):
        return {t.value for t in formula.args if isinstance(t, FoConst)}
    if isinstance(formula, (FoEq, FoCmp)):
        return {t.value for t in (formula.left, formula.right)
                if isinstance(t, FoConst)}
    if isinstance(formula, Not):
        return _formula_constants(formula.inner)
    if isinstance(formula, (And, Or)):
        result: set = set()
        for part in formula.parts:
            result |= _formula_constants(part)
        return result
    if isinstance(formula, (Exists, Forall)):
        return _formula_constants(formula.inner)
    return set()


def active_domain(db: Database, formula: Formula | None = None) -> set:
    """The database's active domain, extended with the formula's
    constants (quantifiers range over this set)."""
    domain = db.active_domain()
    if formula is not None:
        domain |= _formula_constants(formula)
    return domain


def _value(term, binding: Mapping[str, object]):
    if isinstance(term, FoConst):
        return term.value
    try:
        return binding[term.name]
    except KeyError:
        raise TransformationError(
            f'free variable {term.name} has no binding') from None


def _compare(op: str, left, right) -> bool:
    numeric = (int, float)
    same_type = (isinstance(left, numeric) and isinstance(right, numeric)) \
        or (isinstance(left, str) and isinstance(right, str))
    if not same_type:
        raise SchemaError(f'cannot compare {left!r} with {right!r}')
    if op == '<':
        return left < right
    if op == '>':
        return left > right
    if op == '<=':
        return left <= right
    return left >= right


def satisfies(db: Database, formula: Formula,
              binding: Mapping[str, object] | None = None,
              domain: Iterable | None = None) -> bool:
    """Decide ``D ⊨ φ[binding]`` with active-domain quantification."""
    binding = dict(binding or {})
    if domain is None:
        domain = active_domain(db, formula)
    domain = list(domain)

    def check(node: Formula, env: dict) -> bool:
        if isinstance(node, Top):
            return True
        if isinstance(node, Bottom):
            return False
        if isinstance(node, FoAtom):
            row = tuple(_value(t, env) for t in node.args)
            return row in db[node.pred]
        if isinstance(node, FoEq):
            return _value(node.left, env) == _value(node.right, env)
        if isinstance(node, FoCmp):
            return _compare(node.op, _value(node.left, env),
                            _value(node.right, env))
        if isinstance(node, Not):
            return not check(node.inner, env)
        if isinstance(node, And):
            return all(check(part, env) for part in node.parts)
        if isinstance(node, Or):
            return any(check(part, env) for part in node.parts)
        if isinstance(node, Exists):
            return _quantify(node, env, any)
        if isinstance(node, Forall):
            return _quantify(node, env, all)
        raise TransformationError(f'unknown formula node {node!r}')

    def _quantify(node, env: dict, combine) -> bool:
        names = [v.name for v in node.variables]

        def assignments(index: int):
            if index == len(names):
                yield env
                return
            for value in domain:
                env[names[index]] = value
                yield from assignments(index + 1)
            env.pop(names[index], None)

        def results():
            for assignment in assignments(0):
                yield check(node.inner, dict(assignment))

        return combine(results())

    return check(formula, binding)


def answers(db: Database, formula: Formula,
            variables: tuple[FoVar, ...] | None = None,
            domain: Iterable | None = None) -> frozenset:
    """All tuples ``~t`` over the active domain with ``D ⊨ φ(~t)``.

    For safe-range formulas this coincides with the Datalog query result
    (the equivalence of Appendix B); for unsafe formulas it is the
    active-domain semantics.
    """
    if variables is None:
        variables = tuple(FoVar(n) for n in sorted(free_variables(formula)))
    if domain is None:
        domain = active_domain(db, formula)
    domain = list(domain)
    names = [v.name for v in variables]
    result: set[tuple] = set()

    def enumerate_bindings(index: int, binding: dict):
        if index == len(names):
            try:
                if satisfies(db, formula, binding, domain):
                    result.add(tuple(binding[n] for n in names))
            except SchemaError:
                pass  # ill-typed assignment: cannot satisfy comparisons
            return
        for value in domain:
            binding[names[index]] = value
            enumerate_bindings(index + 1, binding)
        binding.pop(names[index], None)

    enumerate_bindings(0, {})
    return frozenset(result)
