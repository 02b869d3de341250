"""LVGN-Datalog fragment membership (§3.2).

LVGN-Datalog = nonrecursive guarded-negation Datalog with equalities,
constants and comparisons, plus the *linear view* restriction:

* **Guarded negation** (§3.2.1): for every atom/equality occurring in a
  rule head or negated in a rule body, some positive body atom (helped by
  equalities against constants) contains all of its variables.
* **Comparisons** are restricted to the forms ``X < c`` / ``X > c``.
* **Linear view** (Def. 3.2): the view occurs only in delta rules and
  ⊥-constraint rules, at most one view atom per rule, and no anonymous
  variable inside a view atom.

:func:`classify` returns a :class:`FragmentReport` explaining membership —
this feeds the Table 1 columns ``LVGN-Datalog`` / ``NR-Datalog``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datalog.ast import (BuiltinLit, Const, Lit, Program, Rule, Var,
                               is_anonymous, is_delta_pred)
from repro.datalog.dependency import is_nonrecursive
from repro.datalog.pretty import pretty_rule
from repro.datalog.safety import is_safe

__all__ = ['FragmentReport', 'classify', 'is_lvgn', 'check_guarded_rule',
           'check_linear_view']


@dataclass(frozen=True)
class FragmentReport:
    """Which fragments the putback program belongs to, with reasons."""

    nr_datalog: bool
    lvgn: bool
    reasons: tuple[str, ...] = ()

    def __str__(self) -> str:
        fragment = ('LVGN-Datalog' if self.lvgn
                    else 'NR-Datalog¬' if self.nr_datalog
                    else 'not expressible')
        if self.reasons and not self.lvgn:
            return f'{fragment} ({"; ".join(self.reasons)})'
        return fragment


def _const_equated_vars(rule: Rule) -> set[str]:
    """Variables forced equal to a constant by a positive body equality."""
    bound: set[str] = set()
    for literal in rule.body:
        if isinstance(literal, BuiltinLit) and literal.op == '=' \
                and literal.positive:
            left, right = literal.left, literal.right
            if isinstance(left, Var) and isinstance(right, Const):
                bound.add(left.name)
            if isinstance(right, Var) and isinstance(left, Const):
                bound.add(right.name)
    return bound


def check_guarded_rule(rule: Rule) -> str | None:
    """None when the rule is negation guarded (§3.2.1), else a reason.

    The guard for each checked element may be any single positive body atom
    combined with equalities to constants, following the constant handling
    in the proof of Lemma 3.1.
    """
    const_bound = _const_equated_vars(rule)
    guards = [atom.var_names() for atom in rule.positive_atoms()]

    def guarded(var_names: set[str]) -> bool:
        needed = var_names - const_bound
        if not needed:
            return True
        return any(needed <= g for g in guards)

    if rule.head is not None and not guarded(rule.head.var_names()):
        return (f'head of rule "{pretty_rule(rule)}" is not guarded by a '
                f'positive body atom')
    for literal in rule.body:
        if isinstance(literal, Lit) and not literal.positive:
            named = {t.name for t in literal.atom.variables()
                     if not is_anonymous(t)}
            if not guarded(named):
                return (f'negated atom {literal.atom} in rule '
                        f'"{pretty_rule(rule)}" is not guarded')
        elif isinstance(literal, BuiltinLit):
            if literal.op == '=' and not literal.positive:
                if not guarded(literal.var_names()):
                    return (f'negated equality {literal} in rule '
                            f'"{pretty_rule(rule)}" is not guarded')
            elif literal.op in ('<', '>', '<=', '>='):
                if literal.op in ('<=', '>='):
                    return (f'comparison {literal} uses {literal.op}; '
                            f'LVGN-Datalog admits only strict < and >')
                sides = (literal.left, literal.right)
                n_vars = sum(isinstance(t, Var) for t in sides)
                n_consts = sum(isinstance(t, Const) for t in sides)
                if n_vars != 1 or n_consts != 1:
                    return (f'comparison {literal} is not of the X < c / '
                            f'X > c form required by LVGN-Datalog')
                if not literal.positive and not guarded(
                        literal.var_names()):
                    return (f'negated comparison {literal} in rule '
                            f'"{pretty_rule(rule)}" is not guarded')
    return None


def check_linear_view(program: Program, view: str) -> str | None:
    """None when the program conforms to Def. 3.2, else a reason."""
    for rule in program.rules:
        view_lits = [l for l in rule.body
                     if isinstance(l, Lit) and l.atom.pred == view]
        if not view_lits:
            continue
        is_delta_rule = rule.head is not None \
            and is_delta_pred(rule.head.pred)
        if not (is_delta_rule or rule.is_constraint):
            return (f'view {view!r} may occur only in delta rules and '
                    f'constraints, but occurs in "{pretty_rule(rule)}"')
        if len(view_lits) > 1:
            return (f'self-join on the view in rule "{pretty_rule(rule)}" '
                    f'violates the linear view restriction')
        atom = view_lits[0].atom
        if any(is_anonymous(t) for t in atom.args):
            return (f'anonymous variable (projection) in view atom {atom} '
                    f'of rule "{pretty_rule(rule)}" violates the linear '
                    f'view restriction')
    return None


def classify(program: Program, view: str) -> FragmentReport:
    """Classify a putback program for Table 1 reporting."""
    reasons: list[str] = []
    nr = is_nonrecursive(program) and all(is_safe(r) for r in program.rules)
    if not nr:
        reasons.append('not nonrecursive safe Datalog')
        return FragmentReport(False, False, tuple(reasons))
    linear = check_linear_view(program, view)
    if linear:
        reasons.append(linear)
    guard_reason = None
    for rule in program.rules:
        guard_reason = check_guarded_rule(rule)
        if guard_reason:
            reasons.append(guard_reason)
            break
    lvgn = linear is None and guard_reason is None
    return FragmentReport(True, lvgn, tuple(reasons))


def is_lvgn(program: Program, view: str) -> bool:
    return classify(program, view).lvgn
