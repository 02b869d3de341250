"""Nonrecursive Datalog with negation and builtin predicates (§2.1, §3).

This package is the language substrate of the reproduction: AST, parser,
pretty-printer, safety and dependency analyses, and a bottom-up evaluator.
"""

from repro.datalog.ast import (Atom, BuiltinLit, Const, Lit, Literal,
                               Program, Rule, Var, delete_pred, delta_base,
                               insert_pred, is_anonymous, is_delete_pred,
                               is_delta_pred, is_insert_pred)
from repro.datalog.dependency import (check_nonrecursive, dependency_graph,
                                      is_nonrecursive, stratify)
from repro.datalog.evaluator import (constraint_violations, evaluate,
                                     evaluate_query, execute_plan)
from repro.datalog.parser import parse_atom, parse_program, parse_rule
from repro.datalog.plan import (ExecutionPlan, RulePlan, compile_program,
                                compile_rule)
from repro.datalog.pretty import pretty
from repro.datalog.safety import (check_program_safety, check_rule_safety,
                                  is_safe)

__all__ = [
    'Atom', 'BuiltinLit', 'Const', 'Lit', 'Literal', 'Program', 'Rule',
    'Var', 'delete_pred', 'delta_base', 'insert_pred', 'is_anonymous',
    'is_delete_pred', 'is_delta_pred', 'is_insert_pred',
    'check_nonrecursive', 'dependency_graph', 'is_nonrecursive', 'stratify',
    'constraint_violations', 'evaluate', 'evaluate_query',
    'execute_plan', 'ExecutionPlan', 'RulePlan', 'compile_program',
    'compile_rule',
    'parse_atom', 'parse_program', 'parse_rule', 'pretty',
    'check_program_safety', 'check_rule_safety', 'is_safe',
]
