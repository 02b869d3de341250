"""First-order logic substrate: formulas, translations, and the bounded
satisfiability solver (§4, Appendices A/B)."""

from repro.fol.datalog_to_fol import predicate_to_fol, rule_body_to_fol
from repro.fol.fol_to_datalog import fol_to_datalog, ranf_to_datalog
from repro.fol.formula import (BOTTOM, TOP, And, Bottom, Exists, FoAtom,
                               FoCmp, FoConst, FoEq, FoVar, Forall, Formula,
                               Not, Or, Top, free_variables, make_and,
                               make_exists, make_or, substitute)
from repro.fol.normalize import (NOT_SAFE, is_safe_range, range_restricted,
                                 to_ranf, to_srnf)
from repro.fol.solver import (SatResult, SatStatus, SolverConfig,
                              check_satisfiable, unfold_to_clauses)

__all__ = [
    'predicate_to_fol', 'rule_body_to_fol', 'fol_to_datalog',
    'ranf_to_datalog', 'BOTTOM', 'TOP', 'And', 'Bottom', 'Exists', 'FoAtom',
    'FoCmp', 'FoConst', 'FoEq', 'FoVar', 'Forall', 'Formula', 'Not', 'Or',
    'Top', 'free_variables', 'make_and', 'make_exists', 'make_or',
    'substitute', 'NOT_SAFE', 'is_safe_range', 'range_restricted',
    'to_ranf', 'to_srnf', 'SatResult', 'SatStatus', 'SolverConfig',
    'check_satisfiable', 'unfold_to_clauses',
]
