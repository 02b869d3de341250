"""The paper's primary contribution: programmable view update strategies —
putback programs, fragment checks, validation (Algorithm 1), view
derivation, and incrementalization."""

from repro.core.get_derivation import (GetDerivation, analyze_steady_state,
                                       derive_get)
from repro.core.incremental import (binarize, incrementalize,
                                    incrementalize_general,
                                    incrementalize_lvgn)
from repro.core.lvgn import (FragmentReport, check_guarded_rule,
                             check_linear_view, classify, is_lvgn)
from repro.core.putget import (getput_check_program, new_source_rules,
                               putget_check_program)
from repro.core.strategy import UpdateStrategy
from repro.core.validation import (CheckResult, ValidationReport, validate,
                                   well_definedness_program)

__all__ = [
    'GetDerivation', 'analyze_steady_state', 'derive_get', 'binarize',
    'incrementalize', 'incrementalize_general', 'incrementalize_lvgn',
    'FragmentReport', 'check_guarded_rule', 'check_linear_view', 'classify',
    'is_lvgn', 'getput_check_program', 'new_source_rules',
    'putget_check_program', 'UpdateStrategy', 'CheckResult',
    'ValidationReport', 'validate', 'well_definedness_program',
]
