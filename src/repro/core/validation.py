"""Validation of view update strategies — Algorithm 1 of the paper (§4).

The pipeline has three passes (Fig. 4):

1. **Well-definedness** (§4.2): the computed ΔS is never contradictory —
   the predicates ``d_i :- +r_i, -r_i`` are unsatisfiable.
2. **GetPut / view derivation** (§4.3): the expected view definition (when
   supplied) satisfies GetPut; otherwise a view definition is derived from
   the steady-state analysis (φ1/φ2/φ3).
3. **PutGet** (§4.4): the composition ``get ∘ put`` reproduces the view.

Every check is discharged through the bounded satisfiability solver
(:mod:`repro.fol.solver`).  The resulting :class:`ValidationReport` mirrors
Theorem 4.3: for LVGN-Datalog strategies the verdict is *conclusive*
(the fragment's decidability), otherwise it is *bounded* (the paper's
semi-decision via an automated prover).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.datalog.ast import (Atom, Lit, Program, Rule, Var, delete_pred,
                               delta_base, insert_pred)
from repro.datalog.pretty import pretty
from repro.core.get_derivation import derive_get
from repro.core.lvgn import FragmentReport, classify
from repro.core.putget import getput_check_program, putget_check_program
from repro.core.strategy import UpdateStrategy
from repro.errors import ValidationError
from repro.fol.solver import Search, SolverConfig, check_satisfiable
from repro.relational.database import Database

__all__ = ['CheckResult', 'ValidationReport', 'validate',
           'well_definedness_program']


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one satisfiability-based check."""

    name: str
    passed: bool
    detail: str = ''
    witness: Database | None = None
    elapsed: float = 0.0
    instances: int = 0      # candidate databases the solver verified

    def __str__(self) -> str:
        status = 'PASS' if self.passed else 'FAIL'
        text = (f'[{status}] {self.name} ({self.elapsed:.3f}s, '
                f'{self.instances} instances)')
        if self.detail:
            text += f' — {self.detail}'
        return text


@dataclass
class ValidationReport:
    """Everything Algorithm 1 produced for one strategy."""

    strategy: UpdateStrategy
    valid: bool
    conclusive: bool
    fragment: FragmentReport
    checks: list[CheckResult] = field(default_factory=list)
    derived_get: Program | None = None
    expected_get_confirmed: bool | None = None
    elapsed: float = 0.0

    @property
    def view_definition(self) -> Program | None:
        """The view definition certified by validation (derived, or the
        confirmed expected one)."""
        if self.derived_get is not None:
            return self.derived_get
        if self.expected_get_confirmed:
            return self.strategy.expected_get
        return None

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def raise_if_invalid(self) -> None:
        if not self.valid:
            first = self.failures()[0]
            raise ValidationError(
                f'strategy for view {self.strategy.name!r} is invalid: '
                f'{first.name} failed — {first.detail}')

    def __str__(self) -> str:
        verdict = 'VALID' if self.valid else 'INVALID'
        certainty = 'conclusive' if self.conclusive else 'bounded search'
        lines = [f'validation of view {self.strategy.name!r}: {verdict} '
                 f'({certainty}, {self.elapsed:.3f}s, fragment: '
                 f'{self.fragment})']
        lines += [f'  {check}' for check in self.checks]
        if self.derived_get is not None:
            lines.append('  derived view definition:')
            lines += [f'    {line}'
                      for line in pretty(self.derived_get).splitlines()]
        if self.expected_get_confirmed is not None:
            lines.append(f'  expected get confirmed: '
                         f'{self.expected_get_confirmed}')
        return '\n'.join(lines)


# ---------------------------------------------------------------------------
# Pass 1: well-definedness
# ---------------------------------------------------------------------------


def well_definedness_program(strategy: UpdateStrategy
                             ) -> tuple[Program, list[str]]:
    """The ``d_i :- +r_i(~X), -r_i(~X)`` checks of §4.2 (rule (2)): the
    putdelta program with one goal per relation that has both kinds of
    delta, and those goals."""
    putdelta = strategy.putdelta
    deltas = putdelta.delta_preds()
    arities = putdelta.arities()
    rules: list[Rule] = []
    for base in sorted({delta_base(p) for p in deltas}):
        plus, minus = insert_pred(base), delete_pred(base)
        if plus not in deltas or minus not in deltas:
            continue  # only one kind of delta: trivially non-contradictory
        args = tuple(Var(f'D{i}') for i in range(arities[plus]))
        rules.append(Rule(Atom(f'__wd_{base}__', args),
                          (Lit(Atom(plus, args), True),
                           Lit(Atom(minus, args), True))))
    return (Program(putdelta.rules + tuple(rules)),
            [rule.head.pred for rule in rules])


# ---------------------------------------------------------------------------
# The validator
# ---------------------------------------------------------------------------


def _search(family: tuple[Program, list[str]], strategy: UpdateStrategy,
            config: SolverConfig) -> Search:
    """The solver work a check program's goals share."""
    return Search(*family, schema=strategy.sources.extend(strategy.view),
                  edb_arities={strategy.view.name: strategy.view.arity},
                  config=config)


def _run_check(name: str, goal: str, search: Search,
               fail_detail: str) -> CheckResult:
    started = time.perf_counter()
    result = check_satisfiable(search.program, goal, search=search)
    elapsed = time.perf_counter() - started
    if result.is_sat:
        return CheckResult(name, False, fail_detail, result.witness,
                           elapsed, result.instances)
    return CheckResult(name, True, '', None, elapsed, result.instances)


def validate(strategy: UpdateStrategy, *,
             config: SolverConfig | None = None,
             derive_when_expected_fails: bool = True) -> ValidationReport:
    """Run Algorithm 1 on ``strategy`` and return the full report.

    When the strategy carries an ``expected_get``, it is tried first as the
    GetPut candidate (and ``expected_get_confirmed`` reports whether it was
    certified); otherwise — or when it fails and
    ``derive_when_expected_fails`` — the view definition is derived from
    the steady-state analysis.
    """
    config = config or SolverConfig()
    started = time.perf_counter()
    fragment = classify(strategy.putdelta, strategy.view.name)
    checks: list[CheckResult] = []
    report = ValidationReport(strategy=strategy, valid=False,
                              conclusive=fragment.lvgn, fragment=fragment,
                              checks=checks)

    def finish() -> ValidationReport:
        report.elapsed = time.perf_counter() - started
        report.valid = all(c.passed for c in checks) and bool(checks)
        return report

    # -- pass 1: well-definedness ---------------------------------------
    search = _search(well_definedness_program(strategy), strategy, config)
    for goal in search.goals:
        base = goal.strip('_').removeprefix('wd_')
        checks.append(_run_check(
            f'well-definedness of Δ{base}', goal, search,
            f'putdelta can both insert and delete the same {base} tuple'))
        if not checks[-1].passed:
            return finish()
    if not checks:
        checks.append(CheckResult('well-definedness', True,
                                  'no relation has both +r and -r rules'))

    # -- pass 2: GetPut (expected get, then derivation) --------------------
    get_program: Program | None = None
    if strategy.expected_get is not None:
        ok = True
        search = _search(getput_check_program(
            strategy.putdelta, strategy.expected_get, strategy.view.name,
            strategy.sources), strategy, config)
        for goal in search.goals:
            check = _run_check(
                f'GetPut with expected get ({goal.strip("_")})', goal,
                search,
                'put modifies a source that already matches the expected '
                'view')
            checks.append(check)
            if not check.passed:
                ok = False
                break
        if ok:
            get_program = strategy.expected_get
            report.expected_get_confirmed = True
        elif not derive_when_expected_fails:
            return finish()
        else:
            report.expected_get_confirmed = False

    if get_program is None:
        derive_started = time.perf_counter()
        derivation = derive_get(
            strategy.putdelta, strategy.view.name, strategy.view.arity,
            set(strategy.sources.names()),
            schema=strategy.sources.extend(strategy.view), config=config)
        derive_elapsed = time.perf_counter() - derive_started
        derive_instances = sum(
            result.instances for result in (derivation.phi3_result,
                                            derivation.phi12_result)
            if result is not None)
        if not derivation.ok:
            # Drop the failed expected-get checks' verdicts from blocking —
            # the derivation verdict subsumes them.
            checks.append(CheckResult(
                'existence of a view definition satisfying GetPut',
                False, derivation.reason or 'derivation failed',
                (derivation.phi3_result.witness
                 if derivation.phi3_result and derivation.phi3_result.is_sat
                 else (derivation.phi12_result.witness
                       if derivation.phi12_result and
                       derivation.phi12_result.is_sat else None)),
                derive_elapsed, derive_instances))
            return finish()
        checks.append(CheckResult(
            'existence of a view definition satisfying GetPut (derived)',
            True, 'steady-state view constructed from φ2', None,
            derive_elapsed, derive_instances))
        get_program = derivation.get_program
        report.derived_get = derivation.get_program
        # The derived get must itself satisfy GetPut; when the expected
        # get failed we keep validating against the derived one, and the
        # earlier failures stop counting toward validity.
        if report.expected_get_confirmed is False:
            report.checks[:] = [
                c for c in checks
                if not c.name.startswith('GetPut with expected get')]
            checks = report.checks
        search = _search(getput_check_program(
            strategy.putdelta, get_program, strategy.view.name,
            strategy.sources), strategy, config)
        for goal in search.goals:
            check = _run_check(
                f'GetPut with derived get ({goal.strip("_")})', goal,
                search,
                'the derived view definition does not satisfy GetPut')
            checks.append(check)
            if not check.passed:
                return finish()

    # -- pass 3: PutGet -------------------------------------------------------
    search = _search(putget_check_program(
        strategy.putdelta, get_program, strategy.view.name,
        strategy.view.arity, strategy.sources), strategy, config)
    checks.append(_run_check(
        'PutGet (no extra tuples: Φ1)', search.goals[0], search,
        'get(put(S, V)) can contain a tuple outside the updated view'))
    if not checks[-1].passed:
        return finish()
    checks.append(_run_check(
        'PutGet (no missing tuples: Φ2)', search.goals[1], search,
        'get(put(S, V)) can lose a tuple of the updated view'))
    return finish()
