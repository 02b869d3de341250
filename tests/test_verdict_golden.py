"""The validator's verdicts, pinned.

``golden/validation_verdicts.json`` records, for every expressible
Table 1 entry under the default ``SolverConfig``, ``valid``,
``conclusive`` and each check's name and outcome in order, and, for every
mutant of ``test_mutation_soundness.py``, the names of the checks that
fail.  A
change to the bounded search (enumeration order, value synthesis, random
stream) must leave this file as it is; regenerate it with
``PYTHONPATH=src python tests/test_verdict_golden.py`` only when a
verdict is meant to change.  Uses nothing but ``validate`` and the public
evaluator, so the same file checks any earlier commit.

``golden/solver_answers.json`` records, from the same runs, every
answer of ``check_satisfiable`` in order: goal, status, ``method``,
``instances`` and the witness as sorted ``repr`` rows.  A change that
makes the search cheaper must leave every answer as it is, not only the
verdicts it adds up to.
"""

import json
from pathlib import Path

import pytest

from repro.benchsuite.catalog import ALL_ENTRIES
from repro.core import get_derivation, validation
from repro.core.strategy import UpdateStrategy
from repro.core.validation import validate
from repro.datalog.ast import Program
from repro.datalog.evaluator import constraint_violations, evaluate

import test_mutation_soundness as mutants

GOLDEN = Path(__file__).parent / 'golden' / 'validation_verdicts.json'
ANSWERS = Path(__file__).parent / 'golden' / 'solver_answers.json'

EXPRESSIBLE = [e for e in ALL_ENTRIES if e.expressible]

MUTANTS = {
    f'{view}/{mutation}': (view, sources, putdelta, get)
    for view, sources, table, get in (
        ('v', mutants.UNION_SOURCES, mutants.UNION_MUTANTS,
         mutants.UNION_GET),
        ('luxuryitems', mutants.LUXURY_SOURCES, mutants.LUXURY_MUTANTS,
         mutants.LUXURY_GET),
        ('ced', mutants.CED_SOURCES, mutants.CED_MUTANTS, mutants.CED_GET),
        ('employees', mutants.EMPLOYEES_SOURCES, mutants.EMPLOYEES_MUTANTS,
         mutants.EMPLOYEES_GET))
    for mutation, putdelta in table.items()}


def _entry_verdict(entry) -> dict:
    report = validate(entry.strategy())
    return {'valid': report.valid, 'conclusive': report.conclusive,
            'checks': [f'{"PASS" if check.passed else "FAIL"} {check.name}'
                       for check in report.checks]}


def _mutant_failures(key: str) -> list[str]:
    view, sources, putdelta, get = MUTANTS[key]
    strategy = UpdateStrategy.parse(view, sources, putdelta,
                                    expected_get=get)
    report = validate(strategy, config=mutants.FAST)
    return [check.name for check in report.failures()]


def _answered(run, *args) -> tuple:
    """``run(*args)`` and every satisfiability answer it was given."""
    answers: list = []
    real = validation.check_satisfiable

    def recording(program, goal, **kwargs):
        result = real(program, goal, **kwargs)
        witness = result.witness.relations.items() if result.is_sat else ()
        answers.append([goal, result.status.value, result.method,
                        result.instances,
                        sorted([name, sorted(map(repr, rows))]
                               for name, rows in witness)])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validation, 'check_satisfiable', recording)
        patch.setattr(get_derivation, 'check_satisfiable', recording)
        return run(*args), answers


def _runs() -> dict:
    """``{'catalog' | 'mutants': {key: (verdict, answers)}}``: one
    validation of every entry and every mutant."""
    return {'catalog': {entry.name: _answered(_entry_verdict, entry)
                        for entry in EXPRESSIBLE},
            'mutants': {key: _answered(_mutant_failures, key)
                        for key in sorted(MUTANTS)}}


@pytest.fixture(scope='module')
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope='module')
def runs() -> dict:
    return _runs()


def test_golden_covers_catalog_and_mutants(golden):
    assert len(EXPRESSIBLE) == 31
    assert sorted(golden['catalog']) == sorted(e.name for e in EXPRESSIBLE)
    assert sorted(golden['mutants']) == sorted(MUTANTS)
    assert all(golden['mutants'].values())      # every mutant is rejected


@pytest.mark.parametrize('entry', EXPRESSIBLE, ids=lambda e: e.name)
def test_catalog_verdict(entry, golden, runs):
    assert runs['catalog'][entry.name][0] == golden['catalog'][entry.name]


@pytest.mark.parametrize('key', sorted(MUTANTS))
def test_mutant_failing_checks(key, golden, runs):
    assert runs['mutants'][key][0] == golden['mutants'][key]


def test_solver_answers(runs):
    """Every answer of the search, result for result."""
    answers = json.loads(ANSWERS.read_text())
    assert sum(map(len, answers['catalog'].values())) \
        + sum(map(len, answers['mutants'].values())) == 276
    for kind, table in answers.items():
        for key, expected in table.items():
            assert runs[kind][key][1] == expected, key


def test_sat_witnesses_verify(monkeypatch):
    """Every SAT answer met while rejecting the mutants carries a
    database on which the goal is derivable and no constraint fails."""
    real = validation.check_satisfiable
    witnessed = []

    def checking(program, goal, *, constraints=None, **kwargs):
        result = real(program, goal, constraints=constraints, **kwargs)
        if result.is_sat:
            merged = program if constraints is None else \
                Program(program.rules + constraints.rules)
            assert evaluate(merged, result.witness)[goal]
            assert not constraint_violations(merged, result.witness)
            witnessed.append(goal)
        return result

    monkeypatch.setattr(validation, 'check_satisfiable', checking)
    monkeypatch.setattr(get_derivation, 'check_satisfiable', checking)
    for key in MUTANTS:
        assert _mutant_failures(key)
    assert len(witnessed) >= len(MUTANTS)


if __name__ == '__main__':
    GOLDEN.parent.mkdir(exist_ok=True)
    RUNS = _runs()
    for path, part in ((GOLDEN, 0), (ANSWERS, 1)):
        path.write_text(json.dumps(
            {kind: {key: run[part] for key, run in table.items()}
             for kind, table in RUNS.items()},
            indent=1, ensure_ascii=False, sort_keys=True) + '\n')
