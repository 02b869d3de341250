"""Validation algorithm tests (Algorithm 1, §4) — the paper's headline
soundness claims, exercised on valid strategies and broken mutations."""

import pytest

from repro.core.strategy import UpdateStrategy
from repro.core.validation import validate, well_definedness_program
from repro.datalog.evaluator import evaluate
from repro.errors import ValidationError
from repro.fol.solver import SolverConfig
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema

FAST = SolverConfig(random_trials=40)


class TestWellDefinedness:

    def test_programs_only_for_paired_deltas(self, union_strategy):
        program, goals = well_definedness_program(union_strategy)
        # Only r1 has both +r1 and -r1.
        assert goals == ['__wd_r1__']
        assert program.rules[:-1] == union_strategy.putdelta.rules

    def test_contradictory_strategy_fails(self, union_sources):
        strategy = UpdateStrategy.parse('v', union_sources, """
            +r1(X) :- v(X), r1(X).
            -r1(X) :- v(X), r1(X).
        """)
        report = validate(strategy, config=FAST)
        assert not report.valid
        assert 'well-definedness' in report.failures()[0].name

    def test_disjoint_deltas_pass(self, union_strategy):
        report = validate(union_strategy, config=FAST)
        assert all(c.passed for c in report.checks
                   if 'well-definedness' in c.name)


class TestAlgorithmOne:

    def test_union_strategy_valid(self, union_strategy):
        report = validate(union_strategy, config=FAST)
        assert report.valid
        assert report.conclusive  # LVGN ⇒ sound and complete (Thm 4.3)
        assert report.expected_get_confirmed is True
        assert report.view_definition is union_strategy.expected_get

    def test_union_strategy_without_expected_get(self, union_sources):
        from tests.conftest import UNION_PUTDELTA
        strategy = UpdateStrategy.parse('v', union_sources, UNION_PUTDELTA)
        report = validate(strategy, config=FAST)
        assert report.valid
        assert report.derived_get is not None
        db = Database.from_dict({'r1': {(1,)}, 'r2': {(2,)}})
        assert evaluate(report.derived_get, db)['v'] == {(1,), (2,)}

    def test_luxury_strategy_valid(self, luxury_strategy):
        report = validate(luxury_strategy, config=FAST)
        assert report.valid and report.conclusive

    def test_ced_strategy_valid(self, ced_strategy):
        report = validate(ced_strategy, config=FAST)
        assert report.valid

    def test_wrong_expected_get_fails_but_derivation_recovers(
            self, union_sources):
        from tests.conftest import UNION_PUTDELTA
        strategy = UpdateStrategy.parse(
            'v', union_sources, UNION_PUTDELTA,
            expected_get='v(X) :- r1(X).')  # wrong: misses r2
        report = validate(strategy, config=FAST)
        assert report.valid
        assert report.expected_get_confirmed is False
        assert report.derived_get is not None

    def test_wrong_expected_get_without_recovery(self, union_sources):
        from tests.conftest import UNION_PUTDELTA
        strategy = UpdateStrategy.parse(
            'v', union_sources, UNION_PUTDELTA,
            expected_get='v(X) :- r1(X).')
        report = validate(strategy, config=FAST,
                          derive_when_expected_fails=False)
        assert not report.valid

    def test_putget_violation_detected(self, union_sources):
        # Deletion-only strategy: insertions into the view are lost.
        strategy = UpdateStrategy.parse('v', union_sources, """
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
        """, expected_get='v(X) :- r1(X).\nv(X) :- r2(X).')
        report = validate(strategy, config=FAST)
        assert not report.valid
        failed = report.failures()[0]
        assert 'PutGet' in failed.name
        assert failed.witness is not None

    def test_getput_violation_detected(self, union_sources):
        # Deletes tuples that ARE in the view: put changes a steady state.
        strategy = UpdateStrategy.parse('v', union_sources, """
            -r1(X) :- r1(X), v(X).
            -r2(X) :- r2(X), not v(X).
            +r1(X) :- v(X), not r1(X), not r2(X).
        """, expected_get='v(X) :- r1(X).\nv(X) :- r2(X).')
        report = validate(strategy, config=FAST)
        assert not report.valid

    def test_raise_if_invalid(self, union_sources):
        strategy = UpdateStrategy.parse('v', union_sources, """
            +r1(X) :- v(X), r1(X).
            -r1(X) :- v(X), r1(X).
        """)
        report = validate(strategy, config=FAST)
        with pytest.raises(ValidationError):
            report.raise_if_invalid()

    def test_report_rendering(self, union_strategy):
        report = validate(union_strategy, config=FAST)
        text = str(report)
        assert 'VALID' in text and 'PutGet' in text


class TestValidatedPutGetRoundTrip:

    """Dynamic confirmation of the static verdicts: for validated
    strategies, GetPut and PutGet hold on concrete databases."""

    def _roundtrip(self, strategy, source, views):
        report = validate(strategy, config=FAST)
        assert report.valid
        get_program = report.view_definition
        current = evaluate(get_program, source)[strategy.view.name]
        # GetPut: put(S, get(S)) = S.
        assert strategy.put(source, current) == source
        for view in views:
            updated = strategy.put(source, view)
            # PutGet: get(put(S, V')) = V'.
            assert evaluate(get_program,
                            updated)[strategy.view.name] == view

    def test_union(self, union_strategy, union_database):
        self._roundtrip(union_strategy, union_database,
                        [set(), {(1,)}, {(1,), (3,), (4,)}, {(9,)}])

    def test_luxury(self, luxury_strategy):
        source = Database.from_dict({
            'items': {(1, 'watch', 5000), (2, 'pen', 3)}})
        self._roundtrip(luxury_strategy, source,
                        [set(), {(1, 'watch', 5000), (7, 'ring', 1500)}])

    def test_ced(self, ced_strategy):
        source = Database.from_dict({
            'ed': {('a', 'cs'), ('b', 'math')}, 'eed': {('b', 'math')}})
        self._roundtrip(ced_strategy, source,
                        [set(), {('a', 'cs'), ('b', 'math')},
                         {('c', 'bio')}])
