"""Mutation tests for the ∂put derivation and the batched pipeline
that runs it: a mutant must fail a test.

Each mutant is applied by monkeypatch to a function of
:mod:`repro.core.incremental` or :mod:`repro.datalog.evaluator` or a
method of :class:`~repro.rdbms.engine.Engine`, and names the
behavioural test that kills it — a test that passes on the real code
and fails on the mutant.  No syntactic check of the derived program
counts as a killer.
"""

from dataclasses import replace

import pytest

from repro.core import incremental
from repro.datalog import evaluator
from repro.datalog.ast import (Atom, Lit, Program, Rule, delete_pred,
                               insert_pred)
from repro.datalog.plan import clear_plan_cache
from repro.rdbms.engine import Engine
from tests import test_engine, test_put_oracle
from tests.test_engine import TestConstraints
from tests.test_put_oracle import check_entry

BACKENDS = ('memory', 'sqlite')


def _without_constraints(derive):
    def mutant(putdelta, view):
        return Program(derive(putdelta, view).proper_rules())
    return mutant


def _lvgn_violation(request) -> None:
    # ∂put is derived once per strategy object
    # (UpdateStrategy.incremental_putdelta): each run gets a fresh copy,
    # as the other killers build theirs from the catalog, so the mutant
    # derives its own.
    TestConstraints().test_violating_insert_rejected(
        replace(request.getfixturevalue('luxury_strategy')), True)


def _general_path_oracle(_request) -> None:
    for backend in BACKENDS:
        check_entry('vw_customers', backend, seeds=range(2))


def _without_view_insertions(derive):
    def mutant(putdelta, view):
        def reads_only_plus_view(rule) -> bool:
            return rule.head is not None \
                and rule.head.pred == f'{view}__nu' \
                and [getattr(literal, 'atom', None) and literal.atom.pred
                     for literal in rule.body] == [insert_pred(view)]
        return Program(tuple(rule for rule in derive(putdelta, view).rules
                             if not reads_only_plus_view(rule)))
    return mutant


def _purchaseview_oracle(_request) -> None:
    for backend in BACKENDS:
        check_entry('purchaseview', backend, seeds=range(2))


def _without_union_guard(_fix):
    def mutant(rules, derived):
        return derived
    return mutant


def _union_read_downstream_oracle(_request) -> None:
    for backend in BACKENDS:
        test_put_oracle.test_union_read_downstream_matches_put(backend)


def _without_projection_guard(figure7):
    def mutant(rule, changed):
        minus = delete_pred(rule.head.pred)
        return [Rule(d.head, tuple(
            literal for literal in d.body if not (
                isinstance(literal, Lit) and not literal.positive
                and literal.atom.pred.endswith('__nu'))))
            if d.head.pred == minus else d
            for d in figure7(rule, changed)]
    return mutant


def _negation_signs_swapped(figure7):
    def mutant(rule, changed):
        derived = figure7(rule, changed)
        negated = [literal.atom.pred for literal in rule.body
                   if isinstance(literal, Lit) and not literal.positive]
        if not negated:
            return derived
        r2, = negated
        swap = {insert_pred(r2): delete_pred(r2),
                delete_pred(r2): insert_pred(r2)}
        return [Rule(d.head, tuple(
            Lit(Atom(swap.get(literal.atom.pred, literal.atom.pred),
                     literal.atom.args), literal.positive)
            if isinstance(literal, Lit) else literal
            for literal in d.body)) for d in derived]
    return mutant


def _without_unchanged_post_state(figure7):
    def mutant(rule, changed):
        return figure7(rule, changed) if rule.body_preds() & changed else []
    return mutant


def _without_read_flush(_flush_for_read):
    def mutant(self, working, target):
        return None
    return mutant


def _base_read_after_view_write(request) -> None:
    pipeline = test_engine.TestBatchedPipeline()
    for backend in BACKENDS:
        pipeline.test_base_read_forces_pending_flush(
            request.getfixturevalue('union_strategy'), backend)


def _cascades_queued(flush_view):
    """Only the outermost flush translates: a cascade stays queued
    behind the views already pending."""
    running = []

    def mutant(self, working, name):
        if running:
            return
        running.append(name)
        try:
            flush_view(self, working, name)
        finally:
            running.pop()
    return mutant


def _cascade_before_later_view(_request) -> None:
    pipeline = test_engine.TestBatchedPipeline()
    for backend in BACKENDS:
        pipeline.test_cascades_translate_depth_first(backend)


def _unchecked_putback(seal):
    """The sealed putback run leaves its ⊥-rules out."""
    def mutant(plan, relations, check):
        return seal(plan, relations, False)
    return mutant


def _sealed_lvgn_violation(request) -> None:
    # The putback run is sealed once per plan, and plans are shared
    # through the plan cache: the run seals afresh, on the backend that
    # interprets ∂put, and leaves nothing it sealed behind.
    request.getfixturevalue('monkeypatch').setenv('REPRO_BACKEND', 'memory')
    clear_plan_cache()
    try:
        _lvgn_violation(request)
    finally:
        clear_plan_cache()


#: mutant -> (module or class whose attribute it replaces, the
#: attribute, the mutation, its killer)
MUTANTS = {
    # M1: LVGN's ⊥-rules dropped (Lemma 5.2's substitution skipped).
    'lvgn-constraints-dropped': (incremental, 'incrementalize_lvgn',
                                 _without_constraints, _lvgn_violation),
    # M1's twin: the delta form of the Appendix-C path's ⊥-rules dropped.
    'general-constraints-dropped': (incremental, 'incrementalize_general',
                                    _without_constraints,
                                    _general_path_oracle),
    # M3: the Appendix-C union guard skipped (a row leaving one union
    # branch is deleted even when another branch still derives it).
    # Every catalog union is a delta head, whose deletion rules
    # Proposition 5.1 drops; only a union read further down sees it.
    'union-guard-skipped': (incremental, '_union_deletion_fix',
                            _without_union_guard,
                            _union_read_downstream_oracle),
    # M4: the Appendix-C ν-rule ``v__nu :- +v`` dropped (the view's
    # post-state loses its inserted rows).
    'view-insertions-dropped': (incremental, 'incrementalize_general',
                                _without_view_insertions,
                                _purchaseview_oracle),
    # M6: the projection template's deletion guard ``not r1__nu(~X, _)``
    # dropped (a tuple leaves h although another r1 tuple still
    # projects onto it).
    'projection-guard-dropped': (incremental, '_figure7_rules',
                                 _without_projection_guard,
                                 _general_path_oracle),
    # M7: the merged join/negation template reads a negated r2's
    # deltas with a positive r2's signs.
    'negation-signs-swapped': (incremental, '_figure7_rules',
                               _negation_signs_swapped,
                               _general_path_oracle),
    # M8: a changed union's branch that reads nothing changed is left
    # out of the union's post-state ``h__nu``, which the union guard
    # reads.
    'unchanged-branch-post-state-dropped': (incremental, '_figure7_rules',
                                            _without_unchanged_post_state,
                                            _union_read_downstream_oracle),
    # M10: a base bucket reads a table a pending view translation
    # would still write, without that translation running first.
    'read-flush-skipped': (Engine, '_flush_for_read', _without_read_flush,
                           _base_read_after_view_write),
    # M11: a cascade is queued behind the pending views instead of
    # translated depth-first.
    'cascades-queued': (Engine, '_flush_view', _cascades_queued,
                        _cascade_before_later_view),
    # M12: the sealed putback run skips its ⊥-rules.
    'putback-constraints-skipped': (evaluator, '_seal_putback',
                                    _unchecked_putback,
                                    _sealed_lvgn_violation),
}


@pytest.mark.parametrize('mutant', MUTANTS)
def test_mutant_is_killed(mutant, monkeypatch, request):
    owner, name, mutate, killer = MUTANTS[mutant]
    killer(request)
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        killer(request)
