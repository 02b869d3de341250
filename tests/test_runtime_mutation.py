"""Mutation tests for the ∂put derivation: a mutant must fail a test.

Each mutant is applied by monkeypatch to :mod:`repro.core.incremental`
and names the behavioural test that kills it — a test that passes on
the real derivation and fails on the mutant.  No syntactic check of
the derived program counts as a killer.
"""

from dataclasses import replace

import pytest

from repro.core import incremental
from repro.datalog.ast import (Atom, Lit, Program, Rule, delete_pred,
                               insert_pred)
from tests import test_put_oracle
from tests.test_engine import TestConstraints
from tests.test_put_oracle import check_entry


def _without_constraints(derive):
    def mutant(putdelta, view):
        return Program(derive(putdelta, view).proper_rules())
    return mutant


def _lvgn_violation(luxury_strategy) -> None:
    # ∂put is derived once per strategy object
    # (UpdateStrategy.incremental_putdelta): each run gets a fresh copy,
    # as the other killers build theirs from the catalog, so the mutant
    # derives its own.
    TestConstraints().test_violating_insert_rejected(
        replace(luxury_strategy), True)


def _general_path_oracle(_luxury_strategy) -> None:
    for backend in ('memory', 'sqlite'):
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


def _purchaseview_oracle(_luxury_strategy) -> None:
    for backend in ('memory', 'sqlite'):
        check_entry('purchaseview', backend, seeds=range(2))


def _without_union_guard(_fix):
    def mutant(rules, derived):
        return derived
    return mutant


def _union_read_downstream_oracle(_luxury_strategy) -> None:
    for backend in ('memory', 'sqlite'):
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


#: mutant -> (function of :mod:`repro.core.incremental` it replaces,
#: the mutation, its killer)
MUTANTS = {
    # M1: LVGN's ⊥-rules dropped (Lemma 5.2's substitution skipped).
    'lvgn-constraints-dropped': ('incrementalize_lvgn',
                                 _without_constraints, _lvgn_violation),
    # M1's twin: the delta form of the Appendix-C path's ⊥-rules dropped.
    'general-constraints-dropped': ('incrementalize_general',
                                    _without_constraints,
                                    _general_path_oracle),
    # M3: the Appendix-C union guard skipped (a row leaving one union
    # branch is deleted even when another branch still derives it).
    # Every catalog union is a delta head, whose deletion rules
    # Proposition 5.1 drops; only a union read further down sees it.
    'union-guard-skipped': ('_union_deletion_fix', _without_union_guard,
                            _union_read_downstream_oracle),
    # M4: the Appendix-C ν-rule ``v__nu :- +v`` dropped (the view's
    # post-state loses its inserted rows).
    'view-insertions-dropped': ('incrementalize_general',
                                _without_view_insertions,
                                _purchaseview_oracle),
    # M6: the projection template's deletion guard ``not r1__nu(~X, _)``
    # dropped (a tuple leaves h although another r1 tuple still
    # projects onto it).
    'projection-guard-dropped': ('_figure7_rules',
                                 _without_projection_guard,
                                 _general_path_oracle),
    # M7: the merged join/negation template reads a negated r2's
    # deltas with a positive r2's signs.
    'negation-signs-swapped': ('_figure7_rules', _negation_signs_swapped,
                               _general_path_oracle),
    # M8: a changed union's branch that reads nothing changed is left
    # out of the union's post-state ``h__nu``, which the union guard
    # reads.
    'unchanged-branch-post-state-dropped': ('_figure7_rules',
                                            _without_unchanged_post_state,
                                            _union_read_downstream_oracle),
}


@pytest.mark.parametrize('mutant', MUTANTS)
def test_mutant_is_killed(mutant, monkeypatch, luxury_strategy):
    target, mutate, killer = MUTANTS[mutant]
    killer(luxury_strategy)
    monkeypatch.setattr(incremental, target,
                        mutate(getattr(incremental, target)))
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        killer(luxury_strategy)
