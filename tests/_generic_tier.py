"""The generic (step-walking) tier of the plan executor: the reference
the sealed tier of :mod:`repro.datalog.evaluator` is tested against.

A rule plan runs here by walking its step tuple with a recursive
cursor over a slot array — no generated code — and a putback run
(``execute_deltas``) in one plan context that materialises each wanted
delta goal.  :func:`installed` routes every rule of every plan run
inside the block through this tier, so a test can run one plan on both
tiers and compare the outcomes (``tests/test_plan.py``,
``tests/test_evaluator.py``).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.datalog import evaluator
from repro.datalog.evaluator import Row, _compare, _PlanContext
from repro.datalog.plan import (BindStep, CompareStep, ExecutionPlan,
                                ProbeStep, RulePlan, ScanStep)
from repro.datalog.pretty import pretty_rule
from repro.errors import ConstraintViolation

__all__ = ['installed']


@contextmanager
def installed():
    """Run every rule, and every putback run, on the generic tier
    inside the block.  ``execute_deltas`` is replaced wherever a loaded
    module imported it."""
    sealed = evaluator._run_rule, evaluator._probe_rule
    evaluator._run_rule = _run_rule_generic
    evaluator._probe_rule = _probe_rule_generic
    run = evaluator.execute_deltas
    importers = [module for module in list(sys.modules.values())
                 if vars(module).get('execute_deltas') is run]
    for module in importers:
        module.execute_deltas = _execute_deltas_generic
    try:
        yield
    finally:
        evaluator._run_rule, evaluator._probe_rule = sealed
        for module in importers:
            module.execute_deltas = run


def _execute_deltas_generic(plan: ExecutionPlan, edb, relations, *,
                            check: bool = True) -> dict:
    """The generic tier of ``execute_deltas``: one plan context runs
    the ⊥-rules to their first witness, then materialises each delta
    goal that targets ``relations``."""
    ctx = _PlanContext(edb, plan)
    for constraint in plan.constraint_plans if check else ():
        witnesses: set[Row] = set()
        _run_rule_generic(constraint.rule_plan, ctx, witnesses, limit=1)
        if witnesses:
            raise ConstraintViolation(pretty_rule(constraint.rule),
                                      *witnesses)
    pairs: dict[str, list] = {}
    for goal, relation, insertion in plan.delta_targets:
        if relation in relations:
            pair = pairs.setdefault(relation, [frozenset(), frozenset()])
            pair[not insertion] = ctx.relation(goal).rows
    return {relation: tuple(pairs[relation]) for relation in sorted(pairs)
            if any(pairs[relation])}


class _Unbound:
    __slots__ = ()

    def __repr__(self):
        return '<unbound>'


_UNBOUND = _Unbound()


def _holds(step, env: list, ctx: _PlanContext) -> bool:
    """One non-scan step of the generic tier over the bindings ``env``:
    does the binding pass it?  A :class:`BindStep` assigns its slot and
    always passes; a fully bound atom of a pending IDB predicate is
    answered top-down (:meth:`_PlanContext.probe`), any other atom by
    :meth:`IndexedRelation.exists`."""
    cls = step.__class__
    if cls is BindStep:
        s, c = step.source
        env[step.slot] = c if s < 0 else env[s]
        return True
    if cls is CompareStep:
        (ls, lc), (rs, rc) = step.left, step.right
        return _compare(step.op, lc if ls < 0 else env[ls],
                        rc if rs < 0 else env[rs]) == step.expect
    key = tuple(c if s < 0 else env[s] for s, c in step.key)
    if len(step.positions) == step.arity and ctx.is_pending_idb(step.pred):
        held = ctx.probe(step.pred, key)
    else:
        held = ctx.relation(step.pred).exists(step.positions, key,
                                              step.arity)
    return held if cls is ProbeStep else not held


def _run_rule_generic(rule_plan: RulePlan, ctx: _PlanContext,
                      out: set[Row], limit: int | None = None) -> None:
    """The generic (step-walking) tier of :func:`_run_rule`."""
    steps = rule_plan.steps
    nsteps = len(steps)
    head = rule_plan.head
    env = [_UNBOUND] * rule_plan.nslots

    def advance(i: int) -> bool:
        """Continue the search; False propagates "limit reached"."""
        while i < nsteps:
            step = steps[i]
            if step.__class__ is ScanStep:
                key = tuple(c if s < 0 else env[s] for s, c in step.key)
                relation = ctx.relation(step.pred)
                checks = step.checks
                free = step.free
                for row in relation.lookup(step.positions, key):
                    if checks and any(row[a] != row[b]
                                      for a, b in checks):
                        continue
                    for pos, slot in free:
                        env[slot] = row[pos]
                    if not advance(i + 1):
                        return False
                return True
            if not _holds(step, env, ctx):
                return True
            i += 1
        out.add(tuple(c if s < 0 else env[s] for s, c in head))
        return limit is None or len(out) < limit

    advance(0)


def _probe_rule_generic(rule_plan: RulePlan, ctx: _PlanContext,
                        row: tuple) -> bool:
    """The generic (step-walking) tier of :func:`_probe_rule`."""
    for pos, value in rule_plan.match_consts:
        if row[pos] != value:
            return False
    env = [_UNBOUND] * rule_plan.nslots
    for pos, slot in rule_plan.match_binds:
        env[slot] = row[pos]
    for pos, slot in rule_plan.match_checks:
        if row[pos] != env[slot]:
            return False
    steps = rule_plan.probe_steps
    nsteps = len(steps)

    def satisfiable(i: int) -> bool:
        while i < nsteps:
            step = steps[i]
            if step.__class__ is ScanStep:
                key = tuple(c if s < 0 else env[s] for s, c in step.key)
                relation = ctx.relation(step.pred)
                checks = step.checks
                free = step.free
                for candidate in relation.lookup(step.positions, key):
                    if checks and any(candidate[a] != candidate[b]
                                      for a, b in checks):
                        continue
                    for pos, slot in free:
                        env[slot] = candidate[pos]
                    if satisfiable(i + 1):
                        return True
                return False
            if not _holds(step, env, ctx):
                return False
            i += 1
        return True

    return satisfiable(0)
