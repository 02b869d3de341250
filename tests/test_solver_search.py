"""How much work one satisfiability check does, as counts: one plan
compile per check, each distinct canonical instance verified once, and
the class-partition enumerator reaching exactly the class structures the
former partition-of-all-variables enumerator reached."""

import random

from hypothesis import given, settings, strategies as st

from repro.benchsuite.catalog import entry_by_name
from repro.core.validation import validate
from repro.datalog.ast import Atom, BuiltinLit, Const, Var
from repro.datalog.parser import parse_program
from repro.datalog.plan import plan_cache_info
from repro.fol import solver
from repro.fol.solver import Clause, SolverConfig

from _partition_reference import (closed_blocks, deterministic_prefix,
                                  variable_partitions)

CONFIG = SolverConfig()


# -- counted complexity -------------------------------------------------


def _compile_calls() -> int:
    info = plan_cache_info()
    return info.hits + info.misses


def test_one_plan_compile_per_check():
    """Compiles grow with the number of checks, not of candidates."""
    strategies = [entry_by_name(name).strategy()
                  for name in ('luxuryitems', 'outstanding_task')]
    before = _compile_calls()
    reports = [validate(strategy) for strategy in strategies]
    compiles = _compile_calls() - before
    checks = sum(len(report.checks) for report in reports)
    instances = sum(check.instances for report in reports
                    for check in report.checks)
    assert all(report.valid for report in reports)
    assert instances > 100 * checks     # thousands of candidates ...
    assert compiles <= checks + 4       # ... on one plan per check
    check = reports[0].checks[-1]
    assert str(check).endswith(f's, {check.instances} instances)')


def test_uncompilable_program_is_bounded_unsat():
    """No candidate can be evaluated, so none is tried."""
    result = solver.check_satisfiable(
        parse_program('q(X) :- r(X), p(X).  p(X) :- q(X).'), 'q')
    assert not result.is_sat and result.instances == 0


def _order_preserving_form(candidate) -> frozenset:
    """``candidate`` with its synthesised fresh values replaced by their
    rank among them: equal forms are the same instance up to a renaming
    of fresh values that keeps their order, the one thing evaluation can
    observe about them beyond equality."""
    def fresh(value):
        return value.startswith('zz') if isinstance(value, str) \
            else value >= 10_000
    values = {value for rows in candidate.values() for row in rows
              for value in row if fresh(value)}
    rank = {value: ('fresh', type(value).__name__, index)
            for index, value in enumerate(
                sorted(values, key=lambda v: (type(v).__name__, v)))}
    return frozenset((pred, tuple(rank.get(value, value) for value in row))
                     for pred, rows in candidate.items() for row in rows)


def test_each_canonical_instance_verified_once(monkeypatch):
    verified: list = []
    per_check: list[list] = []
    real_verify, real_check = solver._verify, solver.check_satisfiable

    def recording_verify(plan, goal, candidate):
        verified.append(_order_preserving_form(candidate))
        return real_verify(plan, goal, candidate)

    def recording_check(*args, **kwargs):
        del verified[:]
        result = real_check(*args, **kwargs)
        assert result.instances == len(verified)
        per_check.append(list(verified))
        return result

    monkeypatch.setattr(solver, '_verify', recording_verify)
    monkeypatch.setattr('repro.core.validation.check_satisfiable',
                        recording_check)
    canonical_only = SolverConfig(random_trials=0)
    for name in ('luxuryitems', 'outstanding_task'):
        assert validate(entry_by_name(name).strategy(),
                        config=canonical_only).valid
    assert len(per_check) == 10
    assert max(map(len, per_check)) > 1000
    for forms in per_check:
        assert len(set(forms)) == len(forms)


# -- enumeration differential -------------------------------------------

VALUES = st.sampled_from([0, 5, 7, 'a', 'm'])


@st.composite
def clauses(draw, min_vars, max_vars):
    names = [f'V{i}' for i in range(draw(st.integers(min_vars, max_vars)))]
    variable = st.sampled_from(names).map(Var)
    term = st.one_of(variable, variable, VALUES.map(Const))
    atoms = draw(st.lists(
        st.builds(lambda pred, args: Atom(f'{pred}{len(args)}', tuple(args)),
                  st.sampled_from('rs'), st.lists(term, min_size=1,
                                                  max_size=3)),
        min_size=1, max_size=4))
    # Every variable occurs positively, as safety demands of a clause.
    atoms += [Atom('u1', (Var(name),)) for name in names]
    builtins = draw(st.lists(
        st.builds(BuiltinLit, st.sampled_from(['=', '=', '<>', '<', '<=']),
                  variable, term, st.booleans()),
        max_size=6))
    return Clause(tuple(atoms), tuple(builtins), ())


def _new_structures(clause, seed=0):
    """``{class structure: instance}`` as the solver enumerates them."""
    closed = solver._close_clause(clause, solver._infer_types(None, clause))
    if closed is None:
        return None
    partitions = solver._candidate_partitions(closed.classes, CONFIG,
                                              random.Random(seed))
    return closed, {frozenset(map(frozenset, blocks)):
                    solver._instance(closed, blocks)
                    for blocks in partitions}


def _old_structures(clause, seed=0):
    variables = sorted(clause.variables())
    return [closed_blocks(clause, partition) for partition in
            variable_partitions(variables, CONFIG, random.Random(seed))]


@settings(deadline=None)
@given(clauses(1, 7))
def test_same_instances_up_to_seven_variables(clause):
    new = _new_structures(clause)
    old = _old_structures(clause)
    if new is None:
        return
    closed, structures = new
    assert set(structures) == set(old)
    # An instance is a function of its class structure alone, so equal
    # structure sets are equal candidate sets — fresh values included.
    for blocks in old:
        assert solver._instance(closed, blocks) == structures[blocks]


@settings(deadline=None)
@given(clauses(8, 11))
def test_superset_above_seven_variables(clause):
    new = _new_structures(clause)
    if new is None:
        return
    closed, structures = new
    old = _old_structures(clause)
    if len(closed.classes) > CONFIG.max_partition_vars:
        # Both sides sample; only the part that is not drawn is comparable.
        old = old[:deterministic_prefix(sorted(clause.variables()))]
    assert set(old) <= set(structures)


def test_instance_ignores_block_order():
    clause = Clause((Atom('r', (Var('A'), Var('B'), Var('C'))),),
                    (BuiltinLit('<', Var('A'), Const(5)),), ())
    closed = solver._close_clause(clause, {})
    assert solver._instance(closed, [['A'], ['C', 'B']]) \
        == solver._instance(closed, [['B', 'C'], ['A']]) \
        == frozenset({('r', (4, 'zz8', 'zz8'))})


def test_random_pass_has_its_own_stream(monkeypatch):
    """Pass 2 draws the same databases whether or not pass 1 drew random
    partitions (a clause above ``max_partition_vars`` classes)."""
    drawn: list = []
    real = solver._random_database

    def recording(rng, *args):
        drawn.append(real(rng, *args))
        return drawn[-1]

    monkeypatch.setattr(solver, '_random_database', recording)
    runs = []
    for args in (', '.join(f'X{i}' for i in range(9)), ', '.join(['X0'] * 9)):
        program = parse_program(f'q(X0) :- r({args}), not r({args}).')
        del drawn[:]
        assert not solver.check_satisfiable(
            program, 'q', config=SolverConfig(random_trials=5)).is_sat
        runs.append(list(drawn))
    assert len(runs[0]) == 5 and runs[0] == runs[1]
