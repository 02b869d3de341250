"""How much work one satisfiability check does, as counts: one plan
compile and one random pass per check program, each distinct canonical
instance judged once, plan runs logarithmic in the candidates judged,
the batched judge answering what a candidate-by-candidate loop answers,
the class-partition enumerator reaching exactly the class structures
the former partition-of-all-variables enumerator reached, and a clause's
template yielding, partition by partition, what the former
class-by-class construction yielded."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.benchsuite.catalog import entry_by_name
from repro.core.validation import validate
from repro.datalog.ast import Atom, BuiltinLit, Const, Lit, Program, Rule, Var
from repro.datalog.parser import parse_program
from repro.datalog.plan import compile_program, plan_cache_info
from repro.fol import solver
from repro.fol.solver import Clause, SolverConfig

import _partition_reference as reference
from _partition_reference import (closed_blocks, deterministic_prefix,
                                  variable_partitions)

CONFIG = SolverConfig()


# -- counted complexity -------------------------------------------------


def _compile_calls() -> int:
    info = plan_cache_info()
    return info.hits + info.misses


def _check_programs(monkeypatch) -> list:
    """The check program of every ``check_satisfiable`` call validation
    makes, in order."""
    programs: list = []
    real = solver.check_satisfiable

    def recording(program, goal, **kwargs):
        programs.append(program)
        return real(program, goal, **kwargs)

    monkeypatch.setattr('repro.core.validation.check_satisfiable',
                        recording)
    return programs


def _draws(monkeypatch) -> list:
    """One entry per random database the solver draws."""
    drawn: list = []
    real = solver._random_database

    def counting(*args):
        drawn.append(None)
        return real(*args)

    monkeypatch.setattr(solver, '_random_database', counting)
    return drawn


STRATEGIES = ('luxuryitems', 'outstanding_task')


def test_one_plan_compile_per_check(monkeypatch):
    """Compiles grow with the number of check programs, not of checks
    or of candidates."""
    strategies = [entry_by_name(name).strategy() for name in STRATEGIES]
    programs = _check_programs(monkeypatch)
    before = _compile_calls()
    reports = [validate(strategy) for strategy in strategies]
    compiles = _compile_calls() - before
    checks = sum(len(report.checks) for report in reports)
    instances = sum(check.instances for report in reports
                    for check in report.checks)
    assert all(report.valid for report in reports)
    assert len(programs) == checks
    assert len(set(programs)) < checks
    assert instances > 100 * checks     # thousands of candidates ...
    assert compiles <= len(set(programs)) + 4   # ... on one plan each
    check = reports[0].checks[-1]
    assert str(check).endswith(f's, {check.instances} instances)')


def test_one_random_pass_per_check_program(monkeypatch):
    """Every check of one program judges the same ``random_trials``
    databases, drawn once."""
    programs = _check_programs(monkeypatch)
    drawn = _draws(monkeypatch)
    for name in STRATEGIES:
        assert validate(entry_by_name(name).strategy()).valid
    assert len(set(programs)) < len(programs)
    assert len(drawn) == CONFIG.random_trials * len(set(programs))


def test_no_search_state_outlives_a_validation(monkeypatch):
    """Two validations of one strategy each draw every stream in full:
    sharing lives and dies with one ``validate`` call."""
    strategy = entry_by_name('luxuryitems').strategy()
    programs = _check_programs(monkeypatch)
    drawn = _draws(monkeypatch)
    counts = []
    for _ in range(2):
        del programs[:], drawn[:]
        reports = validate(strategy)
        counts.append((len(drawn), len(set(programs))))
        assert reports.valid
    assert counts[0] == counts[1] \
        == (CONFIG.random_trials * counts[0][1], counts[0][1])


def test_program_answers_what_one_goal_programs_answer(monkeypatch):
    """A search over a program of several goals answers, goal by goal,
    what the program with that goal's rule alone answers.  ``t`` is read
    by ``g1`` only, so ``g1`` draws a stream of its own: judged on the
    stream of the whole program, ``g2`` would be SAT at 36, not UNSAT
    at 121."""
    shared = parse_program('p(X) :- r(X), not s(X).  '
                           '⊥ :- r(X), not u(X).').rules
    goal_rules = parse_program("g1(X) :- p(X), t(X).  "
                               "g2(X) :- p(X), X = 'b'.  "
                               "g3(X) :- s(X), not r(X).").rules
    search = solver.Search(Program(shared + goal_rules),
                           [rule.head.pred for rule in goal_rules])
    drawn = _draws(monkeypatch)
    answers = {}
    for rule in goal_rules:
        goal = rule.head.pred
        alone = solver.check_satisfiable(Program(shared + (rule,)), goal)
        shared_answer = search.check(goal)
        assert (shared_answer.status, shared_answer.method,
                shared_answer.instances, shared_answer.witness) \
            == (alone.status, alone.method, alone.instances, alone.witness)
        answers[goal] = (alone.method, alone.instances)
    assert answers == {'g1': ('randomized search', 11),
                       'g2': ('bounded search', 121),
                       'g3': ('canonical instance', 1)}
    # Two one-goal checks drew a stream each; the search drew two.
    assert len(drawn) == 4 * CONFIG.random_trials


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
    values = {value for _, row in candidate for value in row
              if fresh(value)}
    rank = {value: ('fresh', type(value).__name__, index)
            for index, value in enumerate(
                sorted(values, key=lambda v: (type(v).__name__, v)))}
    return frozenset((pred, tuple(rank.get(value, value) for value in row))
                     for pred, row in candidate)


def test_each_canonical_instance_judged_once(monkeypatch):
    judged: list = []
    per_check: list[list] = []
    nested = [0]            # a raising batch's halves are not new batches
    real_first, real_check = solver._Worlds.first, solver.check_satisfiable

    def recording_first(worlds, batch, goals):
        if not nested[0]:
            judged.extend(map(_order_preserving_form, batch))
        nested[0] += 1
        try:
            return real_first(worlds, batch, goals)
        finally:
            nested[0] -= 1

    def recording_check(*args, **kwargs):
        del judged[:]
        result = real_check(*args, **kwargs)
        assert result.instances == len(judged)
        per_check.append(list(judged))
        return result

    monkeypatch.setattr(solver._Worlds, 'first', recording_first)
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


# -- batched verification -----------------------------------------------


def _zero_ary(pred, body, *first):
    """``pred() :- first, body``: the parser reads no zero-arity atom."""
    return Rule(Atom(pred, ()),
                first + parse_program(f'h(0) :- {body}.').rules[0].body)


# Negation, ``<`` against constants, a body without a positive atom,
# zero-arity heads, and ⊥-rules, one of which reads an IDB predicate.
P_RULES = parse_program('''
    p(X) :- r(X, Y), not s(Y).
    p(X) :- s(X), X < 5.
    p(X) :- X = 3, not s(3).
    p(Y) :- r(X, Y), not r(Y, X), X < Y.
''').rules
GOAL_RULES = [
    parse_program('q(X) :- p(X), s(X).').rules,
    (_zero_ary('q', 'p(X), not r(X, X)'),),
    (_zero_ary('t', 'not s(1)'),
     _zero_ary('q', 'p(X)', Lit(Atom('t', ())))),
]
CONSTRAINTS = parse_program('⊥ :- r(X, Y), s(X), Y < 2.  '
                            '⊥ :- s(X), not p(X).').rules
# 'a' raises SchemaError wherever it meets ``<``.
VALUE = st.sampled_from([0, 1, 2, 3, 4, 6, 'a'])
CANDIDATE = st.builds(
    lambda r, s: frozenset([('r', row) for row in r] +
                           [('s', row) for row in s]),
    st.sets(st.tuples(VALUE, VALUE), max_size=3),
    st.sets(st.tuples(VALUE), max_size=2))


@st.composite
def check_programs(draw):
    rules = draw(st.lists(st.sampled_from(P_RULES), min_size=1, max_size=4,
                          unique=True))
    rules += draw(st.sampled_from(GOAL_RULES))
    rules += draw(st.lists(st.sampled_from(CONSTRAINTS), max_size=1))
    return Program(tuple(rules))


@settings(deadline=None, max_examples=300)
@given(check_programs(), st.lists(CANDIDATE, min_size=1, max_size=40))
def test_batch_answers_what_a_plain_loop_answers(program, batch):
    """For one goal, and for every goal of the program judged in one
    batch (``p`` is read by ``q``; a raising batch is bisected for the
    goals still unanswered)."""
    plan = compile_program(program)
    expected = {goal: next((index for index, candidate in enumerate(batch)
                            if solver._verify(plan, goal, candidate)), None)
                for goal in ('q', 'p')}
    assert solver._Worlds(program).first(batch, ('q',)) \
        == {'q': expected['q']}
    assert solver._Worlds(program).first(batch, ('q', 'p')) == expected


def _plan_runs(monkeypatch) -> list:
    runs: list = []
    real = solver.execute_plan

    def counting(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, 'execute_plan', counting)
    return runs


def test_plan_runs_grow_with_log_of_candidates(monkeypatch):
    runs = _plan_runs(monkeypatch)
    args = ', '.join('ABCDEF')
    result = solver.check_satisfiable(
        parse_program(f'q(A) :- r({args}), not r({args}).'), 'q',
        config=SolverConfig(random_trials=97))
    # 203 partitions of six classes, then 97 random databases.
    assert not result.is_sat and result.instances == 300
    assert len(runs) <= math.ceil(math.log2(300)) + 2


def test_raising_candidate_costs_log_runs(monkeypatch):
    batch = [frozenset({('r', (5 + index,))}) for index in range(256)]
    batch[100] = frozenset({('r', ('a',))})
    worlds = solver._Worlds(parse_program('q(X) :- r(X), X < 5.'))
    runs = _plan_runs(monkeypatch)
    assert worlds.first(batch, ('q',)) == {'q': None}
    assert len(runs) <= 2 * math.log2(len(batch)) + 2
    batch[200] = frozenset({('r', (4,))})
    assert worlds.first(batch, ('q',)) == {'q': 200}


_SEED_PROBE = '''
import json
from repro.core import validation
from repro.core.strategy import UpdateStrategy
import test_mutation_soundness as mutants

results = []
real = validation.check_satisfiable

def recording(program, goal, **kwargs):
    result = real(program, goal, **kwargs)
    witness = result.witness.relations.items() if result.is_sat else ()
    results.append([goal, result.method, result.instances,
                    sorted((name, sorted(map(repr, rows)))
                           for name, rows in witness)])
    return result

validation.check_satisfiable = recording
for mutation in ('forgets_to_unretire', 'deletes_history_instead_of_inserting'):
    validation.validate(UpdateStrategy.parse(
        'ced', mutants.CED_SOURCES, mutants.CED_MUTANTS[mutation],
        expected_get=mutants.CED_GET), config=mutants.FAST)
print(json.dumps(results))
'''


def test_answers_do_not_depend_on_hash_seed():
    """The random pass hands draws to relations in name order, so two
    interpreters with different string hashes find the same witnesses."""
    tests = Path(__file__).parent
    outputs = []
    for seed in ('0', '1'):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(tests.parent / 'src'),
                                               str(tests)]))
        outputs.append(json.loads(subprocess.run(
            [sys.executable, '-c', _SEED_PROBE], env=env, check=True,
            capture_output=True, text=True).stdout))
    assert any(witness for *_, witness in outputs[0])
    assert outputs[0] == outputs[1]


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


def _new_structures(clause, config=CONFIG, seed=0):
    """``[(class structure, instance or None)]`` as the solver enumerates
    them, or None when the clause closes to no instance; a structure's
    classes are named as in ``reference.close_clause``."""
    types = solver._infer_types(None, clause)
    template = solver._close_clause(clause, types)
    if template is None:
        return None
    classes = reference.close_clause(clause, types).classes
    return [(frozenset(frozenset(cls for slot, cls in enumerate(classes)
                                 if mask >> slot & 1) for mask in masks),
             template.facts((labels, masks)))
            for labels, masks in solver._candidate_partitions(
                template.size, config, random.Random(seed))]


def _reference_structures(clause, config=CONFIG, seed=0):
    """The same, by the former class-by-class construction."""
    closed = reference.close_clause(clause, solver._infer_types(None, clause))
    if closed is None:
        return None
    return [(frozenset(map(frozenset, blocks)),
             reference.instance(closed, blocks))
            for blocks in reference.class_partitions(
                closed.classes, config, random.Random(seed))]


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
    structures = dict(new)
    assert set(structures) == set(old)
    # An instance is a function of its class structure alone, so equal
    # structure sets are equal candidate sets — fresh values included.
    closed = reference.close_clause(clause, solver._infer_types(None, clause))
    for blocks in old:
        assert reference.instance(closed, blocks) == structures[blocks]


@settings(deadline=None, max_examples=300)
@given(clauses(1, 11), st.sampled_from([CONFIG, CONFIG.scaled_down()]))
def test_partitions_yield_the_former_instances_in_order(clause, config):
    """Partition by partition, the template yields what the former
    construction yielded, in its order and at the same raw index: a
    partition the template refuses before building values (two pins or
    a disequal pair in one block) is one the former construction
    yielded None for, and it still counts against the cap — 64 under
    ``scaled_down()``, which binds from six classes on."""
    assert _new_structures(clause, config) \
        == _reference_structures(clause, config)


def test_refused_partitions_count_against_the_cap():
    """Six classes, two pinned apart: of the first 64 partitions (of
    203), those merging ``A`` and ``B`` yield nothing, and the 64th is
    still the last one tried."""
    clause = Clause((Atom('r', tuple(map(Var, 'ABCDEF'))),),
                    (BuiltinLit('=', Var('A'), Const(1)),
                     BuiltinLit('=', Var('B'), Const(2))), ())
    config = CONFIG.scaled_down()
    new = _new_structures(clause, config)
    assert len(new) == config.max_partitions_per_clause
    refused = [blocks for blocks, facts in new if facts is None]
    assert refused and all(any({'A', 'B'} <= block for block in blocks)
                           for blocks in refused)
    assert new == _reference_structures(clause, config)


@settings(deadline=None)
@given(clauses(8, 11))
def test_superset_above_seven_variables(clause):
    new = _new_structures(clause)
    if new is None:
        return
    old = _old_structures(clause)
    closed = reference.close_clause(clause, solver._infer_types(None, clause))
    if len(closed.classes) > CONFIG.max_partition_vars:
        # Both sides sample; only the part that is not drawn is comparable.
        old = old[:deterministic_prefix(sorted(clause.variables()))]
    assert set(old) <= {blocks for blocks, _ in new}


def test_instance_ignores_block_order():
    clause = Clause((Atom('r', (Var('A'), Var('B'), Var('C'))),),
                    (BuiltinLit('<', Var('A'), Const(5)),), ())
    template = solver._close_clause(clause, {})
    assert template.facts(solver._partition([[0], [2, 1]])) \
        == template.facts(solver._partition([[1, 2], [0]])) \
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
