"""Planner tests: compile-once semantics, plan reuse in the engine,
plan-vs-wrapper equivalence on the benchsuite QA catalog, and
index-requirement declarations."""

import dataclasses
import enum

import pytest

from repro.benchsuite.catalog_qa import QA_ENTRIES
from repro.core.strategy import UpdateStrategy
from repro.datalog.evaluator import (IndexedRelation,
                                     constraint_violations, evaluate,
                                     execute_deltas)
from repro.datalog.ast import delete_pred, insert_pred
from repro.datalog.parser import parse_program
from repro.datalog.pretty import pretty_rule
from repro.datalog.plan import (ExecutionPlan, NegationStep, ProbeStep,
                                compile_program, compile_rule,
                                schedule_body)
from repro.errors import (ConstraintViolation, SafetyError, SchemaError,
                          TransformationError)
from repro.rdbms.engine import Engine
from repro.relational.database import Database
from repro.relational.generators import random_database
from repro.relational.schema import DatabaseSchema
from tests import _generic_tier as generic_tier


def db(**relations):
    return Database.from_dict(relations)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 3


class TestCompile:

    def test_plans_are_memoized_across_reparses(self):
        text = 'v(X, Z) :- r(X, Y), s(Y, Z).'
        first = compile_program(parse_program(text))
        second = compile_program(parse_program(text))
        assert first is second

    def test_cache_bypass_compiles_fresh(self):
        program = parse_program('v(X) :- r(X).')
        assert compile_program(program, cache=False) \
            is not compile_program(program, cache=False)

    def test_plan_is_immutable(self):
        plan = compile_program(parse_program('v(X) :- r(X).'))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.order = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.rules_for('v')[0].nslots = 99

    def test_plans_and_strategies_pickle(self):
        # Plans are cached inside UpdateStrategy instances; both must
        # survive pickling (multiprocessing) and deep copies.
        import copy
        import pickle

        plan = compile_program(parse_program('v(X, Z) :- r(X, Y), s(Y, Z).'))
        edb = db(r={(1, 'a')}, s={('a', 2)})
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.evaluate(edb) == plan.evaluate(edb)
        assert copy.deepcopy(plan).evaluate(edb) == plan.evaluate(edb)

        strategy = UpdateStrategy.parse(
            'v', DatabaseSchema.build(r={'a': 'int'}),
            '+r(X) :- v(X), not r(X).\n-r(X) :- r(X), not v(X).',
            'v(X) :- r(X).')
        revived = pickle.loads(pickle.dumps(strategy))
        assert revived.putdelta_plan.evaluate(
            db(r={(1,)}, v={(1,), (2,)})) \
            == strategy.putdelta_plan.evaluate(db(r={(1,)}, v={(1,), (2,)}))

    def test_join_declares_index_requirement(self):
        plan = compile_program(parse_program('v(X, Z) :- r(X, Y), s(Y, Z).'))
        assert ('s', (0,)) in plan.index_requirements

    def test_delta_and_intermediate_rule_groups(self):
        plan = compile_program(parse_program("""
            ⊥ :- luxuryitems(I, N, P), not P > 1000.
            +items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
            expensive(I, N, P) :- items(I, N, P), P > 1000.
            -items(I, N, P) :- expensive(I, N, P),
                not luxuryitems(I, N, P).
        """))
        assert plan.delta_goals == ('+items', '-items')
        assert plan.intermediate_preds == {'expensive'}
        assert len(plan.constraint_plans) == 1

    def test_unsafe_program_rejected_at_compile_time(self):
        with pytest.raises(SafetyError):
            compile_program(parse_program('v(X, Y) :- r(X).'),
                            cache=False)

    def test_unschedulable_rule_rejected(self):
        rule = parse_program('v(X) :- not r(X).').rules[0]
        with pytest.raises(SafetyError):
            compile_rule(rule)

    def test_schedule_body_orders_for_evaluability(self):
        rule = parse_program('v(X) :- X > 1, r(X).').rules[0]
        ordered = schedule_body(rule.body)
        assert str(ordered[0]) == 'r(X)'


class TestExecuteDeltas:
    """``execute_deltas``: the ⊥-check and the delta goals of one
    putback run, in one function sealed for the plan, turned into
    ``(insertions, deletions)`` pairs through the goal table the plan
    compiled."""

    PROGRAM = """
        ⊥ :- v(X), X > 9.
        +r1(X) :- v(X), not r1(X).
        -r2(X) :- r2(X), not v(X).
        +other(X) :- v(X).
        aux(X) :- r1(X).
    """

    def test_goal_table_builds_deltas(self):
        plan = compile_program(parse_program(self.PROGRAM))
        assert plan.delta_targets == (('+other', 'other', True),
                                      ('+r1', 'r1', True),
                                      ('-r2', 'r2', False))
        deltas = execute_deltas(plan, db(v={(3,)}, r2={(2,)}),
                                {'r1', 'r2', 'other'})
        assert deltas == {'other': ({(3,)}, frozenset()),
                          'r1': ({(3,)}, frozenset()),
                          'r2': (frozenset(), {(2,)})}
        assert list(deltas) == ['other', 'r1', 'r2']

    def test_goals_of_other_relations_are_not_evaluated(self):
        # +bad compares an int with 'a': running it would raise.
        plan = compile_program(parse_program(
            self.PROGRAM + "+bad(X) :- v(X), X > 'a'."), cache=False)
        with pytest.raises(SchemaError):
            execute_deltas(plan, db(v={(3,)}), {'bad'})
        assert execute_deltas(plan, db(v={(3,)}, r1={(3,)}),
                              {'r1', 'r2'}) == {}

    def test_violation_matches_first_witness_check(self):
        from repro.errors import ConstraintViolation
        plan = compile_program(parse_program(self.PROGRAM))
        edb = db(v={(3,), (12,)})
        (rule, witness), = plan.constraint_violations(edb,
                                                      first_witness=True)
        with pytest.raises(ConstraintViolation) as raised:
            execute_deltas(plan, edb, {'r1'})
        assert raised.value.witness == witness
        assert raised.value.constraint == pretty_rule(rule)
        assert execute_deltas(plan, edb, {'r1'}, check=False)['r1'] \
            == ({(3,), (12,)}, frozenset())

    def test_one_context_for_check_and_goals(self, monkeypatch):
        """A run whose rules read no IDB predicate builds no plan
        context; one whose ⊥-check and goals read one shares one."""
        from repro.datalog import evaluator
        contexts = []
        real = evaluator._PlanContext.__init__

        def counting(self, *args, **kwargs):
            contexts.append(self)
            real(self, *args, **kwargs)
        monkeypatch.setattr(evaluator._PlanContext, '__init__', counting)
        plan = compile_program(parse_program(self.PROGRAM))
        execute_deltas(plan, db(v={(3,)}), {'r1', 'r2'})
        assert contexts == []
        plan = compile_program(parse_program("""
            ⊥ :- v(X), not keep(X).
            keep(X) :- r1(X), X < 9.
            +r2(X) :- v(X), keep(X), not r2(X).
        """))
        edb = db(v={(3,)}, r1={(3,), (4,)})
        assert execute_deltas(plan, edb, {'r2'}) == {'r2': ({(3,)},
                                                            frozenset())}
        assert len(contexts) == 1

    def test_generic_tier_routes_the_putback_run(self):
        """``tests/_generic_tier.installed()`` runs a putback through
        the generic tier: no plan function is sealed inside it, and the
        outcome is the sealed run's."""
        plan = compile_program(parse_program(self.PROGRAM), cache=False)
        edb = db(v={(3,)}, r2={(2,)})
        with generic_tier.installed():
            generic = execute_deltas(plan, edb, {'r1', 'r2'})
        assert plan.sealed == {}
        assert execute_deltas(plan, edb, {'r1', 'r2'}) == generic
        assert plan.sealed


class TestExecution:

    def test_plan_evaluate_matches_wrapper(self):
        program = parse_program("""
            a(X) :- r(X, _).
            v(X) :- a(X), not s(X), X > 1.
        """)
        edb = db(r={(1, 'x'), (2, 'y'), (3, 'z')}, s={(3,)})
        plan = compile_program(program, cache=False)
        assert plan.evaluate(edb) == evaluate(program, edb)

    def test_goals_limit_materialisation(self):
        plan = compile_program(parse_program("""
            cheap(X) :- r(X).
            expensive(X) :- r(X), s(X).
            v(X) :- cheap(X).
        """))
        out = plan.evaluate(db(r={(1,)}, s={(1,)}), goals=('v',))
        assert out['v'] == {(1,)}
        assert 'expensive' not in out.names()

    def test_constraint_violations_via_plan(self):
        plan = compile_program(parse_program('⊥ :- r(X), X > 2.'))
        violations = plan.constraint_violations(db(r={(5,)}))
        assert len(violations) == 1
        assert violations[0][1] == (5,)

    def test_static_schedule_handles_probe_bindings(self):
        # The probe schedule is compiled with head variables pre-bound:
        # `aux` is only ever probed fully bound and never materialised.
        plan = compile_program(parse_program("""
            aux(X, Y) :- big(X, Y).
            v(X) :- small(X), aux(X, X).
        """))
        out = plan.evaluate(db(small={(1,), (2,)}, big={(1, 1), (2, 9)}),
                            goals=('v',))
        assert out['v'] == {(1,)}


class TestStatisticsSeeding:
    """``compile_program(..., stats=...)`` breaks scheduling ties by
    estimated relation size (the engine passes observed cardinalities
    at define_view time)."""

    TEXT = 'h(X, Y) :- big(X), small(X, Y).'

    def _first_scan(self, plan):
        return plan.rule_plans['h'][0].steps[0].pred

    def test_stats_break_scheduling_ties(self):
        program = parse_program(self.TEXT)
        unseeded = compile_program(program)
        # Without stats the tie breaks by source order: big drives.
        assert self._first_scan(unseeded) == 'big'
        seeded = compile_program(program,
                                 stats={'big': 100_000, 'small': 4})
        assert self._first_scan(seeded) == 'small'
        # Known sizes beat unknown ones (unknown = assume large).
        partial = compile_program(program, stats={'small': 4})
        assert self._first_scan(partial) == 'small'

    def test_stats_key_separates_cache_entries(self):
        program = parse_program(self.TEXT)
        a = compile_program(program, stats={'big': 10, 'small': 99})
        b = compile_program(program, stats={'small': 99, 'big': 10})
        assert a is b                     # order-independent stats key
        assert compile_program(program) is not a

    def test_stats_do_not_change_results(self):
        program = parse_program(self.TEXT)
        edb = db(big={(1,), (2,)}, small={(1, 'a'), (3, 'b')})
        seeded = compile_program(program, stats={'big': 2, 'small': 2})
        assert seeded.evaluate(edb, goals=('h',))['h'] == {(1, 'a')}
        assert evaluate(program, edb)['h'] == {(1, 'a')}

    def test_engine_seeds_planner_with_observed_sizes(self):
        sources = DatabaseSchema.build(big={'a': 'int'},
                                       small={'a': 'int', 'b': 'int'})
        strategy = UpdateStrategy.parse('h', sources, """
            +big(X) :- h(X, _), not big(X).
        """, expected_get=self.TEXT)
        engine = Engine(sources)
        engine.load('big', [(i,) for i in range(500)])
        engine.load('small', [(1, 2)])
        entry = engine.define_view(strategy, validate_first=False)
        assert self._first_scan(entry.get_plan) == 'small'


def _qa_instances(entry, n=40):
    """(program, instance) pairs exercising the entry's putback program
    on a random source instance in steady state and under a deletion,
    and its ∂put deleting that row and inserting it back."""
    strategy = entry.strategy()
    data = random_database(strategy.sources, entry.sizes(n), seed=11,
                           column_pools=entry.column_pools)
    view_rows = strategy.get(data)
    steady = data.with_relation(entry.name, view_rows)
    yield strategy.putdelta, steady
    if view_rows:
        row = min(view_rows, key=repr)
        shrunk = data.with_relation(entry.name, view_rows - {row})
        yield strategy.putdelta, shrunk
        try:
            dput = strategy.incremental_putdelta
        except TransformationError:
            return
        yield dput, steady.with_relation(delete_pred(entry.name), {row})
        yield dput, shrunk.with_relation(insert_pred(entry.name), {row})


@pytest.mark.parametrize('entry', [e for e in QA_ENTRIES if e.expressible],
                         ids=lambda e: e.name)
def test_plan_executor_bit_identical_on_qa_catalog(entry):
    """`evaluate()` and a freshly compiled plan executor agree exactly
    (same IDB relations, same constraint witnesses) on every QA view."""
    for program, instance in _qa_instances(entry):
        plan = compile_program(program, cache=False)
        assert plan.evaluate(instance) == evaluate(program, instance)
        assert plan.constraint_violations(instance) \
            == constraint_violations(program, instance)


class TestEngineReuse:

    SOURCES = DatabaseSchema.build(
        items={'iid': 'int', 'iname': 'string', 'price': 'int'})
    PUTDELTA = """
        ⊥ :- luxuryitems(I, N, P), not P > 1000.
        +items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
        expensive(I, N, P) :- items(I, N, P), P > 1000.
        -items(I, N, P) :- expensive(I, N, P), not luxuryitems(I, N, P).
    """
    GET = "luxuryitems(I, N, P) :- items(I, N, P), P > 1000."

    def _engine(self):
        strategy = UpdateStrategy.parse('luxuryitems', self.SOURCES,
                                        self.PUTDELTA, self.GET)
        engine = Engine(strategy.sources)
        engine.load('items', {(1, 'watch', 5000), (2, 'pen', 10)})
        entry = engine.define_view(strategy, validate_first=False)
        return engine, entry

    def test_same_plan_objects_across_repeated_updates(self):
        engine, entry = self._engine()
        plans_before = (entry.get_plan, entry.incremental_plan,
                        entry.strategy.putdelta_plan)
        for i in range(5):
            engine.insert('luxuryitems', (100 + i, f'ring{i}', 2000 + i))
        engine.delete('luxuryitems', where={'iid': 100})
        entry_after = engine.view('luxuryitems')
        assert entry_after is entry
        assert (entry_after.get_plan, entry_after.incremental_plan,
                entry_after.strategy.putdelta_plan) == plans_before
        assert entry_after.get_plan is plans_before[0]
        assert entry_after.incremental_plan is plans_before[1]
        assert all(isinstance(p, ExecutionPlan) for p in plans_before
                   if p is not None)

    def test_strategy_compiles_plans_once(self):
        strategy = UpdateStrategy.parse('luxuryitems', self.SOURCES,
                                        self.PUTDELTA, self.GET)
        assert strategy.putdelta_plan is strategy.putdelta_plan
        assert strategy.get_plan is strategy.get_plan

    def test_engine_prebuilds_declared_indexes(self):
        from repro.benchsuite.catalog import entry_by_name
        from repro.benchsuite.workload import build_engine
        entry = entry_by_name('koncerty')
        engine = build_engine(entry, 120, backend='memory')
        view_entry = engine.view('koncerty')
        # The get plan joins koncert ⋈ venues on the venue id (which
        # side drives the join depends on the cardinality stats the
        # engine seeds the planner with); the engine routes the
        # resulting index hints to the backend at define_view time,
        # which builds the persistent indexes immediately.
        declared = {(pred, positions) for pred, positions
                    in view_entry.get_plan.index_requirements
                    if pred in ('koncert', 'venues')}
        assert declared            # the join declares at least one probe
        for pred, positions in declared:
            assert positions in engine.backend._tables[pred]._indexes


class TestSealedExecutor:
    """The generated (sealed) executor tier must be observationally
    identical to the generic step interpreter — same rows, same
    constraint witnesses, same limit behavior."""

    @staticmethod
    def _putback(plan, instance):
        """The putback run of every goal of ``plan`` over ``instance``,
        unchecked and checked (a violation as its rule and witness)."""
        relations = {relation for _, relation, _ in plan.delta_targets}
        unchecked = execute_deltas(plan, instance, relations, check=False)
        try:
            checked = execute_deltas(plan, instance, relations)
        except ConstraintViolation as violation:
            checked = violation.constraint, violation.witness
        return unchecked, checked

    def _outcome(self, plan, instance, goals, raises):
        """Rows and violations (all, and the first witness) of ``plan``
        over ``instance``, and its putback run — or, when the case
        ``raises``, the ``SchemaError`` it may raise, as (class,
        message)."""
        try:
            return (plan.evaluate(instance, goals=goals),
                    plan.constraint_violations(instance),
                    plan.constraint_violations(instance,
                                               first_witness=True),
                    self._putback(plan, instance))
        except SchemaError as error:
            if not raises:
                raise
            return type(error), str(error)

    def _both_tiers(self, program, instance, goals=None, raises=False):
        plan = compile_program(program, cache=False)
        for _ in range(3):        # sealed at once; reruns reuse the code
            sealed = self._outcome(plan, instance, goals, raises)
        with generic_tier.installed():
            generic = self._outcome(plan, instance, goals, raises)
        assert sealed == generic
        return plan, sealed

    @pytest.mark.parametrize('entry',
                             [e for e in QA_ENTRIES if e.expressible],
                             ids=lambda e: e.name)
    def test_sealed_matches_generic_on_qa_catalog(self, entry):
        for program, instance in _qa_instances(entry):
            self._both_tiers(program, instance)

    def test_sealed_matches_generic_on_probe_heavy_program(self):
        program = parse_program("""
            aux(X, Y) :- r(X, Y), Y > 2.
            v(X) :- s(X), not aux(X, X).
            w(X, Y) :- r(X, Y), s(X), X = Y.
            ⊥ :- v(X), X > 90.
        """)
        instance = db(r={(i, i % 7) for i in range(100)},
                      s={(i,) for i in range(0, 100, 3)})
        self._both_tiers(program, instance)

    def test_partly_bound_negation_after_a_bucket_empties(self):
        """A partly bound negated atom is a key test on its index's
        dict, an all-wildcard one a test of the relation's emptiness:
        the sealed tier agrees with the generic one on each shape, also
        over a persistent relation whose bucket a delete emptied."""
        program = parse_program("""
            a(X) :- p(X), not q(X, _).
            b(X) :- p(X), not q(_, X).
            c(X) :- p(X), not q(_, _).
            ⊥ :- p(X), X > 2, not q(X, _).
        """)
        q = IndexedRelation({(1, 2), (2, 3), (3, 1)})
        q.ensure_index((0,))
        instance = {'p': {(1,), (2,), (3,)}, 'q': q}
        _, (rows, violations, *_) = self._both_tiers(program, instance)
        assert rows['a'] == rows['b'] == rows['c'] == frozenset()
        assert violations == []
        q.difference_update({(3, 1)})
        _, (rows, violations, *_) = self._both_tiers(program, instance)
        assert (rows['a'], rows['b'], rows['c']) == (
            {(3,)}, {(1,)}, frozenset())
        assert len(violations) == 1

    def test_partly_bound_scan_reads_each_bucket_shape(self):
        """A partly bound scan reads its index's dict inline: a bare
        row, a list and a dict bucket (after a delete) each yield their
        rows, a missing key none — as the generic tier's ``lookup``."""
        program = parse_program("""
            v(X, Y) :- p(X), q(X, Y).
            w(Y) :- p(X), q(X, Y), q(Y, X).
        """)
        q = IndexedRelation({(1, 1), (2, 1), (2, 2), (2, 3), (3, 2)})
        q.ensure_index((0,))
        instance = {'p': {(1,), (2,), (4,)}, 'q': q}
        _, (rows, *_) = self._both_tiers(program, instance)
        assert rows['v'] == {(1, 1), (2, 1), (2, 2), (2, 3)}
        assert rows['w'] == {(1,), (2,), (3,)}
        q.difference_update({(2, 2)})           # the list becomes a dict
        assert q._indexes[(0,)][1][2].__class__ is dict
        _, (rows, *_) = self._both_tiers(program, instance)
        assert rows['v'] == {(1, 1), (2, 1), (2, 3)}
        assert rows['w'] == {(1,), (3,)}

    def test_sealed_first_witness_limit(self):
        program = parse_program('⊥ :- r(X), X > 10.')
        plan = compile_program(program, cache=False)
        instance = db(r={(i,) for i in range(100)})
        for _ in range(3):
            sealed = plan.constraint_violations(instance,
                                                first_witness=True)
        assert len(sealed) == 1
        rule, witness = sealed[0]
        assert witness[0] > 10
        # The sealed run functions really are installed and shared.
        rule_plan = plan.constraint_plans[0].rule_plan
        assert callable(rule_plan.sealed[0])

    def test_rule_sealed_in_two_plans_compiles_once(self, monkeypatch):
        """A rule sealed again in another plan reuses the compiled code,
        and each generated function still names its own rule."""
        from repro.datalog import evaluator as ev
        from repro.datalog.plan import clear_plan_cache
        compiled = []

        def counting(source, *args):
            compiled.append(source)
            return compile(source, *args)

        clear_plan_cache()
        monkeypatch.setattr(ev, 'compile', counting, raising=False)
        program = parse_program('v(X) :- r(X, Y), Y > 2.  w(X) :- r(X, 5).')
        plans = [compile_program(program, cache=False) for _ in range(2)]
        for plan in plans:
            for _ in range(2):          # the rerun reuses the sealed code
                plan.evaluate(db(r={(1, 3), (2, 5)}))
        assert len(compiled) == 2
        for plan in plans:
            for pred in ('v', 'w'):
                rule_plan = plan.rule_plans[pred][0]
                assert rule_plan.sealed[0].__code__.co_filename \
                    == f'<sealed {rule_plan.rule}>'

    def test_putback_sealed_in_two_plans_compiles_once(self, monkeypatch):
        """A putback run is sealed once per plan and target set, and an
        equal plan reuses the compiled code."""
        from repro.datalog import evaluator as ev
        from repro.datalog.plan import clear_plan_cache
        compiled = []

        def counting(source, *args):
            compiled.append(source)
            return compile(source, *args)

        clear_plan_cache()
        monkeypatch.setattr(ev, 'compile', counting, raising=False)
        program = parse_program('⊥ :- v(X), X > 9.  +r(X) :- v(X), '
                                'not r(X).  -r(X) :- r(X), not v(X).')
        plans = [compile_program(program, cache=False) for _ in range(2)]
        for plan in plans:
            for _ in range(2):
                assert execute_deltas(plan, db(v={(1,)}, r={(2,)}),
                                      {'r'}) == {'r': ({(1,)}, {(2,)})}
            assert set(plan.sealed) == {(frozenset({'r'}), True)}
        assert len(compiled) == 1
        assert plans[0].sealed != plans[1].sealed   # bound per plan

    @pytest.mark.parametrize('comparison', [
        'X > 2', 'X <= 2', 'not X < 2', 'X >= 2.5', 'X < 2.5',
        "X > 'm'", "X <= 'm'", '2 < X', "'m' >= X"])
    @pytest.mark.parametrize('values', [
        [0, 1, 2, 3, 4], [0.5, 2.0, 2.5, 3.5], ['a', 'm', 'z'],
        [True], [_Level.HIGH, _Level.LOW, 3], [1, 'm'], ['m', 2.5]],
        ids=['int', 'float', 'str', 'bool', 'IntEnum', 'mixed',
             'mixed-str-first'])
    def test_ordered_comparison_against_a_constant(self, comparison,
                                                   values):
        """Inline or through ``_compare``, the sealed tier keeps the
        generic one's rows and its ``SchemaError``s: a ``bool`` or a
        mixed-type pair raises, an ``IntEnum`` compares as an int."""
        text = f"""
            v(X) :- r(X), {comparison}.
            ⊥ :- r(X), {comparison}.
        """
        self._both_tiers(parse_program(text),
                         db(r={(value,) for value in values}), raises=True)

    def test_edb_probe_beside_a_pending_idb_probe(self):
        """A fully bound atom of an input relation is a membership test;
        one of a pending IDB predicate is answered top-down, and its
        negation too — in one rule, in both tiers."""
        plan, (rows, violations, *_) = self._both_tiers(parse_program("""
            aux(X, Y) :- r(X, Y), Y > 1.
            v(X, Y) :- s(X, Y), r(X, Y), aux(X, Y), not t(X).
            w(X) :- s(X, Y), not aux(X, Y), t(Y).
            ⊥ :- s(X, Y), r(X, Y), not aux(X, Y), not t(Y).
        """), db(r={(1, 2), (2, 1), (3, 3), (4, 0)},
                s={(1, 2), (2, 1), (3, 3), (4, 4)}, t={(3,), (4,)}))
        assert rows['v'] == {(1, 2)} and rows['w'] == {(4,)}
        assert [w for _rule, w in violations] == [(2, 1)]
        assert plan.rule_plans['v'][0].idb == plan.idb

    def test_unfolded_negation_with_constant_and_wildcard(self):
        """``not p(t̄)`` of a pass-through ``p(X, Y) :- r(X, _, Y, 'k')``
        runs as a negation of ``r``: the body's constant keys its
        position, an existential position and a wildcard of ``t̄`` are
        left out of the key, a constant of ``t̄`` keys its own."""
        plan, (rows, violations, first, _) = self._both_tiers(
            parse_program("""
            p(X, Y) :- r(X, _, Y, 'k').
            v(X, Y) :- s(X, Y), not p(X, Y).
            w(X) :- s(X, _), not p(X, _).
            u(X) :- s(X, _), not p(X, 3).
            ⊥ :- s(X, Y), not p(X, _), X > 3.
        """), db(r={(1, 'a', 2, 'k'), (1, 'b', 3, 'x'), (2, 'c', 3, 'k'),
                   (5, 'd', 1, 'k')},
                s={(1, 2), (1, 3), (2, 3), (4, 5), (6, 1)}))
        assert rows['v'] == {(1, 3), (4, 5), (6, 1)}
        assert rows['w'] == {(4,), (6,)}
        assert rows['u'] == {(1,), (4,), (6,)}
        assert [w for _rule, w in violations] == [(4, 5)]
        assert [w for _rule, w in first] in ([(4, 5)], [(6, 1)])
        negations = {rule: [(step.pred, step.positions, step.key)
                            for step in rule_plan.steps
                            if isinstance(step, NegationStep)]
                     for rule, rule_plan in
                     [(pred, plan.rule_plans[pred][0])
                      for pred in ('v', 'w', 'u')]
                     + [('⊥', plan.constraint_plans[0].rule_plan)]}
        assert negations == {
            'v': [('r', (0, 2, 3), ((0, None), (1, None), (-1, 'k')))],
            'w': [('r', (0, 3), ((0, None), (-1, 'k')))],
            'u': [('r', (0, 2, 3), ((0, None), (-1, 3), (-1, 'k')))],
            '⊥': [('r', (0, 3), ((0, None), (-1, 'k')))]}
        # The violation still names the rule as written.
        assert pretty_rule(plan.constraint_plans[0].rule) \
            == 'false :- s(X, Y), not p(X, _anon4), X > 3.'

    def test_bound_positive_pass_through_probes_its_source(self):
        """A fully bound positive ``p(t̄)`` of a pass-through
        ``p(X, Y) :- r(X, _, Y, 'k')`` is one probe of ``r`` on the
        body's constant and the head's positions; an atom that binds a
        variable still scans ``p``."""
        plan, (rows, violations, *_) = self._both_tiers(parse_program("""
            p(X, Y) :- r(X, _, Y, 'k').
            v(X, Y) :- s(X, Y), p(X, Y).
            w(X) :- s(X, _), p(X, 3).
            u(X, Y) :- s(X, _), p(X, Y).
            ⊥ :- s(X, Y), p(X, Y), X > 4.
        """), db(r={(1, 'a', 2, 'k'), (1, 'b', 3, 'x'), (2, 'c', 3, 'k'),
                   (5, 'd', 1, 'k')},
                s={(1, 2), (1, 3), (2, 3), (4, 5), (5, 1)}))
        assert rows['v'] == {(1, 2), (2, 3), (5, 1)}
        assert rows['w'] == {(2,)}
        assert rows['u'] == {(1, 2), (2, 3), (5, 1)}
        assert [w for _rule, w in violations] == [(5, 1)]
        probes = {pred: [(step.pred, step.positions, step.key)
                         for step in rule_plan.steps
                         if isinstance(step, ProbeStep)]
                  for pred, rule_plan in
                  [(pred, plan.rule_plans[pred][0])
                   for pred in ('v', 'w', 'u')]
                  + [('⊥', plan.constraint_plans[0].rule_plan)]}
        assert probes == {
            'v': [('r', (0, 2, 3), ((0, None), (1, None), (-1, 'k')))],
            'w': [('r', (0, 2, 3), ((0, None), (-1, 3), (-1, 'k')))],
            'u': [],
            '⊥': [('r', (0, 2, 3), ((0, None), (1, None), (-1, 'k')))]}
        assert ('r', (0, 2, 3)) in plan.index_requirements

    @pytest.mark.parametrize('text', [
        'q(X, Y) :- r(X, Y).  p(X) :- q(X, _).',       # over an IDB
        'p(X) :- r(X, X).',                             # repeated in Ȳ
        'p(X, X) :- r(X, _).',                          # repeated head
        'p(X) :- r(X, 1), r(X, _).',                    # two atoms
        'p(X) :- r(X, _).  p(X) :- r(_, X).',           # two rules
    ], ids=['idb-source', 'repeated-body-variable', 'repeated-head',
            'two-atoms', 'two-rules'])
    def test_other_shapes_are_not_unfolded(self, text):
        arity = 2 if text.startswith('p(X, X)') else 1
        args = ', '.join(['X'] * arity)
        plan, _outcome = self._both_tiers(
            parse_program(text + f' v(X) :- s(X), not p({args}).'),
            db(r={(1, 1), (2, 3), (3, 1)}, s={(1,), (2,), (4,)}))
        step, = [step for step in plan.rule_plans['v'][0].steps
                 if isinstance(step, NegationStep)]
        assert step.pred == 'p'
