"""The differential oracle: every execution mode commits bit-identical
state, or raises the same error, on randomized workloads — and the
reference engine commits what ``put`` says.

Configurations compared (see ``strategies.build_engines``): memory vs
SQLite storage, sharded (3 mixed-backend shards) vs single engine,
overlapped process-per-shard workers (``execution='processes'``) vs
everything in-process, and a WAL-fed read replica (reads served from
delta shipping, never from plan re-execution) vs direct execution.
After every transaction the committed base tables, the materialised
view caches, and the raised-error behavior must agree across all of
them; at workload end the replica's log is additionally replayed into a
fresh engine (crash recovery) which must land on the same state.

The put axis holds the reference engine to the specification: a
transaction of view statements only, run on a steady state ``S``
(the ⊥-constraints hold and ``put(S, get(S)) = S``), raises exactly
when ``check_constraints(S, V')`` raises and otherwise commits
``put(S, V')``, where ``V'`` is the view after its statements under
set semantics.  Transactions on a state that is not steady (a base
write under the view can leave one, ROADMAP item 22) are skipped;
:data:`PUT_AXIS` counts both, and the run's summary reports them.

Profiles: CI runs the bounded smoke (``--hypothesis-profile=ci``);
``REPRO_FUZZ=long`` selects the deep profile locally (≥200 generated
transactions against the sharded engine).  A pinned seed corpus runs
under every profile via ``@example``.
"""

from __future__ import annotations

from collections import Counter

import pytest

hypothesis = pytest.importorskip('hypothesis')
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.errors import ConstraintViolation, ReproError           # noqa: E402
from repro.rdbms.dml import Delete, Insert                         # noqa: E402

from tests.test_put_oracle import expected_view, is_steady         # noqa: E402

from .strategies import (FUZZ_VIEWS, Workload, _strategy,          # noqa: E402
                         build_engines, random_workload)

#: Pinned reproductions that stay in every profile (the seed corpus).
SEED_CORPUS = [('luxuryitems', 7), ('luxuryitems', 1031),
               ('officeinfo', 3), ('officeinfo', 512),
               ('outstanding_task', 11), ('outstanding_task', 4097),
               ('outstanding_task', 23709),
               ('vw_brands', 23), ('vw_brands', 2048)]

#: View-only transactions the put axis checked (``rejected``: of them,
#: those ``put`` refuses), and those it skipped because their
#: pre-state was not steady, over the whole session.
PUT_AXIS: Counter = Counter()

_NOT_CHECKED = object()


def _as_call(statement) -> tuple:
    """A DML statement as the ``(method, args)`` pair
    :func:`~tests.test_put_oracle.expected_view` reads."""
    if isinstance(statement, Insert):
        return 'insert', (statement.values,)
    if isinstance(statement, Delete):
        return 'delete', (statement.where,)
    return 'update', (statement.assignments, statement.where)


def put_expectation(strategy, state, transaction):
    """What ``put`` says ``transaction`` commits on ``state``:
    ``put(S, V')``, or None when ``check_constraints(S, V')`` raises.
    ``_NOT_CHECKED`` for a transaction that writes a base table, or
    whose pre-state is not steady (counted as a skip)."""
    view = strategy.view.name
    if any(target != view for target, _ in transaction):
        return _NOT_CHECKED
    if not is_steady(strategy, state):
        PUT_AXIS['skipped'] += 1
        return _NOT_CHECKED
    PUT_AXIS['checked'] += 1
    new_view = expected_view(
        strategy.get(state),
        [_as_call(statement) for _, statements in transaction
         for statement in statements],
        strategy.view.attributes)
    try:
        strategy.check_constraints(state, new_view)
    except ConstraintViolation:
        PUT_AXIS['rejected'] += 1
        return None
    return strategy.put(state, new_view)


def run_differential(workload: Workload, *, extended: bool = False,
                     reference: str = 'memory',
                     keep_engines: bool = False) -> dict:
    """Execute the workload on every configuration, asserting identical
    outcomes after each transaction, and the reference's outcome
    against ``put`` on the put axis.  Engines are closed on the way out
    (they hold worker processes and SQLite connections); pass
    ``keep_engines`` for extra assertions on live engines — the caller
    then owns the close."""
    engines = build_engines(workload, extended=extended)
    view = workload.view
    strategy = _strategy(view)
    try:
        for number, transaction in enumerate(workload.transactions):
            expected = put_expectation(
                strategy, engines[reference].database(), transaction)
            outcomes: dict[str, str | None] = {}
            for name, engine in engines.items():
                try:
                    engine.execute_many(transaction)
                    outcomes[name] = None
                except ReproError as error:
                    outcomes[name] = type(error).__name__
            assert len(set(outcomes.values())) == 1, (
                f'divergent raise behavior on {workload!r} '
                f'transaction #{number}: {outcomes}')
            reference_state = (engines[reference].database(),
                               frozenset(engines[reference].rows(view)))
            if expected is None:
                assert outcomes[reference] == 'ConstraintViolation', (
                    f'put rejects {workload!r} transaction #{number}, '
                    f'{reference} gave {outcomes[reference]}')
            elif expected is not _NOT_CHECKED:
                assert outcomes[reference] is None \
                    and reference_state[0] == expected, (
                        f'{reference} differs from put on {workload!r} '
                        f'transaction #{number} '
                        f'(outcome {outcomes[reference]})')
            for name, engine in engines.items():
                state = (engine.database(),
                         frozenset(engine.rows(view)))
                assert state == reference_state, (
                    f'{name} diverged from {reference} on {workload!r} '
                    f'transaction #{number} (outcome {outcomes[name]})')
        # Crash recovery: replaying the replica axis's WAL into a
        # fresh engine (what a post-SIGKILL restart does) must land on
        # the reference state too.
        if 'replica' in engines:
            final_state = (engines[reference].database(),
                           frozenset(engines[reference].rows(view)))
            assert engines['replica'].recovered_state(view) \
                == final_state, (
                f'WAL replay recovery diverged from {reference} '
                f'on {workload!r}')
    finally:
        if not keep_engines:
            for engine in engines.values():
                engine.close()
    return engines


@given(view=st.sampled_from(FUZZ_VIEWS),
       seed=st.integers(min_value=0, max_value=2 ** 20))
@example(view='luxuryitems', seed=7)
@example(view='officeinfo', seed=512)
@example(view='outstanding_task', seed=11)
@example(view='outstanding_task', seed=23709)
@example(view='vw_brands', seed=23)
@settings(deadline=None)
def test_all_modes_agree(view, seed):
    """The core matrix: memory/SQLite × sharded/single ×
    inline/processes × replicated/direct leave identical committed base
    tables and view caches, and raise identically, on every generated
    transaction sequence; view-only transactions commit ``put(S, V')``."""
    run_differential(random_workload(view, seed))


@given(view=st.sampled_from(FUZZ_VIEWS),
       seed=st.integers(min_value=2 ** 20, max_value=2 ** 21))
@example(view='luxuryitems', seed=1031)
@example(view='outstanding_task', seed=4097)
@settings(deadline=None)
def test_extended_matrix_agrees(view, seed):
    """The core matrix plus a cluster of SQLite shards only."""
    run_differential(random_workload(view, seed), extended=True)


@pytest.mark.parametrize('view,seed', SEED_CORPUS)
def test_seed_corpus_deterministic(view, seed):
    """The pinned corpus replays identically outside Hypothesis (a
    plain pytest run reproduces any corpus regression directly)."""
    workload = random_workload(view, seed)
    again = random_workload(view, seed)
    assert workload.transactions == again.transactions
    assert {n: set(workload.data[n]) for n in workload.data.names()} \
        == {n: set(again.data[n]) for n in again.data.names()}
    engines = run_differential(workload, keep_engines=True)
    try:
        # Sharded placement really was shard-local — the partitioned
        # paths (routing, scatter-gather, fan-back) were exercised, not
        # the global-fallback degenerate case.
        assert engines['sharded'].placement(view) == 'partitioned'
        assert engines['sharded'].execution == 'inline'
        # The process-backed engine really ran with worker processes
        # (and shard-local placement), not a degenerate fallback.
        assert engines['sharded-procs'].execution == 'processes'
        assert engines['sharded-procs'].placement(view) == 'partitioned'
        assert all(shard.alive
                   for shard in engines['sharded-procs'].shards)
        # The replica axis really replicated: its reads were served at
        # the primary's commit point, through delta application alone.
        replicated = engines['replica']
        assert replicated.replica.applied_lsn \
            == replicated.primary.commit_lsn
        assert replicated.primary.commit_lsn > 0
    finally:
        for engine in engines.values():
            engine.close()


def test_violating_workloads_raise_everywhere():
    """At least one corpus workload exercises the constraint path, and
    a violating insert leaves every configuration untouched."""
    workload = random_workload('luxuryitems', 7)
    found = False
    for seed in range(60):
        candidate = random_workload('luxuryitems', seed)
        if candidate.expects_violations:
            workload, found = candidate, True
            break
    assert found, 'no violating workload in the first 60 seeds'
    run_differential(workload)


def test_put_axis_checks_view_transactions():
    """A corpus workload gives the put axis view-only transactions on
    steady states to check, one of which ``put`` rejects."""
    before = Counter(PUT_AXIS)
    run_differential(random_workload('luxuryitems', 7))
    assert PUT_AXIS['checked'] - before['checked'] == 2
    assert PUT_AXIS['rejected'] - before['rejected'] == 1
