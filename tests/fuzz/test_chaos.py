"""The chaos axis: randomized workloads under deterministic fault
injection.  A process-backed cluster whose workers are killed, whose
RPCs are dropped, or whose logs tear mid-append must end every
workload with committed state **bit-identical** to a fault-free
oracle — no committed transaction is ever lost, no aborted transaction
ever leaks, and the per-shard LSN vectors match exactly.

The oracle is the *same* WAL-backed sharded configuration run with
inline execution: identical routing, identical logs, zero injected
faults (the fault sites — ``worker.dispatch``, ``rpc.send`` — only
exist on the process path, so one plan can stay installed for the
whole run without touching the oracle).  Kill rules are inherited by
the forked workers; ``generation=0`` matching spares restarted
incarnations, so a kill fires exactly once and recovery proceeds.

Profiles as in ``test_differential``: CI runs the bounded smoke
(``--hypothesis-profile=ci``); a pinned corpus of verified-non-vacuous
scenarios (the fault demonstrably fired) replays under every profile.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip('hypothesis')
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.errors import ReproError, ShardUnavailableError         # noqa: E402
from repro.rdbms import faults                                     # noqa: E402
from repro.rdbms.sharded import ShardedEngine                      # noqa: E402

from .strategies import (FUZZ_VIEWS, SHARD_KEYS, _strategy,        # noqa: E402
                         random_workload)

#: Fault scenarios the chaos axis cycles through.  ``kill-apply`` is
#: the hardest: SIGKILL inside the apply phase, *before* the worker's
#: commit-point append, while sibling shards have already applied —
#: the coordinator must repair the shard from its prepare reply.
CHAOS_FAULTS = ('kill-apply', 'kill-prepare', 'drop-rpc')

#: Scenarios pinned because the fault demonstrably fired (a worker
#: restarted, or the coordinator counted the dropped RPC) — the
#: non-vacuous corpus that must stay green under every profile.
SEED_CORPUS = [('luxuryitems', 7, 'kill-apply'),
               ('luxuryitems', 7, 'kill-prepare'),
               ('luxuryitems', 7, 'drop-rpc'),
               ('officeinfo', 7, 'kill-apply'),
               ('officeinfo', 7, 'drop-rpc'),
               ('outstanding_task', 23, 'kill-apply'),
               ('outstanding_task', 7, 'kill-prepare'),
               ('vw_brands', 7, 'kill-apply'),
               ('vw_brands', 7, 'kill-prepare')]

#: How many times the victim's caller re-runs a cleanly aborted
#: transaction.
RERUNS = 3


def _plan_for(fault: str, seed: int) -> faults.FaultPlan:
    shard = seed % 3
    hit = 1 + (seed >> 3) % 2
    plan = faults.FaultPlan(seed=seed)
    if fault == 'kill-apply':
        plan.kill_worker(shard=shard, method='apply_prepared', hit=hit)
    elif fault == 'kill-prepare':
        plan.kill_worker(shard=shard, method='prepare_commit', hit=hit)
    elif fault == 'drop-rpc':
        plan.drop_rpc(shard=shard, method='prepare_commit', hit=hit)
    else:
        raise KeyError(fault)
    return plan


def _outcome(engine, transaction, before=None) -> str | None:
    """Run ``transaction``: ``None`` when it commits, else the name of
    the error it raises.  Given ``before``, the engine's state now, a
    clean abort (``ShardUnavailableError`` whose ``applied`` is false)
    must leave that state as it was, and the transaction is run again,
    up to :data:`RERUNS` times, as a caller of the cluster may."""
    for attempt in range(RERUNS + 1):
        try:
            engine.execute_many(transaction)
            return None
        except ShardUnavailableError as error:
            if before is None or error.applied or attempt == RERUNS:
                return type(error).__name__
            assert engine.database() == before, \
                'a clean abort changed the committed state'
        except ReproError as error:
            return type(error).__name__


def run_chaos(view: str, seed: int, fault: str) -> bool:
    """One chaos scenario: the faulted process cluster vs the
    fault-free inline oracle on the ``(view, seed)`` workload.
    Returns whether the fault actually fired (for corpus vetting)."""
    workload = random_workload(view, seed)
    strategy = _strategy(view)
    plan = _plan_for(fault, seed)
    with tempfile.TemporaryDirectory(prefix='repro-chaos-') as tmp:
        base = Path(tmp)
        with plan.installed():
            # The victim forks FIRST (workers inherit the installed
            # plan and nothing else); the oracle's engines and logs
            # come after, out of the children's address space.
            victim = ShardedEngine(strategy.sources, shards=3,
                                   shard_keys=SHARD_KEYS[view],
                                   execution='processes',
                                   wal_dir=base / 'victim',
                                   wal_sync=False)
            oracle = ShardedEngine(strategy.sources, shards=3,
                                   shard_keys=SHARD_KEYS[view],
                                   execution='inline',
                                   wal_dir=base / 'oracle',
                                   wal_sync=False)
            try:
                for engine in (victim, oracle):
                    for name in strategy.sources.names():
                        engine.load(name, workload.data[name])
                    engine.define_view(strategy, validate_first=False)
                    engine.rows(view)
                state = victim.database()
                for number, transaction in enumerate(
                        workload.transactions):
                    outcomes = {'victim': _outcome(victim, transaction,
                                                   state),
                                'oracle': _outcome(oracle, transaction)}
                    assert outcomes['victim'] == outcomes['oracle'], (
                        f'divergent raise behavior under {fault} on '
                        f'{workload!r} transaction #{number}: {outcomes}')
                    state = victim.database()
                    assert state == oracle.database(), (
                        f'committed state diverged under {fault} on '
                        f'{workload!r} transaction #{number}')
                    assert frozenset(victim.rows(view)) \
                        == frozenset(oracle.rows(view))
                # The commit points themselves: every shard's log has
                # exactly the oracle's LSN — no committed record lost,
                # none double-appended by the repair path.
                assert victim.commit_lsn == oracle.commit_lsn, (
                    f'LSN vectors diverged under {fault} on {workload!r}')
                restarted = any(shard.generation > 0
                                for shard in victim.shards)
                return restarted or plan.fired('rpc.send') > 0
            finally:
                victim.close()
                oracle.close()


@given(view=st.sampled_from(FUZZ_VIEWS),
       seed=st.integers(min_value=0, max_value=2 ** 20),
       fault=st.sampled_from(CHAOS_FAULTS))
@example(view='luxuryitems', seed=7, fault='kill-apply')
@example(view='outstanding_task', seed=23, fault='kill-apply')
@example(view='officeinfo', seed=7, fault='drop-rpc')
@settings(deadline=None)
def test_faulted_cluster_matches_fault_free_oracle(view, seed, fault):
    """The acceptance property: under every generated workload and
    fault placement, the surviving cluster's committed state and LSN
    vector are bit-identical to the fault-free oracle.  (Whether the
    fault fires depends on routing — the pinned corpus guarantees
    non-vacuity; here the invariant must hold either way.)"""
    run_chaos(view, seed, fault)


@pytest.mark.parametrize('view,seed,fault', SEED_CORPUS)
def test_chaos_corpus_faults_fire_and_state_survives(view, seed, fault):
    """The vetted corpus: these scenarios demonstrably inject (a
    worker restarted or an RPC dropped) *and* converge — chaos
    coverage can't silently go vacuous."""
    assert run_chaos(view, seed, fault), (
        f'corpus scenario ({view}, {seed}, {fault}) no longer '
        f'injects its fault — re-pin a live scenario')
