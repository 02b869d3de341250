"""The peer chaos axis: a 3-peer full-mesh data-sharing network under
randomized workloads and deterministic fault injection must converge
**bit-identically** to a fault-free oracle — a single engine that
applied every transaction directly.

Every pair of peers shares ``officeinfo``; each pair additionally
draws whether it shares ``luxuryitems`` too (1–2 views per link), so a
receiver sees several outboxes of one sender — each numbered from 1 —
and a second view's rows reach exactly the peers its links connect.
``p2`` is a two-shard :class:`ShardedEngine` (both views shard-local),
so every fault also runs the sharded peer's publication from its
shards' commit records, and its crash restart from the shard logs.

Peers own disjoint key spaces (rows are prefixed with their
originating peer), the precondition for convergence without global
coordination: all cross-peer operations commute, and each key's
updates are totally ordered by its owner's outbox.  Under that
precondition the network's machinery — per-link LSN watermarks,
per-root apply watermarks, durable outboxes, retry/quarantine/heal,
crash restart from the WAL — must absorb dropped, duplicated,
delayed, reordered and stalled deliveries plus receiver crashes with
zero lost and zero double-applied deltas.

Profiles as in ``test_chaos``: CI runs the bounded smoke
(``--hypothesis-profile=ci``); the pinned corpus of verified
non-vacuous scenarios (the fault demonstrably fired) replays under
every profile."""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip('hypothesis')
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.rdbms import faults                                     # noqa: E402
from repro.rdbms.dml import Delete, Insert                         # noqa: E402
from repro.rdbms.engine import Engine                              # noqa: E402
from repro.rdbms.peernet import PeerNetwork, converged             # noqa: E402
from repro.rdbms.sharded import ShardedEngine                      # noqa: E402
from repro.relational.schema import DatabaseSchema                 # noqa: E402

from .strategies import SHARD_KEYS, _strategy                      # noqa: E402

VIEW = 'officeinfo'
SECOND = 'luxuryitems'
STRATEGIES = (_strategy(VIEW), _strategy(SECOND))
SCHEMA = DatabaseSchema(tuple(rel for strategy in STRATEGIES
                              for rel in strategy.sources))
PEERS = ('p0', 'p1', 'p2')
PAIRS = tuple((a, b) for i, a in enumerate(PEERS) for b in PEERS[i + 1:])
LINKS = tuple(f'{a}->{b}' for a in PEERS for b in PEERS if a != b)

PEER_FAULTS = ('drop', 'dup', 'reorder', 'delay', 'outage', 'crash')

#: Scenarios pinned because the fault demonstrably fired — the
#: non-vacuous corpus that must stay green under every profile.
SEED_CORPUS = [(3, 'drop'), (3, 'dup'), (3, 'reorder'), (3, 'delay'),
               (3, 'outage'), (3, 'crash'),
               (11, 'drop'), (11, 'outage'), (11, 'crash'),
               (29, 'dup'), (29, 'reorder')]


class _Clock:
    """Deterministic time for the network's retry backoff: ``sleep``
    advances it, nothing blocks the test."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def _plan_for(fault: str, rng: random.Random) -> faults.FaultPlan:
    plan = faults.FaultPlan()
    link = rng.choice(LINKS)
    hit = rng.randint(1, 3)
    if fault == 'drop':
        for _ in range(rng.randint(1, 3)):   # consecutive losses
            plan.drop_peer(link=link, hit=hit)
    elif fault == 'dup':
        plan.dup_peer(link=link, hit=hit)
    elif fault == 'reorder':
        plan.reorder_peer(link=link, hit=hit)
    elif fault == 'delay':
        plan.delay_peer(link=link, hit=hit, seconds=0.001)
    elif fault == 'outage':
        plan.stall_link(link=link, once=False)
    elif fault == 'crash':
        plan.crash_peer(peer=rng.choice(PEERS), hit=hit)
    else:
        raise KeyError(fault)
    return plan


def _engine(wal=None) -> Engine:
    engine = Engine(SCHEMA, wal=wal, wal_sync=False)
    for strategy in STRATEGIES:
        engine.define_view(strategy, validate_first=False, exist_ok=True)
    return engine


def _factory(directory: Path) -> Engine:
    return _engine(directory / 'engine.wal')


def _sharded_factory(directory: Path) -> ShardedEngine:
    """``p2``: two inline shards, both views shard-local, restarted
    from the shard logs under ``directory``."""
    engine = ShardedEngine(SCHEMA, shards=2, execution='inline',
                           shard_keys={**SHARD_KEYS[VIEW],
                                       **SHARD_KEYS[SECOND]},
                           wal_dir=directory / 'shards', wal_sync=False)
    for strategy in STRATEGIES:
        engine.define_view(strategy, validate_first=False, exist_ok=True)
    return engine


FACTORIES = {'p0': _factory, 'p1': _factory, 'p2': _sharded_factory}


def _reach(pairs) -> dict:
    """peer -> the peers whose ``SECOND`` rows reach it (itself and
    whoever the sharing pairs connect it to, relays included)."""
    reach = {name: {name} for name in PEERS}
    for _ in PEERS:
        for a, b in pairs:
            reach[a] |= reach[b]
            reach[b] |= reach[a]
    return reach


def _check_monotonic(net, previous: dict) -> dict:
    """Watermarks only ever advance — per link and per root, across
    pumps, restarts and retries."""
    snapshot = {}
    for name, peer in net.peers.items():
        for key, lsn in peer._watermarks.items():
            snapshot[(name, 'link', key)] = lsn
        for root, lsn in peer._applied_roots.items():
            snapshot[(name, 'root', root)] = lsn
    for key, lsn in previous.items():
        assert snapshot.get(key, 0) >= lsn, (
            f'watermark regressed: {key} went {lsn} -> '
            f'{snapshot.get(key, 0)}')
    return snapshot


def run_peer_chaos(seed: int, fault: str) -> bool:
    """One chaos scenario: the faulted mesh vs the fault-free
    single-engine oracle on the same seeded workload.  Returns whether
    the fault actually fired (for corpus vetting)."""
    rng = random.Random(seed)
    plan = _plan_for(fault, random.Random(seed ^ 0x5EED5))
    # Its own stream, so the officeinfo workload of a seed is what it
    # was when that was the only shared view.
    second_rng = random.Random(seed ^ 0x2F1E5)
    second_pairs = [pair for pair in PAIRS if second_rng.random() < 0.5]
    reach = _reach(second_pairs)
    clock = _Clock()
    with tempfile.TemporaryDirectory(prefix='repro-peer-chaos-') as tmp:
        base = Path(tmp)
        net = PeerNetwork(retry_backoff=0.01, quarantine_after=3,
                          clock=clock, sleep=clock.sleep)
        oracle = _engine()
        try:
            for name in PEERS:
                net.add_peer(name, FACTORIES[name], base / name,
                             shares=(VIEW, SECOND))
            net.share(VIEW, PEERS)
            for pair in second_pairs:
                net.share(SECOND, pair)
            live = {name: [] for name in PEERS}   # each peer's own rows
            items = {name: [] for name in PEERS}  # ... of SECOND
            counter = 0
            watermarks: dict = {}
            with plan.installed():
                for _ in range(10):
                    owner = rng.choice(PEERS)
                    rows = live[owner]
                    if rows and rng.random() < 0.35:
                        victim = rows.pop(rng.randrange(len(rows)))
                        statements = [Delete(dict(
                            zip(('wname', 'office'), victim)))]
                    else:
                        counter += 1
                        row = (f'{owner}:k{counter}',
                               f'office_{rng.randrange(4)}')
                        rows.append(row)
                        statements = [Insert(row)]
                    net.peers[owner].engine.execute(VIEW, statements)
                    oracle.execute(VIEW, statements)
                    if second_rng.random() < 0.5:
                        owner = second_rng.choice(PEERS)
                        owned = items[owner]
                        if owned and second_rng.random() < 0.35:
                            victim = owned.pop(
                                second_rng.randrange(len(owned)))
                            statements = [Delete({'iid': victim[0]})]
                        else:
                            counter += 1
                            row = (PEERS.index(owner) * 1000 + counter,
                                   f'{owner}:item', 5000 + counter)
                            owned.append(row)
                            statements = [Insert(row)]
                        net.peers[owner].engine.execute(SECOND,
                                                        statements)
                        oracle.execute(SECOND, statements)
                    for _ in range(rng.randint(0, 2)):
                        net.pump()
                    watermarks = _check_monotonic(net, watermarks)
                net.settle(max_rounds=300)
            # The outage (if any) ends; quarantined links catch up
            # from the durable outboxes — anti-entropy.
            net.heal()
            assert net.settle(), f'mesh failed to drain under {fault}'
            watermarks = _check_monotonic(net, watermarks)
            expected = frozenset(tuple(r) for r in oracle.rows(VIEW))
            # A SECOND row reaches the peers its owner is linked to.
            expected_second = {
                name: frozenset(
                    row for row in oracle.rows(SECOND)
                    if PEERS[row[0] // 1000] in reach[name])
                for name in PEERS}
            for name, peer in net.peers.items():
                assert peer.rows(VIEW) == expected, (
                    f'peer {name} diverged from the fault-free oracle '
                    f'under {fault} (seed {seed})')
                assert peer.rows(SECOND) == expected_second[name], (
                    f'peer {name} diverged on {SECOND} under {fault} '
                    f'(seed {seed}, shared by {second_pairs})')
            assert converged(net.peers.values(), VIEW)
            # Crash recovery must also hold for a *final* restart:
            # every peer rebuilt from its logs still agrees.
            for name in PEERS:
                restarted = net.restart_peer(name)
                assert restarted.rows(VIEW) == expected
                assert restarted.rows(SECOND) == expected_second[name]
            _check_monotonic(net, watermarks)
            return plan.fired() > 0
        finally:
            net.close()
            oracle.close()


@given(seed=st.integers(min_value=0, max_value=2 ** 20),
       fault=st.sampled_from(PEER_FAULTS))
@example(seed=3, fault='outage')
@example(seed=3, fault='crash')
@example(seed=11, fault='drop')
@settings(deadline=None)
def test_faulted_mesh_matches_fault_free_oracle(seed, fault):
    """The acceptance property: under every generated workload and
    fault placement the mesh converges bit-identically to the oracle.
    (Whether the fault fires depends on traffic — the pinned corpus
    guarantees non-vacuity; the invariant must hold either way.)"""
    run_peer_chaos(seed, fault)


@pytest.mark.parametrize('seed,fault', SEED_CORPUS)
def test_peer_chaos_corpus_faults_fire_and_state_survives(seed, fault):
    """The vetted corpus: these scenarios demonstrably inject *and*
    converge — peer chaos coverage can't silently go vacuous."""
    assert run_peer_chaos(seed, fault), (
        f'corpus scenario ({seed}, {fault}) no longer injects its '
        f'fault — re-pin a live scenario')
