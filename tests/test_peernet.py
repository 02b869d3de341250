"""Multi-peer data-sharing tests (the Dejima-style network of
``rdbms/peernet.py``): delta propagation through each receiver's own
putback strategy, at-least-once delivery deduplicated by durable
per-link LSN watermarks, echo/cycle suppression via origin provenance,
retry with capped exponential backoff, quarantine + anti-entropy
catch-up, and crash recovery — including a real SIGKILL subprocess.

The randomized convergence proof under injected chaos lives in
``tests/fuzz/test_peer_chaos.py``; these are the deterministic
anchors."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchsuite.catalog import entry_by_name
from repro.errors import SchemaError
from repro.rdbms import faults
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.engine import Engine
from repro.rdbms.peernet import (Peer, PeerCrashed, PeerGap, PeerNetwork,
                                 ShareDelta, converged)
from repro.rdbms.placement import shard_of
from repro.rdbms.sharded import ShardedEngine
from repro.rdbms.wal import WriteAheadLog
from repro.core.strategy import UpdateStrategy
from repro.relational.generators import random_database
from repro.relational.schema import DatabaseSchema

VIEW = 'officeinfo'

OFFICE_PUTDELTA = """
    in_office(N, O) :- works(N, O, _, _).
    +works(N, O, P, E) :- officeinfo(N, O), not in_office(N, O),
        P = 'n/a', E = 'n/a'.
    -works(N, O, P, E) :- works(N, O, P, E), not officeinfo(N, O).
"""
OFFICE_GET = "officeinfo(N, O) :- works(N, O, _, _)."


def _office_strategy() -> UpdateStrategy:
    sources = DatabaseSchema.build(
        works={'wname': 'string', 'office': 'string',
               'phone': 'string', 'email': 'string'})
    return UpdateStrategy.parse(VIEW, sources, OFFICE_PUTDELTA,
                                expected_get=OFFICE_GET)


STRATEGY = _office_strategy()


def plain_factory(directory: Path) -> Engine:
    """The restartable peer engine: WAL recovery re-registers the
    view, ``exist_ok`` adopts it on the second construction."""
    engine = Engine(STRATEGY.sources, wal=directory / 'engine.wal',
                    wal_sync=False)
    engine.define_view(STRATEGY, validate_first=False, exist_ok=True)
    return engine


def sharded_factory(directory: Path) -> ShardedEngine:
    engine = ShardedEngine(STRATEGY.sources, shards=2,
                           shard_keys={'works': 'wname'},
                           wal_dir=directory / 'shards',
                           wal_sync=False)
    engine.define_view(STRATEGY, validate_first=False, exist_ok=True)
    return engine


#: A second view over ``works``: the staff phone book.  Its putback
#: writes ``works`` — so an update of ``staff`` changes the shared
#: ``officeinfo`` without touching it.
STAFF = UpdateStrategy.parse('staff', STRATEGY.sources, """
    known(N, P) :- works(N, _, P, _).
    +works(N, O, P, E) :- staff(N, P), not known(N, P),
        O = 'hq', E = 'n/a'.
    -works(N, O, P, E) :- works(N, O, P, E), not staff(N, P).
""", expected_get="staff(N, P) :- works(N, _, P, _).")

EXECUTIONS = ('inline', 'processes')


def keyed_factory(execution: str):
    """A restartable sharded peer engine whose ``works``, ``officeinfo``
    and ``staff`` are all partitioned on ``wname`` (shard-local)."""
    def build(directory: Path) -> ShardedEngine:
        engine = ShardedEngine(
            STRATEGY.sources, shards=2, execution=execution,
            shard_keys={'works': 'wname', VIEW: 'wname',
                        'staff': 'wname'},
            wal_dir=directory / 'shards', wal_sync=False)
        for strategy in (STRATEGY, STAFF):
            engine.define_view(strategy, validate_first=False,
                               exist_ok=True)
        return engine
    return build


#: The Figure 6 catalog views; their source relations are disjoint, so
#: one engine can hold all four.
FOUR_VIEWS = ('luxuryitems', 'officeinfo', 'outstanding_task',
              'vw_brands')


def catalog_factory(views, n=0, only=None):
    """A restartable plain peer engine defining the catalog ``views``
    over the union of their sources, loaded (on first construction)
    with the entries' random data at scale ``n`` — every relation, or
    just those named in ``only``."""
    entries = [entry_by_name(view) for view in views]
    strategies = [entry.strategy() for entry in entries]
    schema = DatabaseSchema(tuple(
        rel for strategy in strategies for rel in strategy.sources))

    def build(directory: Path) -> Engine:
        engine = Engine(schema, wal=directory / 'engine.wal',
                        wal_sync=False)
        if n and not engine.is_view(views[0]):
            for entry, strategy in zip(entries, strategies):
                data = random_database(
                    strategy.sources, entry.sizes(n), seed=7,
                    column_pools=entry.column_pools)
                for name in strategy.sources.names():
                    if only is None or name in only:
                        engine.load(name, data[name])
        for strategy in strategies:
            engine.define_view(strategy, validate_first=False,
                               exist_ok=True)
        return engine
    return build


class FakeClock:
    """Injectable time source: ``sleep`` advances it, nothing blocks."""

    def __init__(self):
        self.now = 0.0
        self.slept: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


def build_network(tmp_path, names=('a', 'b'), **kwargs) -> PeerNetwork:
    clock = kwargs.pop('clock', None) or FakeClock()
    net = PeerNetwork(clock=clock, sleep=clock.sleep, **kwargs)
    net.clock = clock
    for name in names:
        net.add_peer(name, plain_factory, tmp_path / name,
                     shares=(VIEW,))
    net.share(VIEW, names)
    return net


def delta(lsn: int, rows, *, sender='x', origins=('x',),
          deletions=()) -> ShareDelta:
    return ShareDelta(sender, VIEW, lsn, frozenset(origins),
                      frozenset(rows), frozenset(deletions))


class TestPropagation:

    def test_mesh_converges_bidirectionally(self, tmp_path):
        net = build_network(tmp_path, ('a', 'b', 'c'))
        try:
            net.peers['a'].engine.execute(
                VIEW, [Insert(('a:alice', 'hq'))])
            net.peers['b'].engine.execute(
                VIEW, [Insert(('b:bob', 'lab'))])
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
            assert net.peers['c'].rows(VIEW) == frozenset(
                {('a:alice', 'hq'), ('b:bob', 'lab')})
            # Deletes propagate the same way — and through the
            # *receiver's* putback (rows leave every peer's bases).
            net.peers['c'].engine.execute(
                VIEW, [Delete({'wname': 'a:alice'})])
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
            assert net.peers['a'].rows(VIEW) == frozenset(
                {('b:bob', 'lab')})
            assert frozenset(
                net.peers['a'].engine.rows('works')) == frozenset(
                {('b:bob', 'lab', 'n/a', 'n/a')})
        finally:
            net.close()

    def test_received_rows_apply_through_own_putback(self, tmp_path):
        """The receiver's bases are written by its *own* strategy —
        the putback fills source attributes the view does not carry."""
        net = build_network(tmp_path)
        try:
            net.peers['a'].engine.execute(VIEW, [Insert(('n1', 'o1'))])
            assert net.settle()
            assert frozenset(
                net.peers['b'].engine.rows('works')) == frozenset(
                {('n1', 'o1', 'n/a', 'n/a')})
        finally:
            net.close()

    def test_four_views_between_two_peers(self, tmp_path):
        """Each shared view has its own outbox, so every view's first
        delta is ``@1``: the root mark names the view, or applying
        ``luxuryitems@1`` makes every other view's ``@1`` look like a
        stale relay and the receiver drops it without an error (three
        of four views never arrived).  The receiver starts with
        ``flow`` only — ``outstanding_task``'s inclusion constraint
        rightly rejects tasks of unknown flows."""
        net = PeerNetwork()
        try:
            a = net.add_peer('a', catalog_factory(FOUR_VIEWS, 200),
                             tmp_path / 'a', shares=FOUR_VIEWS)
            b = net.add_peer('b', catalog_factory(FOUR_VIEWS, 200,
                                                  only=('flow',)),
                             tmp_path / 'b', shares=FOUR_VIEWS)
            for view in FOUR_VIEWS:
                net.share(view, ('a', 'b'))
            assert net.settle()
            for view in FOUR_VIEWS:
                assert a.rows(view) and b.rows(view) == a.rows(view), view
            assert a.stats['stale'] == b.stats['stale'] == 0
            # ... and keeps flowing, both ways, on every view's own
            # sequence.
            b.engine.insert('officeinfo', ('b:bob', 'lab'))
            a.engine.insert('vw_brands', (10_000_001, 'acme', 'domestic'))
            a.engine.delete('officeinfo', where=dict(zip(
                ('wname', 'office'), min(a.rows('officeinfo')))))
            assert net.settle()
            for view in FOUR_VIEWS:
                assert converged((a, b), view), view
            assert ('b:bob', 'lab') in a.rows('officeinfo')
            assert a.stats['stale'] == b.stats['stale'] == 0
        finally:
            net.close()

    def test_initial_data_is_published_on_first_build(self, tmp_path):
        """A fresh peer's loaded base data reaches subscribers — the
        construction-time reconciliation treats it as an unpublished
        delta."""
        def seeded(directory):
            engine = plain_factory(directory)
            if not engine.rows('works'):
                engine.load('works', [('seed', 'hq', 'p', 'e')])
            return engine

        net = PeerNetwork()
        try:
            seeder = net.add_peer('s', seeded, tmp_path / 's',
                                  shares=(VIEW,))
            net.add_peer('r', plain_factory, tmp_path / 'r',
                         shares=(VIEW,))
            net.share(VIEW, ('s', 'r'))
            assert seeder.stats['reconciliations'] == 1
            assert net.settle()
            assert net.peers['r'].rows(VIEW) == frozenset(
                {('seed', 'hq')})
        finally:
            net.close()

    def test_outbox_record_bytes_track_delta_not_view(self, tmp_path):
        """Link cost is O(|Δ|): a one-row view INSERT appends the same
        bytes to ``share-<view>.wal`` over 10 000 shared rows as over
        100 (``test_wal.py``'s record-size property, for the outbox)."""
        sizes = {}
        for n in (100, 10_000):
            def seeded(directory, n=n):
                engine = plain_factory(directory)
                engine.load('works', [(f'w{i}', 'hq', 'p', 'e')
                                      for i in range(n)])
                return engine

            peer = Peer('a', seeded, tmp_path / str(n), shares=(VIEW,))
            try:
                peer.engine.execute(VIEW, [Insert(('new', 'lab'))])
                assert peer.stats['published'] == 2     # all of V, then Δ
                sizes[n] = peer._outbox[VIEW].stats['last_record_bytes']
            finally:
                peer.close()
        assert sizes[100] == sizes[10_000]

    def test_outbox_fold_is_updated_in_place(self, tmp_path):
        """The fold of published deltas is one set, updated by every
        publication — not a copy of the view rebuilt per commit."""
        peer = Peer('a', plain_factory, tmp_path / 'a', shares=(VIEW,))
        try:
            fold = peer._published[VIEW]
            for statements in ([Insert(('n1', 'o1'))],
                               [Insert(('n2', 'o2'))],
                               [Delete({'wname': 'n1'})]):
                peer.engine.execute(VIEW, statements)
                assert peer._published[VIEW] is fold
                assert fold == peer.rows(VIEW)
            assert peer.stats['published'] == 3
        finally:
            peer.close()

    def test_share_requires_the_view(self, tmp_path):
        def no_view(directory):
            return Engine(STRATEGY.sources)

        with pytest.raises(SchemaError):
            Peer('x', no_view, tmp_path / 'x', shares=(VIEW,))


class TestWatermarks:

    def test_duplicate_delivery_is_dropped(self, tmp_path):
        peer = Peer('b', plain_factory, tmp_path / 'b', shares=())
        try:
            message = delta(1, {('n1', 'o1')})
            assert peer.receive(message) == 'applied'
            assert peer.receive(message) == 'duplicate'
            assert peer.rows(VIEW) == frozenset({('n1', 'o1')})
            assert peer.watermark('x', VIEW) == 1
            assert peer.stats['duplicates'] == 1
        finally:
            peer.close()

    def test_gap_is_rejected(self, tmp_path):
        peer = Peer('b', plain_factory, tmp_path / 'b', shares=())
        try:
            assert peer.receive(delta(1, {('n1', 'o1')})) == 'applied'
            with pytest.raises(PeerGap):
                peer.receive(delta(3, {('n3', 'o3')}))
            # Nothing applied, watermark untouched: in-order resend
            # then proceeds normally.
            assert peer.rows(VIEW) == frozenset({('n1', 'o1')})
            assert peer.receive(delta(2, {('n2', 'o2')})) == 'applied'
            assert peer.receive(delta(3, {('n3', 'o3')})) == 'applied'
        finally:
            peer.close()

    def test_watermarks_survive_restart(self, tmp_path):
        peer = Peer('b', plain_factory, tmp_path / 'b', shares=())
        peer.receive(delta(1, {('n1', 'o1')}))
        peer.receive(delta(2, {('n2', 'o2')}))
        peer.close()
        again = Peer('b', plain_factory, tmp_path / 'b', shares=())
        try:
            assert again.watermark('x', VIEW) == 2
            assert again.receive(delta(2, {('n2', 'o2')})) \
                == 'duplicate'
            assert again.receive(delta(3, {('n3', 'o3')})) == 'applied'
        finally:
            again.close()

    def test_watermarks_survive_engine_checkpoint(self, tmp_path):
        """Compaction rewrites the engine WAL; the registered
        checkpoint extra re-emits the ack notes into the snapshot."""
        peer = Peer('b', plain_factory, tmp_path / 'b', shares=())
        peer.receive(delta(1, {('n1', 'o1')}))
        peer.engine.checkpoint()
        # Remove the sidecar too: the engine log alone must carry the
        # watermark through the rewrite.
        peer.close()
        (tmp_path / 'b' / 'peer-state.wal').unlink()
        again = Peer('b', plain_factory, tmp_path / 'b', shares=())
        try:
            assert again.watermark('x', VIEW) == 1
        finally:
            again.close()

    def test_logs_written_before_roots_named_their_view(self, tmp_path):
        """An existing peer directory holds ``(peer, lsn)`` roots (in
        ack notes and in its outbox) and ``('peer_root', peer, lsn)``
        checkpoint notes.  They recover as their own watermark,
        ``(peer,)``: old relays are still judged against it, new
        ``(peer, view, lsn)`` roots start from nothing, and the peer
        keeps publishing."""
        old_root = ('x', 2)
        peer = Peer('b', plain_factory, tmp_path / 'b', shares=(VIEW,))
        assert peer.receive(ShareDelta(
            'x', VIEW, 1, frozenset('x'), frozenset({('n1', 'o1')}),
            frozenset(), old_root)) == 'applied'
        peer.close()
        with WriteAheadLog(tmp_path / 'b' / 'peer-state.wal',
                           sync=False) as state:
            state.append('note', ('peer_root', 'y', 7))
        again = Peer('b', plain_factory, tmp_path / 'b', shares=(VIEW,))
        try:
            assert again.watermark('x', VIEW) == 1
            assert again._applied_roots == {('x',): 2, ('y',): 7}
            assert [d.root for d in again.pending(VIEW, 0)] == [old_root]
            relay = ShareDelta('z', VIEW, 1, frozenset('xz'),
                               frozenset({('n0', 'o0')}), frozenset(),
                               ('x', 1))
            assert again.receive(relay) == 'stale'
            fresh = ShareDelta('x', VIEW, 2, frozenset('x'),
                               frozenset({('n2', 'o2')}), frozenset(),
                               ('x', VIEW, 1))
            assert again.receive(fresh) == 'applied'
            again.engine.execute(VIEW, [Insert(('b:own', 'hq'))])
            assert [d.root for d in again.pending(VIEW, 0)] == [
                old_root, ('x', VIEW, 1), ('b', VIEW, 3)]
            again.engine.checkpoint()
        finally:
            again.close()
        third = Peer('b', plain_factory, tmp_path / 'b', shares=(VIEW,))
        try:
            assert third._applied_roots == {
                ('x',): 2, ('y',): 7, ('x', VIEW): 1}
        finally:
            third.close()

    def test_noop_reapply_still_acks_durably(self, tmp_path):
        """Idempotent redelivery whose apply changes nothing writes no
        commit record — the ack must reach the sidecar, or a restart
        would regress the watermark."""
        peer = Peer('b', plain_factory, tmp_path / 'b', shares=())
        peer.receive(delta(1, {('n1', 'o1')}))
        # Same rows again under the next LSN: net-empty apply.
        assert peer.receive(delta(2, {('n1', 'o1')})) == 'applied'
        assert peer.stats['sidecar_acks'] == 1
        peer.close()
        again = Peer('b', plain_factory, tmp_path / 'b', shares=())
        try:
            assert again.watermark('x', VIEW) == 2
        finally:
            again.close()


class TestEchoSuppression:

    def test_two_way_share_does_not_ping_pong(self, tmp_path):
        net = build_network(tmp_path)
        try:
            net.peers['a'].engine.execute(VIEW, [Insert(('n1', 'o1'))])
            assert net.settle()
            stats = net.stats()
            # b re-published a's delta (provenance {a, b}); a saw its
            # own name in the origins and acknowledged without
            # applying — outboxes stay quiet afterwards.
            assert net.peers['a'].stats['echoes'] == 1
            assert net.lag() == {'a->b:officeinfo': 0,
                                 'b->a:officeinfo': 0}
            published = {name: peer.stats['published']
                         for name, peer in net.peers.items()}
            assert net.settle()
            assert published == {name: peer.stats['published']
                                 for name, peer in net.peers.items()}, \
                stats
        finally:
            net.close()

    def test_echo_acks_are_durable(self, tmp_path):
        peer = Peer('b', plain_factory, tmp_path / 'b', shares=())
        assert peer.receive(
            delta(1, {('n1', 'o1')}, origins=('x', 'b'))) == 'echo'
        assert peer.rows(VIEW) == frozenset()
        peer.close()
        again = Peer('b', plain_factory, tmp_path / 'b', shares=())
        try:
            assert again.watermark('x', VIEW) == 1
        finally:
            again.close()

    def test_stale_relay_cannot_resurrect_deleted_row(self, tmp_path):
        """The mesh race per-link watermarks cannot catch: c receives
        a's insert and delete directly, then b's *relayed* copy of the
        old insert arrives (its link was stalled).  The relay carries
        the original root mark, c has already applied a later delta of
        that root, so the copy is acknowledged as stale — without root
        watermarks it would re-insert the deleted row and the mesh
        would diverge permanently."""
        net = build_network(tmp_path, ('a', 'b', 'c'),
                            quarantine_after=2)
        try:
            plan = faults.FaultPlan()
            plan.stall_link(link='b->c', once=False)
            with plan.installed():
                net.peers['a'].engine.execute(
                    VIEW, [Insert(('n1', 'o1'))])
                net.settle(max_rounds=30)
                assert net.peers['c'].rows(VIEW) == frozenset(
                    {('n1', 'o1')})
                net.peers['a'].engine.execute(
                    VIEW, [Delete({'wname': 'n1'})])
                net.settle(max_rounds=30)
                assert net.peers['c'].rows(VIEW) == frozenset()
            # Outage over: b's held-back relays (the stale insert
            # among them) finally reach c.
            net.heal()
            assert net.settle()
            assert net.peers['c'].stats['stale'] >= 1
            assert converged(net.peers.values(), VIEW)
            assert net.peers['c'].rows(VIEW) == frozenset()
        finally:
            net.close()

    def test_stale_relay_is_caught_per_view_on_two_views(self, tmp_path):
        """The same race with a second shared view whose outbox runs
        through the same LSNs: the per-``(peer, view)`` root watermark
        still recognises b's late relay of the deleted ``officeinfo``
        row as stale, and takes nothing of ``luxuryitems`` for it."""
        views = ('officeinfo', 'luxuryitems')
        names = ('a', 'b', 'c')
        clock = FakeClock()
        net = PeerNetwork(quarantine_after=2, clock=clock,
                          sleep=clock.sleep)
        try:
            for name in names:
                net.add_peer(name, catalog_factory(views),
                             tmp_path / name, shares=views)
            for view in views:
                net.share(view, names)
            a, c = net.peers['a'], net.peers['c']
            watch, yacht = (1, 'watch', 5000), (2, 'yacht', 90000)
            plan = faults.FaultPlan()
            plan.stall_link(link='b->c', once=False)
            with plan.installed():
                a.engine.insert('luxuryitems', watch)
                a.engine.insert('officeinfo', ('n1', 'o1'))
                net.settle(max_rounds=30)
                assert c.rows('officeinfo') == {('n1', 'o1')}
                a.engine.delete('officeinfo', where={'wname': 'n1'})
                a.engine.insert('luxuryitems', yacht)
                net.settle(max_rounds=30)
                assert c.rows('officeinfo') == frozenset()
            net.heal()
            assert net.settle()
            assert c.stats['stale'] >= 1
            for view in views:
                assert converged(net.peers.values(), view)
            assert c.rows('officeinfo') == frozenset()
            assert c.rows('luxuryitems') == {watch, yacht}
        finally:
            net.close()

    def test_cycle_topology_converges(self, tmp_path):
        """a → b → c → a ring (not a mesh): the delta travels the
        ring once, accumulating provenance, and dies at its origin."""
        net = PeerNetwork()
        try:
            for name in ('a', 'b', 'c'):
                net.add_peer(name, plain_factory, tmp_path / name,
                             shares=(VIEW,))
            net.subscribe('a', VIEW, 'b')
            net.subscribe('b', VIEW, 'c')
            net.subscribe('c', VIEW, 'a')
            net.peers['a'].engine.execute(VIEW, [Insert(('n1', 'o1'))])
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
            assert net.peers['a'].stats['echoes'] == 1
        finally:
            net.close()


class TestRetryQuarantineCatchup:

    def test_dropped_message_is_retried_with_backoff(self, tmp_path):
        net = build_network(tmp_path, retry_backoff=0.1,
                            retry_backoff_cap=0.4)
        try:
            plan = faults.FaultPlan()
            for _ in range(3):     # three consecutive send failures
                plan.drop_peer(link='a->b', hit=1)
            with plan.installed():
                net.peers['a'].engine.execute(
                    VIEW, [Insert(('n1', 'o1'))])
                assert net.settle()
            assert converged(net.peers.values(), VIEW)
            assert plan.fired('peer.send') == 3
            # Capped exponential backoff: 0.1, 0.2, then clamped 0.4.
            link = next(l for l in net.links if l.name == 'a->b')
            assert link.stats['retries'] == 3
            assert net.clock.slept[:3] == [
                pytest.approx(0.1), pytest.approx(0.2),
                pytest.approx(0.4)]
        finally:
            net.close()

    def test_stalled_link_quarantines_then_heals(self, tmp_path):
        net = build_network(tmp_path, quarantine_after=3)
        try:
            plan = faults.FaultPlan()
            plan.stall_link(link='a->b', once=False)
            with plan.installed():
                net.peers['a'].engine.execute(
                    VIEW, [Insert(('n1', 'o1'))])
                net.settle(max_rounds=20)
            link = next(l for l in net.links if l.name == 'a->b')
            assert link.quarantined
            assert link.stats['quarantines'] == 1
            assert net.peers['b'].rows(VIEW) == frozenset()
            # The outage ends: heal releases the link and catch-up
            # drains the durable outbox — anti-entropy is just
            # delivery resumed from the receiver's watermark.
            assert net.heal() == 1
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
        finally:
            net.close()

    def test_reorder_injection_is_rejected_and_recovered(self,
                                                         tmp_path):
        net = build_network(tmp_path)
        try:
            plan = faults.FaultPlan()
            plan.reorder_peer(link='a->b', hit=1)
            with plan.installed():
                with net.peers['a'].engine.transaction() as txn:
                    txn.insert(VIEW, ('n1', 'o1'))
                net.peers['a'].engine.execute(
                    VIEW, [Insert(('n2', 'o2'))])
                assert net.settle()
            link = next(l for l in net.links if l.name == 'a->b')
            assert link.stats['gaps'] == 1
            assert converged(net.peers.values(), VIEW)
            assert net.peers['b'].rows(VIEW) == frozenset(
                {('n1', 'o1'), ('n2', 'o2')})
        finally:
            net.close()

    def test_duplicated_message_applies_once(self, tmp_path):
        net = build_network(tmp_path)
        try:
            plan = faults.FaultPlan()
            plan.dup_peer(link='a->b', hit=1)
            with plan.installed():
                net.peers['a'].engine.execute(
                    VIEW, [Insert(('n1', 'o1'))])
                assert net.settle()
            assert net.peers['b'].stats['duplicates'] == 1
            assert net.peers['b'].rows(VIEW) == frozenset(
                {('n1', 'o1')})
        finally:
            net.close()


class TestCrashRecovery:

    def test_injected_crash_mid_delivery_recovers(self, tmp_path):
        net = build_network(tmp_path)
        try:
            plan = faults.FaultPlan()
            plan.crash_peer(peer='b', hit=1)
            with plan.installed():
                net.peers['a'].engine.execute(
                    VIEW, [Insert(('n1', 'o1'))])
                assert net.settle()
            assert plan.fired('peer.deliver') == 1
            assert net.metrics.snapshot()['counters'][
                'peer.restarts'] == 1
            assert converged(net.peers.values(), VIEW)
            assert net.peers['b'].rows(VIEW) == frozenset(
                {('n1', 'o1')})
        finally:
            net.close()

    def test_lost_publication_is_reconciled_on_restart(self, tmp_path):
        """Crash in the window between engine commit and outbox
        append: the restarted peer diffs its recovered view against
        the outbox fold and publishes the difference."""
        net = build_network(tmp_path)
        try:
            victim = net.peers['a']
            # Simulate the crash window: commit lands in the engine
            # WAL but the publication hook never runs.
            victim.engine.commit_listeners.remove(victim._on_commit)
            victim.engine.execute(VIEW, [Insert(('n1', 'o1'))])
            restarted = net.restart_peer('a')
            assert restarted.stats['reconciliations'] == 1
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
            assert net.peers['b'].rows(VIEW) == frozenset(
                {('n1', 'o1')})
        finally:
            net.close()

    def test_restart_resumes_inbound_links_from_watermarks(self,
                                                           tmp_path):
        net = build_network(tmp_path)
        try:
            net.peers['a'].engine.execute(VIEW, [Insert(('n1', 'o1'))])
            assert net.settle()
            stats_before = net.stats()['links']['a->b:officeinfo']
            restarted = net.restart_peer('b')
            assert restarted.rows(VIEW) == frozenset({('n1', 'o1')})
            # Nothing is redelivered: the handshake restored the
            # link's acked position from the durable watermark.
            assert net.pump() == 0
            assert restarted.stats['applied'] == 0
            assert restarted.stats['duplicates'] == 0
        finally:
            net.close()

    def test_sigkilled_peer_restarts_and_resynchronizes(self, tmp_path):
        """A real ``SIGKILL`` mid-stream: the child process applies
        two deltas and dies without any shutdown.  Reconstruction over
        its directory must recover rows *and* watermark exactly (zero
        lost, zero double-applied), then keep consuming the stream."""
        child = Path(__file__).parent / '_peer_crash_child.py'
        directory = tmp_path / 'victim'
        proc = subprocess.run(
            [sys.executable, str(child), str(directory), '2'],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        def stream(lsn):      # the child's deterministic upstream feed
            return delta(lsn, {(f'up:{lsn}', 'hq')}, sender='upstream',
                         origins=('upstream',))

        peer = Peer('victim', plain_factory, directory, shares=())
        try:
            assert peer.watermark('upstream', VIEW) == 2
            assert peer.rows(VIEW) == frozenset(
                {('up:1', 'hq'), ('up:2', 'hq')})
            # At-least-once redelivery after the crash: the duplicate
            # is absorbed, the next delta applies.
            assert peer.receive(stream(2)) == 'duplicate'
            assert peer.receive(stream(3)) == 'applied'
            assert ('up:3', 'hq') in peer.rows(VIEW)
        finally:
            peer.close()


class TestShardedPeers:

    def test_sharded_peer_interops_and_restarts(self, tmp_path):
        net = PeerNetwork()
        try:
            net.add_peer('a', plain_factory, tmp_path / 'a',
                         shares=(VIEW,))
            net.add_peer('s', sharded_factory, tmp_path / 's',
                         shares=(VIEW,))
            net.share(VIEW, ('a', 's'))
            net.peers['a'].engine.execute(VIEW, [Insert(('a:1', 'hq'))])
            net.peers['s'].engine.execute(VIEW, [Insert(('s:1', 'lab'))])
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
            watermarks = dict(net.peers['s']._watermarks)
            rows = net.peers['s'].rows(VIEW)
            restarted = net.restart_peer('s')
            assert restarted.rows(VIEW) == rows
            assert restarted._watermarks == watermarks
            net.peers['a'].engine.execute(VIEW, [Insert(('a:2', 'hq'))])
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
        finally:
            net.close()

    @staticmethod
    def _writer_and_reader(tmp_path, execution):
        net = PeerNetwork()
        net.add_peer('s', keyed_factory(execution), tmp_path / 's',
                     shares=(VIEW,))
        net.add_peer('r', plain_factory, tmp_path / 'r', shares=(VIEW,))
        net.share(VIEW, ('s', 'r'))
        return net, net.peers['s'], net.peers['r']

    @pytest.mark.parametrize('execution', EXECUTIONS)
    def test_update_through_another_view_is_published(self, tmp_path,
                                                      execution):
        """A ``staff`` INSERT reaches the shared ``officeinfo`` through
        the putback of a view that is not shared: the shard's commit
        changed a base under ``officeinfo``, so the peer publishes."""
        net, writer, reader = self._writer_and_reader(tmp_path,
                                                      execution)
        try:
            writer.engine.insert('staff', ('s:9', 'p9'))
            assert writer.rows(VIEW) == {('s:9', 'hq')}
            assert net.settle()
            assert reader.rows(VIEW) == {('s:9', 'hq')}
            writer.engine.delete('staff', where={'wname': 's:9'})
            assert net.settle()
            assert reader.rows(VIEW) == frozenset()
        finally:
            net.close()

    @pytest.mark.parametrize('execution', EXECUTIONS)
    def test_mixed_transaction_across_shards_is_diffed(self, tmp_path,
                                                       execution):
        """One transaction: ``officeinfo`` DML on one shard keeps that
        shard's cache, a direct ``works`` INSERT on the other does not
        — the peer diffs the view instead of shipping one shard's
        delta."""
        net, writer, reader = self._writer_and_reader(tmp_path,
                                                      execution)
        try:
            shards = writer.engine.n_shards
            names = [f's:{i}' for i in range(64)]
            first = next(name for name in names
                         if shard_of(name, shards) == 0)
            second = next(name for name in names
                          if shard_of(name, shards) == 1)
            writer.engine.execute_many([
                (VIEW, [Insert((first, 'lab'))]),
                ('works', [Insert((second, 'hq', 'p', 'e'))])])
            assert net.settle()
            assert converged(net.peers.values(), VIEW)
            assert reader.rows(VIEW) == {(first, 'lab'), (second, 'hq')}
        finally:
            net.close()

    @pytest.mark.parametrize('execution', EXECUTIONS)
    def test_kept_caches_publish_deltas_not_views(self, tmp_path,
                                                  execution):
        """Keyed ``officeinfo`` commits on a sharded writer ship the
        shards' staged cache deltas: no commit re-reads the view, and
        an outbox record costs the same over 10 000 shared rows as
        over 100 (the sharded twin of
        ``test_outbox_record_bytes_track_delta_not_view``)."""
        sizes = {}
        for n in (100, 10_000):
            def seeded(directory, n=n):
                engine = keyed_factory(execution)(directory)
                engine.load('works', [(f'w{i}', 'hq', 'p', 'e')
                                      for i in range(n)])
                return engine

            peer = Peer('s', seeded, tmp_path / str(n), shares=(VIEW,))
            try:
                diffs = []
                publish_current = peer._publish_current
                peer._publish_current = lambda *args: (
                    diffs.append(args) or publish_current(*args))
                for i in range(6):
                    peer.engine.execute(VIEW, [Insert((f'new{i}', 'lab'))])
                peer.engine.execute(VIEW, [Delete({'wname': 'new0'})])
                assert diffs == []
                assert peer.stats['published'] == 8     # all of V, 7 Δ
                assert peer.rows(VIEW) == peer._published[VIEW]
                sizes[n] = peer._outbox[VIEW].stats['last_record_bytes']
            finally:
                peer.close()
        assert sizes[100] == sizes[10_000]


class TestExistOk:

    def test_engine_define_view_exist_ok_adopts(self, tmp_path):
        engine = plain_factory(tmp_path)
        try:
            entry = engine.view(VIEW)
            assert engine.define_view(STRATEGY, validate_first=False,
                                      exist_ok=True) is entry
            with pytest.raises(SchemaError):
                engine.define_view(STRATEGY, validate_first=False)
        finally:
            engine.close()

    def test_sharded_coordinator_rebuilds_over_shard_wals(self,
                                                          tmp_path):
        first = sharded_factory(tmp_path)
        first.execute(VIEW, [Insert(('n1', 'o1'))])
        first.close()
        second = sharded_factory(tmp_path)
        try:
            assert frozenset(second.rows(VIEW)) == frozenset(
                {('n1', 'o1')})
        finally:
            second.close()
