"""Fault-tolerant multi-peer data sharing (Dejima-style, §7 outlook).

The paper's closing discussion positions programmable view update
strategies as the contract for *data sharing between autonomous
databases*: each peer exposes part of its base data as an updatable
view, other peers subscribe to it, and an update arriving over the wire
is applied **through the receiving peer's own putback strategy** — the
receiver stays sovereign over how shared rows map onto its bases.  This
module builds that network on top of :class:`~repro.rdbms.engine.Engine`
(or :class:`~repro.rdbms.sharded.ShardedEngine`) peers:

- **Publication.**  A :class:`Peer` subscribes to its engine's
  ``commit_listeners``, which hand it every committed transaction's
  applied commits — one on a plain engine, one per shard that applied
  on a sharded one.  A shared view whose cache every such commit kept
  publishes the commits' staged cache deltas as they are (O(|Δ|)); a
  view changed any other way is diffed against the last published
  state.  Each delta is appended to a durable per-share *outbox* WAL,
  whose LSN is the message sequence number for every link fanning out
  from that share.
- **At-least-once delivery, exactly-once effect.**  The network
  redelivers until acknowledged; the receiver keeps one monotonic LSN
  watermark per ``(sender, view)`` link and drops anything at or below
  it (duplicates) while rejecting anything above ``watermark + 1``
  (:class:`PeerGap` — per-link FIFO).  Watermarks are made durable
  *atomically with the delta they acknowledge*: the apply transaction
  carries a ``('peer_ack', link, lsn)`` note in its commit record
  (:meth:`Engine.execute_many` ``note=``), so a crash can lose neither
  half.  Applies that change nothing (idempotent redelivery after an
  ack-less crash) and echo suppressions fall back to a sidecar state
  WAL.
- **Echo / cycle suppression.**  Every published delta carries the
  frozenset of peer names it has passed through (*origins*).  A peer
  receiving a delta whose origins include itself acknowledges without
  applying — a two-way or cyclic share topology converges instead of
  ping-ponging.  Deltas additionally carry their *root* — the
  ``(peer, view, lsn)`` of the originating publication, preserved
  through relays — and receivers keep durable per-root apply
  watermarks, one per ``(peer, view)`` outbox, so a
  copy of the same root delta arriving over a second path (a mesh is
  full of them) is acknowledged as stale instead of re-applied; see
  :class:`ShareDelta` for why per-link watermarks alone cannot catch
  these.
- **Retry, quarantine, anti-entropy.**  Each link retries with capped
  exponential backoff; after ``quarantine_after`` consecutive failures
  the link is quarantined (no more attempts).  Because the outbox is
  durable and acknowledgements are watermarks, recovery is plain
  catch-up: :meth:`PeerNetwork.heal` (or a peer restart) re-opens the
  link and the sender streams everything after the receiver's
  watermark — anti-entropy is the normal delivery path, not a special
  protocol.
- **Crash recovery.**  A restarted peer rebuilds its engine from its
  engine WAL, reloads its outbox, recovers watermarks from replayed
  commit notes + the sidecar, and *reconciles*: it folds the outbox to
  the last published state of each share, diffs that against the
  recovered view, and publishes the difference — so a crash between
  commit and publication cannot lose a delta (and a freshly created
  peer publishes its initial data the same way).

Fault injection hooks (:mod:`repro.rdbms.faults`): ``peer.send`` fires
before each message delivery (``drop``/``delay``/``dup``/``reorder``/
``stall``), ``peer.deliver`` fires on the receiving side (``crash``
restarts the peer from its WAL mid-delivery).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.errors import ReproError, SchemaError
from repro.rdbms import faults
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.metrics import MetricsRegistry
from repro.rdbms.wal import WriteAheadLog

__all__ = ['Peer', 'PeerNetwork', 'PeerGap', 'PeerCrashed', 'ShareDelta',
           'converged']

#: Watermark acknowledgement note embedded in apply transactions'
#: commit records (and the sidecar WAL):
#: ``(_ACK, (sender, view), lsn, root)``.  ``_ROOT`` notes —
#: ``(_ROOT, (peer, view), lsn)`` — re-emit the per-root apply
#: watermarks through checkpoints.  Logs written before roots named
#: their view hold ``(peer, lsn)`` roots and ``(_ROOT, peer, lsn)``
#: notes; those recover under the key ``(peer,)``, their own.
_ACK = 'peer_ack'
_ROOT = 'peer_root'


class PeerGap(ReproError):
    """A delta arrived above ``watermark + 1`` — delivery on this link
    skipped a message.  The receiver refuses (applying out of order
    would break the per-link FIFO contract); the sender must back up
    and resend in order."""


class PeerCrashed(ReproError):
    """Injected receiver death mid-delivery (``peer.deliver`` site,
    action ``crash``): the network discards the peer's in-memory state
    and restarts it from its durable logs."""


@dataclass(frozen=True)
class ShareDelta:
    """One published view delta — the unit of inter-peer shipping.

    ``root`` identifies the *originating* publication — ``(peer, view,
    outbox lsn)`` where the user transaction happened, the LSN being
    that view's outbox sequence — and is preserved verbatim as the
    delta is relayed through intermediate peers.  Receivers keep a
    durable watermark per root outbox ``(peer, view)``: in a mesh or
    cyclic topology the same root delta arrives over several paths,
    and per-link LSN watermarks cannot recognise the copies.  Without
    the root mark a relayed copy of an old insert arriving *after* the
    owner's delete would resurrect the row; with it the late copy is
    acknowledged as stale.  Per-link FIFO guarantees every path
    presents one root's deltas in root order, so the per-root
    watermark admits each exactly once, network-wide."""

    sender: str
    view: str
    lsn: int                   # sender outbox LSN (per-share sequence)
    origins: frozenset         # peers this delta has passed through
    insertions: frozenset
    deletions: frozenset
    root: tuple = None         # (origin peer, origin view, outbox lsn)


class Peer:
    """One autonomous database participating in the network.

    ``engine_factory(directory)`` builds (or rebuilds, after a crash)
    the peer's engine: it must attach any engine WAL inside
    ``directory`` and define every shared view — construction and
    recovery are deliberately the same code path.  ``shares`` names the
    views this peer publishes; subscribing peers must have a view of
    the same name (their *own* strategy over their *own* bases).
    """

    def __init__(self, name: str, engine_factory: Callable,
                 directory: 'str | Path', *,
                 shares: Sequence[str] = ()):
        self.name = name
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._factory = engine_factory
        self.shares = tuple(shares)
        self.engine = engine_factory(self.directory)
        for view in self.shares:
            if not self.engine.is_view(view):
                self.engine.close()     # nothing else is open yet
                raise SchemaError(
                    f'peer {name!r} shares {view!r} but its engine '
                    f'does not define that view')
        self.stats = {'published': 0, 'applied': 0, 'duplicates': 0,
                      'echoes': 0, 'stale': 0, 'reconciliations': 0,
                      'sidecar_acks': 0}
        # Sidecar durability for acknowledgements with no commit record
        # to ride in: echo suppressions, no-op re-applies, and every
        # ack on engines without note-carrying WALs (sharded peers).
        self._state = WriteAheadLog(self.directory / 'peer-state.wal',
                                    sync=False)
        self._watermarks: dict[tuple[str, str], int] = {}
        # Per-root apply watermarks (see :class:`ShareDelta.root`):
        # ``(origin peer, origin view) -> newest origin lsn applied``.
        self._applied_roots: dict[tuple, int] = {}
        self._recover_watermarks()
        # While applying a received delta, the origins and root it
        # carried — commits cascading out of the apply inherit them
        # (provenance accumulates across hops; echo and root-staleness
        # suppression need the full path and the originating mark).
        self._applying_origins: frozenset = frozenset()
        self._applying_root: tuple | None = None
        # Durable per-share outboxes + their in-memory tails.
        self._outbox: dict[str, WriteAheadLog] = {}
        self._tail: dict[str, list[ShareDelta]] = {}
        #: The outbox fold: each share's last *published* state,
        #: updated in place by every publication.
        self._published: dict[str, set] = {}
        for view in self.shares:
            self._load_outbox(view)
            # Anti-entropy against our own engine: a crash between
            # commit and publication (or a freshly created peer with
            # loaded initial data) leaves the committed view apart from
            # the fold — publish the difference.  Its origin provenance
            # is gone, but re-applying rows a peer already has is a
            # no-op (set semantics): at worst a redundant message,
            # never a ping-pong.
            if self._publish_current(view, frozenset((self.name,))):
                self.stats['reconciliations'] += 1
        # Embed acks in the engine's own commit records when it can
        # carry them (plain Engine with a WAL); survive its checkpoint
        # compaction by re-emitting watermarks into every snapshot.
        engine = self.engine
        self._embedded = (getattr(engine, 'wal', None) is not None
                          and hasattr(engine, 'replayed_notes'))
        extras = getattr(engine, 'checkpoint_extras', None)
        if extras is not None:
            extras.append(self._checkpoint_watermarks)
        engine.commit_listeners.append(self._on_commit)

    # -- durability & recovery -----------------------------------------

    def _recover_watermarks(self) -> None:
        """Per-link and per-root watermarks = max over every durable
        ack: notes the engine WAL replayed (embedded in commit records
        or re-emitted by checkpoints) plus the sidecar log."""
        notes = list(getattr(self.engine, 'replayed_notes', ()))
        for record in self._state.records():
            notes.append(record.data)
        for note in notes:
            if not isinstance(note, tuple) or not note:
                continue
            if note[0] == _ACK:
                _, key, lsn = note[:3]
                key = tuple(key)
                if lsn > self._watermarks.get(key, 0):
                    self._watermarks[key] = lsn
                root = note[3] if len(note) > 3 else None
                if root is not None:
                    self._advance_root(tuple(root))
            elif note[0] == _ROOT:
                _, key, lsn = note
                key = (key,) if isinstance(key, str) else tuple(key)
                self._advance_root(key + (lsn,))

    def _advance_root(self, root: tuple) -> None:
        key, lsn = tuple(root[:-1]), root[-1]
        if lsn > self._applied_roots.get(key, 0):
            self._applied_roots[key] = lsn

    def _checkpoint_watermarks(self) -> Iterable[tuple[str, object]]:
        for key, lsn in sorted(self._watermarks.items()):
            yield ('note', (_ACK, key, lsn))
        for key, lsn in sorted(self._applied_roots.items()):
            yield ('note', (_ROOT, key, lsn))

    def _load_outbox(self, view: str) -> None:
        outbox = WriteAheadLog(self.directory / f'share-{view}.wal',
                               sync=False)
        self._outbox[view] = outbox
        tail: list[ShareDelta] = []
        published: set = set()
        for record in outbox.records():
            origins, root, insertions, deletions = record.data
            delta = ShareDelta(self.name, view, record.lsn,
                               frozenset(origins), frozenset(insertions),
                               frozenset(deletions), root)
            tail.append(delta)
            published -= delta.deletions
            published |= delta.insertions
        self._tail[view] = tail
        self._published[view] = published

    # -- publication ---------------------------------------------------

    def _publish(self, view: str, insertions: frozenset,
                 deletions: frozenset, origins: frozenset,
                 root: tuple | None = None) -> None:
        outbox = self._outbox[view]
        if root is None:        # an original publication: we are root
            root = (self.name, view, outbox.last_lsn + 1)
        lsn = outbox.append(
            'note', (tuple(sorted(origins)), root, insertions,
                     deletions))
        self._tail[view].append(ShareDelta(self.name, view, lsn,
                                           origins, insertions,
                                           deletions, root))
        published = self._published[view]
        published -= deletions
        published |= insertions
        self.stats['published'] += 1

    def _on_commit(self, commits) -> None:
        """Post-commit hook: publish each shared view's delta from the
        applied :class:`~repro.rdbms.engine.PreparedCommit` objects of
        one transaction (one per engine that applied it).  A view whose
        cache every commit that changed it kept ships the union of the
        staged cache deltas — each *is* its engine's share of the view
        delta; a view changed any other way is diffed."""
        origins = self._applying_origins | {self.name}
        root = self._applying_root
        shipped = [{name: delta for name, delta, is_cache in commit.batch
                    if is_cache} for commit in commits]
        for view in self.shares:
            closure = self.engine.view(view).base_closure
            deltas = []
            for commit, cached in zip(commits, shipped):
                if view in cached and view in commit.keep:
                    deltas.append(cached[view])
                elif view in cached or commit.changed_bases & closure:
                    self._publish_current(view, origins, root)
                    break
            else:
                self._publish_diff(
                    view,
                    frozenset().union(*(d.insertions for d in deltas)),
                    frozenset().union(*(d.deletions for d in deltas)),
                    origins, root)

    def _publish_current(self, view: str, origins: frozenset,
                         root: tuple | None = None) -> bool:
        """Publish the committed view's difference from the fold."""
        current = self.rows(view)
        published = self._published[view]
        return self._publish_diff(view, current - published,
                                  frozenset(published - current),
                                  origins, root)

    def _publish_diff(self, view: str, insertions: frozenset,
                      deletions: frozenset, origins: frozenset,
                      root: tuple | None = None) -> bool:
        if not insertions and not deletions:
            return False
        self._publish(view, insertions, deletions, origins, root)
        return True

    # -- receiving -----------------------------------------------------

    def watermark(self, sender: str, view: str) -> int:
        """The newest sender-outbox LSN durably applied on the
        ``(sender, view)`` link — the delivery resume point."""
        return self._watermarks.get((sender, view), 0)

    def receive(self, delta: ShareDelta) -> str:
        """Apply one shipped delta through this peer's own putback
        strategy.  Returns ``'applied'``, ``'duplicate'`` or
        ``'echo'``; raises :class:`PeerGap` on out-of-order delivery
        and :class:`PeerCrashed` under injected receiver death."""
        if faults.fire('peer.deliver', peer=self.name, view=delta.view,
                       sender=delta.sender) == 'crash':
            raise PeerCrashed(f'peer {self.name!r} crashed applying '
                              f'{delta.view}@{delta.lsn} from '
                              f'{delta.sender!r}')
        key = (delta.sender, delta.view)
        acked = self._watermarks.get(key, 0)
        if delta.lsn <= acked:
            self.stats['duplicates'] += 1
            return 'duplicate'
        if delta.lsn > acked + 1:
            raise PeerGap(f'link {key} expected lsn {acked + 1}, '
                          f'got {delta.lsn}')
        note = (_ACK, key, delta.lsn, delta.root)
        if self.name in delta.origins:
            # Our own delta coming back around a cycle: acknowledge,
            # never re-apply (the originator already holds the rows —
            # applying would republish and ping-pong forever).
            self._sidecar_ack(note)
            self._watermarks[key] = delta.lsn
            self.stats['echoes'] += 1
            return 'echo'
        if delta.root is not None and delta.root[-1] \
                <= self._applied_roots.get(tuple(delta.root[:-1]), 0):
            # A relayed copy of a root delta we already applied over
            # another path; re-applying it here could resurrect rows
            # the root has since deleted (the relay raced the delete).
            self._sidecar_ack(note)
            self._watermarks[key] = delta.lsn
            self.stats['stale'] += 1
            return 'stale'
        attributes = self.engine.view(delta.view).schema.attributes
        statements = [Delete(dict(zip(attributes, row)))
                      for row in delta.deletions]
        statements += [Insert(row) for row in delta.insertions]
        previous = self._applying_origins, self._applying_root
        self._applying_origins, self._applying_root = delta.origins, delta.root
        try:
            if self._embedded:
                before = self.engine.commit_lsn
                self.engine.execute_many([(delta.view, statements)],
                                         note=note)
                if self.engine.commit_lsn == before:
                    # Net-empty apply (idempotent redelivery after an
                    # ack-less crash): no commit record was written, so
                    # the ack rides in the sidecar instead.
                    self._sidecar_ack(note)
            else:
                self.engine.execute_many([(delta.view, statements)])
                self._sidecar_ack(note)
        finally:
            self._applying_origins, self._applying_root = previous
        self._watermarks[key] = delta.lsn
        if delta.root is not None:
            self._advance_root(delta.root)
        self.stats['applied'] += 1
        return 'applied'

    def _sidecar_ack(self, note: tuple) -> None:
        self._state.append('note', note)
        self.stats['sidecar_acks'] += 1

    # -- access --------------------------------------------------------

    def pending(self, view: str, after: int) -> list:
        """Outbox records above ``after`` — what a link still owes its
        receiver.  The tail is in LSN order (it is only appended to), so
        a scan back from its newest record stops at the first one
        delivered: k + 1 records read for k owed, whatever its length."""
        tail = self._tail[view]
        return tail[next((end for end in range(len(tail), 0, -1)
                          if tail[end - 1].lsn <= after), 0):]

    def rows(self, view: str) -> frozenset:
        return frozenset(self.engine.rows(view))

    def close(self) -> None:
        listeners = getattr(self.engine, 'commit_listeners', None)
        if listeners and self._on_commit in listeners:
            listeners.remove(self._on_commit)
        self.engine.close()
        self._state.close()
        for outbox in self._outbox.values():
            outbox.close()


@dataclass
class _Link:
    """One directed subscription: ``sender`` ships ``view`` deltas to
    ``receiver``.  ``acked`` mirrors the receiver's durable watermark;
    ``failures`` drives the capped exponential backoff and the
    quarantine threshold."""

    sender: str
    view: str
    receiver: str
    acked: int = 0
    failures: int = 0
    next_attempt: float = 0.0
    quarantined: bool = False
    stats: dict = field(default_factory=lambda: {
        'delivered': 0, 'retries': 0, 'gaps': 0, 'quarantines': 0})

    @property
    def name(self) -> str:
        return f'{self.sender}->{self.receiver}'


class PeerNetwork:
    """The delivery fabric between peers: links, retry with capped
    exponential backoff, quarantine, and restart-driven anti-entropy.

    ``clock``/``sleep`` are injectable for deterministic backoff tests
    (the default is real time).  All delivery happens inside
    :meth:`pump` / :meth:`settle` — the network is single-threaded by
    design, matching the deterministic chaos harness; the durable
    outbox/watermark protocol is what makes a concurrent transport
    equally safe."""

    def __init__(self, *, retry_backoff: float = 0.05,
                 retry_backoff_cap: float = 2.0,
                 quarantine_after: int = 5,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.peers: dict[str, Peer] = {}
        self.links: list[_Link] = []
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        self.quarantine_after = quarantine_after
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._sleep = sleep

    # -- topology ------------------------------------------------------

    def add_peer(self, name: str, engine_factory: Callable,
                 directory: 'str | Path', *,
                 shares: Sequence[str] = ()) -> Peer:
        peer = Peer(name, engine_factory, directory, shares=shares)
        self.peers[name] = peer
        self.metrics.gauge('peer.peers', len(self.peers))
        return peer

    def subscribe(self, sender: str, view: str, receiver: str) -> _Link:
        """Create the directed link; delivery resumes from the
        receiver's durable watermark (the subscription handshake)."""
        link = _Link(sender, view, receiver,
                     acked=self.peers[receiver].watermark(sender, view))
        self.links.append(link)
        self.metrics.gauge('peer.links', len(self.links))
        return link

    def share(self, view: str, peers: Sequence[str]) -> None:
        """Full-mesh subscription on ``view`` between ``peers`` — the
        symmetric Dejima topology (echo suppression keeps it sane)."""
        for sender in peers:
            for receiver in peers:
                if sender != receiver:
                    self.subscribe(sender, view, receiver)

    # -- delivery ------------------------------------------------------

    def lag(self) -> dict:
        """Per-link undelivered delta counts (0 everywhere ⇔ the
        network is fully propagated)."""
        return {link.name + ':' + link.view:
                len(self.peers[link.sender].pending(link.view,
                                                    link.acked))
                for link in self.links}

    def pump(self) -> int:
        """One delivery round over every due link.  Returns the number
        of deltas acknowledged this round."""
        now = self._clock()
        delivered = 0
        for link in self.links:
            if link.quarantined or link.next_attempt > now:
                continue
            delivered += self._pump_link(link)
        return delivered

    def _pump_link(self, link: _Link) -> int:
        sender = self.peers[link.sender]
        receiver = self.peers[link.receiver]
        pending = sender.pending(link.view, link.acked)
        if not pending:
            link.failures = 0
            return 0
        delivered = 0
        index = 0
        while index < len(pending):
            delta = pending[index]
            try:
                action = faults.fire('peer.send', link=link.name,
                                     sender=link.sender,
                                     receiver=link.receiver,
                                     view=link.view)
                if action == 'stall':
                    raise faults.InjectedFault(
                        f'injected stall on {link.name}')
                if action == 'reorder' and index + 1 < len(pending):
                    # Deliver the *next* message first: the receiver
                    # must reject the gap; we then resume in order —
                    # the sender-side recovery the docstring promises.
                    try:
                        receiver.receive(pending[index + 1])
                    except PeerGap:
                        link.stats['gaps'] += 1
                receiver.receive(delta)
                if action == 'dup':
                    receiver.receive(delta)   # watermark dedups
                    self.metrics.counter('peer.duplicates_sent')
            except PeerCrashed:
                self.metrics.counter('peer.crashes')
                self.restart_peer(link.receiver)
                self._record_failure(link)
                return delivered
            except PeerGap:
                link.stats['gaps'] += 1
                self._record_failure(link)
                return delivered
            except faults.InjectedFault:
                self._record_failure(link)
                return delivered
            link.acked = delta.lsn
            link.failures = 0
            link.stats['delivered'] += 1
            delivered += 1
            index += 1
        return delivered

    def _record_failure(self, link: _Link) -> None:
        link.failures += 1
        link.stats['retries'] += 1
        delay = min(self.retry_backoff * (2 ** (link.failures - 1)),
                    self.retry_backoff_cap)
        link.next_attempt = self._clock() + delay
        if link.failures >= self.quarantine_after:
            link.quarantined = True
            link.stats['quarantines'] += 1

    def settle(self, *, max_rounds: int = 1000) -> bool:
        """Pump until every non-quarantined link is fully acknowledged
        (or ``max_rounds`` elapse).  Waits out backoffs with the
        injected ``sleep``.  Returns ``True`` once nothing undelivered
        remains on live links, ``False`` when the rounds run out."""
        for _ in range(max_rounds):
            self.pump()
            waiting = []
            outstanding = 0
            now = self._clock()
            for link in self.links:
                if link.quarantined or not self.peers[
                        link.sender].pending(link.view, link.acked):
                    continue
                outstanding += 1
                if link.next_attempt > now:
                    waiting.append(link.next_attempt - now)
            if not outstanding:
                return True
            if len(waiting) == outstanding:
                self._sleep(min(waiting))
        return False

    # -- recovery ------------------------------------------------------

    def heal(self) -> int:
        """Lift every quarantine (the outage ended): the links resume
        from their receivers' watermarks — anti-entropy catch-up over
        the durable outbox.  Returns the number of links released."""
        released = 0
        for link in self.links:
            if link.quarantined:
                link.quarantined = False
                link.failures = 0
                link.next_attempt = 0.0
                released += 1
        if released:
            self.metrics.counter('peer.heals', released)
        return released

    def restart_peer(self, name: str) -> Peer:
        """Crash-restart ``name``: discard its in-memory state and
        rebuild it from its durable logs (engine WAL, outbox, sidecar),
        exactly as :class:`Peer` construction does.  Inbound links
        re-handshake to the recovered watermarks; its quarantined links
        are released for catch-up."""
        old = self.peers[name]
        old.close()
        peer = Peer(name, old._factory, old.directory,
                    shares=old.shares)
        self.peers[name] = peer
        self.metrics.counter('peer.restarts')
        for link in self.links:
            if link.receiver == name:
                link.acked = peer.watermark(link.sender, link.view)
            if name in (link.sender, link.receiver) and link.quarantined:
                link.quarantined = False
            if name in (link.sender, link.receiver):
                link.failures = 0
                link.next_attempt = 0.0
        return peer

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        """Merged peer + link counters next to the metrics snapshot."""
        return {
            'peers': {name: dict(peer.stats)
                      for name, peer in self.peers.items()},
            'links': {link.name + ':' + link.view: dict(link.stats)
                      for link in self.links},
            'lag': self.lag(),
            'quarantined': [link.name + ':' + link.view
                            for link in self.links if link.quarantined],
        }

    def close(self) -> None:
        for peer in self.peers.values():
            peer.close()


def converged(peers: Iterable[Peer], view: str) -> bool:
    """Do all ``peers`` agree bit-identically on ``view``?"""
    states = {peer.rows(view) for peer in peers}
    return len(states) <= 1
