"""Deterministic, seed-driven fault injection for the distributed tier.

Crash tolerance is only provable if the crashes are *reproducible*: a
fault that fires "sometimes" cannot anchor a differential oracle.  This
module gives the distributed stack (worker processes, the WAL, the
replication tailer) a single injection surface with deterministic
triggering — a :class:`FaultPlan` is a list of rules, each naming an
injection **site**, a context **match**, and the ordinal **hit** on
which its action fires.  The hooks are plain function calls
(:func:`fire`) compiled into the production code paths; with no plan
installed they cost one module-global load.

Sites and their actions
-----------------------

===================  =====================================================
``rpc.send``         Coordinator-side, before each RPC frame is written
                     (``method``/``shard`` in context; a one-message
                     ``commit_local`` is named ``prepare_commit``, the
                     phase it carries that a rule addresses).  Actions:
                     ``delay`` (sleep), ``drop`` (raise
                     :class:`InjectedFault` — the channel then surfaces
                     ``ShardUnavailableError``), ``dup`` (the frame is
                     sent twice — the worker must dedup by sequence
                     number), ``reorder`` (the frame is held back and
                     sent after a later one — the worker must restore
                     FIFO before dispatching).
``worker.dispatch``  Worker-side, before each RPC method executes
                     (``method`` plus the worker identity), and inside
                     ``commit_local`` before each of its phases, under
                     the phase's own name (``apply_statements``,
                     ``prepare_commit``, ``apply_prepared``).  Actions:
                     ``kill`` (SIGKILL self — the crash the WAL must
                     survive), ``hang`` (sleep; what RPC timeouts must
                     surface as a wedged worker).
``wal.append``       Before a record's frame is written (``kind`` in
                     context).  Action ``tear`` is returned to the call
                     site, which writes *half* the frame and SIGKILLs —
                     the torn-final-frame crash.
``wal.fsync``        Inside :meth:`WriteAheadLog._flush`.  Action
                     ``error`` raises :class:`InjectedFault` (an
                     ``OSError``): the fsync-failure fault.
``wal.checkpoint``   Per record while the checkpoint temp file is
                     written (``index`` in context).  Action ``kill``
                     proves checkpoint crash-safety.
``replica.catch_up`` At the top of each catch-up pass.  Actions:
                     ``stall`` (returned to the site: the pass applies
                     nothing), ``error`` (raise — what
                     ``ReplicaSet`` quarantine must absorb).
``peer.send``        Peer-network sender side, before one delta message
                     is delivered over a link (``link``/``sender``/
                     ``receiver``/``view`` in context).  Actions:
                     ``delay`` (slow link), ``drop``/``error`` (lost
                     message — the link retries with backoff), ``stall``
                     (returned: the attempt silently fails, modelling a
                     wedged link), ``dup`` (returned: the message is
                     delivered twice — watermarks must dedup), and
                     ``reorder`` (returned: held back and delivered
                     after a later message — the receiver must reject
                     the gap and the sender must resend in order).
``peer.deliver``     Peer-network receiver side, before a received delta
                     is applied (``peer``/``view`` in context).  Action
                     ``crash`` (returned: the network simulates the
                     receiving peer dying mid-delivery and restarting
                     from its WAL).
===================  =====================================================

Determinism across processes
----------------------------

Workers are **forked**, so a plan installed in the coordinator *before*
the pool is constructed is inherited by every worker — each process
then counts its own hits (a worker's counters are shard-local by
construction).  Worker processes stamp their identity
(:func:`set_identity`: ``shard``, ``generation``) into every fired
context, so a rule can target one shard, or — via ``generation: 0`` —
only the *original* incarnation of a worker, never its restarted
replacement (restarts re-fork from the coordinator, which resets the
inherited counters; without the generation guard a crash-loop rule
would re-arm forever).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ['FaultPlan', 'InjectedFault', 'SITES', 'active', 'fire',
           'install', 'set_identity', 'uninstall']

#: Every injection site compiled into the library (documentation and a
#: guard against typo'd rules).
SITES = ('rpc.send', 'worker.dispatch', 'wal.append', 'wal.fsync',
         'wal.checkpoint', 'replica.catch_up', 'peer.send',
         'peer.deliver')

#: Actions executed centrally by :meth:`FaultPlan.fire` vs. returned to
#: the call site for site-specific interpretation.
_CENTRAL_ACTIONS = ('kill', 'hang', 'delay', 'drop', 'error')
_SITE_ACTIONS = ('tear', 'stall', 'dup', 'reorder', 'crash')


class InjectedFault(OSError):
    """The error injected by ``drop`` and ``error`` actions.  An
    ``OSError`` on purpose: the call sites treat it exactly as the real
    I/O failure it simulates (a dropped RPC frame, a failed fsync)."""


#: The installed plan (module-global so forked workers inherit it) and
#: this process's identity fields, merged into every fired context.
_ACTIVE: 'FaultPlan | None' = None
_IDENTITY: dict = {'shard': None, 'generation': 0}


def set_identity(**fields) -> None:
    """Stamp this process's identity (``shard=``, ``generation=``) into
    every subsequently fired context — called by the worker entry
    point."""
    _IDENTITY.update(fields)


def install(plan: 'FaultPlan') -> 'FaultPlan':
    """Make ``plan`` the active plan for this process (and, via fork,
    for workers spawned while it is installed)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> 'FaultPlan | None':
    return _ACTIVE


def fire(site: str, **ctx) -> str | None:
    """The injection hook: a no-op (returning ``None``) unless a plan
    is installed and one of its rules triggers, in which case the
    central actions execute here and the site-interpreted action names
    (``'tear'``/``'stall'``) are returned to the caller."""
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site, ctx)


@dataclass
class _Rule:
    """One armed fault: fire ``action`` on the ``hit``-th occurrence of
    ``site`` whose context matches ``match`` (``None`` values are
    wildcards).  ``once`` disarms after the first firing; otherwise the
    rule fires on every further matching hit."""

    site: str
    action: str
    hit: int = 1
    match: dict = field(default_factory=dict)
    seconds: float = 0.0
    once: bool = True
    count: int = 0
    fired: int = 0

    def matches(self, ctx: dict) -> bool:
        return all(ctx.get(key) == value
                   for key, value in self.match.items()
                   if value is not None)


class FaultPlan:
    """A deterministic schedule of injected faults.

    Build rules with the ``kill_worker``/``drop_rpc``/... methods (the
    ``seed`` is bookkeeping for the chaos harness — the *caller*
    derives rule parameters from it, the plan itself is explicit), then
    activate with ``with plan.installed(): ...``.  Thread-safe; each
    process counts its own hits (see module docstring).  ``log``
    records every firing as ``(site, action, context)`` — assert on it
    to prove a test was not vacuous."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rules: list[_Rule] = []
        self._lock = threading.Lock()
        self.log: list[tuple[str, str, dict]] = []

    # -- rule builders -------------------------------------------------

    def _add(self, site: str, action: str, hit: int, match: dict,
             seconds: float = 0.0, once: bool = True) -> _Rule:
        if site not in SITES:
            raise ValueError(f'unknown fault site {site!r}')
        if action not in _CENTRAL_ACTIONS + _SITE_ACTIONS:
            raise ValueError(f'unknown fault action {action!r}')
        if hit < 1:
            raise ValueError(f'hit must be >= 1, got {hit}')
        rule = _Rule(site, action, hit, match, seconds, once)
        self.rules.append(rule)
        return rule

    def kill_worker(self, *, shard: int | None = None,
                    method: str | None = 'apply_prepared',
                    hit: int = 1, generation: int | None = 0) -> _Rule:
        """SIGKILL the worker at its ``hit``-th dispatch of ``method``
        (any method when ``None``).  ``generation=0`` (the default)
        spares restarted workers — without it the rule re-arms on every
        re-fork and the worker crash-loops."""
        return self._add('worker.dispatch', 'kill', hit,
                         {'shard': shard, 'method': method,
                          'generation': generation})

    def hang_worker(self, *, shard: int | None = None,
                    method: str | None = 'prepare_commit', hit: int = 1,
                    seconds: float = 3600.0,
                    generation: int | None = 0) -> _Rule:
        """Wedge the worker (sleep, not death) at a dispatch — the
        fault RPC timeouts must surface as ``ShardUnavailableError``."""
        return self._add('worker.dispatch', 'hang', hit,
                         {'shard': shard, 'method': method,
                          'generation': generation}, seconds)

    def delay_rpc(self, *, shard: int | None = None,
                  method: str | None = None, hit: int = 1,
                  seconds: float = 0.01, once: bool = True) -> _Rule:
        """Sleep before an RPC frame is sent (transient slowness)."""
        return self._add('rpc.send', 'delay', hit,
                         {'shard': shard, 'method': method}, seconds,
                         once)

    def drop_rpc(self, *, shard: int | None = None,
                 method: str | None = None, hit: int = 1) -> _Rule:
        """Fail an RPC send with :class:`InjectedFault` — the channel
        breaks exactly as on a real ``OSError`` (the worker process
        stays alive; the coordinator must reap and restart it)."""
        return self._add('rpc.send', 'drop', hit,
                         {'shard': shard, 'method': method})

    def dup_rpc(self, *, shard: int | None = None,
                method: str | None = None, hit: int = 1,
                once: bool = True) -> _Rule:
        """Send an RPC frame *twice* (at-least-once transport).  The
        worker must dedup by sequence number or it executes the method
        twice and its reply stream desynchronises."""
        return self._add('rpc.send', 'dup', hit,
                         {'shard': shard, 'method': method}, once=once)

    def reorder_rpc(self, *, shard: int | None = None,
                    method: str | None = None, hit: int = 1) -> _Rule:
        """Hold an RPC frame back and send it *after* the next one —
        the worker must buffer and restore FIFO dispatch order."""
        return self._add('rpc.send', 'reorder', hit,
                         {'shard': shard, 'method': method})

    def drop_peer(self, *, link: str | None = None, hit: int = 1,
                  once: bool = True) -> _Rule:
        """Lose one peer delta message in flight (the link raises; the
        sender must retry with backoff until acknowledged)."""
        return self._add('peer.send', 'drop', hit, {'link': link},
                         once=once)

    def delay_peer(self, *, link: str | None = None, hit: int = 1,
                   seconds: float = 0.01, once: bool = True) -> _Rule:
        """Slow one peer delta delivery down (transient link latency)."""
        return self._add('peer.send', 'delay', hit, {'link': link},
                         seconds, once)

    def dup_peer(self, *, link: str | None = None, hit: int = 1,
                 once: bool = True) -> _Rule:
        """Deliver one peer delta message *twice* — the receiver's
        per-link LSN watermark must dedup the redelivery."""
        return self._add('peer.send', 'dup', hit, {'link': link},
                         once=once)

    def reorder_peer(self, *, link: str | None = None,
                     hit: int = 1) -> _Rule:
        """Hold a peer delta back and deliver it after a later one —
        the receiver must reject the gap (watermark monotonicity) and
        the sender must recover by resending in order."""
        return self._add('peer.send', 'reorder', hit, {'link': link})

    def stall_link(self, *, link: str | None = None, hit: int = 1,
                   once: bool = False) -> _Rule:
        """Wedge a peer link: every matching delivery attempt silently
        fails (no exception, no progress) — what retry/quarantine and
        anti-entropy catch-up must absorb.  Repeats by default; disarm
        by uninstalling the plan or bounding ``hit``/``once``."""
        return self._add('peer.send', 'stall', hit, {'link': link},
                         once=once)

    def crash_peer(self, *, peer: str | None = None,
                   hit: int = 1) -> _Rule:
        """Simulate the receiving peer dying mid-delivery: the network
        discards its in-memory state and restarts it from its WAL —
        the recovery path a SIGKILL exercises, minus the subprocess."""
        return self._add('peer.deliver', 'crash', hit, {'peer': peer})

    def fail_fsync(self, *, shard: int | None = None,
                   hit: int = 1) -> _Rule:
        """Raise ``InjectedFault`` from the WAL's flush — the
        fsync-``OSError`` fault (the log poisons itself; a worker dies
        rather than serve non-durable commits)."""
        return self._add('wal.fsync', 'error', hit, {'shard': shard})

    def tear_frame(self, *, shard: int | None = None, hit: int = 1,
                   generation: int | None = 0) -> _Rule:
        """Write half of a record's frame, then SIGKILL — the torn
        final frame recovery must truncate."""
        return self._add('wal.append', 'tear', hit,
                         {'shard': shard, 'generation': generation})

    def kill_checkpoint(self, *, record: int = 1) -> _Rule:
        """SIGKILL while the checkpoint temp file is being written
        (before the atomic rename) — the log must survive intact."""
        return self._add('wal.checkpoint', 'kill', record, {})

    def stall_replica(self, *, hit: int = 1, once: bool = True) -> _Rule:
        """Make a replica catch-up pass apply nothing (a stalled tail;
        reads degrade to the primary, no quarantine)."""
        return self._add('replica.catch_up', 'stall', hit, {},
                         once=once)

    def fail_replica(self, *, hit: int = 1) -> _Rule:
        """Raise from a replica catch-up pass (a broken tail — what
        ``ReplicaSet`` must quarantine)."""
        return self._add('replica.catch_up', 'error', hit, {})

    # -- firing --------------------------------------------------------

    def fire(self, site: str, ctx: dict) -> str | None:
        merged = dict(_IDENTITY)
        merged.update(ctx)
        triggered: _Rule | None = None
        with self._lock:
            for rule in self.rules:
                if rule.site != site or not rule.matches(merged):
                    continue
                rule.count += 1
                if rule.count < rule.hit or (rule.once and rule.fired):
                    continue
                rule.fired += 1
                self.log.append((site, rule.action, merged))
                triggered = rule
                break
        if triggered is None:
            return None
        return self._execute(triggered)

    def _execute(self, rule: _Rule) -> str | None:
        # Central actions run here (outside the lock: 'kill' never
        # returns); site-interpreted ones are handed back by name.
        if rule.action == 'kill':       # pragma: no cover - dies
            os.kill(os.getpid(), signal.SIGKILL)
        if rule.action in ('hang', 'delay'):
            time.sleep(rule.seconds)
            return rule.action
        if rule.action in ('drop', 'error'):
            raise InjectedFault(
                f'injected {rule.action} at {rule.site}')
        return rule.action              # 'tear' / 'stall'

    def fired(self, site: str | None = None) -> int:
        """How many times this process's rules fired (optionally at one
        site) — the non-vacuity assertion for tests."""
        with self._lock:
            return sum(1 for logged_site, _, _ in self.log
                       if site is None or logged_site == site)

    @contextmanager
    def installed(self):
        """Activate the plan for the dynamic extent of the block (and,
        by fork, for any worker spawned inside it)."""
        install(self)
        try:
            yield self
        finally:
            uninstall()
