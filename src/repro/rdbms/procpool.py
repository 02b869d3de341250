"""The shard protocol: one runtime, one client, two channels.

A shard of a :class:`~repro.rdbms.sharded.ShardedEngine` is a
:class:`WorkerRuntime` — an inner :class:`~repro.rdbms.engine.Engine`
plus per-transaction working/prepared slots — driven by one client
class (:class:`ProcessShard`) through a *channel*: ``submit(method,
*args) → token``, ``drain(token) → result or raise``, per-shard FIFO,
exactly one outcome per token.  The engine's transaction pipeline is
already message-shaped — ``apply_statements`` / ``flush_reads`` /
``prepare_commit`` / ``apply_prepared`` are pure-data calls (a
transaction's slot opens on its first call; there is no ``begin``
message), and every value they carry (statements, deltas, strategies,
compiled plans, library exceptions) pickles — so the same runtime
serves either channel:

* :class:`InlineChannel` calls it directly, on the coordinator's heap
  and the calling thread (:class:`LocalShard`, ``execution='inline'``);
* :class:`_RpcChannel` reaches it in a **worker process** over a pipe
  (``execution='processes'``) — the one way shards run concurrently:
  threads cannot beat the GIL on CPU-bound putback translation, a
  worker per shard can.

A transaction whose one participant shard routing can prove needs no
prepare vote: :meth:`WorkerRuntime.commit_local` stages, prepares and
commits it in one call — one message instead of four round trips.

The rest of this docstring is about the process transport.

Wire protocol
-------------

Length-prefixed pickle frames over a ``multiprocessing`` pipe: each
message is pickled with :data:`pickle.HIGHEST_PROTOCOL` and shipped via
``Connection.send_bytes`` (a 4-byte length header plus the payload).
Requests are ``(seq, method, args)`` triples; replies are ``(seq, ok,
payload)`` where ``payload`` is the return value (``ok``) or the
serialised exception (the library's error classes define ``__reduce__``
so the round trip is exact — see :mod:`repro.errors`).

**Pipelining.**  The worker serves strictly in request order and every
request gets exactly one reply, so the coordinator may submit several
requests before draining any reply (:meth:`_RpcChannel.submit` /
:meth:`_RpcChannel.drain`) — which is how it overlaps the workers
without a thread of its own.  It pipelines the statement fan-out
(``flush_reads`` and ``apply_statements`` are fire-and-forget) and
scatters prepare, apply and the gathers, collecting outcomes *in
submission order*, which is exactly the order the serial loop executes
in, so the first error raised is the serial-identical one (a call's
effect and failure are both deterministic functions of its inputs).

Worker lifecycle
----------------

Backends are constructed **inside** the worker (the coordinator ships a
backend *kind*, never an instance), so SQLite connections never cross
the fork.  A dead worker (killed, crashed, broken pipe) — or a *wedged*
one, surfaced by the per-call RPC timeout — appears as
:class:`~repro.errors.ShardUnavailableError`; the coordinator aborts
the cluster transaction on every other shard and restarts the worker so
the next transaction finds a serving shard.  Nothing re-runs the
aborted transaction: the error reaches the caller, whose re-run is
safe exactly when the error's ``applied`` is false.

**Durability.**  Every worker has a log: ``wal_path`` (threaded down
from ``ShardedEngine(wal_dir=...)``, or a directory the engine owns
when none is given) is opened *inside the worker process*, the append
in ``Engine.apply_prepared`` is the shard's commit point, and a
restarted worker replays the committed prefix through
``Engine.apply_wal_record`` — the one way a worker is recovered, and no
committed transaction is lost to a crash.  The prepare reply
additionally carries the shard's pre-commit LSN and the frozen commit
record, so a worker that dies *mid-apply* is repaired exactly
(:meth:`ProcessShard._repair_apply`): after the restart's replay the
coordinator checks whether the append — the commit point — made it; if
not, it re-commits the record it kept, and the cluster transaction
succeeds instead of losing a commit its sibling shards already
applied.  A one-message commit is decided from the log the same way
(:meth:`ProcessShard._repair_local`): the client keeps the shard's LSN
from the replies that tell it, and when the request went out but no
reply came, the restarted worker's LSN says whether the append made it
— then the record is read back from the log — or the worker holds
exactly the pre-transaction state, and the request is sent once more.

Deterministic fault injection (:mod:`repro.rdbms.faults`) hooks the
RPC send path (``rpc.send``) and the worker dispatch loop
(``worker.dispatch``); a plan installed before the pool forks is
inherited by every worker.  Inside ``commit_local`` each phase fires
``worker.dispatch`` under its two-phase name, and ``rpc.send`` names
the request ``prepare_commit`` — a rule addresses a phase the same way
on either path.

Fork hygiene: a forked worker inherits the coordinator's file
descriptors for every worker's pipe, its own included.  Each worker
closes those inherited ends on startup (:data:`_COORDINATOR_CONNS`),
otherwise a sibling's death — or the coordinator's — would never
surface as EOF on the other side; and
every shutdown finalizer is pid-guarded so a worker's own exit cannot
run the coordinator's cleanup against its siblings.

Statistics: a worker compiles a view's plans once, at ``define_view``,
seeded with the cluster-wide aggregated stats the coordinator passes
explicitly — never with its own local counts.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import weakref
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from repro.errors import SchemaError, ShardUnavailableError
from repro.rdbms import faults
from repro.rdbms.backends import BACKENDS, Backend, create_backend
from repro.rdbms.engine import Engine
from repro.rdbms.metrics import GLOBAL, merge_snapshots
from repro.rdbms.wal import read_records

__all__ = ['ProcessPool', 'ProcessShard', 'WorkerRuntime',
           'serve_connection']

#: Coordinator-side pipe ends of every live worker, inherited by forked
#: children; a starting worker closes them all (its own inherited
#: duplicate included — the coordinator's original stays open).
_COORDINATOR_CONNS: 'weakref.WeakSet' = weakref.WeakSet()

#: The worker's shard index inside a worker process, ``None`` in the
#: coordinator.  Tests use this to make fork-inherited monkeypatches
#: fire in exactly one worker.
WORKER_INDEX: int | None = None


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _PreparedToken(NamedTuple):
    """The prepare→apply handle: the runtime's slot id (0 from a
    one-message commit, which keeps no slot), the shard's pre-commit
    LSN and the frozen commit record — what apply repair re-commits,
    and what the coordinator hands its commit listeners (``None`` when
    the batch is empty: nothing is appended)."""

    txn: int
    lsn: int
    record: tuple | None


class WorkerRuntime:
    """One shard's server side, whichever transport reaches it: the
    inner engine plus per-transaction working/prepared slots, with
    every protocol method as a plain method.  A worker process serves
    one over its pipe (:func:`serve_connection`); an in-process shard
    calls one directly (:class:`InlineChannel`)."""

    def __init__(self, schema, backend_spec, *, wal_path=None,
                 wal_sync: bool = True):
        # With ``wal_path`` the worker owns its shard's log: the engine
        # appends each commit before storage (the commit point) and —
        # when the log already has records, i.e. this is a restart —
        # replays the committed prefix right here in the constructor.
        self.engine = Engine(schema,
                             backend=create_backend(backend_spec, schema),
                             wal=wal_path, wal_sync=wal_sync)
        self._workings: dict[int, object] = {}
        self._prepared: dict[int, object] = {}
        self._load: tuple | None = None
        #: Storage writes (a commit, a bulk load) exclude storage reads,
        #: per shard — what lets an in-process reader on another thread
        #: skip every staging and prepare (uncontended in a worker).
        self._storage = threading.RLock()

    # -- transaction pipeline -----------------------------------------

    def _working(self, txn: int):
        """Transaction ``txn``'s working slot, opened on first touch —
        there is no ``begin`` round trip."""
        working = self._workings.get(txn)
        if working is None:
            working = self._workings[txn] = self.engine.begin()
        return working

    def apply_statements(self, txn: int, target: str,
                         statements: Sequence) -> None:
        self.engine.apply_statements(self._working(txn), target,
                                     statements)

    def flush_reads(self, txn: int, target: str) -> None:
        self.engine.flush_reads(self._working(txn), target)

    def txn_rows(self, txn: int, target: str) -> frozenset:
        """The transaction's view of ``target`` (flushing pending
        translations first) — the coordinator's cross-shard read for
        key-moving UPDATE derivation."""
        working = self._working(txn)
        self.engine.flush_reads(working, target)
        return frozenset(working.rows(target))

    def _prepare(self, txn: int, working) -> tuple:
        prepared = self.engine.prepare_commit(working)
        record = prepared.wal_record() if prepared.batch else None
        return prepared, _PreparedToken(txn, self.engine.commit_lsn, record)

    def prepare_commit(self, txn: int) -> _PreparedToken:
        """Prepare, and reply with the shard's pre-commit LSN and the
        frozen commit record the apply phase will append."""
        self._prepared[txn], token = self._prepare(txn, self._workings[txn])
        return token

    def _apply(self, commit, argument):
        """Run a storage write — the commit point — under the storage
        lock.  If the WAL append fails (e.g. an fsync error) this
        worker can no longer make commits durable and its log may have
        a torn tail: it dies and recovers from the log rather than limp
        along, and the coordinator decides the in-flight transaction
        from that log."""
        try:
            with self._storage:
                return commit(argument)
        except OSError:
            if WORKER_INDEX is not None:
                os._exit(3)
            raise

    def apply_prepared(self, txn: int) -> None:
        prepared = self._prepared.pop(txn)
        self._workings.pop(txn, None)
        self._apply(self.engine.apply_prepared, prepared)

    def commit_local(self, buckets: Sequence) -> _PreparedToken:
        """The whole transaction of a lone participant in one call:
        stage every ``(target, statements)`` bucket, prepare and
        commit — what ``apply_statements`` … ``apply_prepared`` do
        over four round trips (one participant needs no prepare vote).
        Replies with the token a prepare would: the pre-commit LSN and
        the record the commit appended.  Only the commit takes the
        storage lock, so a reader never waits on the staging.  In a
        worker process each phase fires ``worker.dispatch`` under its
        two-phase name, so a fault rule addresses it either way."""
        working = self.engine.begin()
        try:
            for target, statements in buckets:
                _phase('apply_statements')
                self.engine.apply_statements(working, target, statements)
            _phase('prepare_commit')
            prepared, token = self._prepare(0, working)
        except BaseException:
            self.engine.abort(working)
            raise
        _phase('apply_prepared')
        self._apply(self.engine.apply_prepared, prepared)
        return token

    def commit_batch(self, data: tuple) -> int:
        """Apply repair: commit a frozen record this worker prepared in
        a previous incarnation but died before appending."""
        return self._apply(self.engine.commit_logged, data)

    def commit_lsn(self) -> int:
        return self.engine.commit_lsn

    def abort(self, txn: int) -> None:
        """Drop a transaction's staged state (storage was never
        touched: abandoning the working/prepared slots IS rollback)."""
        working = self._workings.pop(txn, None)
        self._prepared.pop(txn, None)
        if working is not None:
            self.engine.abort(working)

    # -- storage / catalog --------------------------------------------

    def rows(self, name: str) -> frozenset:
        with self._storage:
            return frozenset(self.engine.rows(name))

    def snapshot(self):
        with self._storage:
            return self.engine.database()

    def _with_lsn(self, result) -> tuple:
        """The reply of a call in :data:`_REPLIES_LSN`: its result and
        the shard log's LSN after it, which the client keeps
        (:attr:`ProcessShard._lsn`)."""
        return result, self.engine.commit_lsn

    def load(self, name: str, rows) -> tuple:
        with self._storage:
            self.engine.load(name, rows)
        return self._with_lsn(None)

    def prepare_load(self, name: str, rows) -> None:
        """A cluster-wide load's first phase: :meth:`Engine.prepare_load`
        on this shard's share, held for :meth:`apply_load`.  One load
        is held at a time; a cluster load another shard refused leaves
        it here until the next one replaces it."""
        self._load = name, self.engine.prepare_load(name, rows)

    def apply_load(self) -> tuple:
        (name, loaded), self._load = self._load, None
        with self._storage:
            self.engine.apply_load(name, loaded)
        return self._with_lsn(None)

    def count(self, name: str) -> int:
        return self.engine.backend.count(name)

    def has_cache(self, name: str) -> bool:
        return self.engine.backend.has_cache(name)

    def define_view(self, strategy, report, use_incremental: bool,
                    stats: Mapping[str, int], exist_ok: bool = False
                    ) -> tuple:
        """``(entry, created)`` — ``created`` is false when ``exist_ok``
        adopted a view this shard already carried (its WAL replay
        re-registered it), which a coordinator rolling back a failed
        cluster-wide definition must then leave alone."""
        created = not self.engine.is_view(strategy.view.name)
        entry = self.engine.define_view(strategy, report=report,
                                        validate_first=False,
                                        use_incremental=use_incremental,
                                        stats=stats, exist_ok=exist_ok)
        return self._with_lsn((entry, created))

    def drop_view(self, name: str) -> tuple:
        self.engine.drop_view(name)
        return self._with_lsn(None)

    def ping(self) -> str:
        return 'pong'

    def metrics(self) -> dict:
        """The shard engine's metrics snapshot — plus, in a worker
        process, that process's GLOBAL series (e.g. evaluator plan
        seals), which is how they travel back to the coordinator's
        merged ``ShardedEngine.metrics()`` over the ordinary channel.
        (The coordinator adds its own process's GLOBAL once.)"""
        if WORKER_INDEX is None:
            return self.engine.metrics_snapshot()
        return merge_snapshots([self.engine.metrics_snapshot(),
                                GLOBAL.snapshot()])

    def close(self) -> None:
        self.engine.close()

    def dispatch(self, method: str, args: tuple):
        """Execute one request (the RPC loop's inner step)."""
        if method.startswith('_') or not hasattr(self, method):
            raise SchemaError(f'unknown worker RPC method {method!r}')
        faults.fire('worker.dispatch', method=method)
        return getattr(self, method)(*args)


def _phase(method: str) -> None:
    """Fire ``worker.dispatch`` for a phase inside a call — in a worker
    process only, like every fault site of the process transport."""
    if WORKER_INDEX is not None:
        faults.fire('worker.dispatch', method=method)


def serve_connection(runtime: WorkerRuntime, conn) -> None:
    """The RPC loop: recv → dispatch → reply, strictly in order, one
    reply per request, until ``close`` or EOF.  Request failures are
    replies, not loop exits — the worker survives a failed transaction
    exactly as an in-process engine does.

    The pipelining contract (see module docstring) is *FIFO by
    sequence number*, and the transport may misbehave: an
    at-least-once sender can deliver a frame twice, and an injected
    reorder (``FaultPlan.reorder_rpc``) can deliver frames out of
    order.  The loop restores the contract at the boundary — a frame
    whose seq was already dispatched is silently absorbed (dispatching
    it again would double-execute the method *and* desynchronise the
    reply stream), and a frame from the future is held until the gap
    closes, so ``dispatch`` only ever sees each seq once, in order."""
    expected = 1
    held: dict[int, tuple] = {}        # future frames, keyed by seq
    closing = False
    while not closing:
        try:
            request = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break                          # coordinator went away
        seq, method, args = request
        if seq < expected or seq in held:
            continue                       # duplicate frame: absorbed
        held[seq] = (method, args)
        while expected in held:
            method, args = held.pop(expected)
            expected += 1
            try:
                result = runtime.dispatch(method, args)
                reply = (expected - 1, True, result)
            except Exception as error:
                reply = (expected - 1, False, error)
            try:
                conn.send_bytes(_dumps(reply))
            except Exception as error:
                # An unpicklable *result* (or error) must not kill the
                # channel: the coordinator is blocked waiting for
                # exactly this seq.
                what = 'reply' if reply[1] else 'error'
                conn.send_bytes(_dumps(
                    (reply[0], False,
                     SchemaError(f'worker {what} for {method!r} did '
                                 f'not serialise: {error}'))))
            if method == 'close':
                closing = True
                break


def _worker_main(conn, index: int, schema, backend_spec, wal_path,
                 wal_sync: bool, generation: int) -> None:
    """Process entry point: drop inherited sibling pipe ends, build the
    engine *in this process* (replaying the shard's WAL when it has
    records), serve until told to stop."""
    global WORKER_INDEX
    WORKER_INDEX = index
    faults.set_identity(shard=index, generation=generation)
    for inherited in list(_COORDINATOR_CONNS):
        try:
            inherited.close()
        except OSError:  # pragma: no cover - already closed
            pass
    runtime = WorkerRuntime(schema, backend_spec, wal_path=wal_path,
                            wal_sync=wal_sync)
    try:
        serve_connection(runtime, conn)
    finally:
        runtime.close()
        conn.close()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


#: The name a fault rule addresses a request by, where it differs from
#: the method: a one-message commit is the request that carries the
#: prepare.
_FAULT_NAMES = {'commit_local': 'prepare_commit'}

#: Calls that may write a shard's log: sending one makes the client
#: forget the LSN it knew (:attr:`ProcessShard._lsn`).
_WRITES_LOG = frozenset({'load', 'apply_load', 'define_view', 'drop_view',
                         'commit_batch', 'apply_prepared', 'commit_local'})

#: The log writes whose reply is ``(result, LSN after the call)``
#: (:meth:`WorkerRuntime._with_lsn`): the client learns the LSN back
#: from the reply itself, so a ``commit_lsn`` after a load or a
#: definition needs no request.
_REPLIES_LSN = frozenset({'load', 'apply_load', 'define_view',
                          'drop_view'})


class _RpcChannel:
    """Pipelined request/reply over one connection.

    ``submit`` sends a request and returns its sequence number (the
    *token*); ``drain`` blocks until that token's reply arrived —
    absorbing, in order, every reply before it.  Thread-safe: all I/O
    happens under one lock, and because the worker replies strictly in
    order, the thread holding the lock is always the one whose reply
    arrives next (no cross-thread starvation).

    ``timeout`` bounds each drain's wait for the *next reply frame*: a
    worker that is wedged (alive but not replying — an infinite loop, a
    deadlock) surfaces as :class:`ShardUnavailableError` instead of
    blocking the coordinator forever.  ``liveness`` (the worker
    process's ``is_alive``) turns a silent death into the same error
    without waiting out the full timeout."""

    def __init__(self, conn, shard: int, *,
                 timeout: float | None = None, liveness=None):
        self.conn = conn
        self.shard = shard
        self.timeout = timeout
        self._liveness = liveness
        self._seq = 0
        self._lock = threading.RLock()
        self._replies: dict[int, tuple[bool, object]] = {}
        #: Frames held back by an injected ``reorder`` fault, flushed
        #: after the next frame is sent (the actual inversion) or at
        #: drain entry (so a held frame can never deadlock a caller
        #: waiting on its reply).
        self._held: list[bytes] = []
        self.dead: str | None = None       # reason, once broken

    def _broken(self, reason: str) -> ShardUnavailableError:
        self.dead = self.dead or reason
        return ShardUnavailableError(self.shard, self.dead)

    def submit(self, method: str, *args) -> int:
        with self._lock:
            if self.dead:
                raise ShardUnavailableError(self.shard, self.dead)
            seq = self._seq + 1
            # Pickle before sending: a pickling error must surface
            # before any bytes hit the pipe, or the frame stream (and
            # the seq numbering) would be corrupt.
            payload = _dumps((seq, method, args))
            self._seq = seq
            try:
                action = faults.fire(
                    'rpc.send', method=_FAULT_NAMES.get(method, method),
                    shard=self.shard)
                if action == 'reorder':
                    self._held.append(payload)
                    return seq
                self.conn.send_bytes(payload)
                if action == 'dup':
                    self.conn.send_bytes(payload)
                self._flush_held()
            except (OSError, ValueError) as error:
                raise self._broken(f'send failed: {error}') from error
            return seq

    def _flush_held(self) -> None:
        """Send any reorder-held frames (after a later frame went out,
        completing the inversion — the worker re-sequences them)."""
        while self._held:
            self.conn.send_bytes(self._held.pop(0))

    def _wait_readable(self) -> None:
        """Bound the wait for the next reply frame (see class
        docstring).  The poll loop costs nothing on the happy path —
        ``poll`` returns the moment data arrives — and checks worker
        liveness between slices so a silent death is surfaced early."""
        if self.timeout is None:
            return                      # recv_bytes blocks natively
        deadline = time.monotonic() + self.timeout
        while not self.conn.poll(min(0.05, max(self.timeout, 0.001))):
            if self._liveness is not None and not self._liveness() \
                    and not self.conn.poll(0):
                raise self._broken('worker process died')
            if time.monotonic() >= deadline:
                raise self._broken(
                    f'no reply within {self.timeout:g}s '
                    f'(worker wedged or overloaded)')

    def drain(self, token: int):
        """The reply for ``token``: its value, or its raised error."""
        with self._lock:
            if self._held and not self.dead:
                try:
                    self._flush_held()
                except (OSError, ValueError) as error:
                    raise self._broken(
                        f'send failed: {error}') from error
            while token not in self._replies:
                if self.dead:
                    raise ShardUnavailableError(self.shard, self.dead)
                try:
                    self._wait_readable()
                    seq, ok, payload = pickle.loads(
                        self.conn.recv_bytes())
                except (EOFError, OSError) as error:
                    raise self._broken(
                        f'worker died mid-request ({error!r})'
                    ) from error
                self._replies[seq] = (ok, payload)
            outcome = self._replies.pop(token)
        return _settle(outcome)

    def call(self, method: str, *args):
        return self.drain(self.submit(method, *args))


def _settle(outcome: tuple):
    """Surface a stored ``(ok, payload)`` outcome."""
    ok, payload = outcome
    if ok:
        return payload
    raise payload


class InlineChannel:
    """The channel contract — one outcome per submitted call, surfaced
    when its token is drained — over a runtime on the caller's heap:
    every call executes inside ``submit``, on the calling thread, and
    the token *is* its stored ``(ok, payload)`` outcome.  No thread is
    ever created and nothing ever waits in a queue, so a reader on any
    caller's other thread is never held up by a transaction's staging
    or prepare — they run in Python; only the runtime's storage writes
    and reads exclude each other, per shard.  No fault site fires here:
    the injection hooks (``rpc.send``, ``worker.dispatch``) belong to
    the process transport."""

    dead = None                         # this transport cannot die

    def __init__(self, runtime: WorkerRuntime):
        self.runtime = runtime

    def submit(self, method: str, *args) -> tuple:
        try:
            return True, getattr(self.runtime, method)(*args)
        except Exception as error:
            return False, error


def _check_backend_spec(spec) -> None:
    """A process shard's backend is built inside its worker, from a
    *kind name*.  Checked in the coordinator, before any fork: an
    instance cannot cross it (SQLite connections are process-bound),
    and a worker dying on a bad name would surface as an opaque
    :class:`ShardUnavailableError` instead of the canonical error."""
    if isinstance(spec, Backend):
        raise SchemaError(
            'process shards construct their backend inside the worker '
            '(connections must not cross the fork); pass backend kind '
            'names, not instances')
    if spec is not None and spec not in BACKENDS:
        raise SchemaError(f'unknown backend {spec!r}; expected one '
                          f'of {sorted(BACKENDS)}')


class ProcessShard:
    """The shard client: one shard's protocol surface, spoken to a
    :class:`WorkerRuntime` through a channel.

    Every method is built on one primitive — :meth:`submit` a call by
    name, :meth:`drain` its token — so a coordinator overlaps shards by
    submitting to each before draining any, with no thread of its own.
    The synchronous methods (``prepare_commit``, ``rows``, …) are
    ``drain(submit(...))``; ``queue_apply``/``queue_flush`` return the
    token for the cluster transaction to drain at its barrier.

    This class runs the runtime in a **worker process** behind a pipe
    (:class:`_RpcChannel`); :class:`LocalShard` swaps the lifecycle for
    a runtime on the caller's heap and inherits every protocol method.

    ``wal_path`` is the runtime's durable log (opened *inside* the
    worker) — required, because the log is how a worker is recovered:
    :meth:`restart` brings committed state back by replay, and a commit
    whose worker died is decided from it (:meth:`_repair_apply`,
    :meth:`_repair_local`, see the module docstring's Durability
    section).  ``rpc_timeout`` bounds
    each call's wait so a wedged worker surfaces as
    :class:`ShardUnavailableError`."""

    def __init__(self, index: int, schema, backend_spec, *, wal_path,
                 mp_context=None, wal_sync: bool = True,
                 rpc_timeout: float | None = None):
        self.index = index
        self._schema = schema
        self._spec = backend_spec
        self._wal_path = wal_path
        self._wal_sync = wal_sync
        self._rpc_timeout = rpc_timeout
        self._ctx = mp_context
        self._txn_counter = 0
        #: The shard log's LSN after the last log write this client saw
        #: through (a commit's prepare token or reply, a load's or a
        #: definition's reply tells it), ``None`` from sending a call
        #: that may write the log until its reply.  A one-message
        #: commit keeps it as the pre-commit LSN its crash outcome is
        #: decided against.
        self._lsn: int | None = None
        #: restarts so far — the worker's fault-plan ``generation``
        self.generation = 0
        #: RPC round-trips completed on channels already torn down; a
        #: restart replaces the channel (whose sequence counter starts
        #: over), so the cumulative count lives here — see
        #: :meth:`metrics`.
        self._rpc_retired = 0
        self.channel = None
        self.process = None
        self._spawn()

    # -- lifecycle ----------------------------------------------------

    def _spawn(self) -> None:
        """Bring up a runtime and set ``self.channel`` to reach it."""
        _check_backend_spec(self._spec)
        context = self._ctx or _default_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        # ``Path(None)`` raises here, before the fork: no worker starts
        # without a log.
        process = context.Process(
            target=_worker_main,
            args=(child_conn, self.index, self._schema, self._spec,
                  Path(self._wal_path), self._wal_sync, self.generation),
            name=f'repro-shard-{self.index}', daemon=True)
        # Registered before the fork, so the worker closes its inherited
        # duplicate of this end too: a coordinator that dies then
        # leaves its worker an EOF, not a pipe it holds open itself.
        _COORDINATOR_CONNS.add(parent_conn)
        process.start()
        child_conn.close()                 # the worker owns that end
        self.channel = _RpcChannel(parent_conn, self.index,
                                   timeout=self._rpc_timeout,
                                   liveness=process.is_alive)
        self.process = process

    @property
    def alive(self) -> bool:
        return (self.channel is not None and not self.channel.dead
                and self.process is not None and self.process.is_alive())

    def restart(self) -> None:
        """Replace a dead (or wedged — ``_reap`` terminates it) worker
        with a fresh one, which replays the committed prefix of its log
        during construction: no committed transaction is lost."""
        self._reap()
        self._lsn = None
        self.generation += 1
        self._spawn()

    def _reap(self) -> None:
        if self.channel is not None:
            self._rpc_retired += self.channel._seq
            try:
                self.channel.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.channel = None
        if self.process is not None:
            if self.process.is_alive():    # pragma: no cover - kill path
                self.process.terminate()
            self.process.join(timeout=5)
            self.process = None

    def close(self) -> None:
        """Idempotent worker shutdown: ask politely, then reap."""
        if self.channel is not None and not self.channel.dead:
            try:
                self.channel.call('close')
            except ShardUnavailableError:
                pass
        self._reap()

    # -- the primitive ------------------------------------------------

    def submit(self, method: str, *args):
        """Start the call ``method(*args)`` without waiting for it;
        :meth:`drain` of the returned token finishes it.  Exactly one
        outcome per token: a request that could not even be sent (dead
        channel) surfaces at ``drain`` like any other failure, so a
        scatter always drains what it submitted.

        ``method`` names the runtime method and ``args`` are its
        arguments (which must pickle) — except for the two calls with a
        client-side half, kept for repair in :meth:`drain`:
        ``apply_prepared`` takes the whole prepare token (the runtime
        gets its slot id), ``commit_local`` the pre-commit LSN ahead of
        its buckets.  ``commit_lsn`` is answered here, without a
        request, while the client knows the LSN (:attr:`_lsn`)."""
        if method == 'commit_lsn' and self._lsn is not None:
            return method, args, (True, self._lsn)
        wire = (args[0].txn,) if method == 'apply_prepared' \
            else args[1:] if method == 'commit_local' else args
        if method in _WRITES_LOG:
            self._lsn = None
        try:
            ticket = self.channel.submit(method, *wire)
        except ShardUnavailableError as error:
            ticket = False, error
        return method, args, ticket

    def drain(self, token):
        """The outcome of a submitted call: its result, or its raised
        error — except that a commit that lost its worker is decided
        from the shard's log first (:meth:`_repair_apply`;
        :meth:`_repair_local` once its request had gone out — one that
        could not be sent is a clean abort)."""
        method, args, ticket = token
        try:
            result = _settle(ticket) if type(ticket) is tuple \
                else self.channel.drain(ticket)
        except ShardUnavailableError as error:
            if method == 'apply_prepared' and self._repair_apply(*args):
                result = None
            elif method == 'commit_local' and type(ticket) is not tuple:
                result = self._repair_local(error, *args)
            else:
                raise
        if method in ('apply_prepared', 'commit_local'):
            committed = args[0] if method == 'apply_prepared' else result
            self._lsn = committed.lsn + (committed.record is not None)
        elif method in _REPLIES_LSN:
            result, self._lsn = result
        return result

    def _call(self, method: str, *args):
        return self.drain(self.submit(method, *args))

    # -- transaction pipeline (pipelined where the router allows) -----

    def begin(self) -> int:
        """A fresh transaction id: the runtime opens the slot when the
        transaction's first call reaches it."""
        self._txn_counter += 1
        return self._txn_counter

    def queue_apply(self, txn: int, target: str, statements):
        return self.submit('apply_statements', txn, target,
                           list(statements))

    def queue_flush(self, txn: int, target: str):
        return self.submit('flush_reads', txn, target)

    def txn_rows(self, txn: int, target: str) -> frozenset:
        return self._call('txn_rows', txn, target)

    def prepare_commit(self, txn: int) -> _PreparedToken:
        return self._call('prepare_commit', txn)

    def apply_prepared(self, prepared: _PreparedToken) -> None:
        self._call('apply_prepared', prepared)

    def commit_local(self, buckets) -> _PreparedToken:
        """Stage, prepare and commit a one-participant transaction in
        one request (:meth:`WorkerRuntime.commit_local`); the token is
        what its listeners receive.  The pre-commit LSN goes with the
        request, client-side: it decides the outcome if no reply comes
        (:meth:`_repair_local`) — asked for first when a call that may
        have written the log left it unknown."""
        lsn = self._call('commit_lsn')
        return self.drain(self.submit('commit_local', lsn, buckets))

    def _repair_local(self, error: ShardUnavailableError, lsn: int,
                      buckets) -> _PreparedToken:
        """A one-message commit was sent and no reply came.  Restart
        the worker (its constructor replays the committed prefix) and
        read its LSN: one past ``lsn`` means the append — the commit
        point — made it, and the record is read back from the log for
        the listeners; ``lsn`` itself means the worker holds exactly
        the pre-transaction state, so the request is sent once more
        and its outcome is the transaction's.  Anything else leaves the
        outcome unknown: ``error`` is re-raised marked ``applied``, so
        the caller does not run the transaction again."""
        try:
            self.restart()
            recovered = self.channel.call('commit_lsn')
            if recovered == lsn + 1:
                for record in read_records(self._wal_path, after=lsn):
                    return _PreparedToken(0, lsn, record.data)
            if recovered == lsn:
                return self.channel.call('commit_local', buckets)
        except ShardUnavailableError:
            pass
        error.applied = True
        raise error

    def _repair_apply(self, token: _PreparedToken) -> bool:
        """A worker died (or its channel broke) *during* apply — after
        sibling shards may already have applied.  The log makes the
        outcome decidable: restart the worker (its constructor replays
        the committed prefix) and compare LSNs against the prepare
        reply.  The append — the commit point — either made it
        (``lsn == token.lsn + 1``: done) or it did not (``lsn ==
        token.lsn``: re-commit the frozen record the coordinator kept).
        Either way the cluster transaction *succeeds*, keeping the
        shards convergent.  Returns ``False`` — caller re-raises — when
        repair is impossible (an unexpected LSN, or the restarted
        worker failing too)."""
        try:
            self.restart()
            lsn = self.commit_lsn
            if token.record is None:
                return lsn == token.lsn    # nothing was to be appended
            if lsn == token.lsn + 1:
                return True                # commit point was reached
            if lsn == token.lsn:
                self.channel.call('commit_batch', token.record)
                return True
        except ShardUnavailableError:
            return False
        return False

    @property
    def commit_lsn(self) -> int:
        return self._call('commit_lsn')

    def abort(self, txn: int) -> None:
        if self.channel is not None and not self.channel.dead:
            try:
                self._call('abort', txn)
            except ShardUnavailableError:
                pass

    # -- storage / catalog --------------------------------------------

    def rows(self, name: str) -> frozenset:
        return self._call('rows', name)

    def snapshot(self):
        return self._call('snapshot')

    def load(self, name: str, rows) -> None:
        self._call('load', name, rows)

    def count(self, name: str) -> int:
        return self._call('count', name)

    def has_cache(self, name: str) -> bool:
        return self._call('has_cache', name)

    def define_view(self, strategy, *, report=None,
                    use_incremental: bool = True, stats=None,
                    exist_ok: bool = False) -> tuple:
        """``(entry, created)`` — see :meth:`WorkerRuntime.define_view`."""
        return self._call('define_view', strategy, report,
                          use_incremental, dict(stats or {}), exist_ok)

    def drop_view(self, name: str) -> None:
        self._call('drop_view', name)

    def metrics(self) -> dict:
        """The runtime's metrics snapshot (nothing when it is
        unreachable — a dead shard contributes nothing to the merge)
        plus this transport's own series: requests ever sent (across
        worker generations), restarts, liveness."""
        snapshots: list = []
        if self.channel is not None and not self.channel.dead:
            try:
                snapshots.append(self._call('metrics'))
            except ShardUnavailableError:
                pass
        sent = self.channel._seq if self.channel is not None else 0
        snapshots.append({
            'counters': {'rpc.requests': self._rpc_retired + sent,
                         'procpool.restarts': self.generation},
            'gauges': {'procpool.alive': float(self.alive)}})
        return merge_snapshots(snapshots)


class LocalShard(ProcessShard):
    """The in-process shard: the same client over a runtime on the
    caller's heap (:class:`InlineChannel`).  Lifecycle only — the
    transport cannot die, so there is nothing to restart or repair,
    and ``wal_path`` may be ``None``: no log."""

    alive = True

    def _spawn(self) -> None:
        self.runtime = WorkerRuntime(
            self._schema, self._spec, wal_path=self._wal_path,
            wal_sync=self._wal_sync)
        self.channel = InlineChannel(self.runtime)

    def restart(self) -> None:
        """Nothing to replace."""

    def close(self) -> None:
        self.runtime.close()

    def metrics(self) -> dict:
        return self._call('metrics')


def _default_context():
    """Fork where available (cheap, inherits the warmed import state);
    the platform default elsewhere.  The entry point is module-level
    and all arguments pickle, so spawn works too."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        'fork' if 'fork' in methods else None)


def _shutdown_shards(shards, owner_pid: int) -> None:
    """The pool finalizer.  Pid-guarded: a forked worker inherits this
    finalizer and must not run the coordinator's cleanup at its own
    exit (it would close its siblings' pipes)."""
    if os.getpid() != owner_pid:  # pragma: no cover - worker-side exit
        return
    for shard in shards:
        try:
            shard.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class ProcessPool:
    """N worker processes, one per shard, shut down idempotently on
    :meth:`shutdown`, coordinator GC, and interpreter exit (one
    pid-guarded ``weakref.finalize``, which Python also runs atexit)."""

    def __init__(self, schema, backend_specs: Sequence, *,
                 wal_paths: Sequence, wal_sync: bool = True,
                 rpc_timeout: float | None = None):
        context = _default_context()
        for spec in backend_specs:      # all of them, before any fork
            _check_backend_spec(spec)
        if len(wal_paths) != len(backend_specs):
            raise SchemaError(
                f'wal_paths must name one log per shard: got '
                f'{len(wal_paths)} for {len(backend_specs)} shards')
        self.shards = tuple(
            ProcessShard(index, schema, spec, wal_path=wal_path,
                         mp_context=context, wal_sync=wal_sync,
                         rpc_timeout=rpc_timeout)
            for index, (spec, wal_path)
            in enumerate(zip(backend_specs, wal_paths)))
        self._finalizer = weakref.finalize(
            self, _shutdown_shards, self.shards, os.getpid())

    def shutdown(self) -> None:
        if self._finalizer.detach() is not None:
            _shutdown_shards(self.shards, os.getpid())
