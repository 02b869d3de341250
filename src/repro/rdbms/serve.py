"""An asyncio serving front-end with admission control and group commit.

The engines are synchronous and single-transaction (one transaction
drives an engine at a time — the invariant the sharded fan-out is built
on), so a many-client deployment needs a front door that (a) bounds how
much work is admitted at once and (b) keeps the engine's transaction
pipeline busy with *batches* instead of per-client round trips.
:class:`ViewServer` is that front door:

* **Sessions** — any number of asyncio tasks call
  :meth:`ViewServer.submit` concurrently; each call is one transaction
  (a list of ``(target, statements)`` buckets, exactly
  ``execute_many``'s shape).

* **Admission control** — a semaphore caps the in-flight window
  (``max_inflight``); submissions beyond it queue *outside* the server
  until a slot frees, so a burst cannot pile unbounded work onto the
  commit queue.

* **Group commit** — one committer task drains whatever submissions
  have accumulated while the previous batch ran (up to ``max_group``)
  and runs them as a *single* ``execute_many`` transaction: the PR 3/5
  bucket-coalescing machinery then batches the per-view deltas across
  clients, turning N small putback runs into one.  Natural batching —
  no timer: under light load a submission commits alone immediately;
  under heavy load groups grow on their own because more submissions
  accumulate per engine run.

**Semantics.**  A group is one engine transaction: its members commit
atomically together and constraint checks see the group's *net* effect,
exactly as if one client had submitted the concatenated buckets.  When
a grouped run fails (any :class:`~repro.errors.ReproError` — a ⊥
violation, a failed translation, a dead shard), the group's members are
**retried individually** in submission order, so one aborting client
never poisons its peers: every client observes the same outcome its
transaction would have had alone, except that independently-valid
transactions may commit in one storage batch.  (A transaction that is
only valid *because* of a peer's presence in the group — e.g. its
constraint violation is repaired by the peer's delta — will commit in
the grouped run; this is the documented group-commit semantics, the
same trade classical WAL group commit makes.)

The engine runs on a dedicated single-thread executor: transactions
stay strictly serial (the engine's contract) while the event loop keeps
accepting sessions — and with a process-backed
:class:`~repro.rdbms.sharded.ShardedEngine` underneath, that one
committer thread fans each batch out across every worker core.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Sequence

from repro.errors import SchemaError, ShardUnavailableError
from repro.rdbms.dml import Statement
from repro.rdbms.metrics import MetricsRegistry, merge_snapshots

__all__ = ['Receipt', 'ViewServer']

_STOP = object()


@dataclass(frozen=True)
class Receipt:
    """What a committed submission resolves to."""

    #: how many client transactions the committing engine run carried
    group_size: int
    #: True when the submission's group failed and this transaction
    #: (re)committed alone in the individual-retry pass
    retried: bool = False
    #: the engine's commit point after this transaction applied — an
    #: int (Engine) or per-shard tuple (ShardedEngine); pass it back to
    #: :meth:`ViewServer.rows` as ``min_lsn`` to read your own write
    #: through the replicas.  0 where nothing is logged: an engine or
    #: in-process shard without a WAL (a process shard always has one).
    lsn: object = 0


class ViewServer:
    """Serve concurrent client transactions over one (sharded) engine.

    Usage::

        async with ViewServer(engine, max_inflight=64) as server:
            receipt = await server.submit([('v', [Insert(row)])])

    ``max_group=1`` degrades to one engine run per submission.

    **Reads.**  :meth:`rows` serves ``get`` without ever queueing
    behind the committer: reads run on their own executor
    (``read_threads``), routed through ``replicas`` (a
    :class:`~repro.rdbms.replica.ReplicaSet` in front of a single
    engine) when given — a sharded engine built with
    ``read_replicas=N`` routes internally instead.  A client holding a
    :attr:`Receipt.lsn` passes it as ``min_lsn`` for read-your-writes.
    """

    def __init__(self, engine, *, max_inflight: int = 64,
                 max_group: int = 32, replicas=None,
                 read_threads: int = 1):
        if max_inflight < 1:
            raise SchemaError(f'max_inflight must be >= 1, '
                              f'got {max_inflight}')
        if max_group < 1:
            raise SchemaError(f'max_group must be >= 1, got {max_group}')
        if read_threads < 1:
            raise SchemaError(f'read_threads must be >= 1, '
                              f'got {read_threads}')
        self.engine = engine
        self.max_inflight = max_inflight
        self.max_group = max_group
        self.replicas = replicas
        self.read_threads = read_threads
        self._admission: asyncio.Semaphore | None = None
        self._queue: asyncio.Queue | None = None
        self._committer: asyncio.Task | None = None
        # Drain-then-close bookkeeping: how many submissions passed the
        # closed check and have not resolved yet, and the event stop()
        # awaits before telling the committer to exit.  Counted
        # synchronously (no await between check and increment), so a
        # submission suspended on the admission semaphore is still
        # visible to stop() — previously such a straggler could enqueue
        # *after* the stop sentinel and its future would hang forever.
        self._pending = 0
        self._drained: asyncio.Event | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._read_executor: ThreadPoolExecutor | None = None
        self._closed = True
        #: every count the server keeps, as ``serve.*`` series:
        #: counters of submissions seen / committed / failed /
        #: individually retried, transactions in runs carrying >1
        #: (``grouped``), reads served, and failures caused by an
        #: unavailable shard (the ops signal that the cluster — not the
        #: workload — is sick); histograms of each engine run's group
        #: size (``group_size``: its count is the runs, its max the
        #: largest group) and each grouped run's latency
        #: (``group_seconds``)
        self._metrics = MetricsRegistry()

    def metrics(self) -> dict:
        """One merged snapshot: this server's series and the underlying
        engine's metrics — ``ShardedEngine.metrics()`` when serving a
        cluster (worker counters included), the plain engine's
        snapshot otherwise — plus the attached replica set's."""
        snapshots = [self._metrics.snapshot()]
        engine_metrics = getattr(self.engine, 'metrics', None)
        if callable(engine_metrics):
            snapshots.append(engine_metrics())
        elif hasattr(self.engine, 'metrics_snapshot'):
            snapshots.append(self.engine.metrics_snapshot())
        if self.replicas is not None:
            snapshots.append(self.replicas.metrics_snapshot())
        return merge_snapshots(snapshots)

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> 'ViewServer':
        if self._committer is not None:
            raise SchemaError('server already started')
        self._admission = asyncio.Semaphore(self.max_inflight)
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix='repro-serve')
        self._read_executor = ThreadPoolExecutor(
            max_workers=self.read_threads,
            thread_name_prefix='repro-serve-read')
        self._closed = False
        self._pending = 0
        self._drained = asyncio.Event()
        self._drained.set()
        self._committer = asyncio.get_running_loop().create_task(
            self._commit_loop())
        return self

    async def stop(self) -> None:
        """Graceful drain-then-close: new submissions are refused with
        a clean error the moment stop begins, every submission already
        admitted — including those still suspended on the admission
        semaphore — runs to its own outcome (commit or its own
        failure), and only then is the committer torn down.  A client
        awaiting :meth:`submit` therefore never hangs across a stop.
        Idempotent."""
        if self._committer is None:
            return
        self._closed = True
        # The committer keeps serving while admitted submissions drain:
        # semaphore slots free as outcomes resolve, stragglers enqueue
        # and get served, and the sentinel goes in only once no
        # submission can still be on its way to the queue.
        await self._drained.wait()
        if self._committer is None:     # a concurrent stop() finished
            return
        await self._queue.put(_STOP)
        await self._committer
        self._committer = None
        self._executor.shutdown(wait=True)
        self._executor = None
        self._read_executor.shutdown(wait=True)
        self._read_executor = None

    async def __aenter__(self) -> 'ViewServer':
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- the client surface -------------------------------------------

    async def submit(self, buckets: Sequence[tuple[str,
                                                   Sequence[Statement]]]
                     ) -> Receipt:
        """One transaction: commit ``buckets`` atomically (possibly
        batched with concurrent submissions) and return its
        :class:`Receipt`, or raise the error *this* transaction's
        buckets produce."""
        if self._closed or self._queue is None:
            raise SchemaError('server is not running')
        buckets = [(target, list(statements))
                   for target, statements in buckets]
        self._metrics.counter('serve.submitted')
        # Admission accounting happens before any suspension point
        # (asyncio is single-threaded: nothing runs between the closed
        # check above and this increment), so stop() sees every
        # submission that got past the check and drains it.
        self._pending += 1
        self._drained.clear()
        try:
            future = asyncio.get_running_loop().create_future()
            # The admission slot frees only once the outcome is known —
            # "in flight" means queued *or* running.
            async with self._admission:
                await self._queue.put((buckets, future))
                return await future
        finally:
            self._pending -= 1
            if self._pending == 0:
                self._drained.set()

    async def rows(self, name: str, *, min_lsn=None) -> frozenset:
        """Serve one ``get``: the contents of a table or view, routed
        through the read replicas when attached.  Runs on the read
        executor — reads never wait for the committer thread.
        ``min_lsn`` (a :attr:`Receipt.lsn`) bounds staleness to
        read-your-writes."""
        if self._closed or self._read_executor is None:
            raise SchemaError('server is not running')
        loop = asyncio.get_running_loop()
        if self.replicas is not None:
            read = lambda: self.replicas.read(name, min_lsn=min_lsn)  # noqa: E731
        else:
            read = lambda: self.engine.rows(name, min_lsn=min_lsn)    # noqa: E731
        result = await loop.run_in_executor(self._read_executor,
                                            lambda: frozenset(read()))
        self._metrics.counter('serve.reads')
        return result

    def _commit_lsn(self):
        """The engine's current commit point — an int, a per-shard
        tuple, or 0 for engines without a WAL."""
        return getattr(self.engine, 'commit_lsn', 0)

    # -- the committer ------------------------------------------------

    async def _commit_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is _STOP:
                return
            group = [item]
            while len(group) < self.max_group:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    # FIFO: the sentinel is behind every submission, so
                    # the current group is the tail — serve it, then
                    # stop.
                    await self._run_group(loop, group)
                    return
                group.append(nxt)
            await self._run_group(loop, group)

    async def _run_group(self, loop, group) -> None:
        merged = [bucket for buckets, _ in group for bucket in buckets]
        metrics = self._metrics
        metrics.observe('serve.group_size', float(len(group)))
        if len(group) > 1:
            metrics.counter('serve.grouped', len(group))
        started = perf_counter()
        try:
            await loop.run_in_executor(self._executor,
                                       self.engine.execute_many, merged)
            metrics.observe('serve.group_seconds',
                            perf_counter() - started)
        except Exception as error:
            if len(group) == 1:
                self._resolve(group[0][1], error=error)
                return
            # Abort isolation: the grouped run failed, so re-run each
            # member alone — every client gets the outcome its own
            # transaction deserves.
            for buckets, future in group:
                try:
                    await loop.run_in_executor(
                        self._executor, self.engine.execute_many,
                        buckets)
                except Exception as member_error:
                    self._resolve(future, error=member_error)
                else:
                    self._metrics.counter('serve.retried')
                    self._resolve(future,
                                  receipt=Receipt(group_size=len(group),
                                                  retried=True,
                                                  lsn=self._commit_lsn()))
            return
        # The post-group commit point is a safe read-your-writes bound
        # for every member: the group was one engine transaction.
        lsn = self._commit_lsn()
        for _, future in group:
            self._resolve(future, receipt=Receipt(group_size=len(group),
                                                  lsn=lsn))

    def _resolve(self, future, *, receipt: Receipt | None = None,
                 error: Exception | None = None) -> None:
        if future.done():        # the client gave up (cancelled)
            return
        if error is not None:
            self._metrics.counter('serve.failed')
            if isinstance(error, ShardUnavailableError):
                self._metrics.counter('serve.shard_failures')
            future.set_exception(error)
        else:
            self._metrics.counter('serve.committed')
            future.set_result(receipt)
