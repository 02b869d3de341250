"""Asyncio serving front-end tests: admission control, group commit
semantics (atomic batches, abort isolation via individual retry),
lifecycle, and equivalence with direct engine execution.

No pytest-asyncio in the image: every test is a plain sync function
driving its own ``asyncio.run`` — the server only lives inside the
coroutine anyway."""

import asyncio
import inspect
import threading

import pytest

from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.engine import Engine
from repro.rdbms.serve import Receipt, ViewServer
from repro.rdbms.sharded import ShardedEngine

UNION_KEYS = {'v': 'a', 'r1': 'a', 'r2': 'a'}


def _served(server) -> dict:
    """The server's own series, without the engine's: ``serve.*``
    counters (absent until first counted) and histograms."""
    return server._metrics.snapshot()


def _submitted(server) -> int:
    return _served(server)['counters'].get('serve.submitted', 0)


def _luxury_engine(luxury_strategy):
    engine = Engine(luxury_strategy.sources)
    engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000)])
    engine.define_view(luxury_strategy, validate_first=False)
    return engine


def _union_engine(union_strategy):
    engine = Engine(union_strategy.sources)
    engine.load('r1', [(1,)])
    engine.load('r2', [(2,)])
    engine.define_view(union_strategy, validate_first=False)
    return engine


class TestLifecycle:

    def test_parameters_validated(self, union_strategy):
        engine = _union_engine(union_strategy)
        with pytest.raises(SchemaError, match='max_inflight'):
            ViewServer(engine, max_inflight=0)
        with pytest.raises(SchemaError, match='max_group'):
            ViewServer(engine, max_group=0)
        engine.close()

    def test_keyword_set_is_pinned(self):
        """Every keyword doubles the configurations to cover: adding
        one is a deliberate diff to this set (``group_commit`` left —
        ``max_group=1`` is that server)."""
        parameters = inspect.signature(ViewServer.__init__).parameters
        assert {name for name, parameter in parameters.items()
                if parameter.kind is parameter.KEYWORD_ONLY} == {
            'max_inflight', 'max_group', 'replicas', 'read_threads'}

    def test_submit_requires_running_server(self, union_strategy):
        engine = _union_engine(union_strategy)

        async def main():
            server = ViewServer(engine)
            with pytest.raises(SchemaError, match='not running'):
                await server.submit([('v', [Insert((7,))])])
            await server.start()
            with pytest.raises(SchemaError, match='already started'):
                await server.start()
            await server.stop()
            with pytest.raises(SchemaError, match='not running'):
                await server.submit([('v', [Insert((7,))])])
            await server.stop()                  # idempotent

        asyncio.run(main())
        engine.close()

    def test_stop_drains_pending_submissions(self, union_strategy):
        """Submissions already queued when stop() is called still
        commit: the sentinel is FIFO-behind them."""
        engine = _union_engine(union_strategy)

        async def main():
            server = await ViewServer(engine).start()
            submits = [asyncio.ensure_future(
                server.submit([('v', [Insert((10 + i,))])]))
                for i in range(5)]
            while _submitted(server) < 5:
                await asyncio.sleep(0)
            await server.stop()
            return await asyncio.gather(*submits)

        receipts = asyncio.run(main())
        assert all(isinstance(r, Receipt) for r in receipts)
        assert frozenset(engine.rows('v')) >= {(10,), (11,), (12,),
                                               (13,), (14,)}
        engine.close()


    def test_stop_drains_submissions_held_at_admission(
            self, union_strategy):
        """Regression: a submission past the closed-check but parked
        on the admission *semaphore* is not yet in the queue — a stop
        that only sentinels the queue strands it behind the sentinel
        and its future never resolves.  ``stop()`` must wait for the
        in-flight population to drain first: every accepted submission
        either commits or fails cleanly, never hangs."""
        engine = _union_engine(union_strategy)

        async def main():
            server = await ViewServer(engine, max_inflight=1,
                                      max_group=1).start()
            submits = [asyncio.ensure_future(
                server.submit([('v', [Insert((20 + i,))])]))
                for i in range(8)]
            # All eight are accepted (counted) but at most one holds
            # the admission slot; the rest are parked on the semaphore.
            while _submitted(server) < 8:
                await asyncio.sleep(0)
            await asyncio.wait_for(server.stop(), timeout=30)
            return await asyncio.wait_for(asyncio.gather(*submits),
                                          timeout=30)

        receipts = asyncio.run(main())
        assert all(isinstance(r, Receipt) for r in receipts)
        assert frozenset(engine.rows('v')) >= {(20 + i,)
                                               for i in range(8)}
        engine.close()


class TestGroupCommit:

    def test_single_submission_matches_direct_execution(
            self, union_strategy):
        served = _union_engine(union_strategy)
        direct = _union_engine(union_strategy)

        async def main():
            async with ViewServer(served) as server:
                return await server.submit(
                    [('v', [Insert((3,)), Delete({'a': 1})])])

        receipt = asyncio.run(main())
        direct.execute_many([('v', [Insert((3,)), Delete({'a': 1})])])
        assert receipt == Receipt(group_size=1, retried=False)
        assert served.database() == direct.database()
        served.close()
        direct.close()

    def test_concurrent_submissions_coalesce(self, union_strategy):
        """While one engine run is on the executor, later submissions
        accumulate and commit as one grouped run — observable via
        ``group_size`` and the server's counters."""
        served = _union_engine(union_strategy)
        direct = _union_engine(union_strategy)
        gate = threading.Event()
        real = served.execute_many

        def gated(buckets):
            # The first engine run blocks until every client has
            # submitted, forcing all remaining submissions into one
            # group (deterministic grouping without timing luck).
            gate.wait(timeout=10)
            return real(buckets)

        served.execute_many = gated
        clients = 6

        async def main():
            async with ViewServer(served, max_group=32) as server:
                submits = [asyncio.ensure_future(
                    server.submit([('v', [Insert((20 + i,))])]))
                    for i in range(clients)]
                while _submitted(server) < clients:
                    await asyncio.sleep(0.01)
                gate.set()
                receipts = await asyncio.gather(*submits)
            return receipts, _served(server)

        receipts, served_metrics = asyncio.run(main())
        for i in range(clients):
            direct.execute_many([('v', [Insert((20 + i,))])])
        assert served.database() == direct.database()
        counters = served_metrics['counters']
        groups = served_metrics['histograms']['serve.group_size']
        assert groups['max'] > 1
        assert counters['serve.grouped'] >= groups['max']
        assert counters['serve.committed'] == clients
        assert groups['count'] < clients          # batching happened
        assert any(r.group_size > 1 for r in receipts)
        served.close()
        direct.close()

    def test_group_commit_off_never_batches(self, union_strategy):
        served = _union_engine(union_strategy)
        gate = threading.Event()
        real = served.execute_many

        def gated(buckets):
            gate.wait(timeout=10)
            return real(buckets)

        served.execute_many = gated
        clients = 4

        async def main():
            async with ViewServer(served, max_group=1) as server:
                submits = [asyncio.ensure_future(
                    server.submit([('v', [Insert((30 + i,))])]))
                    for i in range(clients)]
                while _submitted(server) < clients:
                    await asyncio.sleep(0.01)
                gate.set()
                receipts = await asyncio.gather(*submits)
            return receipts, _served(server)

        receipts, served_metrics = asyncio.run(main())
        assert all(r.group_size == 1 for r in receipts)
        groups = served_metrics['histograms']['serve.group_size']
        assert groups['count'] == clients
        assert 'serve.grouped' not in served_metrics['counters']
        assert groups['max'] == 1
        served.close()

    def test_max_inflight_one_serialises_everything(
            self, union_strategy):
        """With a one-slot admission window at most one submission is
        queued or running at a time, so no group can ever form."""
        served = _union_engine(union_strategy)

        async def main():
            async with ViewServer(served, max_inflight=1) as server:
                receipts = await asyncio.gather(*[
                    server.submit([('v', [Insert((40 + i,))])])
                    for i in range(5)])
            return receipts, _served(server)

        receipts, served_metrics = asyncio.run(main())
        assert all(r.group_size == 1 for r in receipts)
        assert served_metrics['histograms']['serve.group_size'][
            'max'] == 1
        served.close()


class TestAbortIsolation:

    def test_failing_member_retried_individually(self, luxury_strategy):
        """One constraint-violating client in a group: the violator
        alone raises, its peers commit via the retry pass, and the
        final state is exactly the peers' effect."""
        served = _luxury_engine(luxury_strategy)
        direct = _luxury_engine(luxury_strategy)
        gate = threading.Event()
        real = served.execute_many

        def gated(buckets):
            gate.wait(timeout=10)
            return real(buckets)

        served.execute_many = gated
        good = [[('luxuryitems', [Insert((10 + i, f'good{i}', 3000))])]
                for i in range(3)]
        bad = [('luxuryitems', [Insert((99, 'socks', 8))])]

        async def main():
            async with ViewServer(served) as server:
                futures = [asyncio.ensure_future(server.submit(txn))
                           for txn in (good[0], bad, good[1], good[2])]
                while _submitted(server) < 4:
                    await asyncio.sleep(0.01)
                gate.set()
                outcomes = await asyncio.gather(*futures,
                                                return_exceptions=True)
            return outcomes, _served(server)

        outcomes, served_metrics = asyncio.run(main())
        assert isinstance(outcomes[1], ConstraintViolation)
        committed = [o for o in outcomes if isinstance(o, Receipt)]
        assert len(committed) == 3
        for txn in good:
            direct.execute_many(txn)
        assert served.database() == direct.database()
        counters = served_metrics['counters']
        assert counters['serve.failed'] == 1
        assert counters['serve.committed'] == 3
        # The grouped run failed, so peers went through the retry pass.
        assert counters['serve.retried'] >= 1
        assert any(r.retried for r in committed)
        served.close()
        direct.close()

    def test_solo_failure_raises_without_retry(self, luxury_strategy):
        served = _luxury_engine(luxury_strategy)

        async def main():
            async with ViewServer(served) as server:
                with pytest.raises(ConstraintViolation):
                    await server.submit(
                        [('luxuryitems', [Insert((99, 'socks', 8))])])
                return _served(server)

        served_metrics = asyncio.run(main())
        assert served_metrics['counters'] == {'serve.submitted': 1,
                                              'serve.failed': 1}
        groups = served_metrics['histograms']['serve.group_size']
        assert (groups['count'], groups['max']) == (1, 1)
        served.close()


class TestServedShardedEngine:

    def test_serves_process_backed_cluster(self, union_strategy):
        """End-to-end smoke: the server in front of worker processes —
        concurrent sessions, grouped commits, state identical to a
        single engine."""
        direct = _union_engine(union_strategy)
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS,
                                execution='processes')
        sharded.load('r1', [(1,)])
        sharded.load('r2', [(2,)])
        sharded.define_view(union_strategy, validate_first=False)

        async def main():
            async with ViewServer(sharded, max_group=8) as server:
                async def session(base):
                    for n in range(4):
                        await server.submit(
                            [('v', [Insert((base + n,))])])
                await asyncio.gather(*[session(100 * c)
                                       for c in range(1, 4)])

        asyncio.run(main())
        for c in range(1, 4):
            for n in range(4):
                direct.execute_many([('v', [Insert((100 * c + n,))])])
        assert sharded.database() == direct.database()
        assert frozenset(sharded.rows('v')) == \
            frozenset(direct.rows('v'))
        sharded.close()
        direct.close()
