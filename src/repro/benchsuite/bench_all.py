"""``bench_all``: every engine configuration, one comparable summary.

Runs the same key-local OLTP mix (write transactions of ``stmts``
inserts, each followed by view reads) across the six engine
configurations this repo ships —

* ``memory``   — single :class:`~repro.rdbms.engine.Engine`, memory
  backend (the baseline every speedup is relative to);
* ``sqlite``   — single engine, SQLite backend;
* ``sharded``  — :class:`~repro.rdbms.sharded.ShardedEngine`, two
  in-process shards;
* ``procs``    — two worker *processes* (pipelined pickle RPC);
* ``replica``  — single WAL-backed engine with delta-fed read
  replicas serving the reads;
* ``peers``    — a two-peer :class:`~repro.rdbms.peernet.PeerNetwork`
  (Dejima-style data sharing): writes commit on one peer, each read
  settles the network and serves from the *subscribed* peer, so the
  measured latency includes delta shipping plus the receiver's own
  putback

— through the shared :mod:`repro.benchsuite.harness` (seeded iterated
rounds, execution-order rotation, warmup), and emits ONE summary JSON:
per-config throughput, P50/P95/P99 latency, CPU seconds
(``resource.getrusage`` — psutil-free), run-level peak RSS, a merged
engine metrics sample, and a **metrics-overhead** section proving the
instrumented hot path stays within :data:`OVERHEAD_CEILING` of the
same engine with ``metrics.enabled = False`` (CI gates on it).

Per-config ``cpu_seconds`` is the *coordinator process* delta around
each timed round (exact for every in-process config); worker-process
CPU only appears in the run-level ``resources.cpu_children_seconds``
total, because ``RUSAGE_CHILDREN`` counts children only once reaped.

``speedup_vs_memory`` is the hardware-independent ratio
``benchmarks/trend.py`` tracks across the committed trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from repro.benchsuite.harness import BenchCase, run_cases
from repro.core.strategy import UpdateStrategy
from repro.rdbms.dml import Insert
from repro.rdbms.engine import Engine
from repro.rdbms.metrics import merge_snapshots, summarize_snapshot
from repro.rdbms.peernet import PeerNetwork
from repro.rdbms.replica import ReplicaEngine, ReplicaSet
from repro.rdbms.sharded import ShardedEngine
from repro.relational.schema import DatabaseSchema

__all__ = ['CONFIGS', 'OVERHEAD_CEILING', 'run_bench_all',
           'run_overhead', 'build_summary', 'check_summary', 'main']

#: Every configuration the summary must cover, in baseline-first order.
CONFIGS = ('memory', 'sqlite', 'sharded', 'procs', 'replica', 'peers')

#: The gated bound on instrumented/uninstrumented hot-path time (the
#: per-transaction hooks are a handful of ``perf_counter`` calls and
#: locked dict updates on a millisecond-scale pipeline).  See
#: :func:`run_overhead` for how the ratio is measured.
OVERHEAD_CEILING = 1.02

SHARD_KEYS = {'items': 'iid', 'luxuryitems': 'iid'}


def _strategy() -> UpdateStrategy:
    sources = DatabaseSchema.build(
        items={'iid': 'int', 'iname': 'string', 'price': 'int'})
    return UpdateStrategy.parse('luxuryitems', sources, """
        ⊥ :- luxuryitems(I, N, P), not P > 1000.
        +items(I, N, P) :- luxuryitems(I, N, P), not items(I, N, P).
        expensive(I, N, P) :- items(I, N, P), P > 1000.
        -items(I, N, P) :- expensive(I, N, P), not luxuryitems(I, N, P).
    """, expected_get='luxuryitems(I, N, P) :- items(I, N, P), '
                      'P > 1000.')


def _base_rows(size: int) -> list[tuple]:
    return [(i, f'item_{i}', 2000 + i % 500) for i in range(size)]


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _build(config: str, strategy: UpdateStrategy, size: int,
           wal_dir: str) -> dict:
    """One ready-to-measure context for ``config``: ``engine`` takes
    ``execute_many`` writes, ``read()`` serves the view."""
    schema = strategy.sources
    rows = _base_rows(size)
    if config in ('memory', 'sqlite'):
        engine = Engine(schema, backend=config)
        engine.load('items', rows)
        engine.define_view(strategy, validate_first=False)
        return {'engine': engine, 'read': lambda: engine.rows('luxuryitems'),
                'close': engine.close}
    if config in ('sharded', 'procs'):
        engine = ShardedEngine(
            schema, shards=2, shard_keys=SHARD_KEYS,
            execution='processes' if config == 'procs' else 'inline')
        engine.load('items', rows)
        engine.define_view(strategy, validate_first=False)
        return {'engine': engine, 'read': lambda: engine.rows('luxuryitems'),
                'close': engine.close}
    if config == 'replica':
        engine = Engine(schema,
                        wal=Path(wal_dir) / 'bench-all-replica.wal',
                        wal_sync=False)
        engine.load('items', rows)
        engine.define_view(strategy, validate_first=False)
        router = ReplicaSet(
            engine, [ReplicaEngine(schema, engine.wal)
                     for _ in range(2)],
            policy='round-robin', max_lag=24)
        router.catch_up()

        def close():
            router.close()
            engine.close()

        return {'engine': engine, 'router': router,
                'read': lambda: router.read('luxuryitems'),
                'close': close}
    if config == 'peers':
        def factory(load_rows):
            def build(directory):
                engine = Engine(schema,
                                wal=Path(directory) / 'engine.wal',
                                wal_sync=False)
                if load_rows:
                    engine.load('items', load_rows)
                engine.define_view(strategy, validate_first=False,
                                   exist_ok=True)
                return engine
            return build

        net = PeerNetwork(retry_backoff=0.001)
        base = Path(wal_dir)
        writer = net.add_peer('writer', factory(rows),
                              base / 'peer-writer',
                              shares=('luxuryitems',))
        reader = net.add_peer('reader', factory(None),
                              base / 'peer-reader',
                              shares=('luxuryitems',))
        net.share('luxuryitems', ('writer', 'reader'))
        net.settle()             # ship the initial view state once

        def read():
            # A read on the *partner*: the measured path is commit ->
            # delta shipped -> applied through the reader's putback.
            net.settle()
            return reader.engine.rows('luxuryitems')

        return {'engine': writer.engine, 'net': net, 'read': read,
                'close': net.close}
    raise ValueError(f'unknown bench_all config {config!r}')


def _mix_cases(strategy, size: int, wal_dir: str, *, txns: int,
               stmts: int, reads: int, cpu_totals: dict,
               metrics_holder: dict) -> list[BenchCase]:
    def make_case(config: str) -> BenchCase:
        def setup():
            ctx = _build(config, strategy, size, wal_dir)
            ctx['next_key'] = 10_000_000
            ctx['cpu'] = 0.0
            return ctx

        def op(ctx, round_index):
            engine, read = ctx['engine'], ctx['read']
            latencies = []
            cpu_before = _cpu_self()
            for _ in range(txns):
                key = ctx['next_key']
                ctx['next_key'] += stmts
                statements = [
                    ('items', [Insert((key + n, f'b{key + n}', 5000))
                               for n in range(stmts)])]
                t0 = time.perf_counter()
                engine.execute_many(statements)
                latencies.append(time.perf_counter() - t0)
                for _ in range(reads):
                    t0 = time.perf_counter()
                    read()
                    latencies.append(time.perf_counter() - t0)
            ctx['cpu'] += _cpu_self() - cpu_before
            return latencies

        def teardown(ctx):
            cpu_totals[config] = ctx['cpu']
            engine = ctx['engine']
            if hasattr(engine, 'metrics'):
                try:
                    snapshot = engine.metrics() \
                        if callable(engine.metrics) \
                        else engine.metrics_snapshot()
                    router = ctx.get('router')
                    if router is not None:
                        snapshot = merge_snapshots(
                            [snapshot, router.metrics_snapshot()])
                    net = ctx.get('net')
                    if net is not None:
                        snapshot = merge_snapshots(
                            [snapshot, net.metrics.snapshot()])
                    metrics_holder[config] = \
                        summarize_snapshot(snapshot)
                except Exception:
                    pass
            ctx['close']()

        return BenchCase(name=config, setup=setup, op=op,
                         teardown=teardown, warmup=1,
                         meta={'config': config})
    return [make_case(config) for config in CONFIGS]


def run_bench_all(size: int, *, rounds: int, txns: int, stmts: int,
                  reads: int, progress=None) -> tuple[list[dict], dict]:
    """The cross-config mix.  Returns ``(points, metrics_sample)``:
    one point per config (throughput, latency summary, CPU seconds,
    speedup vs the memory baseline) and each config's summarized
    engine-metrics snapshot."""
    strategy = _strategy()
    cpu_totals: dict = {}
    metrics_holder: dict = {}
    with tempfile.TemporaryDirectory(prefix='repro-bench-all-') as d:
        results = run_cases(
            _mix_cases(strategy, size, d, txns=txns, stmts=stmts,
                       reads=reads, cpu_totals=cpu_totals,
                       metrics_holder=metrics_holder),
            rounds=rounds, seed=7, progress=progress)
    points = []
    for result in results:
        ops = len(result.samples)
        busy = sum(result.samples)
        points.append({
            'config': result.name,
            'base_size': size,
            'rounds': len(result.wall),
            'txns_per_round': txns,
            'statements_per_txn': stmts,
            'reads_per_txn': reads,
            'ops_per_second': ops / busy if busy else 0.0,
            'latency': result.latency,
            'cpu_seconds': cpu_totals.get(result.name),
            'wall_seconds': result.total_seconds,
        })
    baseline = points[0]['ops_per_second']
    for point in points:
        point['speedup_vs_memory'] = \
            point['ops_per_second'] / baseline if baseline else 0.0
    return points, metrics_holder


# -- metrics overhead -------------------------------------------------

def run_overhead(size: int, *, rounds: int, micro_txns: int = 1000,
                 stmts: int = 1000, txns: int = 4,
                 progress=None) -> dict:
    """The gated metrics-overhead measurement, in two differential
    parts on **one** engine (same object, same memory layout — only
    the ``metrics.enabled`` flag varies):

    1. **Hook cost per transaction** — paired loops of ``micro_txns``
       single-insert commits, flag on vs flag off, alternating which
       side runs first; the per-transaction *difference* of the best
       per-side loops isolates the instrumentation (a handful of
       ``perf_counter`` calls and locked dict updates — a few µs).
    2. **A realistic transaction's duration** — the best
       ``stmts``-insert commit with metrics off.

    ``ratio`` = ``1 + hook_seconds / plain_txn_seconds``.  A direct
    A/B of millisecond transactions cannot resolve a ≤2% question on
    a noisy shared box (run-to-run jitter is ±3–5% even on minima);
    the paired differential resolves the hook cost to sub-µs because
    both sides average it over thousands of *identical* commits —
    and the hook count is per-transaction (per phase), not
    per-statement, so the µs figure transfers to transactions of any
    size.  Micro-commits would show the same fixed cost as a
    double-digit percentage, which is what ``enabled = False`` is
    for — the gate asks about transactions doing real putback work."""
    strategy = _strategy()
    engine = Engine(strategy.sources)
    try:
        engine.load('items', _base_rows(size))
        engine.define_view(strategy, validate_first=False)
        state = {'next_key': 20_000_000}

        def micro_loop() -> float:
            key = state['next_key']
            state['next_key'] += micro_txns
            t0 = time.perf_counter()
            for n in range(micro_txns):
                engine.execute_many(
                    [('items', [Insert((key + n, f'o{key + n}',
                                        5000))])])
            return time.perf_counter() - t0

        def big_txn() -> float:
            key = state['next_key']
            state['next_key'] += stmts
            statements = [
                ('items', [Insert((key + n, f'o{key + n}', 5000))
                           for n in range(stmts)])]
            t0 = time.perf_counter()
            engine.execute_many(statements)
            return time.perf_counter() - t0

        reps = max(rounds, 4)
        engine.metrics.enabled = True
        micro_loop()                       # warm the sealed plans
        on_best = off_best = float('inf')
        for rep in range(reps):
            order = (True, False) if rep % 2 == 0 else (False, True)
            for enabled in order:
                engine.metrics.enabled = enabled
                elapsed = micro_loop()
                if enabled:
                    on_best = min(on_best, elapsed)
                else:
                    off_best = min(off_best, elapsed)
            if progress:
                progress(f'overhead pair {rep + 1}/{reps}')
        hook_seconds = max(0.0, (on_best - off_best) / micro_txns)

        engine.metrics.enabled = False
        plain_txn = min(big_txn() for _ in range(max(txns, 2)))
    finally:
        engine.close()
    return {
        'micro_txns_per_loop': micro_txns,
        'pairs': reps,
        'stmts_per_txn': stmts,
        'hook_seconds_per_txn': hook_seconds,
        'micro_txn_on_seconds': on_best / micro_txns,
        'micro_txn_off_seconds': off_best / micro_txns,
        'plain_txn_seconds': plain_txn,
        'ratio': 1.0 + (hook_seconds / plain_txn if plain_txn
                        else 0.0),
        'ceiling': OVERHEAD_CEILING,
    }


# -- summary / gating -------------------------------------------------

def build_summary(points: list[dict], metrics_sample: dict,
                  overhead: dict, *, mode: str, size: int,
                  rounds: int) -> dict:
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        'benchmark': 'bench_all',
        'mode': mode,
        'size': size,
        'rounds': rounds,
        'cpu_count': os.cpu_count(),
        'note': ('one OLTP mix, six engine configurations, shared '
                 'rotation-fair harness; speedup_vs_memory is the '
                 'hardware-independent ratio the committed trend file '
                 'gates on.  cpu_seconds is coordinator-process time '
                 'per config; worker-process CPU appears only in '
                 'resources.cpu_children_seconds (getrusage counts '
                 'children once reaped).'),
        'configs': points,
        'metrics_overhead': overhead,
        'metrics_sample': metrics_sample,
        'resources': {
            'cpu_self_seconds': self_usage.ru_utime +
            self_usage.ru_stime,
            'cpu_children_seconds': child_usage.ru_utime +
            child_usage.ru_stime,
            'max_rss_kb': self_usage.ru_maxrss,
            'children_max_rss_kb': child_usage.ru_maxrss,
        },
    }


def check_summary(summary: dict) -> list[str]:
    """Schema + overhead gates.  Returns failure messages (empty =
    pass) so CI, tests, and the CLI share one validator."""
    failures = []
    for key in ('benchmark', 'mode', 'size', 'rounds', 'configs',
                'metrics_overhead', 'metrics_sample', 'resources'):
        if key not in summary:
            failures.append(f'summary missing key {key!r}')
    points = {p.get('config'): p for p in summary.get('configs', [])}
    for config in CONFIGS:
        point = points.get(config)
        if point is None:
            failures.append(f'summary missing config {config!r}')
            continue
        for key in ('ops_per_second', 'latency', 'cpu_seconds',
                    'speedup_vs_memory'):
            if key not in point:
                failures.append(f'config {config!r} missing {key!r}')
        latency = point.get('latency') or {}
        for pct in ('p50_ms', 'p95_ms', 'p99_ms'):
            if pct not in latency:
                failures.append(
                    f'config {config!r} latency missing {pct!r}')
    resources = summary.get('resources', {})
    for key in ('cpu_self_seconds', 'max_rss_kb'):
        if key not in resources:
            failures.append(f'resources missing key {key!r}')
    overhead = summary.get('metrics_overhead', {})
    ratio = overhead.get('ratio')
    if ratio is None:
        failures.append('metrics_overhead missing ratio')
    elif ratio > overhead.get('ceiling', OVERHEAD_CEILING):
        failures.append(
            f'metrics overhead {ratio:.4f}x exceeds the '
            f'{overhead.get("ceiling", OVERHEAD_CEILING):.2f}x ceiling '
            f'(instrumented hot path is no longer negligible)')
    return failures


def format_points(points: list[dict]) -> str:
    lines = [f'{"config":>10} {"ops/s":>10} {"p50 ms":>8} '
             f'{"p95 ms":>8} {"p99 ms":>8} {"cpu s":>7} {"x mem":>6}']
    lines.append('-' * len(lines[0]))
    for p in points:
        lat = p['latency']
        lines.append(
            f'{p["config"]:>10} {p["ops_per_second"]:>10.0f} '
            f'{lat["p50_ms"]:>8.3f} {lat["p95_ms"]:>8.3f} '
            f'{lat["p99_ms"]:>8.3f} {p["cpu_seconds"]:>7.2f} '
            f'{p["speedup_vs_memory"]:>6.2f}')
    return '\n'.join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog='python -m repro.benchsuite bench_all',
        description=__doc__)
    parser.add_argument('--size', type=int, default=20_000,
                        help='base items rows per configuration')
    parser.add_argument('--rounds', type=int, default=5,
                        help='timed harness rounds per configuration')
    parser.add_argument('--txns', type=int, default=12,
                        help='write transactions per round')
    parser.add_argument('--stmts', type=int, default=10,
                        help='insert statements per transaction')
    parser.add_argument('--reads', type=int, default=2,
                        help='view reads after each transaction')
    parser.add_argument('--quick', action='store_true',
                        help='small sizes: a CI smoke run')
    parser.add_argument('--check', action='store_true',
                        help='fail on summary-schema violations or a '
                             'metrics overhead beyond the ceiling')
    parser.add_argument('--json', type=Path,
                        default=Path.cwd() / 'BENCH_all.json')
    args = parser.parse_args(argv)
    size, rounds, txns = args.size, args.rounds, args.txns
    mode = 'full'
    if args.quick:
        size, rounds, txns = 5_000, 3, 6
        mode = 'quick'

    progress = lambda msg: print(f'  bench_all: {msg}',    # noqa: E731
                                 file=sys.stderr)
    points, metrics_sample = run_bench_all(
        size, rounds=rounds, txns=txns, stmts=args.stmts,
        reads=args.reads, progress=progress)
    print(format_points(points))
    overhead = run_overhead(size, rounds=max(rounds, 5),
                            progress=progress)
    print(f'metrics overhead: {overhead["ratio"]:.4f}x instrumented '
          f'vs plain (ceiling {OVERHEAD_CEILING:.2f}x)')

    summary = build_summary(points, metrics_sample, overhead,
                            mode=mode, size=size, rounds=rounds)
    args.json.write_text(json.dumps(summary, indent=2) + '\n',
                         encoding='utf-8')
    print(f'wrote {args.json}')

    if args.check:
        failures = check_summary(summary)
        for failure in failures:
            print(f'FAIL: {failure}', file=sys.stderr)
        if failures:
            return 1
        print('check passed: summary schema complete, metrics '
              f'overhead {overhead["ratio"]:.4f}x within ceiling')
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
