"""Serving benchmark: multi-client sustained txn/s and tail latency
through the asyncio front-end (``rdbms/serve.py``).

The workload is many *small* transactions — the OLTP shape the serving
layer exists for: ``--clients`` (default 16) concurrent sessions each
submit ``--txns`` transactions of 1–2 statements against the Figure-6a
``luxuryitems`` view (a fresh single-tuple INSERT, every fourth
transaction paired with a by-key DELETE of one of the client's earlier
rows so the table stays bounded).  Client key blocks are spread across
the 4-shard key space, so sharded configurations route naturally.

Configurations:

* ``direct-single``     — the baseline: one ``execute_many`` per
  transaction, driven serially with no server in front.
* ``served-nogroup``    — the asyncio front-end, group commit off: the
  server costs an event-loop hop but still runs one engine transaction
  per submission.
* ``served-group``      — group commit on: concurrent submissions
  coalesce into one batched delta run (the PR 3/5 coalescing machinery
  applied *across* clients).
* ``served-inline``     — group commit over a 4-shard in-process
  ``ShardedEngine`` (every shard call on the writer's thread).
* ``served-procs``      — group commit over the same shards in worker
  *processes* (``execution='processes'``): on an N-core host the
  batch's prepare fans out across real cores; on a 1-core host it
  measures the RPC overhead (the gate allows 0.85× the serial
  baseline for it — the win shows on multicore, as recorded in the
  JSON's ``note``).

Each configuration reports sustained txn/s and P50/P95/P99 submit→
receipt latency into ``BENCH_serve.json``.  The configurations run on
the shared ``benchsuite.harness`` core: engines live for the whole
run, every timed round drives one full client swarm (fresh key epoch
per round), and rounds interleave the configurations in rotated order
so no configuration systematically inherits a warm machine.

Run:  python benchmarks/bench_serve.py [--quick] [--check] [--json PATH]

``--check`` is the CI smoke gate: group commit must beat the no-group
server (that's the point of the feature), and the process-backed
configuration must hold ≥ 0.85× the serial baseline even single-core.
"""

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / 'src'))

from repro.benchsuite.harness import BenchCase, run_cases    # noqa: E402
from repro.core.strategy import UpdateStrategy               # noqa: E402
from repro.rdbms.dml import Delete, Insert                   # noqa: E402
from repro.rdbms.engine import Engine                        # noqa: E402
from repro.rdbms.serve import ViewServer                     # noqa: E402
from repro.rdbms.sharded import (RangePartitioner,           # noqa: E402
                                 ShardedEngine)
from repro.relational.schema import DatabaseSchema           # noqa: E402

SHARDS = 4
#: Key space per shard slot (matches bench_shard.py).
SLOT = 10 ** 9
#: Keys per client block inside a shard slot.
BLOCK = 10 ** 6


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
    rows = []
    per_shard = size // SHARDS
    for shard in range(SHARDS):
        base = shard * SLOT
        rows.extend((base + i, f'item_{shard}_{i}', 2000 + i % 500)
                    for i in range(per_shard))
    return rows


def _client_txns(client: int, txns: int, epoch: int = 0) -> list[list]:
    """One client's transaction sequence: fresh INSERTs in the client's
    key block, every fourth transaction also deleting the client's
    oldest remaining row (bounded table, deterministic keys).
    ``epoch`` offsets the keys so repeated rounds against a long-lived
    engine never re-insert an existing row."""
    base = (client % SHARDS) * SLOT + SLOT // 2 + client * BLOCK \
        + epoch * txns
    live: list[int] = []
    sequence = []
    for n in range(txns):
        iid = base + n
        buckets = [('luxuryitems',
                    [Insert((iid, f'c{client}_{n}_{epoch}', 5000))])]
        live.append(iid)
        if n % 4 == 3:
            buckets.append(('luxuryitems',
                            [Delete({'iid': live.pop(0)})]))
        sequence.append(buckets)
    return sequence


def _build_engine(kind: str, strategy, size: int):
    if kind == 'single':
        engine = Engine(strategy.sources, backend='memory')
    else:
        partitioner = RangePartitioner(
            [i * SLOT for i in range(1, SHARDS)])
        engine = ShardedEngine(
            strategy.sources, partitioner=partitioner,
            backends='memory',
            shard_keys={'luxuryitems': 'iid', 'items': 'iid'},
            execution='processes' if kind == 'procs' else 'inline')
    engine.load('items', _base_rows(size))
    engine.define_view(strategy, validate_first=False)
    engine.rows('luxuryitems')
    return engine


def _run_direct(engine, clients: int, txns: int,
                epoch: int) -> list[float]:
    """The serial baseline: every client transaction, one engine run
    each, no server in front.  Returns per-transaction latencies."""
    plans = [_client_txns(c, txns, epoch) for c in range(clients)]
    latencies = []
    for round_ in range(txns):           # round-robin, like a fair loop
        for plan in plans:
            t0 = time.perf_counter()
            engine.execute_many(plan[round_])
            latencies.append(time.perf_counter() - t0)
    return latencies


def _run_served(engine, clients: int, txns: int, epoch: int, *,
                group: bool, max_inflight: int,
                max_group: int) -> tuple[list[float], dict]:
    async def main():
        latencies = []
        async with ViewServer(engine, max_inflight=max_inflight,
                              group_commit=group,
                              max_group=max_group) as server:
            async def session(client: int):
                for buckets in _client_txns(client, txns, epoch):
                    t0 = time.perf_counter()
                    await server.submit(buckets)
                    latencies.append(time.perf_counter() - t0)
            await asyncio.gather(*[session(c) for c in range(clients)])
        return latencies, {k: server.stats[k]
                           for k in ('groups', 'grouped', 'max_group',
                                     'retried')}
    return asyncio.run(main())


CONFIGS = (
    ('direct-single', 'single', None),
    ('served-nogroup', 'single', False),
    ('served-group', 'single', True),
    ('served-inline', 'inline', True),
    ('served-procs', 'procs', True),
)


def run_bench(size: int, clients: int, txns: int, *, rounds: int = 3,
              max_inflight: int = 64, max_group: int = 32,
              progress=None) -> list[dict]:
    strategy = _strategy()
    group_stats: dict[str, dict] = {}

    def make_case(config: str, kind: str, group) -> BenchCase:
        def op(ctx, round_index):
            # Warmup rounds get their own epochs (round_index is
            # negative there): every round inserts fresh keys.
            epoch = round_index + 4
            if group is None:
                return _run_direct(ctx, clients, txns, epoch)
            latencies, stats = _run_served(
                ctx, clients, txns, epoch, group=group,
                max_inflight=max_inflight, max_group=max_group)
            group_stats[config] = stats     # last round's server wins
            return latencies

        return BenchCase(name=config,
                         setup=lambda: _build_engine(kind, strategy,
                                                     size),
                         op=op, teardown=lambda ctx: ctx.close(),
                         warmup=1,
                         meta={'engine': kind,
                               'group_commit': bool(group)})

    results = run_cases([make_case(*spec) for spec in CONFIGS],
                        rounds=rounds, seed=17, progress=progress)
    points = []
    for result in results:
        point = {'config': result.name, 'engine': result.meta['engine'],
                 'group_commit': result.meta['group_commit'],
                 'clients': clients, 'txns_per_client': txns,
                 'rounds': len(result.wall), 'base_size': size,
                 'txns_per_second': (clients * txns * len(result.wall)
                                     / result.total_seconds),
                 'latency': result.latency}
        if result.name in group_stats:
            point['group_stats'] = group_stats[result.name]
        points.append(point)
    return points


def format_points(points) -> str:
    lines = [f'{"config":<16} {"engine":>8} {"group":>6} {"txn/s":>9} '
             f'{"p50 ms":>8} {"p95 ms":>8} {"p99 ms":>8} '
             f'{"max grp":>8}']
    lines.append('-' * len(lines[0]))
    for p in points:
        latency = p['latency']
        group = p.get('group_stats', {})
        lines.append(
            f'{p["config"]:<16} {p["engine"]:>8} '
            f'{"on" if p["group_commit"] else "off":>6} '
            f'{p["txns_per_second"]:>9.0f} {latency["p50_ms"]:>8.2f} '
            f'{latency["p95_ms"]:>8.2f} {latency["p99_ms"]:>8.2f} '
            f'{group.get("max_group", "-"):>8}')
    return '\n'.join(lines)


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--size', type=int, default=10_000,
                        help='base items rows across the key space')
    parser.add_argument('--clients', type=int, default=24,
                        help='concurrent client sessions')
    parser.add_argument('--txns', type=int, default=50,
                        help='transactions per client')
    parser.add_argument('--rounds', type=int, default=3,
                        help='timed harness rounds per configuration')
    parser.add_argument('--max-inflight', type=int, default=64)
    parser.add_argument('--max-group', type=int, default=32)
    parser.add_argument('--quick', action='store_true',
                        help='small sizes: a CI smoke run')
    parser.add_argument('--check', action='store_true',
                        help='fail when group commit does not beat the '
                             'no-group server, or the process-backed '
                             'configuration falls below 0.85x the '
                             'serial baseline')
    parser.add_argument('--json', type=Path,
                        default=Path(__file__).resolve().parent /
                        'BENCH_serve.json')
    args = parser.parse_args(argv)
    size, clients, txns = args.size, args.clients, args.txns
    rounds = args.rounds
    if args.quick:
        size, clients, txns, rounds = 8_000, 8, 30, 2
    points = run_bench(size, clients, txns, rounds=rounds,
                       max_inflight=args.max_inflight,
                       max_group=args.max_group,
                       progress=lambda msg: print(f'  {msg}',
                                                  file=sys.stderr))
    print(format_points(points))
    by_config = {p['config']: p for p in points}
    payload = {
        'benchmark': 'serve', 'size': size, 'clients': clients,
        'txns_per_client': txns, 'cpu_count': os.cpu_count(),
        'note': ('group commit coalesces concurrent small transactions '
                 'into one batched delta run; served-procs beats '
                 'served-inline on multi-core hosts, where the '
                 'grouped prepare fans out across worker processes — '
                 'on a 1-core host both measure coordination overhead '
                 'only'),
        'results': points,
    }
    args.json.write_text(json.dumps(payload, indent=2) + '\n',
                         encoding='utf-8')
    print(f'wrote {args.json}')
    if args.check:
        failed = False
        group = by_config['served-group']['txns_per_second']
        nogroup = by_config['served-nogroup']['txns_per_second']
        if group < 1.05 * nogroup:
            print(f'FAIL: group commit {group:.0f} txn/s did not beat '
                  f'the no-group server {nogroup:.0f} (needed >= '
                  f'1.05x)', file=sys.stderr)
            failed = True
        procs = by_config['served-procs']['txns_per_second']
        serial = by_config['direct-single']['txns_per_second']
        if procs < 0.85 * serial:
            print(f'FAIL: served-procs {procs:.0f} txn/s fell below '
                  f'0.85x the serial baseline {serial:.0f}',
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print(f'check passed: group commit = {group / nogroup:.2f}x '
              f'no-group, procs = {procs / serial:.2f}x serial '
              f'baseline')
    return 0


if __name__ == '__main__':
    raise SystemExit(_main())
