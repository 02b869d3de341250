"""The benchmark's names, sizes and bounds — the one place they live.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out (``run.py spec --write``); the smoke test asserts the two are equal,
so a workload or metric name can never fork between the runner, the
README and the contract file.
"""

from __future__ import annotations

from dataclasses import dataclass

#: What the driver passes as ``--seconds``.  Rounds are counted, not
#: timed: a run performs ``rounds * seconds / RUN_SECONDS`` rounds, sized
#: on this 2-core box so that cold starts + rounds take about this long.
RUN_SECONDS = 24

#: Seconds the reference work of ``measure.box_slowdown`` takes on this
#: box in its usual state.  Timings are reported at this speed: each is
#: divided by (reference work's time next to it) / REFERENCE_S.
REFERENCE_S = 0.0040

#: The cross-round rule for every timing: statistics are taken over the
#: faster half of rounds (or cold starts) by timed wall.
CALM_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    """One workload: a deployment, its size and its per-round op counts
    (per view lane; a round replays all four lanes)."""

    name: str
    why: str
    deployment: str      # 'memory' | 'sqlite' | 'cluster'
    catalog: bool        # cold start also validates the 31 Table 1 entries
    n: int               # rows per base relation
    rounds: int
    cold_starts: int
    inserts: int         # one-statement INSERTs per lane per round
    wheres: int          # keyed UPDATEs, and as many keyed DELETEs
    visibles: int        # INSERT + endpoint read
    batches: int         # transactions of BATCH_ROWS INSERTs
    reject_every: int    # one violating INSERT per this many inserts


BATCH_ROWS = 100
#: The first inserts of a lane in a round run on caches the preceding
#: check just flushed; they are executed and counted as operations but
#: kept out of the ``insert`` percentiles (class ``warm``).
WARMUPS = 3
CATALOG_N = 500

WORKLOADS = (
    Workload(
        'catalog-small',
        'strategy-author path: validating and compiling all 31 Table 1 '
        'entries is setup_s; rounds on n=1000 tables that fit every cache '
        'show per-transaction fixed cost',
        deployment='memory', catalog=True, n=1_000, rounds=18,
        cold_starts=3, inserts=50, wheres=5, visibles=10, batches=2,
        reject_every=20),
    Workload(
        'oltp-memory',
        'one memory Engine at n=50000, no WAL, no IPC: engine, dml and '
        'evaluator layers only; against catalog-small it separates O(1) '
        'inserts from O(|V|) keyed WHERE scans',
        deployment='memory', catalog=False, n=50_000, rounds=10,
        cold_starts=3, inserts=50, wheres=4, visibles=10, batches=2,
        reject_every=20),
    Workload(
        'durable-sqlite',
        'SQLite backend with an fsynced WAL at n=20000: plans as SQL, TEMP '
        'staging, log encode + fsync; an engine-side gain shows here and '
        'on oltp-memory, a SQL-side gain only here',
        deployment='sqlite', catalog=False, n=20_000, rounds=9,
        cold_starts=3, inserts=20, wheres=3, visibles=5, batches=2,
        reject_every=20),
    Workload(
        'cluster-share',
        'two process shards with fsynced WALs and read replicas, sharing '
        'luxuryitems with a second peer at n=20000: routing, 2PC, pickle '
        'RPC, replica catch-up, peer delta shipping',
        deployment='cluster', catalog=False, n=20_000, rounds=8,
        cold_starts=3, inserts=20, wheres=3, visibles=6, batches=2,
        reject_every=20),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None    # end-to-end only


END_TO_END = (
    Metric('setup_s', 's', 'lower', 0.25),
    Metric('ops_per_s', '1/s', 'higher', 0.25),
    Metric('insert_p50_ms', 'ms', 'lower', 0.25),
    Metric('where_p50_ms', 'ms', 'lower', 0.25),
    Metric('batch_rows_per_s', '1/s', 'higher', 0.25),
    Metric('visible_p50_ms', 'ms', 'lower', 0.25),
    Metric('cpu_ms_per_op', 'ms', 'lower', 0.25),
    Metric('peak_rss_mb', 'MB', 'lower', 0.15),
)


def _layer(prefix: str, *metrics: tuple) -> tuple:
    return tuple(Metric(f'{prefix}.{name}', unit, better)
                 for name, unit, better in metrics)


#: ``<module>.<metric>``.  Times are self time (span minus child spans):
#: ``*_ms`` per cold start, ``*_us`` per committed transaction.
PER_LAYER = (
    _layer('datalog.parser',
           ('parse_ms', 'ms', 'lower'), ('rules', 'count', 'lower'))
    + _layer('core.validation',
             ('validate_ms', 'ms', 'lower'), ('checks', 'count', 'lower'))
    + _layer('fol.solver',
             ('sat_ms', 'ms', 'lower'), ('calls', 'count', 'lower'))
    + _layer('core.incremental', ('derive_ms', 'ms', 'lower'))
    + _layer('datalog.plan',
             ('compile_ms', 'ms', 'lower'), ('compiles', 'count', 'lower'),
             ('cache_hit_ratio', 'ratio', 'higher'),
             ('compiles_in_rounds', 'count', 'lower'))
    + _layer('sql',
             ('compile_ms', 'ms', 'lower'), ('sql_bytes', 'B', 'lower'))
    + _layer('rdbms.dml',
             ('derive_us', 'us', 'lower'),
             ('rows_examined_per_stmt', 'count', 'lower'))
    + _layer('rdbms.engine',
             ('begin_us', 'us', 'lower'), ('stage_us', 'us', 'lower'),
             ('prepare_us', 'us', 'lower'), ('apply_us', 'us', 'lower'),
             ('load_ms', 'ms', 'lower'), ('define_ms', 'ms', 'lower'),
             ('first_read_ms', 'ms', 'lower'))
    + _layer('rdbms.backends',
             ('eval_us', 'us', 'lower'), ('constraint_us', 'us', 'lower'),
             ('apply_us', 'us', 'lower'), ('cache_us', 'us', 'lower'),
             ('eval_calls_per_txn', 'count', 'lower'),
             ('sqlite.statements_per_txn', 'count', 'lower'))
    + _layer('rdbms.wal',
             ('append_us', 'us', 'lower'), ('fsyncs_per_txn', 'count', 'lower'),
             ('bytes_per_txn', 'B', 'lower'),
             ('bytes_per_user_byte', 'ratio', 'lower'),
             ('checkpoint_ms', 'ms', 'lower'), ('recover_ms', 'ms', 'lower'))
    + _layer('rdbms.sharded',
             ('route_us', 'us', 'lower'), ('shards_per_txn', 'count', 'lower'),
             ('gather_ms', 'ms', 'lower'), ('global_views', 'count', 'lower'))
    + _layer('rdbms.procpool',
             ('rpc_us', 'us', 'lower'), ('rpcs_per_txn', 'count', 'lower'),
             ('bytes_per_txn', 'B', 'lower'),
             ('worker_busy_ratio', 'ratio', 'higher'),
             ('retries', 'count', 'lower'), ('restarts', 'count', 'lower'))
    + _layer('rdbms.replica',
             ('catch_up_us', 'us', 'lower'),
             ('records_per_read', 'count', 'lower'),
             ('lag_records', 'count', 'lower'))
    + _layer('rdbms.peernet',
             ('publish_us', 'us', 'lower'), ('pump_us', 'us', 'lower'),
             ('receive_us', 'us', 'lower'), ('bytes_per_txn', 'B', 'lower'),
             ('deliveries_per_txn', 'count', 'lower'),
             ('retries', 'count', 'lower'), ('stale', 'count', 'lower'))
    + (Metric('unattributed_ratio', 'ratio', 'lower'),
       Metric('trace.overhead_ratio', 'ratio', 'higher'),
       Metric('untraced.insert_p95_ms', 'ms', 'lower'),
       Metric('box.slowdown', 'ratio', 'lower'))
)

#: Counts that must repeat exactly between two same-seed runs (the
#: determinism test compares them with ``==``).
EXACT_COUNTS = (
    'rdbms.wal.bytes_per_txn', 'rdbms.wal.fsyncs_per_txn',
    'rdbms.procpool.rpcs_per_txn',
    'rdbms.backends.sqlite.statements_per_txn',
    'rdbms.peernet.deliveries_per_txn',
)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f'unknown workload {name!r}; known: '
                   f'{[w.name for w in WORKLOADS]}')


def benchmark_json() -> dict:
    """The contract file, exactly as committed at the repo root."""
    return {
        'command': ['python3', 'benchmarks/layered/run.py'],
        'paths': ['benchmarks/layered'],
        'run_seconds': RUN_SECONDS,
        'workloads': [{'name': w.name, 'why': w.why} for w in WORKLOADS],
        'end_to_end': [{'name': m.name, 'unit': m.unit, 'better': m.better,
                        'bound': m.bound} for m in END_TO_END],
        'per_layer': [{'name': m.name, 'unit': m.unit, 'better': m.better}
                      for m in PER_LAYER],
    }
