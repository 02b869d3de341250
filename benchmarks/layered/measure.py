"""One run of one workload: cold starts, rounds, checks, estimators.

Protocol (see README.md for the reasons):

* closed loop, one client, one thread; every statement is built before
  the clock starts and between two clock reads there is exactly one
  call into the program (``visible`` is by definition commit + read);
* rounds are counted, not timed; each leaves the database as it found
  it, with a check against the model after each half (every relation on
  every endpoint; after the forward half the cluster's shard primaries,
  whose contents must cross a pipe, are left to the end-of-round check);
* K cold starts are spread evenly through the rounds; the newest
  deployment carries the rounds until the next one;
* every timing is summarised over the *calm half* — the faster half of
  rounds (or cold starts) by timed wall — and percentiles are taken on
  samples pooled from calm rounds only.

A traced run keeps its first cold-start interval untraced (the base of
``trace.overhead_ratio``), then installs the wrappers of ``spans.py``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

from repro.datalog.plan import plan_cache_info
from repro.errors import ConstraintViolation

from layered import deploy, lanes, spans
from layered.spec import (BATCH_ROWS, CALM_FRACTION, END_TO_END, PER_LAYER,
                          REFERENCE_S, RUN_SECONDS,
                          workload as find_workload)

OUT = Path(__file__).resolve().parent / 'out'
_TICKS = os.sysconf('SC_CLK_TCK')
_REJECTED = object()


# -- process accounting -------------------------------------------------

def _cpu_seconds(pids) -> float:
    """User + system CPU of this process plus the live workers ``pids``
    (``RUSAGE_CHILDREN`` would only count children already reaped)."""
    total = time.process_time()
    for pid in pids:
        with open(f'/proc/{pid}/stat') as handle:
            fields = handle.read().rsplit(')', 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


def _peak_rss_mb(pids) -> float:
    total = 0.0
    for pid in pids:
        with open(f'/proc/{pid}/status') as handle:
            for line in handle:
                if line.startswith('VmHWM:'):
                    total += int(line.split()[1]) / 1024
    return total


# -- box speed ----------------------------------------------------------

def _reference_work() -> int:
    """A fixed piece of engine-like pure Python: build a set of tuples,
    index it, sort it, probe it."""
    rows = {(i, f'n{i}', i % 7) for i in range(6000)}
    index: dict = {}
    for row in rows:
        index.setdefault(row[2], []).append(row)
    hits = 0
    for row in sorted(rows):
        if row[2] > 3 and (row[0], row[1], row[2]) in rows:
            hits += len(index[row[2]])
    return hits


def box_slowdown() -> float:
    """How slowly the box runs right now, as the best of three timings
    of the reference work over ``spec.REFERENCE_S``.  Timings taken
    next to it are divided by this factor (see README, *Reference
    speed*)."""
    best = math.inf
    for _ in range(3):
        started = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - started)
    return best / REFERENCE_S


class Stopwatch:
    """Wall time at reference speed: the sum over segments of (clock
    seconds ÷ the box's slowdown around that segment).  ``lap()`` closes
    a segment once it is half a second long, so a cold start of several
    seconds is corrected piece by piece; the reference work itself is
    never inside a segment."""

    def __init__(self):
        self.seconds = 0.0
        self.factors: list = []
        self._before = box_slowdown()
        self._started = perf_counter()

    def lap(self, *, force: bool = False) -> None:
        elapsed = perf_counter() - self._started
        if elapsed < 0.5 and not force:
            return
        after = box_slowdown()
        factor = (self._before + after) / 2
        self.seconds += elapsed / factor
        self.factors.append(factor)
        self._before = after
        self._started = perf_counter()


# -- estimators ---------------------------------------------------------

def calm(items, key) -> list:
    """The faster half of ``items`` by ``key`` (at least one)."""
    keep = max(1, math.ceil(len(items) * CALM_FRACTION))
    return sorted(items, key=key)[:keep]


def percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- one run ------------------------------------------------------------

@dataclasses.dataclass
class _RoundLog:
    index: int
    traced: bool
    cpu: float = 0.0        # CPU seconds at reference speed
    # Per operation, forward half then backward half: the lanes.Op, the
    # clock reading at its start, its seconds as the clock read them,
    # and its seconds at reference speed.
    ops: list = dataclasses.field(default_factory=list)
    starts: list = dataclasses.field(default_factory=list)
    raw: list = dataclasses.field(default_factory=list)
    seconds: list = dataclasses.field(default_factory=list)
    # The box's slowdown factor around each half.
    slowdown: list = dataclasses.field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds)


class _Run:
    def __init__(self, inputs, trace: bool, out_dir: Path):
        self.inputs = inputs
        self.workload = inputs.workload
        self.trace = trace
        self.out_dir = out_dir
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.checks: list = []     # labels of the checks performed
        self.rounds: list = []
        self.cold: list = []       # (seconds at reference speed, traced)
        self.slowdowns: list = []  # the box's factor around cold starts
        self.worker_rss = 0.0
        self.deltas: dict = {}     # program counters, summed over the
        self.gauges: list = []     # traced intervals; levels per interval
        self.workers = 0
        self.worker_cpu = 0.0      # over traced timed sections
        self.plan_cache = [0, 0]   # hits, misses over traced cold starts
        self.checkpoints = 0
        self.recover_s = 0.0
        self.next_op = 0

    # -- bookkeeping ----------------------------------------------------

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 8:
            self.errors.append(message)

    def _check(self, label: str, observations) -> None:
        """One check = one attempted item; it fails when any relation on
        any endpoint differs from the model."""
        self.attempted += 1
        self.checks.append(label)
        wrong = []
        for endpoint, name, rows, expected in observations:
            same = len(rows) == len(expected) and (
                rows == expected if isinstance(rows, (set, frozenset))
                else expected.issuperset(rows))
            if not same:
                wrong.append(f'{endpoint}:{name} has {len(rows)} rows, '
                             f'model {len(expected)}')
        if wrong:
            self._fail(f'{label}: ' + '; '.join(wrong[:4]))

    def _phase(self, phase) -> None:
        if self.tracer is not None:
            self.tracer.phase = phase

    # -- cold start -----------------------------------------------------

    def cold_start(self, number: int, directory: Path, catalog):
        traced = self.tracer is not None
        self._phase(('cold', number))
        watch = Stopwatch()
        deployment, catalog_ok = deploy.cold_start(
            self.workload, self.inputs, directory, catalog, watch.lap)
        watch.lap(force=True)
        self._phase(None)
        self.slowdowns.extend(watch.factors)
        self.cold.append((watch.seconds, traced))
        if traced:
            # cold_start() cleared the cache, so these count from zero.
            cache = plan_cache_info()
            self.plan_cache[0] += cache.hits
            self.plan_cache[1] += cache.misses
        model = self.inputs.model
        self._check(f'cold start {number}', (
            ('first-read', view, deployment.first_reads[view],
             model.views[view]) for view in lanes.VIEWS))
        if not catalog_ok:
            self._fail(f'cold start {number}: a catalog entry failed')
        return deployment

    # -- rounds ---------------------------------------------------------

    def _half(self, deployment, ops, log: _RoundLog) -> None:
        """The timed section: nothing but the loop below runs between
        the two CPU readings."""
        visible = {view: deployment.visible(view) for view in lanes.VIEWS}
        after = {view: deployment.after_write(view)
                 for view in lanes.VIEWS}
        commit = deployment.commit
        steps = [(visible[op.view] if op.kind == 'visible' else commit,
                  op.batch, after[op.view]) for op in ops]
        tracer, clock = self.tracer, perf_counter
        first_id = self.next_op
        self.next_op += len(ops)
        outcomes, raw = [], []
        pids = deployment.worker_pids()
        self.workers = len(pids)
        watch = Stopwatch()
        cpu = _cpu_seconds(pids)
        own = time.process_time()
        for number, (call, batch, settle) in enumerate(steps, first_id):
            if tracer is not None:
                tracer.phase = ('op', number)
            start = clock()
            try:
                seen = call(batch)
            except ConstraintViolation:
                seen = _REJECTED
            except Exception as error:     # counted and reported below
                seen = error
            end = clock()
            if settle is not None:
                settle()
            log.starts.append(start)
            raw.append(end - start)
            outcomes.append(seen)
        spent = _cpu_seconds(pids) - cpu
        if tracer is not None:
            self.worker_cpu += spent - (time.process_time() - own)
        self._phase(None)
        watch.lap(force=True)
        slowdown = watch.factors[0]
        log.slowdown.append(slowdown)
        log.raw.extend(raw)
        log.seconds.extend(seconds / slowdown for seconds in raw)
        log.cpu += spent / slowdown
        log.ops.extend(ops)
        self.attempted += len(ops)
        for op, seen in zip(ops, outcomes):
            if op.kind == 'reject':
                if seen is not _REJECTED:
                    self._fail(f'{op.view}: violating insert was accepted')
            elif seen is _REJECTED or isinstance(seen, Exception):
                self._fail(f'{op.kind} on {op.view} raised {seen!r}')
            elif op.kind == 'visible' and op.probe not in seen:
                self._fail(f'{op.view}: committed row not visible')

    def round(self, deployment, index: int) -> None:
        plan = self.inputs.rounds[index]
        model = self.inputs.model
        log = _RoundLog(index, self.tracer is not None)
        self._half(deployment, plan.forward, log)
        for view, rows in plan.fresh.items():
            model.apply(view, rows)
        self._check(f'round {index} forward',
                    deployment.observe(model, full=False))
        self._half(deployment, plan.backward, log)
        for view, rows in plan.fresh.items():
            model.apply(view, rows, remove=True)
        self._check(f'round {index} backward', deployment.observe(model))
        self.rounds.append(log)

    # -- the whole run --------------------------------------------------

    def execute(self) -> None:
        workload = self.workload
        total, colds = len(self.inputs.rounds), workload.cold_starts
        cold_at = {k * total // colds: k for k in range(colds)}
        bounds = sorted(cold_at) + [total]
        catalog = (deploy.catalog_inputs(self.inputs.seed,
                                         self.inputs.scale)
                   if workload.catalog else None)
        run_dir = Path(tempfile.mkdtemp(prefix=f'run-{workload.name}-',
                                        dir=self.out_dir))
        deployment = None
        before = None
        try:
            for index in range(total):
                if index in cold_at:
                    number = cold_at[index]
                    if deployment is not None:
                        self._close(deployment, before)
                    if self.trace and number == 1:
                        self.tracer = spans.Tracer()
                        spans.install(self.tracer)
                    deployment = self.cold_start(
                        number, run_dir / f'cold-{number}', catalog)
                    before = (deployment.snapshot()
                              if self.tracer is not None else None)
                    middle = (index + bounds[number + 1]) // 2
                if index == middle:
                    self._phase(('maint', self.checkpoints))
                    if deployment.checkpoint():
                        self.checkpoints += 1
                    self._phase(None)
                self.round(deployment, index)
            last, deployment = deployment, None
            self._close(last, before, reopen=True)
            self.attempted += 1
            if not self.inputs.model.consistent():
                self._fail('model views drifted from get(model bases)')
        finally:
            if deployment is not None:
                deployment.close()
            if self.tracer is not None:
                self.tracer.uninstall()
            shutil.rmtree(run_dir, ignore_errors=True)

    def _close(self, deployment, before, reopen: bool = False) -> None:
        """End of a cold-start interval: fold the program's counters
        into the traced totals, note worker memory, close."""
        if before is not None:
            after = deployment.snapshot()
            for key, value in after.items():
                if not key.startswith('gauge.'):
                    self.deltas[key] = (self.deltas.get(key, 0)
                                        + value - before[key])
            self.gauges.append(after)
        self.worker_rss = max(self.worker_rss,
                              _peak_rss_mb(deployment.worker_pids()))
        deployment.close()
        if reopen and deployment.durable:
            self._phase(('reopen', 0))
            self.recover_s, observations = deployment.reopen(
                self.inputs.model)
            self._phase(None)
            self._check('reopen from log', observations)

    # -- metrics --------------------------------------------------------

    def end_to_end(self, rounds) -> tuple[dict, dict]:
        """The end-to-end metrics over the calm half of ``rounds`` (and
        of the cold starts), plus the sample count behind each.  Also
        computes ``insert_p95_ms``, which a traced run reports as a
        per-layer metric: it could not hold a bound across runs."""
        quiet = calm(rounds, key=lambda log: log.wall)
        pooled: dict = {}
        for log in quiet:
            for op, seconds in zip(log.ops, log.seconds):
                pooled.setdefault((op.kind, op.view), []).append(seconds)
        ops = sum(len(log.ops) for log in quiet)
        busy = sum(log.wall for log in quiet)

        def per_lane(q: float, *kinds) -> float:
            return statistics.geometric_mean(
                percentile(pooled[kind, view], q)
                for kind in kinds for view in lanes.VIEWS) * 1e3

        def count(*kinds) -> int:
            return sum(len(pooled[kind, view])
                       for kind in kinds for view in lanes.VIEWS)

        cold = calm([seconds for seconds, _ in self.cold], key=float)
        values = {
            'setup_s': statistics.median(cold),
            'ops_per_s': ops / busy,
            'insert_p50_ms': per_lane(0.50, 'insert'),
            'insert_p95_ms': per_lane(0.95, 'insert'),
            'where_p50_ms': per_lane(0.50, 'update', 'delete'),
            'batch_rows_per_s': BATCH_ROWS / per_lane(0.50, 'batch') * 1e3,
            'visible_p50_ms': per_lane(0.50, 'visible'),
            'cpu_ms_per_op': sum(log.cpu for log in quiet) / ops * 1e3,
            'peak_rss_mb': (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024 + self.worker_rss),
        }
        samples = {
            'setup_s': len(cold), 'ops_per_s': ops,
            'insert_p50_ms': count('insert'),
            'where_p50_ms': count('update', 'delete'),
            'batch_rows_per_s': count('batch'),
            'visible_p50_ms': count('visible'),
            'cpu_ms_per_op': ops, 'peak_rss_mb': 1,
        }
        return values, samples

    def per_layer(self) -> dict:
        """Every per-layer metric, from spans (self time), counts taken
        at span boundaries, and — for what runs inside worker processes
        — the program's own counters (``worker.*`` in ``deltas``)."""
        tracer, deltas = self.tracer, self.deltas
        traced = [log for log in self.rounds if log.traced]
        plain = [log for log in self.rounds if not log.traced]
        txns = sum(len(log.ops) for log in traced)
        colds = sum(1 for _, was_traced in self.cold if was_traced)
        op_s, op_n = tracer.self_times('op')
        cold_s, cold_n = tracer.self_times('cold')
        maint_s, _ = tracer.self_times('maint')
        counts = tracer.counts

        def us(*names) -> float:
            return sum(op_s[name] for name in names) / txns * 1e6

        def ms(*names) -> float:
            return sum(cold_s[name] for name in names) / colds * 1e3

        def worker_us(histogram: str) -> float:
            return deltas.get(f'worker.{histogram}', 0.0) / txns * 1e6

        def delta(key: str):
            return deltas.get(key, 0)

        covered = tracer.covered_by_op()
        number = sum(len(log.ops) for log in plain)
        op_wall = uncovered = 0.0
        for log in traced:
            for start, seconds in zip(log.starts, log.raw):
                op_wall += seconds
                uncovered += seconds - spans.union(
                    covered.get(number, ()), start, start + seconds)
                number += 1
        user_bytes = sum(op.user_bytes for log in traced for op in log.ops)
        wal_bytes = counts['op:wal.engine.bytes'] + delta('worker.wal.bytes')
        busy = sum(log.wall for log in traced)
        hits, misses = self.plan_cache
        intervals = max(1, len(self.gauges))
        untraced = self.end_to_end(plain)[0]
        return {
            'datalog.parser.parse_ms': ms('datalog.parser.parse'),
            'datalog.parser.rules': counts['cold:parser.rules'] / colds,
            'core.validation.validate_ms': ms('core.validation.validate'),
            'core.validation.checks':
                counts['cold:validation.checks'] / colds,
            'fol.solver.sat_ms': ms('fol.solver.sat'),
            'fol.solver.calls': cold_n['fol.solver.sat'] / colds,
            'core.incremental.derive_ms': ms('core.incremental.derive'),
            'datalog.plan.compile_ms': ms('datalog.plan.compile'),
            'datalog.plan.compiles': cold_n['datalog.plan.compile'] / colds,
            'datalog.plan.cache_hit_ratio':
                hits / (hits + misses) if hits + misses else 0.0,
            'datalog.plan.compiles_in_rounds':
                op_n['datalog.plan.compile'] + delta('worker.compiles'),
            'sql.compile_ms': ms('sql.compile'),
            'sql.sql_bytes': counts['cold:sql.bytes'] / colds,
            'rdbms.dml.derive_us': us('rdbms.dml.derive'),
            'rdbms.dml.rows_examined_per_stmt':
                counts['op:dml.examined']
                / max(1, counts['op:dml.statements']),
            'rdbms.engine.begin_us': us('rdbms.engine.begin'),
            'rdbms.engine.stage_us':
                us('rdbms.engine.stage', 'rdbms.engine.read')
                + worker_us('txn.apply_seconds'),
            'rdbms.engine.prepare_us':
                us('rdbms.engine.prepare')
                + worker_us('txn.prepare_seconds')
                - worker_us('txn.flush_seconds'),
            'rdbms.engine.apply_us':
                us('rdbms.engine.apply')
                + worker_us('txn.commit_seconds')
                - worker_us('wal.append_seconds'),
            'rdbms.engine.load_ms':
                ms('rdbms.engine.load', 'rdbms.sharded.setup'),
            'rdbms.engine.define_ms':
                ms('rdbms.engine.define', 'rdbms.backends.register'),
            'rdbms.engine.first_read_ms':
                ms('rdbms.engine.read', 'rdbms.sharded.gather'),
            'rdbms.backends.eval_us':
                us('rdbms.backends.eval') + worker_us('txn.flush_seconds'),
            'rdbms.backends.constraint_us':
                us('rdbms.backends.constraint'),
            'rdbms.backends.apply_us': us('rdbms.backends.apply'),
            'rdbms.backends.cache_us': us('rdbms.backends.cache'),
            'rdbms.backends.eval_calls_per_txn':
                (op_n['rdbms.backends.eval'] + delta('worker.plan_runs'))
                / txns,
            'rdbms.backends.sqlite.statements_per_txn':
                counts['op:sqlite.statements'] / txns,
            'rdbms.wal.append_us':
                us('rdbms.wal.append') + worker_us('wal.append_seconds'),
            'rdbms.wal.fsyncs_per_txn':
                (counts['op:fsyncs'] + delta('worker.wal.appends')) / txns,
            'rdbms.wal.bytes_per_txn': wal_bytes / txns,
            'rdbms.wal.bytes_per_user_byte': wal_bytes / user_bytes,
            'rdbms.wal.checkpoint_ms':
                sum(maint_s.values()) / self.checkpoints * 1e3
                if self.checkpoints else 0.0,
            'rdbms.wal.recover_ms': self.recover_s * 1e3,
            'rdbms.sharded.route_us': us('rdbms.sharded.route'),
            'rdbms.sharded.shards_per_txn': delta('worker.prepares') / txns,
            'rdbms.sharded.gather_ms':
                op_s['rdbms.sharded.gather'] * 1e3
                / max(1, op_n['rdbms.sharded.gather']),
            'rdbms.sharded.global_views':
                sum(g.get('gauge.global_views', 0) for g in self.gauges)
                / intervals,
            'rdbms.procpool.rpc_us': us('rdbms.procpool.rpc'),
            'rdbms.procpool.rpcs_per_txn': delta('rpc.requests') / txns,
            'rdbms.procpool.bytes_per_txn': counts['op:pipe.bytes'] / txns,
            'rdbms.procpool.worker_busy_ratio':
                self.worker_cpu / (busy * self.workers)
                if self.workers else 0.0,
            'rdbms.procpool.retries': delta('retry.attempts'),
            'rdbms.procpool.restarts': delta('procpool.restarts'),
            'rdbms.replica.catch_up_us': us('rdbms.replica.catch_up'),
            'rdbms.replica.records_per_read':
                delta('replica.records_applied')
                / max(1, delta('replica.replica_reads')),
            'rdbms.replica.lag_records':
                sum(g.get('gauge.replica.lag', 0) for g in self.gauges)
                / intervals,
            'rdbms.peernet.publish_us': us('rdbms.peernet.publish'),
            'rdbms.peernet.pump_us': us('rdbms.peernet.pump'),
            'rdbms.peernet.receive_us': us('rdbms.peernet.receive'),
            'rdbms.peernet.bytes_per_txn':
                counts['op:wal.outbox.bytes'] / txns,
            'rdbms.peernet.deliveries_per_txn':
                delta('peer.delivered') / txns,
            'rdbms.peernet.retries': delta('peer.retries'),
            'rdbms.peernet.stale': delta('peer.stale'),
            'unattributed_ratio': uncovered / op_wall,
            'trace.overhead_ratio':
                self.end_to_end(traced)[0]['ops_per_s']
                / untraced['ops_per_s'],
            'untraced.insert_p95_ms': untraced['insert_p95_ms'],
            'box.slowdown': self.slowdown(),
        }

    def slowdown(self) -> float:
        """The box's median slowdown factor over the run."""
        return statistics.median(
            self.slowdowns + [factor for log in self.rounds
                              for factor in log.slowdown])


def scaled(name: str, seconds: float, scale: float):
    """The workload at ``scale`` (table size, rounds) for ``seconds``."""
    base = find_workload(name)
    colds = base.cold_starts if scale >= 1 else 2
    rounds = max(colds, round(base.rounds * seconds / RUN_SECONDS
                              * min(scale, 1.0)))
    return dataclasses.replace(
        base, n=max(100, int(base.n * scale)), rounds=rounds,
        cold_starts=colds)


def prepare(name: str, seed: int, *, seconds: float = RUN_SECONDS,
            scale: float = 1.0):
    return lanes.make_inputs(scaled(name, seconds, scale), seed, scale)


def execute(inputs, *, trace: bool = False, out_dir: Path = OUT) -> dict:
    """Run prepared ``inputs``; returns the full result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run = _Run(inputs, trace, out_dir)
    run.execute()
    name = inputs.workload.name
    if trace:
        values, samples = run.per_layer(), {}
        specs = PER_LAYER
        run.tracer.dump(out_dir / f'trace-{name}.json')
    else:
        values, samples = run.end_to_end(run.rounds)
        specs = END_TO_END
    return {
        'workload': name, 'seed': inputs.seed, 'trace': trace,
        'correct': run.failed == 0, 'attempted': run.attempted,
        'failed': run.failed, 'errors': run.errors, 'checks': run.checks,
        'metrics': {spec.name: {'value': values[spec.name],
                                'unit': spec.unit} for spec in specs},
        'samples': samples,
        'rounds': len(run.rounds), 'cold_starts': len(run.cold),
        'slowdown': run.slowdown(),
        'environment': environment(),
    }


def run_workload(name: str, seed: int, *, seconds: float = RUN_SECONDS,
                 scale: float = 1.0, trace: bool = False,
                 out_dir: Path = OUT) -> dict:
    return execute(prepare(name, seed, seconds=seconds, scale=scale),
                   trace=trace, out_dir=out_dir)


def environment() -> dict:
    """What a results file records about where it was measured."""
    return {
        'python': platform.python_version(), 'nproc': os.cpu_count(),
        'PYTHONHASHSEED': os.environ.get('PYTHONHASHSEED'),
        'REPRO_BACKEND': os.environ.get('REPRO_BACKEND'),
        'REPRO_SEALED': os.environ.get('REPRO_SEALED'),
        'argv': sys.argv[1:],
    }
