"""Workload generation for the Figure 6 experiments.

The paper's protocol (§6.2.2): "For each view, we randomly generate data
for the base tables and measure the running time of the view update
strategy against the base table size when there is an SQL statement that
attempts to modify the view."

:func:`build_engine` loads a random instance at scale ``n`` and registers
the view twice is not needed — callers build one engine per mode
(``incremental`` True/False) and :func:`update_statement` supplies a
fresh single-tuple view INSERT that satisfies the entry's constraints.
"""

from __future__ import annotations

from repro.benchsuite.entry import BenchmarkEntry
from repro.core.strategy import UpdateStrategy
from repro.rdbms.engine import Engine
from repro.relational.generators import random_database

__all__ = ['build_engine', 'update_statement', 'FIG6_PROTOCOL']


def build_engine(entry: BenchmarkEntry, n: int, *, seed: int = 7,
                 incremental: bool = True,
                 strategy: UpdateStrategy | None = None,
                 backend: str | None = None) -> Engine:
    """An engine with random base data at scale ``n`` and the entry's
    view registered (trusting the expected get — the strategy is
    validated separately by the Table 1 harness).  ``backend`` selects
    the storage substrate (default: ``REPRO_BACKEND`` or memory)."""
    strategy = strategy or entry.strategy()
    engine = Engine(strategy.sources, backend=backend)
    data = random_database(strategy.sources, entry.sizes(n), seed=seed,
                           column_pools=entry.column_pools)
    for name in strategy.sources.names():
        engine.load(name, data[name])
    engine.define_view(strategy, validate_first=False,
                       use_incremental=incremental)
    return engine


def _fresh_insert(entry_name: str, engine: Engine, index: int) -> tuple:
    """A view tuple that is insertable under the entry's constraints:
    the same tuple for the same ``index`` and loaded data, whatever this
    function's earlier tuples did to the engine."""
    if entry_name == 'luxuryitems':
        return (10_000_000 + index, f'bench_item_{index}', 5000 + index)
    if entry_name == 'officeinfo':
        return (f'bench_person_{index}', f'office_{index}')
    if entry_name == 'outstanding_task':
        # The ID constraint requires the task id to appear in `flow`.
        # Ids no loaded open task holds, in sorted order, give distinct
        # tuples distinct keys until they run out.
        held = {row[0] for row in engine.rows('tasks')
                if row[5] == 'open' and not row[1].startswith('bench_task_')}
        flow = sorted({row[0] for row in engine.rows('flow')})
        free = [tid for tid in flow if tid not in held] or flow
        return (free[index % len(free)], f'bench_task_{index}',
                f'owner_{index}', 1)
    if entry_name == 'vw_brands':
        return (10_000_000 + index, f'bench_brand_{index}', 'domestic')
    raise KeyError(f'no insert template for {entry_name!r}')


def update_statement(entry: BenchmarkEntry, engine: Engine,
                     index: int) -> tuple:
    """The single view tuple to INSERT for one measured update."""
    return _fresh_insert(entry.name, engine, index)


#: Scales used by the Figure 6 reproduction (the paper sweeps 0–3×10⁶ on
#: PostgreSQL; pure Python runs the same sweep at 10⁴–2×10⁵ by default —
#: the compared quantity is the growth *shape*, not absolute time).
FIG6_PROTOCOL = {
    'sizes': (10_000, 25_000, 50_000, 100_000, 200_000),
    'views': ('luxuryitems', 'officeinfo', 'outstanding_task',
              'vw_brands'),
}
