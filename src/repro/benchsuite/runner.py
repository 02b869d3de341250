"""Harness regenerating the paper's evaluation artifacts.

* ``python -m repro.benchsuite.runner table1`` — re-runs Algorithm 1 and
  the SQL compiler over every catalog entry and prints the Table 1
  columns (fragment membership, validation time, compiled SQL bytes)
  next to the paper's published numbers.
* ``python -m repro.benchsuite.runner fig6 [--sizes ...] [--backend
  memory|sqlite]`` — re-runs the Figure 6 sweep (original vs
  incrementalized view update time against base table size) for the
  four benchmark views, on either storage backend.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from repro.benchsuite.catalog import ALL_ENTRIES, FIGURE6_VIEWS, \
    entry_by_name
from repro.benchsuite.entry import BenchmarkEntry
from repro.benchsuite.workload import build_engine, update_statement
from repro.core.validation import validate
from repro.sql.triggers import compile_strategy_to_sql

__all__ = ['Table1Row', 'run_table1', 'run_fig6', 'format_table1',
           'Fig6Point', 'format_fig6', 'main']


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@dataclass
class Table1Row:
    entry: BenchmarkEntry
    valid: bool | None
    lvgn: bool | None
    nr_datalog: bool | None
    loc: int | None
    validation_time: float | None
    sql_bytes: int | None
    note: str = ''


def run_table1(entries=None, *, quick: bool = False) -> list[Table1Row]:
    """Validate + compile every benchmark entry."""
    from repro.fol.solver import SolverConfig
    config = SolverConfig().scaled_down() if quick else None
    rows: list[Table1Row] = []
    for entry in entries or ALL_ENTRIES:
        if not entry.expressible:
            rows.append(Table1Row(entry, None, None, None, None, None,
                                  None, 'aggregation: not expressible'))
            continue
        strategy = entry.strategy()
        started = time.perf_counter()
        report = validate(strategy, config=config)
        elapsed = time.perf_counter() - started
        sql_bytes = None
        if report.valid and report.view_definition is not None:
            sql = compile_strategy_to_sql(strategy,
                                          report.view_definition)
            sql_bytes = len(sql.encode())
        rows.append(Table1Row(
            entry, report.valid, report.fragment.lvgn,
            report.fragment.nr_datalog, strategy.program_size(),
            elapsed, sql_bytes))
    return rows


def _mark(flag: bool | None) -> str:
    if flag is None:
        return '-'
    return 'yes' if flag else 'no'


def format_table1(rows: list[Table1Row]) -> str:
    header = (f'{"ID":>3} {"View":<18} {"Op":<8} {"Constraint":<12} '
              f'{"LOC":>4} {"LVGN":>5} {"(ppr)":>6} {"NR":>4} '
              f'{"Valid":>6} {"Time(s)":>8} {"(paper)":>8} '
              f'{"SQL(B)":>7} {"(paper)":>8}')
    lines = [header, '-' * len(header)]
    for row in rows:
        paper = row.entry.paper
        loc = str(row.loc) if row.loc is not None else '-'
        our_time = (f'{row.validation_time:.2f}'
                    if row.validation_time is not None else '-')
        paper_time = (f'{paper.validation_time:.2f}'
                      if paper.validation_time is not None else '-')
        sql_bytes = str(row.sql_bytes) if row.sql_bytes else '-'
        paper_sql = str(paper.sql_bytes) if paper.sql_bytes else '-'
        lines.append(
            f'{row.entry.id:>3} {row.entry.name:<18} '
            f'{paper.operators:<8} {paper.constraints or "-":<12} '
            f'{loc:>4} {_mark(row.lvgn):>5} {_mark(paper.lvgn):>6} '
            f'{_mark(row.nr_datalog):>4} {_mark(row.valid):>6} '
            f'{our_time:>8} {paper_time:>8} {sql_bytes:>7} '
            f'{paper_sql:>8}')
        if row.note:
            lines.append(f'      ({row.note})')
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------


@dataclass
class Fig6Point:
    view: str
    base_size: int
    original_seconds: float
    incremental_seconds: float

    @property
    def speedup(self) -> float:
        if self.incremental_seconds <= 0:
            return float('inf')
        return self.original_seconds / self.incremental_seconds


def _measure_update(engine, entry, index: int, repeats: int = 3) -> float:
    """Median wall time of one single-tuple view INSERT.

    One unmeasured warmup update precedes measurement so both modes run
    with their access structures in place (PostgreSQL's indexes exist
    before the paper's measurements, too)."""
    engine.insert(entry.name,
                  update_statement(entry, engine, index * 100 + 99))
    times = []
    for r in range(repeats):
        row = update_statement(entry, engine, index * 100 + r)
        started = time.perf_counter()
        engine.insert(entry.name, row)
        times.append(time.perf_counter() - started)
    times.sort()
    return times[len(times) // 2]


def run_fig6(views=None, sizes=(10_000, 25_000, 50_000, 100_000, 200_000),
             *, repeats: int = 3, progress=None,
             backend: str | None = None) -> list[Fig6Point]:
    """The Figure 6 sweep: per view and base size, time one view update
    under the original and the incrementalized strategy."""
    points: list[Fig6Point] = []
    for view in views or FIGURE6_VIEWS:
        entry = entry_by_name(view)
        strategy = entry.strategy()
        for i, n in enumerate(sizes):
            original = build_engine(entry, n, incremental=False,
                                    strategy=strategy, backend=backend)
            try:
                original.rows(view)  # materialise once, as PostgreSQL would
                t_orig = _measure_update(original, entry, i, repeats)
            finally:
                original.close()
            incremental = build_engine(entry, n, incremental=True,
                                       strategy=strategy, backend=backend)
            try:
                incremental.rows(view)
                t_inc = _measure_update(incremental, entry, i, repeats)
            finally:
                incremental.close()
            point = Fig6Point(view, n, t_orig, t_inc)
            points.append(point)
            if progress is not None:
                progress(point)
    return points


def format_fig6(points: list[Fig6Point]) -> str:
    lines = []
    for view in dict.fromkeys(p.view for p in points):
        lines.append(f'-- {view} (original vs incremental, seconds)')
        lines.append(f'{"base size":>10} {"original":>10} '
                     f'{"incremental":>12} {"speedup":>8}')
        for p in points:
            if p.view != view:
                continue
            lines.append(f'{p.base_size:>10} {p.original_seconds:>10.4f} '
                         f'{p.incremental_seconds:>12.5f} '
                         f'{p.speedup:>7.1f}x')
        lines.append('')
    return '\n'.join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description='Regenerate the evaluation artifacts of the paper')
    sub = parser.add_subparsers(dest='command', required=True)
    t1 = sub.add_parser('table1', help='reproduce Table 1')
    t1.add_argument('--quick', action='store_true',
                    help='smaller solver bounds (faster, same verdicts '
                         'on the shipped catalog)')
    f6 = sub.add_parser('fig6', help='reproduce Figure 6')
    f6.add_argument('--sizes', type=int, nargs='+',
                    default=[10_000, 25_000, 50_000, 100_000, 200_000])
    f6.add_argument('--views', nargs='+', default=list(FIGURE6_VIEWS))
    f6.add_argument('--repeats', type=int, default=3)
    f6.add_argument('--backend', choices=['memory', 'sqlite'],
                    default=None,
                    help='storage backend (default: REPRO_BACKEND or '
                         'memory)')
    args = parser.parse_args(argv)
    if args.command == 'table1':
        print(format_table1(run_table1(quick=args.quick)))
    else:
        points = run_fig6(args.views, tuple(args.sizes),
                          repeats=args.repeats, backend=args.backend,
                          progress=lambda p: print(
                              f'  {p.view} n={p.base_size}: '
                              f'orig {p.original_seconds:.4f}s, '
                              f'inc {p.incremental_seconds:.5f}s',
                              file=sys.stderr))
        print(format_fig6(points))
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
