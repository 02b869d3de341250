"""The layered benchmark's one command.

    python3 benchmarks/layered/run.py
        every workload untraced and traced, each run in a fresh
        subprocess; prints every metric as ``name value unit``, checks
        outputs, writes out/results.json
    python3 benchmarks/layered/run.py --workload W --seed N
            [--seconds S] [--trace 0|1] [--scale F]
        one run in this process; the last stdout line is the result
        object (correct / attempted / failed / metrics)
    python3 benchmarks/layered/run.py repeat [--runs 3] [--seed N]
        two interleaved sets of untraced runs of the same code, compared
        metric by metric against the bounds; exit 1 on any breach
    python3 benchmarks/layered/run.py compare A.json B.json
        the same comparison for two results files
    python3 benchmarks/layered/run.py spec [--write]
        print (or write) BENCHMARK.json from spec.py

Runs pin ``PYTHONHASHSEED=0`` and drop ``REPRO_BACKEND`` /
``REPRO_SEALED`` (the single-run form re-executes itself once to do so).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __package__ in (None, ''):
    # Run as a script: import as the package ``layered`` (so this
    # directory's module names cannot shadow anything) next to ``src``.
    sys.path[0:1] = [str(HERE.parent), str(ROOT / 'src')]

from layered import measure, spec          # noqa: E402

_UNPINNED = ('REPRO_BACKEND', 'REPRO_SEALED')


def pinned_environment() -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in _UNPINNED}
    env['PYTHONHASHSEED'] = '0'
    return env


def _is_pinned() -> bool:
    return os.environ.get('PYTHONHASHSEED') == '0' \
        and not any(key in os.environ for key in _UNPINNED)


# -- one run ------------------------------------------------------------

def single(args) -> int:
    if not _is_pinned():
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  pinned_environment())
    record = measure.run_workload(
        args.workload, args.seed, seconds=args.seconds, scale=args.scale,
        trace=bool(args.trace))
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    print_record(record)
    print(json.dumps({key: record[key] for key in
                      ('correct', 'attempted', 'failed', 'metrics')}))
    return 0


def print_record(record: dict) -> None:
    mode = 'traced' if record['trace'] else 'untraced'
    print(f"# {record['workload']} seed={record['seed']} {mode}: "
          f"{record['rounds']} rounds, {record['cold_starts']} cold "
          f"starts, box slowdown {record['slowdown']:.3f}, "
          f"ops_attempted={record['attempted']} "
          f"ops_failed={record['failed']}")
    for name, metric in record['metrics'].items():
        samples = record['samples'].get(name)
        suffix = f'  (n={samples})' if samples else ''
        print(f"{name} {metric['value']:.6g} {metric['unit']}{suffix}")
    for error in record['errors']:
        print(f'! {error}')


# -- many runs, each in a fresh subprocess ------------------------------

def child(workload: str, seed: int, trace: bool, seconds: int) -> dict:
    path = measure.OUT / f'record-{os.getpid()}.json'
    measure.OUT.mkdir(parents=True, exist_ok=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / 'run.py'), '--workload', workload,
             '--seed', str(seed), '--seconds', str(seconds),
             '--trace', str(int(trace)), '--record', str(path)],
            env=pinned_environment(), cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, timeout=600)
        return json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)


def run_all(args) -> int:
    records = []
    for workload in spec.WORKLOADS:
        for trace in (False, True):
            record = child(workload.name, args.seed, trace, args.seconds)
            print_record(record)
            records.append(record)
    target = measure.OUT / 'results.json'
    target.write_text(json.dumps({'runs': records}, indent=1))
    failed = sum(record['failed'] for record in records)
    print(f'# wrote {target.relative_to(ROOT)}; ops_failed={failed}')
    return 1 if failed else 0


# -- comparing two sets of runs -----------------------------------------

def _values(records, workload: str, metric: str) -> list:
    return [record['metrics'][metric]['value'] for record in records
            if record['workload'] == workload and not record['trace']
            and metric in record['metrics']]


def _worse_by(metric, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of base."""
    change = (other - base) / base
    return change if metric.better == 'lower' else -change


def _spread(values) -> float:
    return (max(values) - min(values)) / statistics.median(values)


def compare_sets(first, second, *, symmetric: bool) -> int:
    """One row per workload × metric; returns the number of breaches.
    A difference inside the bound is ``ok``; outside it the row is a
    breach when the runs separate cleanly and ``unresolved`` when either
    set's own spread exceeds the bound.  ``symmetric`` (same code on
    both sides) treats a gap in either direction as a breach."""
    breaches = 0
    print(f"{'workload':15} {'metric':17} {'first':>11} {'second':>11} "
          f"{'worse by':>9} {'bound':>6} {'spread':>13}  verdict")
    for workload in spec.WORKLOADS:
        for metric in spec.END_TO_END:
            a = _values(first, workload.name, metric.name)
            b = _values(second, workload.name, metric.name)
            if not a or not b:
                continue
            base, other = statistics.median(a), statistics.median(b)
            worse = _worse_by(metric, base, other)
            gap = max(worse, _worse_by(metric, other, base)) \
                if symmetric else worse
            spreads = (_spread(a), _spread(b))
            if gap <= metric.bound:
                verdict = 'ok'
            elif max(spreads) > metric.bound and not symmetric:
                verdict = 'unresolved'
            else:
                verdict = 'BREACH'
                breaches += 1
            print(f'{workload.name:15} {metric.name:17} {base:11.5g} '
                  f'{other:11.5g} {worse:+9.1%} {metric.bound:6.0%} '
                  f'{spreads[0]:6.1%}/{spreads[1]:6.1%}  {verdict}')
    return breaches


def repeat(args) -> int:
    sets: tuple = ([], [])
    for index in range(args.runs):
        for side in (0, 1):
            for workload in spec.WORKLOADS:
                record = child(workload.name, args.seed + 2 * index + side,
                               False, args.seconds)
                print(f"# set {'AB'[side]} run {index}: {workload.name} "
                      f"ops_failed={record['failed']}", flush=True)
                sets[side].append(record)
    (measure.OUT / 'repeat.json').write_text(json.dumps(
        {'first': sets[0], 'second': sets[1]}, indent=1))
    breaches = compare_sets(*sets, symmetric=True)
    failed = sum(record['failed'] for records in sets for record in records)
    print(f'# breaches={breaches} ops_failed={failed}')
    return 1 if breaches or failed else 0


def compare(args) -> int:
    first, second = (json.loads(Path(path).read_text())['runs']
                     for path in args.files)
    return 1 if compare_sets(first, second, symmetric=False) else 0


def show_spec(args) -> int:
    text = json.dumps(spec.benchmark_json(), indent=2) + '\n'
    if args.write:
        (ROOT / 'BENCHMARK.json').write_text(text)
    else:
        print(text, end='')
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('mode', nargs='?', default='all',
                        choices=('all', 'repeat', 'compare', 'spec'))
    parser.add_argument('files', nargs='*', help='compare: A.json B.json')
    parser.add_argument('--workload',
                        choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument('--seed', type=int, default=1)
    parser.add_argument('--seconds', type=int, default=spec.RUN_SECONDS)
    parser.add_argument('--trace', type=int, nargs='?', const=1, default=0)
    parser.add_argument('--scale', type=float, default=1.0)
    parser.add_argument('--runs', type=int, default=3)
    parser.add_argument('--write', action='store_true')
    parser.add_argument('--record', help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return single(args)
    if args.mode == 'compare' and len(args.files) != 2:
        parser.error('compare needs two results files')
    return {'all': run_all, 'repeat': repeat, 'compare': compare,
            'spec': show_spec}[args.mode](args)


if __name__ == '__main__':
    sys.exit(main())
