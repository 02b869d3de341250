"""Command-line interface — the reproduction's counterpart of the
``birds`` binary.

::

    python -m repro validate strategy.dlog        # Algorithm 1
    python -m repro derive   strategy.dlog        # print the derived get
    python -m repro fragment strategy.dlog        # LVGN / operators
    python -m repro compile  strategy.dlog -o out.sql
    python -m repro bench table1|fig6             # the paper's evaluation
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.benchsuite.classify import constraint_kinds, view_operators
from repro.core.lvgn import classify
from repro.core.strategyfile import load_strategy
from repro.core.validation import validate
from repro.datalog.pretty import pretty
from repro.errors import ReproError
from repro.fol.solver import SolverConfig
from repro.sql.triggers import compile_strategy_to_sql

__all__ = ['main']


def _config(args) -> SolverConfig | None:
    if getattr(args, 'quick', False):
        return SolverConfig().scaled_down()
    return None


def _cmd_validate(args) -> int:
    strategy = load_strategy(args.file)
    report = validate(strategy, config=_config(args))
    if args.json:
        payload = {
            'view': strategy.view.name,
            'valid': report.valid,
            'conclusive': report.conclusive,
            'fragment': str(report.fragment),
            'expected_get_confirmed': report.expected_get_confirmed,
            'checks': [{'name': c.name, 'passed': c.passed,
                        'detail': c.detail, 'seconds': round(c.elapsed, 4)}
                       for c in report.checks],
            'derived_get': (pretty(report.derived_get)
                            if report.derived_get else None),
        }
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        print(report)
    return 0 if report.valid else 1


def _cmd_derive(args) -> int:
    strategy = load_strategy(args.file)
    report = validate(strategy, config=_config(args))
    definition = report.view_definition
    if definition is None:
        print('no view definition could be certified:', file=sys.stderr)
        for check in report.failures():
            print(f'  {check}', file=sys.stderr)
        return 1
    print(pretty(definition))
    return 0


def _cmd_fragment(args) -> int:
    strategy = load_strategy(args.file)
    report = classify(strategy.putdelta, strategy.view.name)
    print(f'view        : {strategy.view}')
    print(f'fragment    : {report}')
    source_names = set(strategy.sources.names())
    if strategy.expected_get is not None:
        operators = view_operators(strategy.expected_get,
                                   strategy.view.name, source_names)
        print(f'operators   : {operators or "(copy)"}')
    constraints = constraint_kinds(strategy.putdelta, strategy.view.name,
                                   source_names)
    print(f'constraints : {constraints or "(none)"}')
    print(f'program LOC : {strategy.program_size()}')
    return 0


def _cmd_compile(args) -> int:
    strategy = load_strategy(args.file)
    report = validate(strategy, config=_config(args))
    try:
        report.raise_if_invalid()
    except ReproError as exc:
        print(f'refusing to compile an invalid strategy: {exc}',
              file=sys.stderr)
        return 1
    sql = compile_strategy_to_sql(strategy, report.view_definition,
                                  incremental=not args.no_incremental)
    if args.output:
        with open(args.output, 'w', encoding='utf-8') as handle:
            handle.write(sql)
        print(f'wrote {len(sql.encode())} bytes to {args.output}')
    else:
        print(sql)
    return 0


def _cmd_bench(args) -> int:
    from repro.benchsuite import runner
    rest = list(args.rest or [])
    if getattr(args, 'backend', None) and args.experiment == 'fig6' \
            and '--backend' not in rest:
        rest += ['--backend', args.backend]
    return runner.main([args.experiment] + rest)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='repro',
        description='BIRDS reproduction: programmable view update '
                    'strategies on relations (VLDB 2020)')
    sub = parser.add_subparsers(dest='command', required=True)

    for name, handler, doc in [
            ('validate', _cmd_validate, 'run Algorithm 1 on a strategy'),
            ('derive', _cmd_derive, 'print the certified view definition'),
            ('fragment', _cmd_fragment, 'classify fragment and operators'),
            ('compile', _cmd_compile, 'compile to PostgreSQL SQL')]:
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument('file', help='strategy file (.dlog)')
        cmd.add_argument('--quick', action='store_true',
                         help='reduced solver budgets')
        if name == 'validate':
            cmd.add_argument('--json', action='store_true',
                             help='machine-readable report')
        if name == 'compile':
            cmd.add_argument('-o', '--output', help='output file')
            cmd.add_argument('--no-incremental', action='store_true',
                             help='compile the full putback program '
                                  'instead of ∂put')
        cmd.set_defaults(handler=handler)

    bench = sub.add_parser('bench', help="regenerate the paper's "
                                         'evaluation artifacts')
    bench.add_argument('experiment', choices=['table1', 'fig6'])
    bench.add_argument('--backend', choices=['memory', 'sqlite'],
                       help='storage backend for fig6 (default: '
                            'REPRO_BACKEND or memory)')
    bench.add_argument('rest', nargs=argparse.REMAINDER,
                       help='extra arguments for the bench runner')
    bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2


if __name__ == '__main__':
    raise SystemExit(main())
