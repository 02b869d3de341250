"""Smoke test of the layered benchmark (collected by the tier-1 run).

Every workload runs once untraced and once traced at a tiny scale: all
named metrics must be present with their units, no operation may fail,
the durable workloads must reopen from their logs, same-seed runs must
repeat their per-layer counts exactly, ``BENCHMARK.json`` must equal what
``spec.py`` writes — and a model corrupted by one row must make the run
report failed operations, which proves the checker can fail.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from layered import measure, spec

ROOT = Path(__file__).resolve().parents[2]
TINY = 0.02
NAMES = [workload.name for workload in spec.WORKLOADS]
DURABLE = ('durable-sqlite', 'cluster-share')

_traced: dict = {}


def _traced_record(name: str, out_dir: Path) -> dict:
    return measure.run_workload(name, seed=5, scale=TINY, trace=True,
                                out_dir=out_dir)


def test_benchmark_json_is_the_spec_and_within_the_contract():
    written = json.loads((ROOT / 'BENCHMARK.json').read_text())
    assert written == spec.benchmark_json()
    assert set(written) == {'command', 'paths', 'run_seconds', 'workloads',
                            'end_to_end', 'per_layer'}
    name = re.compile(r'[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z')
    unit = re.compile(r'[A-Za-z0-9_/%.-]{1,16}\Z')
    names = [item['name'] for key in ('workloads', 'end_to_end', 'per_layer')
             for item in written[key]]
    assert len(names) == len(set(names))
    assert all(name.match(item) for item in names)
    assert 2 <= len(written['workloads']) <= 8
    assert all(len(w['why']) <= 200 and '\n' not in w['why']
               for w in written['workloads'])
    metrics = written['end_to_end'] + written['per_layer']
    assert all(unit.match(m['unit']) for m in metrics)
    assert all(m['better'] in ('lower', 'higher') for m in metrics)
    assert all(0 < m['bound'] <= 0.25 for m in written['end_to_end'])
    assert len(written['per_layer']) <= 128
    setup = [m for m in written['end_to_end'] if m['name'] == 'setup_s']
    assert setup == [{'name': 'setup_s', 'unit': 's', 'better': 'lower',
                      'bound': max(m['bound']
                                   for m in written['end_to_end'])}]
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    assert 1 <= written['run_seconds'] <= 60


@pytest.mark.parametrize('name', NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    record = measure.run_workload(name, seed=5, scale=TINY,
                                  out_dir=tmp_path)
    assert record['errors'] == [] and record['failed'] == 0
    assert record['correct'] and record['attempted'] > 100
    assert list(record['metrics']) == [m.name for m in spec.END_TO_END]
    for metric in spec.END_TO_END:
        reported = record['metrics'][metric.name]
        assert reported['unit'] == metric.unit
        assert reported['value'] > 0, metric.name
        assert record['samples'][metric.name] >= 1
    assert ('reopen from log' in record['checks']) == (name in DURABLE)
    assert not list(tmp_path.glob('run-*')), 'run directory left behind'


@pytest.mark.parametrize('name', NAMES)
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    record = _traced[name] = _traced_record(name, tmp_path)
    assert record['errors'] == [] and record['failed'] == 0
    assert list(record['metrics']) == [m.name for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        assert record['metrics'][metric.name]['unit'] == metric.unit
    value = {key: m['value'] for key, m in record['metrics'].items()}
    assert 0 <= value['unattributed_ratio'] <= 0.25
    assert 0 < value['trace.overhead_ratio'] < 1.5
    assert value['core.validation.checks'] > 0
    assert value['fol.solver.sat_ms'] > 0
    layers = ('rdbms.wal.fsyncs_per_txn', 'rdbms.procpool.rpcs_per_txn',
              'rdbms.peernet.deliveries_per_txn')
    expected = {'catalog-small': (False, False, False),
                'oltp-memory': (False, False, False),
                'durable-sqlite': (True, False, False),
                'cluster-share': (True, True, True)}[name]
    assert tuple(value[layer] > 0 for layer in layers) == expected
    spans = json.loads((tmp_path / f'trace-{name}.json').read_text())
    assert spans['fields'] == ['name', 'start', 'end', 'parent', 'phase']
    assert len(spans['spans']) > 100


@pytest.mark.parametrize('name', DURABLE)
def test_same_seed_runs_repeat_their_counts_exactly(name, tmp_path):
    first = _traced.get(name) or _traced_record(name, tmp_path)
    second = _traced_record(name, tmp_path)
    for count in spec.EXACT_COUNTS:
        assert first['metrics'][count]['value'] \
            == second['metrics'][count]['value'], count
    assert first['attempted'] == second['attempted']


def test_a_model_off_by_one_row_fails_the_run(tmp_path):
    inputs = measure.prepare('oltp-memory', seed=5, scale=TINY)
    inputs.model.bases['items'].pop()
    record = measure.execute(inputs, out_dir=tmp_path)
    assert record['failed'] > 0 and not record['correct']
    assert any('items' in error for error in record['errors'])
