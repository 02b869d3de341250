"""The shipped examples must run clean — they are documentation."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / 'examples'
SRC = EXAMPLES.parent / 'src'


def run_example(name: str, timeout: int = 600) -> str:
    # pytest's `pythonpath` setting does not reach child processes, so
    # examples need src/ on PYTHONPATH even when the suite itself runs
    # from a clean checkout without an editable install.
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        p for p in (str(SRC), env.get('PYTHONPATH')) if p)
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)], capture_output=True,
        text=True, timeout=timeout, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example('quickstart.py')
    assert 'VALID' in out
    assert 'v(GY0) :- r1(GY0).' in out  # the derived union view
    assert 'v(GY0) :- r2(GY0).' in out
    assert 'after DELETE 2' in out


def test_invalid_strategies():
    out = run_example('invalid_strategies.py')
    assert out.count('INVALID') == 4
    assert 'witness' in out
    assert 'VALID (LVGN-Datalog' in out


def test_sql_export():
    out = run_example('sql_export.py')
    assert 'CREATE TABLE "items"' in out
    assert 'INSTEAD OF INSERT OR UPDATE OR DELETE ON "luxuryitems"' in out
    assert 'bytes of compiled SQL' in out


@pytest.mark.slow
def test_case_study():
    out = run_example('case_study.py')
    assert 'cascades: residents1962 -> residents -> male' in out
    assert 'rejected' in out


def test_order_sharing():
    out = run_example('order_sharing.py')
    assert 'VALID' in out
    # Receiver sovereignty: the same logical order lands in each
    # organisation's own base schema.
    assert "('o-1001', 'espresso machine', 'placed', 'unassigned')" \
        in out
    assert "('o-1001', 'espresso machine', 'shipped', 'partner')" in out
    # Outage → quarantine → anti-entropy catch-up.
    assert 'retailer->carrier:orders' in out
    assert 'links released     : 2' in out
    assert out.count("('o-1002', 'grinder', 'placed')") >= 2
    assert 'all three organisations converged' in out


def test_example_dlog_file_loads():
    from repro.core.strategyfile import load_strategy
    strategy = load_strategy(EXAMPLES / 'luxuryitems.dlog')
    assert strategy.view.name == 'luxuryitems'
