"""The Hypothesis profiles ``tests/conftest.py`` registers.

The registration used to hide behind ``get_profile('ci')``, which
Hypothesis ≥ 6.1xx answers with a profile of its own: ``dev`` and
``long`` never existed, ``REPRO_FUZZ=long`` did nothing and local runs
used Hypothesis' defaults (100 examples under a 200 ms deadline)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import repro

TESTS = Path(__file__).parent


def test_profiles_are_registered():
    assert settings.get_profile('dev').max_examples == 25
    assert settings.get_profile('long').max_examples == 150
    assert settings.get_profile('long').deadline is None
    # What CI selects must not be weaker than what it has been running.
    assert settings.get_profile('ci').deadline is None


@pytest.mark.parametrize('fuzz, examples', [('long', 150), (None, 25)])
def test_repro_fuzz_selects_the_profile(fuzz, examples):
    env = {k: v for k, v in os.environ.items() if k != 'REPRO_FUZZ'}
    env['PYTHONPATH'] = str(Path(repro.__file__).parents[1])
    if fuzz:
        env['REPRO_FUZZ'] = fuzz
    loaded = subprocess.run(
        [sys.executable, '-c',
         'import conftest; from hypothesis import settings; '
         'print(settings.default.max_examples)'],
        cwd=TESTS, env=env, capture_output=True, text=True, check=True)
    assert int(loaded.stdout) == examples
