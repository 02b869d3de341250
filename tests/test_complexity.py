"""Complexity claims held by counts, never by timings.

Each case runs one operation at two sizes and compares counts of the
work done — the claim in the README or a docstring is the test's
subject, the counts are its evidence.
"""

import pytest

from repro.benchsuite.catalog import FIGURE6_VIEWS, entry_by_name
from repro.benchsuite.workload import build_engine
from repro.datalog import evaluator
from repro.datalog.plan import clear_plan_cache
from repro.rdbms.metrics import GLOBAL


def _seals() -> int:
    return GLOBAL.snapshot()['counters'].get('plan.seals', 0)


class TestColdStartRunsSealedCode:
    """README, *Evaluator hot path*: a rule is sealed before its first
    execution, so a view's definition and first read run generated
    code only — never the generic step walker, whose recursive calls
    grow with the base — and the number of rules sealed does not
    depend on the data's size."""

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_define_and_first_read_never_run_the_generic_tier(
            self, view, monkeypatch):
        if not evaluator._SEALING:
            pytest.skip('the whole run pins the generic tier')
        generic = []

        def counting(real):
            def wrapper(*args, **kwargs):
                generic.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        for name in ('_run_rule_generic', '_probe_rule_generic'):
            monkeypatch.setattr(evaluator, name,
                                counting(getattr(evaluator, name)))
        entry = entry_by_name(view)
        seals = {}
        for n in (1_000, 10_000):
            clear_plan_cache()
            before = _seals()
            with build_engine(entry, n, backend='memory') as engine:
                assert engine.rows(view)
            seals[n] = _seals() - before
        assert generic == []
        assert seals[1_000] == seals[10_000] > 0
