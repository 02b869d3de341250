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
from repro.relational import schema as schema_mod
from repro.relational.schema import RelationSchema


def _seals() -> int:
    return GLOBAL.snapshot()['counters'].get('plan.seals', 0)


class TestBulkLoadRunsOneCompiledCheck:
    """README, *Bulk load*: a valid load is checked by one compiled
    pass per relation, generated once per type tuple — never row by
    row through ``validate_tuple`` — so the checks compiled do not
    depend on the data's size."""

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_valid_load_never_checks_row_by_row(self, view, monkeypatch):
        by_row = []
        real = RelationSchema.validate_tuple

        def counting(self, row):
            by_row.append(row)
            return real(self, row)

        monkeypatch.setattr(RelationSchema, 'validate_tuple', counting)
        entry = entry_by_name(view)
        compiled = {}
        for n in (1_000, 10_000):
            schema_mod._row_check.cache_clear()
            with build_engine(entry, n, backend='memory') as engine:
                assert sum(len(engine.rows(name))
                           for name in entry.sources.names()) >= n
            compiled[n] = schema_mod._row_check.cache_info().misses
        assert by_row == []
        assert compiled[1_000] == compiled[10_000] \
            == len({rel.types for rel in entry.sources})


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
