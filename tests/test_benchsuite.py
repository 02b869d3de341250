"""Benchmark suite tests: catalog integrity, Table 1 and Figure 6 runners.

Full-catalog validation lives in ``tests/test_table1_catalog.py`` (it is
the Table 1 reproduction itself); here we check structural invariants and
exercise the harnesses on small slices.
"""

import pytest

from repro.benchsuite.catalog import (ALL_ENTRIES, FIGURE6_VIEWS,
                                      entry_by_id, entry_by_name)
from repro.benchsuite.runner import (format_fig6, format_table1, run_fig6,
                                     run_table1)
from repro.benchsuite.workload import build_engine, update_statement
from repro.core.lvgn import classify
from repro.errors import FragmentError


class TestCatalogIntegrity:

    def test_thirty_two_entries(self):
        assert len(ALL_ENTRIES) == 32
        assert [e.id for e in ALL_ENTRIES] == list(range(1, 33))

    def test_unique_names(self):
        names = [e.name for e in ALL_ENTRIES]
        assert len(set(names)) == 32

    def test_lookup_helpers(self):
        assert entry_by_name('luxuryitems').id == 3
        assert entry_by_id(23).name == 'emp_view'

    def test_sources_split(self):
        literature = [e for e in ALL_ENTRIES if e.source == 'literature']
        qa = [e for e in ALL_ENTRIES if e.source == 'qa']
        assert len(literature) == 23
        assert len(qa) == 9

    def test_only_emp_view_inexpressible(self):
        inexpressible = [e.name for e in ALL_ENTRIES if not e.expressible]
        assert inexpressible == ['emp_view']

    def test_emp_view_strategy_raises(self):
        with pytest.raises(FragmentError):
            entry_by_id(23).strategy()

    @pytest.mark.parametrize('entry', [e for e in ALL_ENTRIES
                                       if e.expressible],
                             ids=lambda e: e.name)
    def test_every_entry_parses(self, entry):
        strategy = entry.strategy()
        assert strategy.view.name == entry.name
        assert strategy.expected_get is not None

    @pytest.mark.parametrize('entry', [e for e in ALL_ENTRIES
                                       if e.expressible],
                             ids=lambda e: e.name)
    def test_fragment_matches_paper(self, entry):
        """Our re-authored strategies land in the same fragment column as
        the paper's Table 1."""
        strategy = entry.strategy()
        report = classify(strategy.putdelta, entry.name)
        assert report.nr_datalog == entry.paper.nr_datalog
        assert report.lvgn == entry.paper.lvgn, report.reasons

    def test_figure6_views_in_catalog(self):
        for view in FIGURE6_VIEWS:
            assert entry_by_name(view).expressible

    def test_sizes_scaling(self):
        entry = entry_by_name('tracks1')
        sizes = entry.sizes(1000)
        assert sizes['tracks'] == 1000
        assert sizes['albums'] == 200


class TestTable1Runner:

    def test_subset_run(self):
        entries = [entry_by_id(1), entry_by_id(5), entry_by_id(23)]
        rows = run_table1(entries, quick=True)
        assert len(rows) == 3
        assert rows[0].valid is True
        assert rows[0].sql_bytes and rows[0].sql_bytes > 1000
        assert rows[2].valid is None  # emp_view

    def test_formatting(self):
        entries = [entry_by_id(1), entry_by_id(23)]
        text = format_table1(run_table1(entries, quick=True))
        assert 'car_master' in text
        assert 'emp_view' in text
        assert 'yes' in text


class TestFig6Runner:

    def test_workload_engine_builds(self):
        entry = entry_by_name('luxuryitems')
        engine = build_engine(entry, 300, incremental=True)
        assert len(engine.rows('items')) == 300
        row = update_statement(entry, engine, 0)
        engine.insert('luxuryitems', row)
        assert row in engine.rows('items')

    @pytest.mark.parametrize('view', FIGURE6_VIEWS)
    def test_single_point(self, view):
        points = run_fig6([view], sizes=(200,), repeats=1)
        assert len(points) == 1
        point = points[0]
        assert point.original_seconds > 0
        assert point.incremental_seconds > 0

    def test_formatting(self):
        points = run_fig6(['vw_brands'], sizes=(100,), repeats=1)
        text = format_fig6(points)
        assert 'vw_brands' in text and 'speedup' in text

    def test_incremental_and_original_agree(self):
        entry = entry_by_name('officeinfo')
        engines = [build_engine(entry, 150, incremental=flag)
                   for flag in (True, False)]
        for i in range(4):
            row = update_statement(entry, engines[0], i)
            for engine in engines:
                engine.insert('officeinfo', row)
        assert engines[0].rows('works') == engines[1].rows('works')
        assert engines[0].rows('officeinfo') == \
            engines[1].rows('officeinfo')
