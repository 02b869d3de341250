"""The paper's evaluation suite: the 32-view Table 1 catalog, workload
generators, and the harnesses regenerating Table 1 and Figure 6."""

from repro.benchsuite.catalog import (ALL_ENTRIES, FIGURE6_VIEWS,
                                      entry_by_id, entry_by_name)
from repro.benchsuite.entry import BenchmarkEntry, PaperRow
from repro.benchsuite.runner import (Fig6Point, Table1Row, format_fig6,
                                     format_table1, run_fig6, run_table1)
from repro.benchsuite.workload import build_engine, update_statement

__all__ = ['ALL_ENTRIES', 'FIGURE6_VIEWS', 'entry_by_id', 'entry_by_name',
           'BenchmarkEntry', 'PaperRow', 'Fig6Point', 'Table1Row',
           'format_fig6', 'format_table1', 'run_fig6', 'run_table1',
           'build_engine', 'update_statement']
