"""Dependency graph, recursion detection and stratification tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchsuite.catalog import ALL_ENTRIES
from repro.core.validation import validate
from repro.datalog import dependency
from repro.datalog.ast import Lit
from repro.datalog.dependency import (FALSUM, check_nonrecursive,
                                      dependency_graph, is_nonrecursive,
                                      stratify)
from repro.datalog.parser import parse_program
from repro.datalog.plan import clear_plan_cache
from repro.errors import RecursionError_
from repro.rdbms.engine import Engine
from repro.sql import compile_strategy_to_sql

ROOT = Path(__file__).resolve().parent.parent


class TestDependencyGraph:

    def test_edges(self):
        program = parse_program('v(X) :- r(X), not s(X).')
        assert dependency_graph(program) == {
            'r': {'v': False}, 's': {'v': True}, 'v': {}, FALSUM: {}}

    def test_constraint_edges_to_falsum(self):
        program = parse_program('⊥ :- v(X).')
        assert dependency_graph(program)['v'] == {FALSUM: False}

    def test_negative_flag_upgrades(self):
        program = parse_program('v(X) :- r(X).\nv(X) :- s(X), not r(X).')
        graph = dependency_graph(program)
        assert graph['r'] == {'v': True}
        assert graph['s'] == {'v': False}

    def test_negative_flag_stays(self):
        program = parse_program('v(X) :- s(X), not r(X).\nv(X) :- r(X).')
        assert dependency_graph(program)['r'] == {'v': True}


class TestRecursion:

    def test_nonrecursive_program(self):
        program = parse_program('v(X) :- r(X).\nw(X) :- v(X).')
        assert is_nonrecursive(program)
        check_nonrecursive(program)

    def test_direct_recursion(self):
        program = parse_program('p(X) :- p(X).')
        assert not is_nonrecursive(program)
        with pytest.raises(RecursionError_, match=r'cycle: p -> p\)'):
            check_nonrecursive(program)

    def test_mutual_recursion(self):
        program = parse_program('p(X) :- q(X).\nq(X) :- p(X).')
        with pytest.raises(RecursionError_):
            stratify(program)

    @pytest.mark.parametrize('text,cycles', [
        ('a(X) :- b(X). b(X) :- a(X).',
         {'a -> b -> a', 'b -> a -> b'}),
        # A predicate below the cycle is never named in it.
        ('a(X) :- r(X), c(X). b(X) :- a(X). c(X) :- b(X). d(X) :- c(X).',
         {'a -> b -> c -> a', 'b -> c -> a -> b', 'c -> a -> b -> c'}),
        ('⊥ :- p(X). p(X) :- q(X), not p(X). q(X) :- r(X).',
         {'p -> p'}),
    ], ids=['two', 'three-with-tail', 'self-through-negation'])
    def test_error_names_a_cycle(self, text, cycles):
        program = parse_program(text)
        with pytest.raises(RecursionError_) as raised:
            check_nonrecursive(program)
        message = str(raised.value)
        assert message.startswith('program is recursive (cycle: ')
        assert message.endswith('); this library handles nonrecursive '
                                'Datalog only')
        assert message[len('program is recursive (cycle: '):
                       message.index(')')] in cycles
        assert not is_nonrecursive(program)


class TestStratification:

    def test_topological_order(self):
        program = parse_program("""
            a(X) :- r(X).
            b(X) :- a(X).
            c(X) :- b(X), a(X).
        """)
        order = stratify(program)
        assert order.index('a') < order.index('b') < order.index('c')

    def test_edb_not_in_order(self):
        program = parse_program('v(X) :- r(X).')
        assert stratify(program) == ['v']


def _networkx_order(program) -> list[str]:
    """The IDB of ``program`` in ``networkx.topological_sort``'s order
    of the dependency graph, built node by node and edge by edge as the
    predicates and the body literals come."""
    nx = pytest.importorskip('networkx')
    graph = nx.DiGraph()
    graph.add_nodes_from(program.all_preds())
    graph.add_node(FALSUM)
    for rule in program.rules:
        head = FALSUM if rule.head is None else rule.head.pred
        for literal in rule.body:
            if isinstance(literal, Lit):
                graph.add_edge(literal.atom.pred, head)
    idb = program.idb_preds()
    return [pred for pred in nx.topological_sort(graph) if pred in idb]


class TestSameOrderAsNetworkx:
    """``stratify`` orders a graph as ``networkx.topological_sort``
    does, on every program that validating, lowering to SQL and
    defining the catalog's entries and the case-study stack orders."""

    @pytest.fixture
    def ordered(self, monkeypatch):
        """Every program handed to the three entry points of
        :mod:`repro.datalog.dependency`, wherever they were imported."""
        programs = []
        for name in ('stratify', 'check_nonrecursive', 'is_nonrecursive'):
            real = getattr(dependency, name)

            def recording(program, real=real):
                programs.append(program)
                return real(program)
            for module in list(sys.modules.values()):
                if vars(module).get(name) is real:
                    monkeypatch.setattr(module, name, recording)
        return programs

    def test_catalog_and_case_study(self, ordered):
        pytest.importorskip('networkx')
        from tests.test_case_study import build_engine
        clear_plan_cache()
        for entry in ALL_ENTRIES:
            if not entry.expressible:
                continue
            strategy = entry.strategy()
            report = validate(strategy)
            compile_strategy_to_sql(strategy, report.view_definition)
            with Engine(entry.sources, backend='memory') as engine:
                engine.define_view(strategy, report=report)
        with build_engine() as engine:
            assert engine.rows('retired')
        programs = list(dict.fromkeys(ordered))
        assert len(programs) > 300
        for program in programs:
            assert is_nonrecursive(program)
            assert stratify(program) == _networkx_order(program), program


def test_importing_and_validating_need_no_networkx():
    """``repro`` parses, validates and compiles a strategy with
    ``networkx`` unimportable."""
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "from repro.core.strategyfile import load_strategy\n"
        "from repro.core.validation import validate\n"
        "from repro.datalog.plan import compile_program\n"
        "strategy = load_strategy('examples/luxuryitems.dlog')\n"
        "assert validate(strategy).valid\n"
        "assert strategy.putdelta_plan.order\n"
        "assert compile_program(strategy.incremental_putdelta).order\n")
    subprocess.run([sys.executable, '-c', script], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / 'src')), timeout=300)
