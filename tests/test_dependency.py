"""Dependency graph, recursion detection and stratification tests."""

import pytest

from repro.datalog.dependency import (FALSUM, check_nonrecursive,
                                      dependency_graph, is_nonrecursive,
                                      stratify)
from repro.datalog.parser import parse_program
from repro.errors import RecursionError_


class TestDependencyGraph:

    def test_edges(self):
        program = parse_program('v(X) :- r(X), not s(X).')
        graph = dependency_graph(program)
        assert graph.has_edge('r', 'v')
        assert graph.has_edge('s', 'v')
        assert graph['s']['v']['negative'] is True
        assert graph['r']['v']['negative'] is False

    def test_constraint_edges_to_falsum(self):
        program = parse_program('⊥ :- v(X).')
        graph = dependency_graph(program)
        assert graph.has_edge('v', FALSUM)

    def test_negative_flag_upgrades(self):
        program = parse_program('v(X) :- r(X).\nv(X) :- s(X), not r(X).')
        graph = dependency_graph(program)
        assert graph['r']['v']['negative'] is True


class TestRecursion:

    def test_nonrecursive_program(self):
        program = parse_program('v(X) :- r(X).\nw(X) :- v(X).')
        assert is_nonrecursive(program)
        check_nonrecursive(program)

    def test_direct_recursion(self):
        program = parse_program('p(X) :- p(X).')
        assert not is_nonrecursive(program)
        with pytest.raises(RecursionError_):
            check_nonrecursive(program)

    def test_mutual_recursion(self):
        program = parse_program('p(X) :- q(X).\nq(X) :- p(X).')
        with pytest.raises(RecursionError_):
            stratify(program)


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

