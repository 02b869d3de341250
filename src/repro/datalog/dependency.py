"""Predicate dependency analysis: recursion check and stratification.

For the nonrecursive programs this library targets, "stratification" is a
topological order of IDB predicates in the dependency graph (each predicate
depends on every predicate used in the bodies of its defining rules).
Constraint rules (⊥ heads) contribute dependencies for the synthetic
predicate ``⊥`` so that constraints are checked after everything they read.
"""

from __future__ import annotations

import networkx as nx

from repro.datalog.ast import Lit, Program
from repro.errors import RecursionError_

__all__ = ['dependency_graph', 'is_nonrecursive', 'check_nonrecursive',
           'stratify', 'FALSUM']

FALSUM = '⊥'


def dependency_graph(program: Program) -> nx.DiGraph:
    """Directed graph with an edge ``body_pred -> head_pred`` for every
    body literal.  Edges carry ``negative=True`` when *some* occurrence is
    negated."""
    graph = nx.DiGraph()
    for pred in program.all_preds():
        graph.add_node(pred)
    graph.add_node(FALSUM)
    for rule in program.rules:
        head = FALSUM if rule.head is None else rule.head.pred
        for literal in rule.body:
            if not isinstance(literal, Lit):
                continue
            pred = literal.atom.pred
            negative = not literal.positive
            if graph.has_edge(pred, head):
                if negative:
                    graph[pred][head]['negative'] = True
            else:
                graph.add_edge(pred, head, negative=negative)
    return graph


def is_nonrecursive(program: Program) -> bool:
    return nx.is_directed_acyclic_graph(dependency_graph(program))


def check_nonrecursive(program: Program) -> None:
    _check_acyclic(dependency_graph(program))


def _check_acyclic(graph: nx.DiGraph) -> None:
    try:
        cycle = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return
    path = ' -> '.join(edge[0] for edge in cycle) + f' -> {cycle[-1][1]}'
    raise RecursionError_(
        f'program is recursive (cycle: {path}); this library handles '
        f'nonrecursive Datalog only')


def stratify(program: Program) -> list[str]:
    """Topological evaluation order of the program's IDB predicates.

    EDB predicates are omitted (they are inputs).  Raises
    :class:`RecursionError_` on recursion, found on the same graph the
    order is read from (built once).
    """
    graph = dependency_graph(program)
    _check_acyclic(graph)
    idb = program.idb_preds()
    return [p for p in nx.topological_sort(graph) if p in idb]
