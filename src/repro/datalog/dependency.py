"""Predicate dependency analysis: recursion check and stratification.

For the nonrecursive programs this library targets, "stratification" is a
topological order of IDB predicates in the dependency graph (each predicate
depends on every predicate used in the bodies of its defining rules).
Constraint rules (⊥ heads) contribute dependencies for the synthetic
predicate ``⊥`` so that constraints are checked after everything they read.

The graph is a plain mapping in insertion order, and the order is Kahn's:
the predicates nothing feeds, in that order, then each predicate once its
last input is placed, in the order its inputs are placed.  That is
generation by generation, as ``networkx.topological_sort`` orders the
same graph (``tests/test_dependency.py`` compares the two).  One pass
both orders the graph and finds recursion: a predicate on or below a
cycle is never placed.
"""

from __future__ import annotations

from repro.datalog.ast import Lit, Program
from repro.errors import RecursionError_

__all__ = ['dependency_graph', 'is_nonrecursive', 'check_nonrecursive',
           'stratify', 'FALSUM']

FALSUM = '⊥'


def dependency_graph(program: Program) -> dict[str, dict[str, bool]]:
    """``{body_pred: {head_pred: negative}}``: an edge for every body
    literal, ``negative`` when *some* occurrence is negated.  Every
    predicate of the program is a key, and so is ``⊥``; keys and edges
    keep their first insertion's place."""
    graph: dict[str, dict[str, bool]] = {pred: {}
                                         for pred in program.all_preds()}
    graph.setdefault(FALSUM, {})
    for rule in program.rules:
        head = FALSUM if rule.head is None else rule.head.pred
        for literal in rule.body:
            if isinstance(literal, Lit):
                edges = graph.setdefault(literal.atom.pred, {})
                graph.setdefault(head, {})
                edges[head] = edges.get(head, False) or not literal.positive
    return graph


def _topological(graph: dict[str, dict[str, bool]]) -> list[str]:
    """The predicates of ``graph`` in Kahn's order; those on or below a
    cycle are left out."""
    inputs = dict.fromkeys(graph, 0)
    for heads in graph.values():
        for head in heads:
            inputs[head] += 1
    order = [pred for pred, count in inputs.items() if not count]
    for pred in order:                  # grows while it is read
        for head in graph[pred]:
            inputs[head] -= 1
            if not inputs[head]:
                order.append(head)
    return order


def _ordered(program: Program) -> list[str]:
    """:func:`_topological` of the program's graph; raises
    :class:`RecursionError_` naming a cycle when one is left out."""
    graph = dependency_graph(program)
    order = _topological(graph)
    if len(order) == len(graph):
        return order
    # Every predicate left out has an input left out: walking inputs
    # backwards from one of them must come round.
    left = set(graph).difference(order)
    feeder = {head: pred for pred in left for head in graph[pred]
              if head in left}
    path = [next(iter(feeder))]
    while path[-1] not in path[:-1]:
        path.append(feeder[path[-1]])
    cycle = path[path.index(path[-1]):][::-1]
    raise RecursionError_(
        f'program is recursive (cycle: {" -> ".join(cycle)}); this library '
        f'handles nonrecursive Datalog only')


def is_nonrecursive(program: Program) -> bool:
    graph = dependency_graph(program)
    return len(_topological(graph)) == len(graph)


def check_nonrecursive(program: Program) -> None:
    _ordered(program)


def stratify(program: Program) -> list[str]:
    """Topological evaluation order of the program's IDB predicates.

    EDB predicates are omitted (they are inputs).  Raises
    :class:`RecursionError_` on recursion, found in the same pass the
    order is read from.
    """
    idb = program.idb_preds()
    return [pred for pred in _ordered(program) if pred in idb]
