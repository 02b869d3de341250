"""The solver's former enumerator, kept as a reference for
``test_solver_search.py``: partitions of *all* of a clause's variables,
each closed under the clause's ``=`` builtins afterwards.  The solver now
closes first and partitions the resulting classes; both must reach the
same class structures."""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from repro.datalog.ast import Var
from repro.fol.solver import Clause, SolverConfig


def _set_partitions(items: list[str]) -> Iterator[list[list[str]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield (partition[:i] + [[first] + partition[i]] +
                   partition[i + 1:])


def variable_partitions(variables: list[str], config: SolverConfig,
                        rng: random.Random) -> Iterator[list[list[str]]]:
    """Exhaustive up to ``max_partition_vars`` variables; above that the
    identity, every single-pair merge, then 32 random coarsenings."""
    if len(variables) <= config.max_partition_vars:
        count = 0
        for partition in _set_partitions(variables):
            yield partition
            count += 1
            if count >= config.max_partitions_per_clause:
                return
        return
    yield [[v] for v in variables]
    for a, b in itertools.combinations(variables, 2):
        merged = [[x] for x in variables if x not in (a, b)]
        yield merged + [[a, b]]
    for _ in range(32):
        blocks: list[list[str]] = []
        for v in variables:
            if blocks and rng.random() < 0.35:
                rng.choice(blocks).append(v)
            else:
                blocks.append([v])
        yield blocks


def deterministic_prefix(variables: list[str]) -> int:
    """How many of ``variable_partitions``' results above the exhaustive
    bound do not depend on the random stream."""
    return 1 + len(variables) * (len(variables) - 1) // 2


def _groups(variables: list[str], links) -> list[frozenset]:
    """Connected components of ``variables`` under ``links``."""
    group = {v: {v} for v in variables}
    for a, b in links:
        if group[a] is not group[b]:
            group[a] |= group[b]
            for member in group[b]:
                group[member] = group[a]
    return list({id(g): frozenset(g) for g in group.values()}.values())


def closed_blocks(clause: Clause, partition: list[list[str]]
                  ) -> frozenset:
    """The class structure ``partition`` ends in once the clause's ``=``
    builtins are applied, as blocks of equality-class names (a class is
    named by its least variable, as in ``solver._close_clause``)."""
    variables = sorted(clause.variables())
    equalities = [
        (b.left.name, b.right.name) for b in clause.builtins
        if (b if b.positive else b.normalized()).op == '='
        and isinstance(b.left, Var) and isinstance(b.right, Var)]
    name = {v: min(group) for group in _groups(variables, equalities)
            for v in group}
    merges = [(block[0], other) for block in partition
              for other in block[1:]]
    return frozenset(frozenset(name[v] for v in group)
                     for group in _groups(variables, equalities + merges))
