"""The solver's former enumerators and candidate construction, kept as
references for ``test_solver_search.py``.

``variable_partitions`` partitions *all* of a clause's variables, each
partition closed under the clause's ``=`` builtins afterwards; the
solver closes first and partitions the resulting classes, and both must
reach the same class structures.  ``class_partitions``, ``close_clause``
and ``instance`` build a clause's canonical instances class by class,
partition by partition, as lists of class names; the solver compiles a
clause into a template of slots and enumerates labellings, and must
yield exactly the instances these yield, in the same order, less the
partitions for which ``instance`` yields None.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.datalog.ast import BuiltinLit, Const, Var
from repro.fol import solver
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


def class_partitions(classes: list[str], config: SolverConfig,
                     rng: random.Random) -> Iterator[list[list[str]]]:
    """Ways of merging a clause's equality-closed classes: every
    partition up to ``max_partitions_per_clause`` of them, or above
    ``max_partition_vars`` classes, ``variable_partitions``' sample."""
    if len(classes) <= config.max_partition_vars:
        yield from itertools.islice(_set_partitions(classes),
                                    config.max_partitions_per_clause)
        return
    yield from variable_partitions(classes, config, rng)


class _UnionFind:

    def __init__(self, items: Iterable[str]):
        self.parent = {i: i for i in items}

    def find(self, x: str) -> str:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


@dataclass
class ClosedClause:
    """A clause with its ``=`` builtins applied once: the variable classes
    they induce (named by their least member) and every other builtin read
    over those classes, so nothing here depends on the partition tried."""

    classes: list[str]
    pinned: dict[str, object] = field(default_factory=dict)  # class = const
    types: dict[str, str] = field(default_factory=dict)
    # class <> class, class <> constant
    diseq: list[tuple[str, str]] = field(default_factory=list)
    diseq_const: list[tuple[str, object]] = field(default_factory=list)
    # Per class: (('const', value) | ('var', class), strict?) entries.
    lowers: dict[str, list] = field(default_factory=dict)
    uppers: dict[str, list] = field(default_factory=dict)
    # Positive atoms as (pred, (key, ...)): a key is a class, or an
    # int naming a constant of ``consts``.
    atoms: list[tuple[str, tuple]] = field(default_factory=list)
    consts: dict[int, object] = field(default_factory=dict)


def close_clause(clause: Clause, types: dict[str, str]
                 ) -> ClosedClause | None:
    """Equality-close ``clause``; None when its builtins are inconsistent
    whatever the partition."""
    variables = sorted(clause.variables())
    uf = _UnionFind(variables)
    others: list[BuiltinLit] = []
    for b in clause.builtins:
        blt = b if b.positive else b.normalized()
        if blt.op == '=' and isinstance(blt.left, Var) \
                and isinstance(blt.right, Var):
            uf.union(blt.left.name, blt.right.name)
        else:
            others.append(blt)
    least: dict[str, str] = {}
    class_of = {var: least.setdefault(uf.find(var), var)
                for var in variables}
    closed = ClosedClause(sorted(least.values()))
    for var in variables:
        if var in types:
            closed.types.setdefault(class_of[var], types[var])

    def operand(term):
        if isinstance(term, Const):
            return ('const', term.value)
        return ('var', class_of[term.name])

    for blt in others:
        left, right = operand(blt.left), operand(blt.right)
        if left[0] == right[0] == 'const':
            if not solver._OPS[blt.op](left[1], right[1]):
                return None
        elif blt.op in ('=', '<>'):
            if left[0] == right[0]:             # only '<>' relates two classes
                if left[1] == right[1]:
                    return None
                closed.diseq.append((left[1], right[1]))
                continue
            cls, const = (left[1], right[1]) if left[0] == 'var' \
                else (right[1], left[1])
            if blt.op == '<>':
                closed.diseq_const.append((cls, const))
            elif closed.pinned.setdefault(cls, const) != const:
                return None
        else:
            strict = blt.op in ('<', '>')
            smaller, larger = (left, right) if blt.op in ('<', '<=') \
                else (right, left)
            if smaller[0] == 'var':
                closed.uppers.setdefault(smaller[1], []).append(
                    (larger, strict))
            if larger[0] == 'var':
                closed.lowers.setdefault(larger[1], []).append(
                    (smaller, strict))
    for atom in clause.pos_atoms:
        keys = []
        for term in atom.args:
            if isinstance(term, Const):
                keys.append(len(closed.consts))
                closed.consts[keys[-1]] = term.value
            else:
                keys.append(class_of[term.name])
        closed.atoms.append((atom.pred, tuple(keys)))
    return closed


def instance(closed: ClosedClause, blocks: Iterable[Iterable[str]]
             ) -> frozenset | None:
    """The canonical instance of ``closed`` with every block of ``blocks``
    merged into one class: its positive atoms as ``(pred, row)`` facts
    over values honouring pinned constants, disequalities and
    comparisons; None when inconsistent (caller tries the next
    partition).  Values are a function of the merged classes alone, so
    one class structure always yields the same facts."""
    merged = sorted(sorted(block) for block in blocks)
    pinned, types = closed.pinned, closed.types
    bounded = closed.lowers or closed.uppers
    full: dict = dict(closed.consts)    # class or constant key -> value
    # Pinned blocks first, so that a bound by a pinned class is known
    # whatever the block order.
    unpinned = []
    for block in merged:
        consts = [pinned[cls] for cls in block if cls in pinned] \
            if pinned else None
        if not consts:
            unpinned.append(block)
            continue
        for const in consts:
            if const != consts[0]:
                return None
        for cls in block:
            full[cls] = consts[0]
    fresh_index = 1
    for block in unpinned:
        type_name = 'string'
        for cls in block:
            if cls in types:
                type_name = types[cls]
                break
        if bounded:
            # Concrete (value, strict) lower and upper bounds of the
            # merged class; a bound by a class not yet assigned is left
            # to the residual check.
            found: tuple[list, list] = ([], [])
            for kind, out in zip((closed.lowers, closed.uppers), found):
                for cls in block:
                    for (tag, other), strict in kind.get(cls, ()):
                        if tag == 'const':
                            out.append((other, strict))
                        elif other in full:
                            out.append((full[other], strict))
            value = solver._synthesize(*found, type_name, fresh_index)
            if value is None:
                return None
        else:
            value = solver._fresh(type_name, fresh_index)
        fresh_index += 7
        for cls in block:
            full[cls] = value

    # Residual checks over the complete assignment.
    for a, b in closed.diseq:
        if full[a] == full[b]:
            return None
    for cls, const in closed.diseq_const:
        if full[cls] == const:
            return None
    if bounded:
        try:
            for cls, entries in closed.lowers.items():
                for other, strict in entries:
                    low = other[1] if other[0] == 'const' else full[other[1]]
                    if full[cls] < low or (strict and full[cls] == low):
                        return None
            for cls, entries in closed.uppers.items():
                for other, strict in entries:
                    high = other[1] if other[0] == 'const' \
                        else full[other[1]]
                    if full[cls] > high or (strict and full[cls] == high):
                        return None
        except TypeError:
            return None
    value_of_key = full.__getitem__
    return frozenset([(pred, tuple(map(value_of_key, keys)))
                      for pred, keys in closed.atoms])
