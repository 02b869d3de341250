"""Bounded satisfiability checking for Datalog queries under constraints.

The paper discharges its validation checks (well-definedness, GetPut,
PutGet, steady-state existence — §4) to a decision procedure for guarded
negation first-order logic, implemented with Z3.  This module is the
offline substitute: a *bounded model search* that decides

    "is there a database D, satisfying all ⊥-constraints, on which the
     Datalog query (program, goal) returns a nonempty relation?"

Two complementary search strategies are used, both returning *verified*
witnesses (every candidate is checked by exact bottom-up evaluation, so a
SAT answer is always sound):

1. **Canonical-instance enumeration** — the query is unfolded into clauses
   (conjunctions of positive EDB atoms, builtins, and negated checks).
   Each clause is compiled once into a template: its ``=`` builtins are
   applied, the resulting equality classes become *slots*, and every
   other builtin and every positive atom reads fixed positions of a
   value row (one value per slot, then the clause's constants).  A way
   of merging classes is a partition of the slots, drawn from a table of
   the partitions of n slots in one fixed order, built once per process
   (every partition up to a size cap; above ``max_partition_vars``
   classes, the identity, the pair merges and a random sample).  A
   partition putting two different pins or a disequal pair in one block
   is dropped before any value is built, and still counts against the
   cap.  Every other block takes its pin, or by its rank among the
   unpinned blocks a fresh value (a witness synthesized for the bounds
   of a clause with comparisons), so a candidate is a function of its
   class structure alone: its facts, one ``(relation, row)`` pair per
   positive atom, are judged once per check, however many clauses and
   partitions reach them.  This mirrors the canonical-database argument
   underlying GNFO's finite model property and finds tiny witnesses
   fast.
2. **Randomized search** — random small databases over the program's
   constant pool plus fresh values, as a safety net for clauses whose
   canonical instance violates a constraint that a different instance
   would satisfy.  The draws go to the EDB relations in name order, so
   they depend on the program and the configuration only.

The unit of work is the *check program*, a :class:`Search`: one
program carrying the goal rules of a family of checks, each defining a
fresh predicate no rule reads.  The program is compiled once in
*world-tagged* form: every relational atom gains a leading world
variable, every ⊥-rule derives ``#violated(W)``, and a rule with no
positive atom is guarded by ``#worlds(W)`` (``#`` never occurs in a
parsed name).  A batch is one database whose facts carry their
candidate's index as the world, built in one pass over the candidates'
facts, so one run materialises the IDB cones of the goals asked for,
for every candidate at once, and a second, over the worlds where a goal
held, finds the violated ones.  Each goal's
canonical candidates are judged in doubling batches of their own (16,
32, 64, …: a tagged run's fixed cost is two plan runs, whatever the
batch holds, so the first batch is not one candidate); the random
databases are drawn once per distinct stream and judged in one batch
for every goal drawing that stream.

Each goal's answer is exactly the one-candidate-at-a-time loop's over
its stream in its one-goal program: the first candidate :func:`_verify`
accepts, with the same ``method`` and ``instances``.  Its cone and
clauses never reach another goal's rule, and its random stream is drawn
from the program less the other goals' rules.  A world the batch
rejects for a goal, :func:`_verify` rejects: stratified Datalog gives
one answer under any evaluation order once evaluation completes.  A
world the batch accepts is confirmed by :func:`_verify` on the plain
plan, compiled only when first needed.  A batch whose evaluation raises
is bisected, and a lone candidate is left to :func:`_verify`, which
reads an evaluation error as "no witness".

A ``SAT`` verdict carries the witness database.  An ``UNSAT`` verdict is
*bounded*: no model exists within the explored space.  For LVGN-Datalog
(where the paper proves decidability and counterexamples are small) this
is reported as conclusive by the validation layer; for programs outside
the fragment it mirrors the paper's semi-decision via a theorem prover.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import random
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Iterator, Sequence

from repro.datalog.ast import (Atom, BuiltinLit, Const, Lit, Literal,
                               Program, Rule, Var, delta_base)
from repro.datalog.evaluator import execute_constraints, execute_plan
from repro.datalog.plan import ExecutionPlan, compile_program
from repro.errors import ReproError, SchemaError
from repro.relational.database import Database
from repro.relational.schema import AttributeType, DatabaseSchema

__all__ = ['SolverConfig', 'SatStatus', 'SatResult', 'Search',
           'check_satisfiable', 'unfold_to_clauses', 'Clause']


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Search bounds.  The defaults catch every invalid strategy mutation in
    the test suite while keeping validation times in the paper's "a few
    seconds" ballpark."""

    max_clauses: int = 4000
    max_partition_vars: int = 7     # equality classes of one clause
    max_partitions_per_clause: int = 880
    random_trials: int = 120
    max_relation_size: int = 3
    seed: int = 2020  # the paper's year; any fixed seed works

    def scaled_down(self) -> 'SolverConfig':
        return SolverConfig(max_clauses=self.max_clauses // 4 or 1,
                            max_partition_vars=self.max_partition_vars,
                            max_partitions_per_clause=64,
                            random_trials=self.random_trials // 4 or 1,
                            max_relation_size=self.max_relation_size,
                            seed=self.seed)


class SatStatus(Enum):
    SAT = 'sat'
    UNSAT = 'unsat (bounded search)'


@dataclass(frozen=True)
class SatResult:
    status: SatStatus
    witness: Database | None = None
    goal: str | None = None
    method: str = ''
    instances: int = 0      # candidate databases verified by the search

    @property
    def is_sat(self) -> bool:
        return self.status is SatStatus.SAT

    def __str__(self) -> str:
        if self.is_sat:
            return (f'SAT({self.goal}) via {self.method}\n'
                    f'witness:\n{self.witness}')
        return f'UNSAT({self.goal}) within bounds'


# ---------------------------------------------------------------------------
# Clause unfolding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    """One disjunct of the unfolded query: a conjunction of positive EDB
    atoms, builtin literals, and negated relational checks."""

    pos_atoms: tuple[Atom, ...]
    builtins: tuple[BuiltinLit, ...]
    neg_atoms: tuple[Atom, ...]

    def variables(self) -> set[str]:
        names: set[str] = set()
        for atom in self.pos_atoms + self.neg_atoms:
            names |= atom.var_names()
        for b in self.builtins:
            names |= b.var_names()
        return names


def unfold_to_clauses(program: Program, goal: str,
                      max_clauses: int = 4000) -> list[Clause]:
    """Unfold the positive part of the query ``(program, goal)`` into
    clauses.  Positive IDB atoms are expanded through their defining rules
    (DNF product); negated atoms are kept as checks (they are re-verified
    by exact evaluation on each candidate).
    """
    idb = program.idb_preds()
    counter = itertools.count()

    def rename_rule(rule: Rule) -> Rule:
        suffix = next(counter)
        binding = {name: Var(f'{name}#{suffix}')
                   for name in rule.variables()}
        return rule.substitute(binding)

    def expand(literals: Sequence[Literal],
               depth: int) -> Iterator[tuple[list[Atom], list[BuiltinLit],
                                             list[Atom]]]:
        if not literals:
            yield [], [], []
            return
        first, rest = literals[0], literals[1:]
        for pos, blt, neg in expand(rest, depth):
            if isinstance(first, BuiltinLit):
                yield pos, [first] + blt, neg
            elif not first.positive:
                yield pos, blt, [first.atom] + neg
            elif first.atom.pred in idb and depth > 0:
                for rule in program.rules_for(first.atom.pred):
                    fresh = rename_rule(rule)
                    # Unify head with the atom via equalities.
                    eqs = [BuiltinLit('=', a, h) for a, h in
                           zip(first.atom.args, fresh.head.args)]
                    sub = list(fresh.body)
                    for spos, sblt, sneg in expand(sub, depth - 1):
                        yield pos + spos, eqs + blt + sblt, neg + sneg
            else:
                yield [first.atom] + pos, blt, neg

    clauses: list[Clause] = []
    for rule in program.rules_for(goal):
        fresh = rename_rule(rule)
        for pos, blt, neg in expand(list(fresh.body), depth=12):
            clauses.append(Clause(tuple(pos), tuple(blt), tuple(neg)))
            if len(clauses) >= max_clauses:
                return clauses
    return clauses


# ---------------------------------------------------------------------------
# Class partitions
# ---------------------------------------------------------------------------


def _set_partitions(items: list[int]) -> Iterator[list[list[int]]]:
    """All partitions of ``items`` (Bell-number many), smallest blocks
    first for the singleton partition to come out early."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        # New singleton block.
        yield [[first]] + partition
        for i in range(len(partition)):
            yield (partition[:i] + [[first] + partition[i]] +
                   partition[i + 1:])


#: A partition of slots ``0 … n-1``: each slot's block label, the blocks
#: numbered in order of their least slot, and each block as a bitmask of
#: its slots, in label order.
_Partition = tuple[tuple[int, ...], tuple[int, ...]]


def _partition(blocks: Iterable[list[int]]) -> _Partition:
    blocks = sorted(blocks, key=min)
    labels = [0] * sum(map(len, blocks))
    for label, block in enumerate(blocks):
        for slot in block:
            labels[slot] = label
    return tuple(labels), tuple(sum(1 << slot for slot in block)
                                for block in blocks)


@functools.lru_cache(maxsize=None)
def _partitions(size: int, limit: int) -> tuple[_Partition, ...]:
    """The first ``limit`` partitions of ``size`` slots, in
    :func:`_set_partitions`' order: a table that depends on its
    arguments alone, built once per process."""
    return tuple(map(_partition, itertools.islice(
        _set_partitions(list(range(size))), limit)))


def _candidate_partitions(size: int, config: SolverConfig,
                          rng: random.Random) -> Iterator[_Partition]:
    """Ways of merging a clause's ``size`` equality-closed classes."""
    if size <= config.max_partition_vars:
        yield from _partitions(size, config.max_partitions_per_clause)
        return
    # Too many classes for exhaustive enumeration: identity partition,
    # all single-pair merges, and a handful of random coarser partitions.
    slots = range(size)
    yield _partition([[c] for c in slots])
    for a, b in itertools.combinations(slots, 2):
        yield _partition([[x] for x in slots if x not in (a, b)] + [[a, b]])
    for _ in range(32):
        blocks: list[list[int]] = []
        for c in slots:
            if blocks and rng.random() < 0.35:
                rng.choice(blocks).append(c)
            else:
                blocks.append([c])
        yield _partition(blocks)


# ---------------------------------------------------------------------------
# Value synthesis for comparison constraints
# ---------------------------------------------------------------------------


_FRESH_BASE = {'int': 10_000, 'float': 10_000.0}

_OPS = {'=': operator.eq, '<>': operator.ne, '<': operator.lt,
        '<=': operator.le, '>': operator.gt, '>=': operator.ge}


def _type_of_value(value) -> str:
    if isinstance(value, bool):
        raise SchemaError('boolean constants are not supported')
    if isinstance(value, int):
        return 'int'
    if isinstance(value, float):
        return 'float'
    return 'string'


def _midpoint(low, high, type_name: str):
    """A value strictly between ``low`` and ``high``, or None."""
    if type_name == 'int':
        if high - low >= 2:
            return (low + high) // 2
        return None
    if type_name == 'float':
        mid = (low + high) / 2
        if low < mid < high:
            return mid
        return None
    # Strings: try extending the lower bound.
    for suffix in ('m', 'a', '0', '~'):
        candidate = low + suffix
        if low < candidate < high:
            return candidate
    if len(high) > 1 and low < high[:-1] < high:
        return high[:-1]
    return None


def _below(high, type_name: str):
    if type_name == 'int':
        return high - 1
    if type_name == 'float':
        return high - 1.0
    if high > ' ':
        return ' '
    return None


def _above(low, type_name: str):
    if type_name == 'int':
        return low + 1
    if type_name == 'float':
        return low + 1.0
    return low + 'z'


def _fresh(type_name: str, fresh_index: int):
    """A value outside the usual constant pools, so negated equalities
    against constants hold."""
    if type_name == 'string':
        return f'zz{fresh_index}'
    return _FRESH_BASE[type_name] + fresh_index


def _synthesize(lowers: list, uppers: list, type_name: str, fresh_index: int):
    """A value satisfying all ``(bound, strict)`` constraints, or None.

    When unconstrained, returns :func:`_fresh`'s value.
    """
    if not lowers and not uppers:
        return _fresh(type_name, fresh_index)
    try:
        low = max(lowers, key=lambda b: b[0]) if lowers else None
        high = min(uppers, key=lambda b: b[0]) if uppers else None
    except TypeError:
        return None  # mixed-type bounds
    # The bounds' own value type overrides a weaker inference.
    anchor = low or high
    if anchor is not None:
        bound_type = _type_of_value(anchor[0])
        if bound_type != type_name:
            type_name = bound_type
        if low is not None and high is not None and \
                _type_of_value(low[0]) != _type_of_value(high[0]):
            return None
    # Prefer satisfying a loose bound with equality — cheapest witness.
    if low is not None and not low[1] and _respects(low[0], lowers, uppers):
        return low[0]
    if high is not None and not high[1] and _respects(high[0], lowers,
                                                      uppers):
        return high[0]
    if low is not None and high is not None:
        return _midpoint(low[0], high[0], type_name)
    if low is not None:
        return _above(low[0], type_name)
    return _below(high[0], type_name)


def _respects(value, lowers: list, uppers: list) -> bool:
    try:
        for bound, strict in lowers:
            if value < bound or (strict and value == bound):
                return False
        for bound, strict in uppers:
            if value > bound or (strict and value == bound):
                return False
    except TypeError:
        return False
    return True


# ---------------------------------------------------------------------------
# Candidate construction from a clause + class partition
# ---------------------------------------------------------------------------


#: The value of a block not valued yet.
_FREE = object()


class _Template:
    """A clause with its ``=`` builtins applied once, compiled for the
    partitions of its equality classes; nothing here depends on the
    partition tried.

    The classes are slots ``0 … size-1``, in order of their least
    variable.  A *value row* holds one value per slot, then the clause's
    ``consts``.  ``pins`` maps a slot to its constant and ``kinds`` to
    its inferred type; ``diseq`` holds row positions that must differ,
    ``comparisons`` ``(smaller, larger, strict?)`` row positions, and
    ``atoms`` each positive atom's relation and its row getter."""

    def __init__(self, size: int, pins: dict[int, object],
                 kinds: dict[int, str], consts: tuple, diseq: list,
                 comparisons: list, atoms: list):
        self.size, self.consts, self.diseq = size, consts, diseq
        self.comparisons, self.atoms = comparisons, atoms
        # Slot pairs that no block may hold: two different pins (a pin
        # unequal to itself, a NaN, clashes with its own slot), or a
        # disequality.  A partition merging one yields no instance.
        self.clashes = [(a, b) for (a, p), (b, q) in
                        itertools.combinations_with_replacement(
                            pins.items(), 2) if p != q]
        self.clashes += [pair for pair in diseq if max(pair) < size]
        # A block takes the pin and the type of its least slot that has
        # one: a slot's bit -> its pin, its type, and the bitmasks of the
        # pinned and of the typed slots.
        self.pin_of = {1 << slot: pin for slot, pin in pins.items()}
        self.kind_of = {1 << slot: kind for slot, kind in kinds.items()}
        self.pinned, self.typed = sum(self.pin_of), sum(self.kind_of)
        fresh = {kind: [_fresh(kind, 1 + 7 * rank) for rank in range(size)]
                 for kind in {'string', *kinds.values()}}
        # A block's fresh values, by its rank among unpinned blocks.
        self.fresh = functools.cache(lambda mask: fresh[self._kind(mask)])

    def _pin(self, mask: int):
        pinned = mask & self.pinned
        return self.pin_of[pinned & -pinned] if pinned else _FREE

    def _kind(self, mask: int) -> str:
        typed = mask & self.typed
        return self.kind_of[typed & -typed] if typed else 'string'

    def facts(self, partition: _Partition) -> frozenset | None:
        """The canonical instance with the slots of each block of
        ``partition`` merged: the positive atoms as ``(pred, row)``
        facts, or None when no values honour the builtins (caller tries
        the next partition).  A block takes its pin; otherwise, by its
        rank among the unpinned blocks in order of least slot, a
        :func:`_fresh` value of its type, or :func:`_synthesize`'s for a
        clause with comparisons — pinned blocks are valued first, so a
        bound by one is known whatever the block order."""
        labels, masks = partition
        for a, b in self.clashes:
            if labels[a] == labels[b]:
                return None
        if not self.pinned and not self.comparisons:
            # Every block is unpinned: its rank is its label.
            value = list(map(operator.getitem, map(self.fresh, masks),
                             range(len(masks))))
        else:
            value, rank = list(map(self._pin, masks)), 0
            for label, mask in enumerate(masks):
                if value[label] is not _FREE:
                    continue
                if not self.comparisons:
                    value[label] = self.fresh(mask)[rank]
                else:
                    value[label] = self._bounded(labels, value, mask, rank)
                    if value[label] is None:
                        return None
                rank += 1
        row = tuple(map(value.__getitem__, labels)) + self.consts
        for a, b in self.diseq:
            if row[a] == row[b]:
                return None
        try:
            for smaller, larger, strict in self.comparisons:
                if row[larger] < row[smaller] \
                        or (strict and row[larger] == row[smaller]):
                    return None
        except TypeError:
            return None
        return frozenset([(pred, get(row)) for pred, get in self.atoms])

    def _bounded(self, labels: tuple[int, ...], value: list, mask: int,
                 rank: int):
        """A value for the block ``mask`` within its concrete bounds, by
        the block's slots in order; a bound by a block not yet valued is
        left to the residual check."""
        row = tuple(map(value.__getitem__, labels)) + self.consts
        slots = [slot for slot in range(self.size) if mask >> slot & 1]
        lowers = [(row[low], strict) for slot in slots
                  for low, high, strict in self.comparisons
                  if high == slot and row[low] is not _FREE]
        uppers = [(row[high], strict) for slot in slots
                  for low, high, strict in self.comparisons
                  if low == slot and row[high] is not _FREE]
        return _synthesize(lowers, uppers, self._kind(mask), 1 + 7 * rank)


def _close_clause(clause: Clause, types: dict[str, str]
                  ) -> _Template | None:
    """Equality-close ``clause`` and compile its template; None when its
    builtins are inconsistent whatever the partition."""
    variables = sorted(clause.variables())
    root = {var: var for var in variables}       # union-find forest

    def find(var: str) -> str:
        while root[var] != var:
            var = root[var]
        return var

    others: list[BuiltinLit] = []
    for b in clause.builtins:
        blt = b if b.positive else b.normalized()
        if blt.op == '=' and isinstance(blt.left, Var) \
                and isinstance(blt.right, Var):
            root[find(blt.left.name)] = find(blt.right.name)
        else:
            others.append(blt)
    # Variables in order: a class is first met at its least variable.
    slot_of_root: dict[str, int] = {}
    slot = {var: slot_of_root.setdefault(find(var), len(slot_of_root))
            for var in variables}
    kinds: dict[int, str] = {}
    for var in variables:
        if var in types:
            kinds.setdefault(slot[var], types[var])
    consts: list = []

    def position(term) -> int:
        if isinstance(term, Var):
            return slot[term.name]
        consts.append(term.value)
        return len(slot_of_root) + len(consts) - 1

    pins: dict[int, object] = {}
    diseq: list[tuple[int, int]] = []
    comparisons: list[tuple[int, int, bool]] = []
    for blt in others:
        left, right = blt.left, blt.right
        if isinstance(left, Const) and isinstance(right, Const):
            if not _OPS[blt.op](left.value, right.value):
                return None
        elif blt.op == '=':         # a class = class is closed already
            var, const = (left, right) if isinstance(right, Const) \
                else (right, left)
            if pins.setdefault(slot[var.name], const.value) != const.value:
                return None
        elif blt.op == '<>':
            pair = (position(left), position(right))
            if pair[0] == pair[1]:
                return None
            diseq.append(pair)
        else:
            smaller, larger = (left, right) if blt.op in ('<', '<=') \
                else (right, left)
            comparisons.append((position(smaller), position(larger),
                                blt.op in ('<', '>')))
    atoms = []
    for atom in clause.pos_atoms:
        keys = [position(term) for term in atom.args]
        # ``itemgetter`` of one position gives the bare value: slice.
        atoms.append((atom.pred, operator.itemgetter(*keys) if len(keys) > 1
                      else operator.itemgetter(slice(keys[0], keys[0] + 1)
                                               if keys else slice(0))))
    return _Template(len(slot_of_root), pins, kinds, tuple(consts), diseq,
                     comparisons, atoms)


def _value_type(declared: AttributeType) -> str:
    if declared == AttributeType.INT:
        return 'int'
    if declared == AttributeType.FLOAT:
        return 'float'
    return 'string'


def _infer_types(schema: DatabaseSchema | None,
                 clause: Clause) -> dict[str, str]:
    """Best-effort type per clause variable: schema column type where the
    variable occurs, else the type of a constant it is compared with."""
    types: dict[str, str] = {}
    for atom in clause.pos_atoms + clause.neg_atoms:
        name = delta_base(atom.pred)
        if schema is None or name not in schema:
            continue
        for term, declared in zip(atom.args, schema[name].types):
            if isinstance(term, Var):
                types.setdefault(term.name, _value_type(declared))
    for b in clause.builtins:
        terms = (b.left, b.right)
        consts = [t for t in terms if isinstance(t, Const)]
        for t in terms:
            if isinstance(t, Var) and consts:
                types.setdefault(t.name, _type_of_value(consts[0].value))
    return types


# ---------------------------------------------------------------------------
# Candidate verification
# ---------------------------------------------------------------------------


#: A candidate database: its ``(pred, row)`` facts.
_Facts = Iterable[tuple[str, tuple]]


def _relations(facts: _Facts, names: Iterable[str] = ()) -> dict[str, set]:
    """``facts`` as ``{pred: rows}``, with every relation of ``names``."""
    relations: dict[str, set] = {name: set() for name in names}
    for pred, row in facts:
        relations.setdefault(pred, set()).add(row)
    return relations


def _verify(plan: ExecutionPlan, goal: str, candidate: _Facts) -> bool:
    """Exact check: the goal is derivable and no constraint is violated."""
    edb = _relations(candidate)
    try:
        return bool(execute_plan(plan, edb, goals=(goal,))[goal]) \
            and not execute_constraints(plan, edb)
    except ReproError:
        return False


#: Reserved names of the world-tagged program; ``#`` never occurs in a
#: parsed name.
_WORLD = Var('#W')
_WORLDS, _VIOLATED = '#worlds', '#violated'


def _tag(rule: Rule) -> Rule:
    """``rule`` read inside one world: every relational atom gains the
    leading world variable, a ⊥-rule derives ``#violated(W)``, and a body
    without a positive atom is guarded by ``#worlds(W)``."""
    body = tuple(Lit(Atom(lit.atom.pred, (_WORLD,) + lit.atom.args),
                     lit.positive) if isinstance(lit, Lit) else lit
                 for lit in rule.body)
    if not rule.positive_atoms():
        body = (Lit(Atom(_WORLDS, (_WORLD,))),) + body
    head = Atom(_VIOLATED, ()) if rule.head is None else rule.head
    return Rule(Atom(head.pred, (_WORLD,) + head.args), body)


def _tagged(batch: Sequence[_Facts], worlds: Collection[int]
            ) -> dict[str, set]:
    """The world-tagged database of ``batch``'s candidates at ``worlds``,
    built in one pass over their facts."""
    edb: dict[str, set] = collections.defaultdict(set)
    edb[_WORLDS] = {(world,) for world in worlds}
    for world in worlds:
        for pred, row in batch[world]:
            edb[pred].add((world,) + row)
    return edb


class _Worlds:
    """One check program judging a batch of candidates in one run.

    The batch is one database whose facts carry their candidate's index
    as a leading column, the world; the tagged program evaluates every
    world at once and apart from the others, for any of the program's
    goals.  Raises what compiling the program raises: tagging binds the
    world in every body and adds no recursion, so both compile or
    neither does."""

    def __init__(self, program: Program):
        self.program = program
        self.tagged = compile_program(Program(tuple(map(_tag,
                                                        program.rules))))
        self.violated_cone = self._cone((_VIOLATED,))
        self.cones: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.plan: ExecutionPlan | None = None      # untagged, on demand

    def _cone(self, roots: Iterable[str]) -> tuple[str, ...]:
        """The IDB predicates ``roots`` depend on, bottom-up: run in this
        order, every probe meets a materialised relation."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            pred = stack.pop()
            if pred in self.tagged.idb and pred not in seen:
                seen.add(pred)
                stack += [body_pred for rule_plan in
                          self.tagged.rules_for(pred)
                          for body_pred in rule_plan.rule.body_preds()]
        return tuple(pred for pred in self.tagged.order if pred in seen)

    def accepted(self, batch: Sequence[_Facts], goals: Sequence[str]
                 ) -> dict[str, list[int]]:
        """Per goal, the worlds of ``batch`` where it holds and no
        constraint is violated, in order; raises what evaluation
        raises.  One run over the union of the goals' cones, one over
        the worlds where any goal held."""
        goals = tuple(goals)
        if goals not in self.cones:
            self.cones[goals] = self._cone(goals) + tuple(
                goal for goal in goals if goal not in self.tagged.idb)
        derived = execute_plan(self.tagged, _tagged(batch, range(len(batch))),
                               goals=self.cones[goals])
        held = {goal: {row[0] for row in derived[goal]} for goal in goals}
        anywhere = set().union(*held.values())
        if anywhere and self.violated_cone:
            violated = {row[0] for row in execute_plan(
                self.tagged, _tagged(batch, anywhere),
                goals=self.violated_cone)[_VIOLATED]}
            held = {goal: worlds - violated for goal, worlds in held.items()}
        return {goal: sorted(worlds) for goal, worlds in held.items()}

    def first(self, batch: Sequence[_Facts], goals: Sequence[str]
              ) -> dict[str, int | None]:
        """Per goal, the index of the first candidate of ``batch`` that
        :func:`_verify` accepts for it, or None — why the batch's answer
        is exactly that is argued in the module docstring."""
        try:
            accepted = self.accepted(batch, goals)
        except ReproError:
            if len(batch) > 1:
                half = len(batch) // 2
                found = self.first(batch[:half], goals)
                rest = [goal for goal in goals if found[goal] is None]
                if rest:
                    found.update(
                        (goal, None if world is None else half + world)
                        for goal, world in self.first(batch[half:],
                                                      rest).items())
                return found
            accepted = {goal: [0] for goal in goals}
        if any(accepted.values()) and self.plan is None:
            self.plan = compile_program(self.program)
        return {goal: next((world for world in worlds
                            if _verify(self.plan, goal, batch[world])),
                           None)
                for goal, worlds in accepted.items()}


# ---------------------------------------------------------------------------
# Randomized search
# ---------------------------------------------------------------------------


def _value_pool(program: Program) -> dict[str, tuple]:
    pools: dict[str, list] = {'int': [0, 1, 2], 'float': [0.0, 1.5],
                              'string': ['a', 'b', 'c']}
    for const in program.constants():
        pools[_type_of_value(const.value)].append(const.value)
        # Neighbouring values make comparison boundaries reachable.
        if isinstance(const.value, int) and not isinstance(const.value, bool):
            pools['int'] += [const.value - 1, const.value + 1]
        elif isinstance(const.value, float):
            pools['float'] += [const.value - 0.5, const.value + 0.5]
        elif isinstance(const.value, str):
            pools['string'] += [const.value + 'z']
    return {name: tuple(sorted(set(values)))
            for name, values in pools.items()}


def _random_database(rng: random.Random, relations: tuple, max_size: int
                     ) -> frozenset:
    """Up to ``max_size`` rows per relation of ``relations``, a tuple
    of ``(pred, value pool per column)`` in draw order.  A row count and
    a value are drawn as ``rng.randint`` and ``rng.choice`` draw them —
    ``n.bit_length()`` bits of ``rng.getrandbits``, again while the draw
    is not below ``n`` — without a Python call per draw."""
    getrandbits, counts = rng.getrandbits, max_size + 1
    facts = []
    for pred, columns in relations:
        count = getrandbits(counts.bit_length())
        while count >= counts:
            count = getrandbits(counts.bit_length())
        for _ in range(count):
            row = []
            for pool in columns:
                size = len(pool)
                drawn = getrandbits(size.bit_length())
                while drawn >= size:
                    drawn = getrandbits(size.bit_length())
                row.append(pool[drawn])
            facts.append((pred, tuple(row)))
    return frozenset(facts)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


#: The first canonical batch of a goal.  A tagged run's cost is mostly
#: fixed (two plan runs, whatever the batch holds), and doubling from
#: one spent most of a catalog pass's runs on 1–8 candidates.
_FIRST_BATCH = 16


class Search:
    """The solver work that the checks of one program share.

    ``program`` carries one goal rule per check, each defining a fresh
    predicate that no rule reads.  The search holds the world-tagged
    plan, the plain plan (compiled when a candidate is first accepted)
    and the random pass: its ``random_trials`` databases are drawn once
    per distinct stream and judged for every goal drawing that stream in
    one batch.  Each goal's canonical pass runs first, in doubling
    batches of its own from ``_FIRST_BATCH`` candidates (16, 32, 64,
    …).  Nothing outlives the search."""

    def __init__(self, program: Program, goals: Sequence[str], *,
                 constraints: Program | None = None,
                 schema: DatabaseSchema | None = None,
                 edb_arities: dict[str, int] | None = None,
                 config: SolverConfig | None = None):
        self.program, self.goals = program, tuple(goals)
        self.schema, self.edb_arities = schema, edb_arities or {}
        self.config = config or SolverConfig()
        # One program carrying every rule, ⊥-rules last: evaluation-time
        # constraint checking needs the IDB definitions in scope.
        rules = program.rules + (constraints.rules if constraints else ())
        self.rules = tuple(dict.fromkeys(
            [rule for rule in rules if not rule.is_constraint] +
            [rule for rule in rules if rule.is_constraint]))
        self.streams: dict[str, tuple] = {}     # goal -> its relations
        # relations -> (databases, {goal: first witness or None})
        self.random_passes: dict[tuple, tuple] = {}

    @functools.cached_property
    def worlds(self) -> _Worlds | None:
        """The tagged plan, compiled at the first check; None when the
        program does not compile."""
        try:
            return _Worlds(Program(self.rules))
        except ReproError:
            return None

    def check(self, goal: str) -> SatResult:
        """Search for a database making ``goal`` nonempty."""
        if self.worlds is None:
            # No candidate can be evaluated, so none is a witness.
            return SatResult(SatStatus.UNSAT, None, goal, 'bounded search')
        # Doubling batches; ``judged`` counts the candidates before the
        # batch, so a witness's ``instances`` is its position, whatever
        # the batch sizes.
        stream = self._canonical(goal)
        judged, size = 0, _FIRST_BATCH
        while batch := list(itertools.islice(stream, size)):
            found = self.worlds.first(batch, (goal,))[goal]
            if found is not None:
                return SatResult(SatStatus.SAT, Database.from_dict(
                    _relations(batch[found])), goal, 'canonical instance',
                    judged + found + 1)
            judged += len(batch)
            size *= 2
        databases, found = self._random_pass(goal)
        if found is not None:
            # A random database holds every relation of its stream.
            return SatResult(SatStatus.SAT, Database.from_dict(_relations(
                databases[found], (pred for pred, _ in self.streams[goal]))),
                goal, 'randomized search', judged + found + 1)
        return SatResult(SatStatus.UNSAT, None, goal, 'bounded search',
                         judged + len(databases))

    def _canonical(self, goal: str) -> Iterator[frozenset]:
        config = self.config
        rng = random.Random(config.seed)
        verified: set[frozenset] = set()
        for clause in unfold_to_clauses(self.program, goal,
                                        config.max_clauses):
            template = _close_clause(clause,
                                     _infer_types(self.schema, clause))
            if template is None:
                continue
            for partition in _candidate_partitions(template.size, config,
                                                   rng):
                facts = template.facts(partition)
                if facts is None or facts in verified:
                    continue
                verified.add(facts)
                yield facts

    def _stream(self, goal: str) -> tuple:
        """``goal``'s random relations: the EDB relations of the program
        less the other goals' rules, in name order, each with the value
        pool of every column."""
        others = set(self.goals) - {goal}
        program = Program(tuple(rule for rule in self.rules
                                if rule.head is None
                                or rule.head.pred not in others))
        arities = {**self.edb_arities, **program.arities()}
        pools = _value_pool(program)
        relations = []
        # Sorted: which relation takes which draws must not depend on
        # set order, that is, on PYTHONHASHSEED.
        for pred in sorted(set(arities) - program.idb_preds()):
            base = delta_base(pred)
            types = map(_value_type, self.schema[base].types) \
                if self.schema is not None and base in self.schema \
                else ['string'] * arities[pred]
            relations.append((pred, tuple(pools[kind] for kind in types)))
        return tuple(relations)

    def _random_pass(self, goal: str) -> tuple[list[frozenset], int | None]:
        """The random databases of ``goal``'s stream and the index of
        its first witness among them, judged once for every goal of the
        search that draws the same stream."""
        for other in (goal,) + self.goals:
            if other not in self.streams:
                self.streams[other] = self._stream(other)
        relations = self.streams[goal]
        if relations not in self.random_passes:
            # Its own rng, so these databases depend on the stream and
            # the configuration only, not on the canonical pass's draws.
            rng = random.Random(self.config.seed)
            databases = [_random_database(rng, relations,
                                          self.config.max_relation_size)
                         for _ in range(self.config.random_trials)]
            sharing = [other for other, drawn in self.streams.items()
                       if drawn == relations]
            self.random_passes[relations] = databases, (
                self.worlds.first(databases, sharing) if databases
                else dict.fromkeys(sharing))
        databases, found = self.random_passes[relations]
        return databases, found[goal]


def check_satisfiable(program: Program, goal: str, *,
                      constraints: Program | None = None,
                      schema: DatabaseSchema | None = None,
                      edb_arities: dict[str, int] | None = None,
                      config: SolverConfig | None = None,
                      search: Search | None = None) -> SatResult:
    """Search for a database making ``goal`` nonempty under constraints.

    ``program`` holds the rules (possibly including ⊥ rules, which are
    treated as constraints together with any in ``constraints``).
    ``schema`` (optional) supplies column types for value synthesis;
    ``edb_arities`` (optional) adds EDB relations that should exist in
    randomized candidates even when no clause mentions them.  ``search``
    (optional) is a :class:`Search` over ``program`` whose work this
    check shares with the program's other goals; it replaces the other
    keywords.  Without it, the check is a search of its own.
    """
    if search is None:
        search = Search(program, (goal,), constraints=constraints,
                        schema=schema, edb_arities=edb_arities,
                        config=config)
    return search.check(goal)
