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
   (conjunctions of positive EDB atoms, builtins, and negated checks);
   each clause's ``=`` builtins are applied once, the ways of merging the
   resulting variable classes are enumerated (every partition, up to a
   size cap), comparison constraints are solved by synthesizing witness
   values, and the frozen positive atoms become a candidate database —
   judged once per check, however many clauses and partitions reach
   it.  This mirrors the canonical-database argument underlying GNFO's
   finite model property and finds tiny witnesses fast.
2. **Randomized search** — random small databases over the program's
   constant pool plus fresh values, as a safety net for clauses whose
   canonical instance violates a constraint that a different instance
   would satisfy.  The draws go to the EDB relations in name order, so
   they depend on the program and the configuration only.

Both passes form one stream of candidates, judged in doubling batches
(1, 2, 4, … candidates) by one plan compiled once per check in
*world-tagged* form: every relational atom gains a leading world
variable, every ⊥-rule derives ``#violated(W)``, and a rule with no
positive atom is guarded by ``#worlds(W)`` (``#`` never occurs in a
parsed name).  A batch is one database whose facts carry their
candidate's index as the world, so one run materialises the goal's IDB
cone bottom-up for every candidate at once, and a second, over the
worlds where the goal held, finds the violated ones.

The answer is exactly the one-candidate-at-a-time loop's: the first
candidate :func:`_verify` accepts, with the same ``method`` and
``instances``.  A world the batch rejects, :func:`_verify` rejects:
stratified Datalog gives one answer under any evaluation order once
evaluation completes.  A world the batch accepts is confirmed by
:func:`_verify` on the plain plan, compiled only when first needed.  A
batch whose evaluation raises is bisected, and a lone candidate is left
to :func:`_verify`, which reads an evaluation error as "no witness".

A ``SAT`` verdict carries the witness database.  An ``UNSAT`` verdict is
*bounded*: no model exists within the explored space.  For LVGN-Datalog
(where the paper proves decidability and counterexamples are small) this
is reported as conclusive by the validation layer; for programs outside
the fragment it mirrors the paper's semi-decision via a theorem prover.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

from repro.datalog.ast import (Atom, BuiltinLit, Const, Lit, Literal,
                               Program, Rule, Var, delta_base)
from repro.datalog.evaluator import execute_constraints, execute_plan
from repro.datalog.plan import ExecutionPlan, compile_program
from repro.errors import ReproError, SchemaError
from repro.relational.database import Database
from repro.relational.schema import AttributeType, DatabaseSchema

__all__ = ['SolverConfig', 'SatStatus', 'SatResult', 'check_satisfiable',
           'unfold_to_clauses', 'Clause']


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


def _set_partitions(items: list[str]) -> Iterator[list[list[str]]]:
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


def _candidate_partitions(classes: list[str], config: SolverConfig,
                          rng: random.Random
                          ) -> Iterator[list[list[str]]]:
    """Ways of merging a clause's equality-closed variable classes."""
    if len(classes) <= config.max_partition_vars:
        yield from itertools.islice(_set_partitions(classes),
                                    config.max_partitions_per_clause)
        return
    # Too many classes for exhaustive enumeration: identity partition,
    # all single-pair merges, and a handful of random coarser partitions.
    yield [[c] for c in classes]
    for a, b in itertools.combinations(classes, 2):
        merged = [[x] for x in classes if x not in (a, b)]
        yield merged + [[a, b]]
    for _ in range(32):
        blocks: list[list[str]] = []
        for c in classes:
            if blocks and rng.random() < 0.35:
                rng.choice(blocks).append(c)
            else:
                blocks.append([c])
        yield blocks


# ---------------------------------------------------------------------------
# Value synthesis for comparison constraints
# ---------------------------------------------------------------------------


_FRESH_BASE = {'int': 10_000, 'float': 10_000.0, 'string': 'zz'}

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


def _synthesize(lowers: list, uppers: list, type_name: str, fresh_index: int):
    """A value satisfying all ``(bound, strict)`` constraints, or None.

    When unconstrained, returns a fresh value outside the usual constant
    pools (so negated equalities against constants hold).
    """
    if not lowers and not uppers:
        base = _FRESH_BASE[type_name]
        if type_name == 'string':
            return f'{base}{fresh_index}'
        return base + fresh_index
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
class _ClosedClause:
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
    # Positive atoms as (pred, ((class | None, constant), ...)).
    atoms: list[tuple[str, tuple]] = field(default_factory=list)


def _close_clause(clause: Clause, types: dict[str, str]
                  ) -> _ClosedClause | None:
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
    closed = _ClosedClause(sorted(least.values()))
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
            if not _OPS[blt.op](left[1], right[1]):
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
        closed.atoms.append((atom.pred, tuple(
            (None, term.value) if isinstance(term, Const)
            else (class_of[term.name], None) for term in atom.args)))
    return closed


def _instance(closed: _ClosedClause, blocks: Iterable[Iterable[str]]
              ) -> frozenset | None:
    """The canonical instance of ``closed`` with every block of ``blocks``
    merged into one class: its positive atoms as ``(pred, row)`` facts
    over values honouring pinned constants, disequalities and
    comparisons; None when inconsistent (caller tries the next
    partition).  Values are a function of the merged classes alone, so
    one class structure always yields the same facts."""
    merged = sorted(sorted(block) for block in blocks)
    name = {cls: block[0] for block in merged for cls in block}
    value: dict[str, object] = {}
    for block in merged:
        consts = [closed.pinned[cls] for cls in block if cls in closed.pinned]
        if consts:
            if any(const != consts[0] for const in consts):
                return None
            value[block[0]] = consts[0]

    bounded = closed.lowers or closed.uppers
    fresh_index = 1
    for block in merged:
        if block[0] in value:
            continue
        type_name = 'string'
        for cls in block:
            if cls in closed.types:
                type_name = closed.types[cls]
                break
        # Concrete (value, strict) lower and upper bounds of the merged
        # class; a bound by a class not yet assigned is left to the
        # residual check.
        found: tuple[list, list] = ([], [])
        if bounded:
            for kind, out in zip((closed.lowers, closed.uppers), found):
                for cls in block:
                    for (tag, other), strict in kind.get(cls, ()):
                        if tag == 'const':
                            out.append((other, strict))
                        elif name[other] in value:
                            out.append((value[name[other]], strict))
        synthesized = _synthesize(*found, type_name, fresh_index)
        fresh_index += 7
        if synthesized is None:
            return None
        value[block[0]] = synthesized

    # Residual checks over the complete assignment.
    full = {cls: value[name[cls]] for cls in closed.classes}
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
    return frozenset([
        (pred, tuple([const if cls is None else full[cls]
                      for cls, const in terms]))
        for pred, terms in closed.atoms])


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


def _verify(plan: ExecutionPlan, goal: str,
            candidate: dict[str, set]) -> bool:
    """Exact check: the goal is derivable and no constraint is violated."""
    try:
        return bool(execute_plan(plan, candidate, goals=(goal,))[goal]) \
            and not execute_constraints(plan, candidate)
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


class _Worlds:
    """One check program judging a batch of candidates in one run.

    The batch is one database whose facts carry their candidate's index
    as a leading column, the world; the tagged program evaluates every
    world at once and apart from the others.  Raises what compiling the
    program raises: tagging binds the world in every body and adds no
    recursion, so both compile or neither does."""

    def __init__(self, program: Program, goal: str):
        self.program, self.goal = program, goal
        self.tagged = compile_program(Program(tuple(map(_tag,
                                                        program.rules))))
        self.goal_cone = self._cone(goal) or (goal,)
        self.violated_cone = self._cone(_VIOLATED)
        self.plan: ExecutionPlan | None = None      # untagged, on demand

    def _cone(self, root: str) -> tuple[str, ...]:
        """The IDB predicates ``root`` depends on, bottom-up: run in this
        order, every probe meets a materialised relation."""
        seen: set[str] = set()
        stack = [root]
        while stack:
            pred = stack.pop()
            if pred in self.tagged.idb and pred not in seen:
                seen.add(pred)
                stack += [body_pred for rule_plan in
                          self.tagged.rules_for(pred)
                          for body_pred in rule_plan.rule.body_preds()]
        return tuple(pred for pred in self.tagged.order if pred in seen)

    def accepted(self, batch: list[dict[str, set]]) -> list[int]:
        """The worlds of ``batch`` where the goal holds and no constraint
        is violated, in order; raises what evaluation raises."""
        edb: dict[str, set] = {_WORLDS: {(world,)
                                         for world in range(len(batch))}}
        for world, candidate in enumerate(batch):
            for pred, rows in candidate.items():
                edb.setdefault(pred, set()).update(
                    (world,) + row for row in rows)
        held = {row[0] for row in execute_plan(
            self.tagged, edb, goals=self.goal_cone)[self.goal]}
        if held and self.violated_cone:
            edb = {pred: {row for row in rows if row[0] in held}
                   for pred, rows in edb.items()}
            held -= {row[0] for row in execute_plan(
                self.tagged, edb, goals=self.violated_cone)[_VIOLATED]}
        return sorted(held)

    def first(self, batch: list[dict[str, set]]) -> int | None:
        """The index of the first candidate of ``batch`` that
        :func:`_verify` accepts, or None — why the batch's answer is
        exactly that is argued in the module docstring."""
        try:
            accepted = self.accepted(batch)
        except ReproError:
            if len(batch) > 1:
                half = len(batch) // 2
                for offset, part in ((0, batch[:half]), (half, batch[half:])):
                    found = self.first(part)
                    if found is not None:
                        return offset + found
                return None
            accepted = [0]
        if accepted and self.plan is None:
            self.plan = compile_program(self.program)
        return next((world for world in accepted
                     if _verify(self.plan, self.goal, batch[world])), None)


# ---------------------------------------------------------------------------
# Randomized search
# ---------------------------------------------------------------------------


def _value_pool(program: Program, schema: DatabaseSchema | None
                ) -> dict[str, list]:
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
    for name in pools:
        pools[name] = sorted(set(pools[name]))
    return pools


def _random_database(rng: random.Random, arities: dict[str, int],
                     types_by_pred: dict[str, tuple[str, ...]],
                     pools: dict[str, list], max_size: int
                     ) -> dict[str, set]:
    data: dict[str, set] = {}
    for pred, arity in arities.items():
        col_types = types_by_pred.get(pred)
        columns = [pools[col_types[pos] if col_types else 'string']
                   for pos in range(arity)]
        data[pred] = {tuple([rng.choice(column) for column in columns])
                      for _ in range(rng.randint(0, max_size))}
    return data


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_satisfiable(program: Program, goal: str, *,
                      constraints: Program | None = None,
                      schema: DatabaseSchema | None = None,
                      edb_arities: dict[str, int] | None = None,
                      config: SolverConfig | None = None) -> SatResult:
    """Search for a database making ``goal`` nonempty under constraints.

    ``program`` holds the rules (possibly including ⊥ rules, which are
    treated as constraints together with any in ``constraints``).
    ``schema`` (optional) supplies column types for value synthesis;
    ``edb_arities`` (optional) adds EDB relations that should exist in
    randomized candidates even when no clause mentions them.
    """
    config = config or SolverConfig()

    constraint_rules = list(program.constraints())
    if constraints is not None:
        constraint_rules += list(constraints.constraints())
    # One program carrying every rule: evaluation-time constraint checking
    # needs the IDB definitions in scope.
    all_rules = Program(tuple(program.proper_rules()) +
                        (tuple(constraints.proper_rules())
                         if constraints is not None else ()) +
                        tuple(constraint_rules))
    eval_program = Program(tuple(dict.fromkeys(all_rules.rules)))
    try:
        worlds = _Worlds(eval_program, goal)
    except ReproError:
        # No candidate can be evaluated, so none is a witness.
        return SatResult(SatStatus.UNSAT, None, goal, 'bounded search')

    def canonical() -> Iterator[tuple[str, dict[str, set]]]:
        rng = random.Random(config.seed)
        verified: set[frozenset] = set()
        for clause in unfold_to_clauses(program, goal, config.max_clauses):
            closed = _close_clause(clause, _infer_types(schema, clause))
            if closed is None:
                continue
            for blocks in _candidate_partitions(closed.classes, config, rng):
                facts = _instance(closed, blocks)
                if facts is None or facts in verified:
                    continue
                verified.add(facts)
                candidate: dict[str, set] = {}
                for pred, row in facts:
                    candidate.setdefault(pred, set()).add(row)
                yield 'canonical instance', candidate

    def randomized() -> Iterator[tuple[str, dict[str, set]]]:
        # Its own stream, so these instances depend on (program, config)
        # only and not on how many draws pass 1 happened to make.
        rng = random.Random(config.seed)
        arities = dict(program.arities())
        if constraints is not None:
            for pred, arity in constraints.arities().items():
                arities.setdefault(pred, arity)
        if edb_arities:
            for pred, arity in edb_arities.items():
                arities.setdefault(pred, arity)
        # Sorted: which relation takes which draws must not depend on
        # set order, that is, on PYTHONHASHSEED.
        edb_names = sorted(set(arities) - eval_program.idb_preds())
        edb_arities_only = {p: arities[p] for p in edb_names}
        pools = _value_pool(all_rules, schema)
        types_by_pred: dict[str, tuple[str, ...]] = {}
        if schema is not None:
            for pred in edb_arities_only:
                base = delta_base(pred)
                if base in schema:
                    types_by_pred[pred] = tuple(map(_value_type,
                                                    schema[base].types))
        for _ in range(config.random_trials):
            yield 'randomized search', _random_database(
                rng, edb_arities_only, types_by_pred, pools,
                config.max_relation_size)

    # Judge the candidates in doubling batches; ``judged`` counts those
    # before the batch, so a witness's ``instances`` is its position.
    stream = itertools.chain(canonical(), randomized())
    judged, size = 0, 1
    while batch := list(itertools.islice(stream, size)):
        found = worlds.first([candidate for _, candidate in batch])
        if found is not None:
            method, candidate = batch[found]
            return SatResult(SatStatus.SAT, Database.from_dict(candidate),
                             goal, method, judged + found + 1)
        judged += len(batch)
        size *= 2
    return SatResult(SatStatus.UNSAT, None, goal, 'bounded search', judged)
