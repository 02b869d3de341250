"""Compilation of Datalog programs into immutable execution plans.

The planner performs *once* all the static work the evaluator used to
redo on every call:

* safety analysis and stratification (a topological order of the IDB);
* per-rule sideways-information-passing schedules, computed statically
  from the bound-variable sets the schedule itself induces;
* resolution of every literal into a low-level *step* with a fixed
  binding mask: variables become integer slots, atom arguments become
  (slot | constant) key templates, and repeated-variable consistency
  checks are pre-extracted;
* compiling a membership test of a pass-through atom ``p(t̄)`` —
  ``p``'s one rule reads one relation outside the IDB — negated, or
  positive and fully bound, into a test on that relation
  (:func:`_pass_throughs`): one index probe instead of a top-down run
  of ``p``'s rule;
* declaration of the hash-index masks the plan will probe at run time
  (``index_requirements``), so long-lived engines can build persistent
  indexes ahead of the first update;
* pre-splitting of the rule set into delta rules, intermediate rules
  and constraints, which the RDBMS layer previously re-derived per
  statement.

The result is an :class:`ExecutionPlan` — a frozen, shareable artifact.
:mod:`repro.datalog.evaluator` executes plans; callers that evaluate the
same program repeatedly (the engine's trigger pipeline, the validation
solver's model enumeration) compile once and run many times.

Join ordering is static.  The scheduler prefers, in order: ready
filters (builtins, negations, fully bound atoms), delta-input scans
(``+v``/``-v`` EDB relations are small by construction — the §5
"delta-first" order), EDB scans over IDB scans (so lazily materialised
predicates are not forced early), and finally scans with more bound
columns.  Remaining ties break by observed relation cardinality when
the caller supplies ``stats`` (a ``{relation: row count}`` mapping —
the engine passes current base-table sizes at ``define_view`` time),
then by source order.  Set semantics make the results independent of
the order; only running time differs.

The plan cache is one per process: :func:`compile_program` memoizes in
``_compile_cached``, an LRU keyed by the program, ``check_safety`` and
the frozen ``stats`` seed, which every engine, validation run and
solver check in the process shares and :func:`clear_plan_cache`
empties.  A forked shard worker starts with a copy of the
coordinator's cache as it stood at the fork; what either compiles
afterwards stays in its own copy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from repro.datalog.ast import (Atom, BuiltinLit, Const, Lit, Literal,
                               Program, Rule, Var, delta_base, is_anonymous,
                               is_delta_pred, is_insert_pred)
from repro.datalog.dependency import stratify
from repro.datalog.safety import check_program_safety
from repro.errors import SafetyError

__all__ = ['ExecutionPlan', 'RulePlan', 'ConstraintPlan', 'Step',
           'ScanStep', 'ProbeStep', 'NegationStep', 'CompareStep',
           'BindStep', 'compile_program', 'compile_rule',
           'schedule_body', 'schedule_static', 'plan_cache_info',
           'clear_plan_cache']

#: Sentinel slot index marking a constant operand in a key template.
CONST = -1

#: Estimated size for relations absent from a ``stats`` mapping: assume
#: large, so relations with *known* cardinalities are scheduled first
#: and two unknown relations still fall back to source order.
_UNKNOWN_SIZE = 2 ** 62


def _freeze_stats(stats) -> tuple | None:
    """Normalise a ``{relation: size}`` mapping into a hashable,
    order-independent key for the plan cache (``None`` stays ``None``)."""
    if stats is None:
        return None
    return tuple(sorted(stats.items() if isinstance(stats, Mapping)
                        else stats))


# ---------------------------------------------------------------------------
# Steps: the executable micro-operations of a compiled rule
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScanStep:
    """Join with a relation: probe the index at ``positions`` with the
    key built from ``key`` and bind the ``free`` row positions."""

    pred: str
    arity: int
    positions: tuple[int, ...]            # bound argument positions
    key: tuple[tuple[int, object], ...]   # (slot, const) per position
    free: tuple[tuple[int, int], ...]     # (row position, slot) to bind
    checks: tuple[tuple[int, int], ...]   # repeated-variable positions


@dataclass(frozen=True, slots=True)
class ProbeStep:
    """Membership test of a fully bound positive atom (top-down for
    pending IDB predicates — no materialisation), or of a pass-through
    atom's source relation at ``positions``, the others wildcards."""

    pred: str
    arity: int
    positions: tuple[int, ...]
    key: tuple[tuple[int, object], ...]


@dataclass(frozen=True, slots=True)
class NegationStep:
    """A negated atom, reached with every variable the body binds
    bound; the anonymous ones nothing binds act as wildcards."""

    pred: str
    arity: int
    positions: tuple[int, ...]
    key: tuple[tuple[int, object], ...]


@dataclass(frozen=True, slots=True)
class CompareStep:
    """A builtin comparison with both operands resolved.  ``expect`` is
    the required outcome of evaluating ``op`` (negation and ``<>`` are
    folded into it at compile time)."""

    op: str                               # '=', '<', '>', '<=', '>='
    left: tuple[int, object]              # (slot, const)
    right: tuple[int, object]
    expect: bool


@dataclass(frozen=True, slots=True)
class BindStep:
    """A positive equality with exactly one unbound side: an
    assignment into ``slot``."""

    slot: int
    source: tuple[int, object]            # (slot, const)


Step = ScanStep | ProbeStep | NegationStep | CompareStep | BindStep


# ---------------------------------------------------------------------------
# Compiled rules and plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RulePlan:
    """One rule compiled against a fixed slot layout.

    ``steps`` is the bottom-up schedule (empty initial binding);
    ``probe_steps`` is the alternative schedule used for top-down
    probes, compiled with every head variable pre-bound.  The probe
    preamble (``match_*``) maps a candidate head row onto the slots.
    ``rule`` is the source text, also when a pass-through atom was
    compiled as a test on its source (:func:`_pass_throughs`).
    """

    rule: Rule
    nslots: int
    steps: tuple[Step, ...]
    head: tuple[tuple[int, object], ...]      # (slot, const) per head arg
    match_consts: tuple[tuple[int, object], ...]  # (row pos, value)
    match_binds: tuple[tuple[int, int], ...]      # (row pos, slot)
    match_checks: tuple[tuple[int, int], ...]     # (row pos, slot)
    probe_steps: tuple[Step, ...]
    #: The IDB the rule was compiled against: a fully bound atom of any
    #: other predicate is a plain membership test when sealed.
    idb: frozenset = frozenset()
    # Executor scratch: ``[run, probe]``, the specialised functions
    # the evaluator generates on first use (see
    # ``repro.datalog.evaluator._seal_run``).  Not part of the plan's
    # identity; each slot is written once (a benign last-writer-wins
    # race — every writer produces equivalent code).
    sealed: list = field(default_factory=lambda: [None, None],
                         init=False, compare=False, repr=False)

    def __getstate__(self):
        # Generated executor functions are not picklable (and are
        # cheap to regenerate): strip them, keep the plan itself.
        return {slot: getattr(self, slot) for slot in self.__slots__
                if slot != 'sealed'}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, 'sealed', [None, None])


@dataclass(frozen=True, slots=True)
class ConstraintPlan:
    """A ⊥-rule compiled as a witness query: the synthetic head lists
    the rule's named variables in sorted order."""

    rule: Rule
    rule_plan: RulePlan


@dataclass(frozen=True)
class ExecutionPlan:
    """The immutable compiled form of a :class:`Program`.

    Instances are safe to share between threads and across evaluations:
    every container is a tuple or frozenset and every nested node is a
    frozen dataclass.  ``rule_plans`` is a plain dict (not a mapping
    proxy) so plans — and the strategies that cache them — stay
    picklable and deep-copyable; treat it as read-only.
    """

    program: Program                       # the source program, verbatim
    order: tuple[str, ...]                 # topological order of the IDB
    idb: frozenset
    rule_plans: Mapping[str, tuple[RulePlan, ...]]
    constraint_plans: tuple[ConstraintPlan, ...]
    delta_goals: tuple[str, ...]           # delta predicates, sorted
    #: ``(goal, relation, is_insertion)`` per delta goal, in
    #: ``delta_goals`` order: how a goal's rows become a delta
    #: (:func:`~repro.datalog.evaluator.execute_deltas`)
    delta_targets: tuple[tuple[str, str, bool], ...]
    intermediate_preds: frozenset          # auxiliary (non-delta) IDB
    index_requirements: frozenset          # {(pred, positions), ...}
    # Executor scratch: ``{(relations, check): run}``, the putback runs
    # the evaluator generates on first use (see
    # ``repro.datalog.evaluator.execute_deltas``); not part of the
    # plan's identity, and written like ``RulePlan.sealed``.
    sealed: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    def __getstate__(self):
        # Generated functions are not picklable: strip them.
        state = dict(self.__dict__)
        del state['sealed']
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, sealed={})

    def rules_for(self, pred: str) -> tuple[RulePlan, ...]:
        return self.rule_plans.get(pred, ())

    # -- execution (delegated to the executor module) -------------------

    def evaluate(self, edb, *, goals=None):
        """Run this plan over ``edb``; see :func:`repro.datalog.
        evaluator.evaluate` for the contract."""
        from repro.datalog.evaluator import execute_plan
        return execute_plan(self, edb, goals=goals)

    def constraint_violations(self, edb, *, first_witness: bool = False):
        """Evaluate the compiled ⊥-rules over ``edb``; with
        ``first_witness``, short-circuit at the first violation."""
        from repro.datalog.evaluator import execute_constraints
        return execute_constraints(self, edb, first_witness=first_witness)


# ---------------------------------------------------------------------------
# Literal scheduling
# ---------------------------------------------------------------------------


def _ready(literal: Literal, bound: set[str],
           bindable: frozenset) -> bool:
    """Can ``literal`` be evaluated once ``bound`` variables are known?
    ``bindable`` holds every name the body binds (:func:`_bindable`):
    inside a negated atom an underscore-named variable is a wildcard
    only when it is not among them — otherwise the negation waits for
    it like for any other name, whatever the literal order (the reading
    of :meth:`repro.sql.translate._Lowering._membership`)."""
    if isinstance(literal, Lit):
        if literal.positive:
            return True
        required = {t.name for t in literal.atom.variables()
                    if not is_anonymous(t) or t.name in bindable}
        return required <= bound
    if literal.op == '=' and literal.positive:
        left_ok = not isinstance(literal.left, Var) \
            or literal.left.name in bound
        right_ok = not isinstance(literal.right, Var) \
            or literal.right.name in bound
        return left_ok or right_ok
    return literal.var_names() <= bound


def _binds(literal: Literal) -> set[str]:
    if isinstance(literal, Lit) and literal.positive:
        return literal.var_names()
    if isinstance(literal, BuiltinLit) and literal.op == '=' \
            and literal.positive:
        return literal.var_names()
    return set()


def _bindable(body: Sequence[Literal]) -> frozenset:
    """The names some positive literal or ``=`` of ``body`` binds."""
    return frozenset().union(*map(_binds, body))


def schedule_body(body: Sequence[Literal]) -> list[Literal]:
    """Order body literals so each is evaluable when reached (greedy,
    order-preserving).  This is the schedule the binarizer relies on;
    the planner's cost-aware variant is :func:`schedule_static`.
    """
    remaining = list(body)
    ordered: list[Literal] = []
    bound: set[str] = set()
    bindable = _bindable(body)
    while remaining:
        progressed = False
        for i, literal in enumerate(remaining):
            if _ready(literal, bound, bindable):
                ordered.append(literal)
                bound |= _binds(literal)
                del remaining[i]
                progressed = True
                break
        if not progressed:
            raise SafetyError(
                f'cannot schedule literals {[str(l) for l in remaining]}; '
                f'rule is unsafe')
    return ordered


def _bound_position_count(atom: Atom, bound: set[str]) -> int:
    count = 0
    for term in atom.args:
        if isinstance(term, Const) or term.name in bound:
            count += 1
    return count


def schedule_static(body: Sequence[Literal], initial_bound: frozenset,
                     idb: frozenset,
                     stats: Mapping[str, int] | None = None
                     ) -> list[Literal]:
    """The planner's static schedule.

    Filters (builtins, negations, fully bound atoms) run as soon as
    they are ready; among join candidates the scheduler prefers
    delta-input relations (statically small), then EDB over IDB (so
    lazy predicates are not materialised just to drive a join), then
    the scan with the most bound columns, then — when ``stats`` carries
    observed cardinalities — the estimated-smallest relation, then
    source order.
    """
    remaining = list(body)
    ordered: list[Literal] = []
    bound: set[str] = set(initial_bound)
    sizes = stats or {}
    bindable = _bindable(body)
    while remaining:
        filter_index = None
        best_index = None
        best_score = None
        for i, literal in enumerate(remaining):
            if not _ready(literal, bound, bindable):
                continue
            is_join = isinstance(literal, Lit) and literal.positive \
                and not literal.var_names() <= bound
            if not is_join:
                filter_index = i
                break
            pred = literal.atom.pred
            score = (0 if is_delta_pred(pred) and pred not in idb else 1,
                     1 if pred in idb else 0,
                     -_bound_position_count(literal.atom, bound),
                     sizes.get(pred, _UNKNOWN_SIZE),
                     i)
            if best_score is None or score < best_score:
                best_score = score
                best_index = i
        index = filter_index if filter_index is not None else best_index
        if index is None:
            raise SafetyError(
                f'cannot schedule literals {[str(l) for l in remaining]}; '
                f'rule is unsafe')
        literal = remaining.pop(index)
        ordered.append(literal)
        bound |= _binds(literal)
    return ordered


# ---------------------------------------------------------------------------
# Step compilation
# ---------------------------------------------------------------------------


class _Slots:
    """Deterministic variable → slot assignment for one rule."""

    def __init__(self):
        self._map: dict[str, int] = {}

    def slot(self, name: str) -> int:
        index = self._map.get(name)
        if index is None:
            index = len(self._map)
            self._map[name] = index
        return index

    def __len__(self) -> int:
        return len(self._map)


def _operand(term, slots: _Slots, bound: set[str]) -> tuple[int, object]:
    """Resolve a term into a (slot, const) pair; the term must be a
    constant or a bound variable."""
    if isinstance(term, Const):
        return (CONST, term.value)
    assert term.name in bound, term
    return (slots.slot(term.name), None)


def _compile_scan(atom: Atom, slots: _Slots, bound: set[str]) -> ScanStep:
    positions: list[int] = []
    key: list[tuple[int, object]] = []
    free: list[tuple[int, int]] = []
    checks: list[tuple[int, int]] = []
    seen: dict[str, int] = {}
    for pos, term in enumerate(atom.args):
        if isinstance(term, Const):
            positions.append(pos)
            key.append((CONST, term.value))
        elif term.name in bound:
            positions.append(pos)
            key.append((slots.slot(term.name), None))
        elif term.name in seen:
            checks.append((seen[term.name], pos))
        else:
            seen[term.name] = pos
            free.append((pos, slots.slot(term.name)))
    return ScanStep(atom.pred, atom.arity, tuple(positions), tuple(key),
                    tuple(free), tuple(checks))


def _membership(atom: Atom, slots: _Slots, bound: set[str],
                through: Rule | None) -> tuple:
    """``(pred, arity, positions, key)`` of a membership test of
    ``atom`` (a fully bound positive atom, or a negated one reached with
    every variable the body binds bound): a constant or a bound variable
    keys its position, and an anonymous variable nothing binds is a
    wildcard.  For a pass-through ``p`` (``through``, its rule
    ``p(X̄) :- r(Ȳ)``), the test is on ``r`` at ``Ȳ`` with each head
    variable replaced by its argument in ``atom`` and each existential
    variable a wildcard."""
    source, terms = atom, atom.args
    if through is not None:
        binding = {var.name: arg
                   for var, arg in zip(through.head.args, atom.args)}
        source = through.body[0].atom
        terms = [term if isinstance(term, Const) else binding.get(term.name)
                 for term in source.args]
    positions: list[int] = []
    key: list[tuple[int, object]] = []
    for pos, term in enumerate(terms):
        if isinstance(term, Const):
            key.append((CONST, term.value))
        elif term is not None and term.name in bound:
            key.append((slots.slot(term.name), None))
        elif term is None or is_anonymous(term):
            continue                       # wildcard column
        else:
            raise SafetyError(f'negated atom {atom} reached with unbound '
                              f'variable {term}')
        positions.append(pos)
    return source.pred, source.arity, tuple(positions), tuple(key)


def _compile_builtin(literal: BuiltinLit, slots: _Slots,
                     bound: set[str]) -> CompareStep | BindStep:
    left, right = literal.left, literal.right
    left_bound = isinstance(left, Const) or left.name in bound
    right_bound = isinstance(right, Const) or right.name in bound
    if literal.op == '=' and literal.positive \
            and not (left_bound and right_bound):
        if left_bound:
            return BindStep(slots.slot(right.name),
                            _operand(left, slots, bound))
        return BindStep(slots.slot(left.name),
                        _operand(right, slots, bound))
    if not (left_bound and right_bound):
        raise SafetyError(
            f'builtin {literal} reached with unbound variable')
    # `<>` is equality with the expectation flipped; explicit negation
    # flips it once more.
    if literal.op == '<>':
        op, expect = '=', not literal.positive
    else:
        op, expect = literal.op, literal.positive
    return CompareStep(op, _operand(left, slots, bound),
                       _operand(right, slots, bound), expect)


def _compile_steps(body: Sequence[Literal], slots: _Slots,
                   initial_bound: frozenset,
                   idb: frozenset,
                   stats: Mapping[str, int] | None,
                   pass_throughs: Mapping[str, Rule]
                   ) -> tuple[Step, ...]:
    ordered = schedule_static(body, initial_bound, idb, stats)
    bound: set[str] = set(initial_bound)
    steps: list[Step] = []
    for literal in ordered:
        if isinstance(literal, BuiltinLit):
            steps.append(_compile_builtin(literal, slots, bound))
        elif literal.positive and not literal.var_names() <= bound:
            steps.append(_compile_scan(literal.atom, slots, bound))
        else:
            test = ProbeStep if literal.positive else NegationStep
            steps.append(test(*_membership(
                literal.atom, slots, bound,
                pass_throughs.get(literal.atom.pred))))
        bound |= _binds(literal)
    return tuple(steps)


def _pass_throughs(program: Program, idb: frozenset) -> dict[str, Rule]:
    """The IDB predicates ``p`` whose one rule is ``p(X̄) :- r(Ȳ)``: a
    single positive atom over a relation outside ``idb``, distinct head
    variables, each occurring in ``Ȳ``, and no variable repeated in
    ``Ȳ``.  ``p(t̄)`` then holds exactly when some ``r`` row matches
    ``Ȳ`` with ``X̄ := t̄`` — one index probe, no rule to run."""
    found = {}
    for pred in idb:
        rules = program.rules_for(pred)
        if len(rules) != 1 or len(rules[0].body) != 1:
            continue
        (rule,), (literal,) = rules, rules[0].body
        if not isinstance(literal, Lit) or not literal.positive \
                or literal.atom.pred in idb:
            continue
        head = [t.name for t in rule.head.args if isinstance(t, Var)]
        body = [t.name for t in literal.atom.args if isinstance(t, Var)]
        if len(head) == len(rule.head.args) == len(set(head)) \
                and len(body) == len(set(body)) and set(head) <= set(body):
            found[pred] = rule
    return found


def compile_rule(rule: Rule, *, idb: frozenset = frozenset(),
                 stats: Mapping[str, int] | None = None,
                 pass_throughs: Mapping[str, Rule] | None = None
                 ) -> RulePlan:
    """Compile one (non-constraint) rule against a fixed slot layout.

    ``idb`` informs the static scheduler which body predicates are
    derived (and therefore lazily materialised) in the enclosing
    program; passing the default compiles the rule as if every body
    predicate were EDB.
    ``stats`` optionally carries observed relation cardinalities to
    break the scheduler's remaining ties.  A negated, or a positive and
    fully bound, atom of a predicate in ``pass_throughs``
    (:func:`_pass_throughs`) compiles to a test on its source relation
    (:func:`_membership`).
    """
    if rule.head is None:
        raise ValueError('constraint rules are compiled via the program '
                         'planner, not compile_rule')
    pass_throughs = pass_throughs or {}
    slots = _Slots()
    # Deterministic layout: head variables first, then body variables in
    # source order — independent of either schedule.
    for term in rule.head.args:
        if isinstance(term, Var):
            slots.slot(term.name)
    for literal in rule.body:
        for var in literal.variables():
            slots.slot(var.name)

    steps = _compile_steps(rule.body, slots, frozenset(), idb, stats,
                           pass_throughs)
    head: list[tuple[int, object]] = []
    for term in rule.head.args:
        if isinstance(term, Const):
            head.append((CONST, term.value))
        else:
            head.append((slots.slot(term.name), None))

    # Probe preamble: map a candidate head row onto the slots.
    match_consts: list[tuple[int, object]] = []
    match_binds: list[tuple[int, int]] = []
    match_checks: list[tuple[int, int]] = []
    head_bound: set[str] = set()
    for pos, term in enumerate(rule.head.args):
        if isinstance(term, Const):
            match_consts.append((pos, term.value))
        elif term.name in head_bound:
            match_checks.append((pos, slots.slot(term.name)))
        else:
            head_bound.add(term.name)
            match_binds.append((pos, slots.slot(term.name)))
    probe_steps = _compile_steps(rule.body, slots, frozenset(head_bound),
                                 idb, stats, pass_throughs)
    return RulePlan(rule=rule, nslots=len(slots), steps=steps,
                    head=tuple(head), match_consts=tuple(match_consts),
                    match_binds=tuple(match_binds),
                    match_checks=tuple(match_checks),
                    probe_steps=probe_steps, idb=idb)


def _compile_constraint(rule: Rule, idb: frozenset,
                        stats: Mapping[str, int] | None = None,
                        pass_throughs: Mapping[str, Rule] | None = None
                        ) -> ConstraintPlan:
    """Rewrite ``⊥ :- body`` into a witness query over the body's named
    variables (anonymous variables stay unbound inside negations and
    cannot appear in the witness).  ``rule`` stays the source text, so
    a violation names the rule as written."""
    names = sorted(n for n in rule.variables() if not n.startswith('_'))
    probe = Rule(Atom('__viol__', tuple(Var(n) for n in names)), rule.body)
    return ConstraintPlan(rule=rule,
                          rule_plan=compile_rule(
                              probe, idb=idb, stats=stats,
                              pass_throughs=pass_throughs))


# ---------------------------------------------------------------------------
# Index requirements
# ---------------------------------------------------------------------------


def _index_requirements(rule_plans, constraint_plans) -> frozenset:
    """Every (pred, positions) hash-index mask the plan's steps will
    probe.  Fully bound probes and full scans need no index."""
    masks: set[tuple[str, tuple[int, ...]]] = set()

    def visit(steps):
        for step in steps:
            if isinstance(step, ScanStep) and step.positions:
                masks.add((step.pred, step.positions))
            elif isinstance(step, (ProbeStep, NegationStep)) \
                    and 0 < len(step.positions) < step.arity:
                masks.add((step.pred, step.positions))

    for plans in rule_plans.values():
        for rplan in plans:
            visit(rplan.steps)
            visit(rplan.probe_steps)
    for cplan in constraint_plans:
        visit(cplan.rule_plan.steps)
    return frozenset(masks)


# ---------------------------------------------------------------------------
# Program compilation
# ---------------------------------------------------------------------------


def _compile(program: Program, check_safety: bool,
             stats_key: tuple | None = None) -> ExecutionPlan:
    proper = program.without_constraints()
    if check_safety:
        check_program_safety(proper)
    stats = dict(stats_key) if stats_key else None
    order = tuple(stratify(proper))        # rejects recursion up front
    idb = frozenset(proper.idb_preds())
    pass_throughs = _pass_throughs(proper, idb)
    rule_plans = {pred: tuple(compile_rule(rule, idb=idb, stats=stats,
                                           pass_throughs=pass_throughs)
                              for rule in proper.rules_for(pred))
                  for pred in order}
    constraint_plans = tuple(
        _compile_constraint(rule, idb, stats, pass_throughs)
        for rule in program.constraints())
    delta_goals = tuple(sorted(p for p in idb if is_delta_pred(p)))
    intermediate = frozenset(p for p in idb if not is_delta_pred(p))
    return ExecutionPlan(
        program=program, order=order, idb=idb,
        rule_plans=rule_plans,
        constraint_plans=constraint_plans,
        delta_goals=delta_goals,
        delta_targets=tuple((goal, delta_base(goal), is_insert_pred(goal))
                            for goal in delta_goals),
        intermediate_preds=intermediate,
        index_requirements=_index_requirements(rule_plans,
                                               constraint_plans))


@lru_cache(maxsize=256)
def _compile_cached(program: Program, check_safety: bool,
                    stats_key: tuple | None) -> ExecutionPlan:
    return _compile(program, check_safety, stats_key)


#: Serialises cached compiles.  ``lru_cache`` alone keeps its dict
#: consistent under CPython, but two threads missing on the same key
#: would each run a full compile and race to publish distinct (equal)
#: plan objects — under the parallel sharded engine two shards
#: compiling the same view must share ONE plan, both for the
#: compile-once guarantee and so per-plan executor caches are not
#: duplicated.  RLock: a compile may itself request another cached
#: compile (``incrementalize_plan`` lowers through ``compile_program``).
_COMPILE_LOCK = threading.RLock()


def compile_program(program: Program, *, check_safety: bool = True,
                    cache: bool = True,
                    stats: Mapping[str, int] | None = None
                    ) -> ExecutionPlan:
    """Compile ``program`` into an :class:`ExecutionPlan`.

    Plans are memoized (bounded LRU) keyed by program equality (and the
    ``stats`` seed, when given), so callers that re-parse equal
    programs still share one plan; pass ``cache=False`` to force a
    fresh compilation (a plan nothing else has run or sealed).  ``stats``
    seeds the greedy join order with observed relation cardinalities —
    the engine passes current base-relation sizes at ``define_view``
    time so scheduling ties break toward the estimated-smallest scan.

    The cached path is thread-safe: concurrent callers (per-shard
    engines compiling the same view) are serialised by
    ``_COMPILE_LOCK`` and observe the same plan instance.
    """
    stats_key = _freeze_stats(stats)
    if cache:
        with _COMPILE_LOCK:
            return _compile_cached(program, check_safety, stats_key)
    return _compile(program, check_safety, stats_key)


def plan_cache_info():
    """Hit/miss statistics of the shared plan cache."""
    return _compile_cached.cache_info()


def clear_plan_cache() -> None:
    """Drop every cached plan and the code sealed for their rules."""
    from repro.datalog.evaluator import _factory_code
    _compile_cached.cache_clear()
    _factory_code.cache_clear()
