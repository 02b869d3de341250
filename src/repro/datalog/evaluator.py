"""Plan executor for nonrecursive Datalog with negation and builtins.

The static work — safety checks, stratification, literal scheduling,
binding-mask resolution — lives in :mod:`repro.datalog.plan`; this
module only *runs* compiled :class:`~repro.datalog.plan.ExecutionPlan`
objects against an EDB:

* :class:`ScanStep`s join through lazy hash indexes keyed on the
  pre-resolved bound-position masks (hash-join behaviour);
* fully bound probes short-circuit to set membership, answered top-down
  for IDB predicates that were never materialised — the key to O(|ΔV|)
  incremental updates (§5);
* variable bindings are flat slot arrays, not dictionaries: a compiled
  rule never hashes a variable name at run time.

A rule plan is **sealed** before its first
execution: :func:`_seal_run` / :func:`_seal_probe` generate a flat
Python function specialised to that exact rule (slots become locals and
only the ones something reads are assigned; binding masks, key
templates, ``=`` tests and ordered comparisons against an ``int``,
``float`` or ``str`` constant are inlined — any other comparison calls
:func:`_compare`'s type guard; a fully bound atom of a relation outside
the plan's IDB is one set-membership test; the step dispatch
disappears) and cache it on the plan.  Sealing is what makes
the per-transaction delta loops of the RDBMS engine and a view's first
read over a large base cheap — the same immutable plan is shared by
every thread of the parallel sharded engine, so one seal pays off
across all shards.  Sealed code is the only tier: the *generic*
interpreter, which walks a rule plan's step tuple with a recursive
cursor, is the test suite's reference (``tests/_generic_tier.py``), and
the differential tests run every rule through both.

A putback run — the engine's ``∂put`` or full putback, and
:meth:`~repro.core.strategy.UpdateStrategy.put` — is one call of
:func:`execute_deltas`, and code is sealed per plan as well as per
rule: the first run of a plan for a set of target relations generates
one function (:func:`_seal_putback`) that checks every ⊥-rule up to its
first witness, then runs each wanted delta goal's rules inline and
returns ``{relation: (insertions, deletions)}``.  A plan context is
built only when one of those rules reads an IDB predicate (Appendix C's
``v__nu``), which keeps the context's top-down dispatch.

Semantics are set-based, matching §3.1.  The historical entry points
(:func:`evaluate`, :func:`evaluate_query`,
:func:`constraint_violations`) are kept as thin wrappers
that compile (with memoization) and execute; long-lived callers such as
the RDBMS engine hold plans directly and skip the compile step
entirely.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Collection

from repro.datalog.ast import Program, Rule, is_delta_pred
from repro.datalog.plan import (BindStep, CompareStep, ExecutionPlan,
                                NegationStep, ProbeStep, RulePlan,
                                ScanStep, compile_program)
from repro.datalog.pretty import pretty_rule
from repro.errors import ConstraintViolation, SchemaError
from repro.relational.database import Database

__all__ = ['evaluate', 'evaluate_query', 'constraint_violations', 'execute_plan',
           'execute_goal', 'execute_constraints', 'execute_deltas',
           'IndexedRelation']

Row = tuple


class IndexedRelation:
    """A relation with lazily built hash indexes per bound-position mask.

    Fully-bound probes short-circuit to set membership so they never pay
    an index build.  Instances can be *persistent* (owned by the RDBMS
    engine and shared across evaluations): :meth:`update` /
    :meth:`difference_update` apply a delta's rows in one call and keep
    every built index consistent, so repeated incremental updates pay
    O(|Δ| · #indexes), not O(|R|).

    Index layout (compact: most buckets of a persistent index hold one
    row): a mask's index maps the row's values at the mask — the bare
    value for one position, a tuple for several, what
    ``operator.itemgetter`` yields — to its bucket, which has one of
    three shapes, each iterating in insertion order:

    * one row: the bare row itself;
    * several rows never deleted from: a ``list`` (the shape a build,
      a load and an insert-only relation keep);
    * several rows after a delete: a ``dict`` keyed by row (values
      ``None``).  A list becomes one on its first delete — O(bucket),
      once — and every delete from it is then O(1).

    A bucket shrinking to one row collapses back to the bare row."""

    __slots__ = ('rows', '_indexes')

    def __init__(self, rows):
        self.rows = rows
        # mask -> (key getter, {key: row | [row, ...] | {row: None, ...}})
        self._indexes: dict[tuple[int, ...], tuple] = {}

    def contains(self, row: tuple) -> bool:
        return row in self.rows

    def ensure_index(self, positions: tuple[int, ...]) -> tuple | None:
        """Build the hash index for ``positions`` now, unless it exists,
        and return its ``(key getter, {key: bucket})`` entry (``None``
        for no positions).  The engine calls this ahead of time for
        every mask a view's compiled plan declares."""
        entry = self._indexes.get(positions)
        if entry is not None or not positions:
            return entry
        key_of = itemgetter(*positions)
        index: dict = {}
        setdefault = index.setdefault
        for row in self.rows:
            key = key_of(row)
            bucket = setdefault(key, row)
            if bucket is not row:
                # :meth:`update`'s growth, less the dict shape a build
                # never makes: on a two-valued column nearly every row
                # lands here.
                if bucket.__class__ is list:
                    bucket.append(row)
                else:
                    index[key] = [bucket, row]
        entry = self._indexes[positions] = (key_of, index)
        return entry

    def lookup(self, positions: tuple[int, ...], key: tuple
               ) -> Collection[Row]:
        """Rows whose values at ``positions`` equal ``key``, in
        insertion order (the live bucket: do not mutate the relation
        while iterating it)."""
        if not positions:
            return self.rows
        entry = self._indexes.get(positions) or self.ensure_index(positions)
        bucket = entry[1].get(key[0] if len(positions) == 1 else key)
        if bucket is None:
            return ()
        if bucket.__class__ is list or bucket.__class__ is dict:
            return bucket
        return (bucket,)

    def exists(self, positions: tuple[int, ...], key: tuple,
               arity: int) -> bool:
        """Is there a row matching ``key`` at ``positions``?"""
        if len(positions) == arity:
            return tuple(key) in self.rows
        return bool(self.lookup(positions, key))

    # -- persistent-mode mutation (requires ``rows`` to be a set) -------

    def update(self, rows) -> None:
        """Add every row of ``rows`` (a set) not stored yet, keeping
        every index current: one call per delta, O(|rows| · #indexes)."""
        stored = self.rows
        indexes = self._indexes.values()
        if not indexes:
            stored.update(rows)
            return
        for row in rows:
            if row in stored:
                continue
            stored.add(row)
            for key_of, index in indexes:
                key = key_of(row)
                bucket = index.setdefault(key, row)
                if bucket is row:
                    continue
                if bucket.__class__ is list:
                    bucket.append(row)
                elif bucket.__class__ is dict:
                    bucket[row] = None
                else:
                    index[key] = [bucket, row]

    def difference_update(self, rows) -> None:
        """Remove every stored row of ``rows`` (a set), keeping every
        index current: one call per delta, O(|rows| · #indexes)."""
        stored = self.rows
        indexes = self._indexes.values()
        if not indexes:
            stored.difference_update(rows)
            return
        for row in rows:
            if row not in stored:
                continue
            stored.discard(row)
            for key_of, index in indexes:
                key = key_of(row)
                bucket = index[key]
                if bucket.__class__ is list:
                    # First delete from this bucket: re-key it by row,
                    # once.
                    bucket = index[key] = dict.fromkeys(bucket)
                if bucket.__class__ is dict:
                    del bucket[row]
                    if len(bucket) == 1:
                        index[key], = bucket
                else:
                    del index[key]

    def clear(self) -> None:
        """Drop every row and every index in place — whoever still
        holds this handle holds nothing."""
        self.rows = frozenset()
        self._indexes = {}


def _compare(op: str, left, right) -> bool:
    """Evaluate a builtin comparison, guarding against cross-type compares."""
    if op == '=':
        return left == right
    numeric = (int, float)
    if isinstance(left, bool) or isinstance(right, bool):
        raise SchemaError('booleans are not comparable domain values')
    if isinstance(left, numeric) and isinstance(right, numeric):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        raise SchemaError(
            f'cannot compare {left!r} with {right!r}: mixed types')
    if op == '<':
        return left < right
    if op == '>':
        return left > right
    if op == '<=':
        return left <= right
    if op == '>=':
        return left >= right
    raise SchemaError(f'unknown comparison operator {op!r}')


class _PlanContext:
    """Shared relation store for one plan execution.

    Accepts a :class:`Database` or a plain ``{name: rows}`` mapping whose
    values may be sets/frozensets or pre-indexed :class:`IndexedRelation`
    objects (the RDBMS engine shares its persistent indexes this way).

    IDB relations are materialised *on demand*: a scan of a predicate
    materialises it (and its dependencies), while fully-bound probes of
    an unmaterialised predicate are answered top-down without
    materialising anything.  An input that is not yet an
    :class:`IndexedRelation` is wrapped in one on its first read, so a
    run that scans its delta sets directly never pays the wrap.  IDB
    names hide same-named inputs."""

    __slots__ = ('_inputs', '_store', 'plan', '_idb', '_materialized',
                 '_in_progress', '_probe_cache')

    def __init__(self, edb, plan: ExecutionPlan | None = None):
        self._inputs = edb.relations if isinstance(edb, Database) else edb
        self.plan = plan
        self._idb = idb = plan.idb if plan is not None else frozenset()
        self._store = store = {}
        for name, rows in self._inputs.items():
            if rows.__class__ is IndexedRelation and name not in idb:
                store[name] = rows
        self._materialized: set[str] = set()
        self._in_progress: set[str] = set()
        self._probe_cache: dict[tuple[str, tuple], bool] = {}

    def is_pending_idb(self, name: str) -> bool:
        return name in self._idb and name not in self._materialized

    def relation(self, name: str) -> IndexedRelation:
        rel = self._store.get(name)
        if rel is None:
            if name in self._idb:
                self.materialize(name)
                return self._store[name]
            rel = self._store[name] = IndexedRelation(
                self._inputs.get(name, frozenset()))
        return rel

    def materialize(self, name: str) -> None:
        if name in self._in_progress:
            from repro.errors import RecursionError_
            raise RecursionError_(f'cycle through predicate {name!r}')
        self._in_progress.add(name)
        try:
            rows: set[Row] = set()
            for rule_plan in self.plan.rule_plans.get(name, ()):
                _run_rule(rule_plan, self, rows)
            self._store[name] = IndexedRelation(rows)
            self._materialized.add(name)
        finally:
            self._in_progress.discard(name)

    def probe(self, name: str, row: tuple) -> bool:
        """Top-down existence check of ``name(row)`` for a pending IDB
        predicate — no materialisation.  Results are memoized for the
        lifetime of the context (the relation store is fixed during one
        plan execution), so repeated fully-bound probes of the same
        pending atom never re-run the rule plans."""
        key = (name, row)
        cached = self._probe_cache.get(key)
        if cached is not None:
            return cached
        result = False
        for rule_plan in self.plan.rule_plans.get(name, ()):
            if _probe_rule(rule_plan, self, row):
                result = True
                break
        self._probe_cache[key] = result
        return result

    def snapshot(self, names) -> Database:
        return Database({name: frozenset(self.relation(name).rows)
                         for name in names
                         if name in self._store or name in self._inputs})


# ---------------------------------------------------------------------------
# Step execution
# ---------------------------------------------------------------------------


def _run_rule(rule_plan: RulePlan, ctx: _PlanContext, out: set[Row],
              limit: int | None = None) -> None:
    """Run one compiled rule bottom-up, adding head rows to ``out``.

    With ``limit``, enumeration stops as soon as ``out`` holds that many
    rows — the early-exit mode constraint checking uses to stop at the
    first witness instead of materialising every violation."""
    sealed = rule_plan.sealed
    fn = sealed[0]
    if fn is None:
        fn = sealed[0] = _seal_run(rule_plan)
    return fn(ctx, out, limit)


def _probe_rule(rule_plan: RulePlan, ctx: _PlanContext,
                row: tuple) -> bool:
    """Top-down: can this rule derive ``row``?  Uses the probe schedule,
    compiled with every head variable pre-bound."""
    sealed = rule_plan.sealed
    fn = sealed[1]
    if fn is None:
        fn = sealed[1] = _seal_probe(rule_plan)
    return fn(ctx, row)


# ---------------------------------------------------------------------------
# Sealed execution: per-rule and per-plan generated code
# ---------------------------------------------------------------------------
#
# A sealed rule is one flat Python function: scans become ``for`` loops,
# filters become ``if`` guards, slots become locals.  A sealed putback
# run is the same pyramids, one per ⊥-rule and wanted delta rule, in one
# function per plan and target set: its inputs are read from the run's
# mapping once, and a plan context exists only for IDB reads.  The code
# mirrors the generic tier (``tests/_generic_tier.py``) statement for
# statement — including the dynamic pending-IDB dispatch for IDB atoms,
# since the same RulePlan may execute under contexts with different
# materialisation states — so the two tiers are observationally
# identical (asserted by the differential tests in
# ``tests/test_plan.py`` and ``tests/test_evaluator.py``).  One
# deliberate difference in form: a rule's outermost scan of a delta
# input (``+v`` / ``-v``, small by construction) with constants is a
# filtered loop over its rows, where the generic tier probes an index
# it would first have to build.


class _Emitter:
    """Tiny indented-source builder for the rule code generators."""

    def __init__(self, idb: frozenset):
        self.idb = idb
        self.lines: list[str] = []
        self.preamble: list[str] = []      # emitted at function start
        self.indent = 0
        self.consts: list[object] = []
        self._uniq = 0
        self._rel_memo: dict[str, tuple[str, str]] = {}
        self._index_memo: dict[tuple, str] = {}

    def emit(self, line: str) -> None:
        self.lines.append('    ' * self.indent + line)

    def const(self, value) -> str:
        """Bind ``value`` as a closure constant and return its name.
        Values are injected through the factory's arguments rather than
        ``repr`` so arbitrary Python constants round-trip exactly."""
        self.consts.append(value)
        return f'c{len(self.consts) - 1}'

    def fresh(self, prefix: str) -> str:
        self._uniq += 1
        return f'{prefix}{self._uniq}'

    def operand(self, pair) -> str:
        """A (slot, const) operand as an expression."""
        slot, const = pair
        return self.const(const) if slot < 0 else f's{slot}'

    def key_tuple(self, key) -> str:
        parts = [self.operand(pair) for pair in key]
        return '(' + ', '.join(parts) + (',)' if len(parts) == 1 else ')')

    def relation(self, pred: str) -> str:
        """The memoised relation handle for ``pred``: fetched at this
        step position on first reach (the same laziness as the generic
        tier — an unreached step never materialises), then reused by
        every later iteration and every deeper step.  A relation the
        context already stores is read from its store; only a missing
        one (a pending IDB predicate, an absent input) costs a call of
        ``ctx.relation``."""
        memo = self._rel_memo.get(pred)
        if memo is None:
            name = self.fresh('_r')
            memo = (name, self.const(pred))
            self._rel_memo[pred] = memo
            self.preamble.append(f'{name} = None')
        name, cname = memo
        self.emit(f'if {name} is None:')
        self.indent += 1
        self.context()
        self.emit(f'{name} = ctx._store.get({cname}) or ctx.relation({cname})')
        self.indent -= 1
        return name

    def context(self) -> None:
        """Make ``ctx``, the plan context, available at this point:
        a sealed rule is handed one."""

    def pred_const(self, pred: str) -> str:
        memo = self._rel_memo.get(pred)
        return memo[1] if memo is not None else self.const(pred)

    # What a step reads: the handle it probes, the rows it iterates.
    index = relation

    def rows(self, pred: str) -> str:
        return f'{self.relation(pred)}.rows'

    def index_keys(self, pred: str, positions: tuple[int, ...]) -> str:
        """The ``{key: bucket}`` dict of ``pred``'s hash index on
        ``positions``, fetched — the index built if missing — with the
        handle, once per call of the generated function.  A key is in
        it exactly when a row matches: a bucket is deleted with its
        last row."""
        handle, mask = self.index(pred), self.const(positions)
        name = self._index_memo.get((pred, positions))
        if name is None:
            name = self._index_memo[pred, positions] = self.fresh('_d')
            self.preamble.append(f'{name} = None')
        self.emit(f'if {name} is None:')
        self.emit(f'    {name} = ({handle}._indexes.get({mask}) or '
                  f'{handle}.ensure_index({mask}))[1]')
        return name


class _PlanEmitter(_Emitter):
    """The emitter of a sealed putback run ``fn(edb)`` of ``plan``: a
    relation outside the IDB is read from ``edb`` once, at the
    function's start (its rows; the handle itself, or an
    :class:`IndexedRelation` over the rows built at the first step that
    probes it), and an IDB predicate through ``ctx`` as in a sealed
    rule — a plan context built when the run first reaches one."""

    def __init__(self, plan: ExecutionPlan):
        super().__init__(plan.idb)
        self.plan = plan
        self._inputs: dict[str, tuple[str, str]] = {}
        self.indexed = self.const(IndexedRelation)
        self.empty = self.const(frozenset())
        self._new_context = None

    def context(self) -> None:
        if self._new_context is None:
            self.preamble.insert(0, 'ctx = None')
            self._new_context = (f'{self.const(_PlanContext)}(edb, '
                                 f'{self.const(self.plan)})')
        self.emit('if ctx is None:')
        self.emit(f'    ctx = {self._new_context}')

    def _input(self, pred: str) -> tuple[str, str]:
        names = self._inputs.get(pred)
        if names is None:
            handle, rows = names = self._inputs[pred] = \
                self.fresh('_i'), self.fresh('_x')
            self.preamble += [
                f'{handle} = edb.get({self.const(pred)}, {self.empty})',
                f'{rows} = {handle}.rows if {handle}.__class__ is '
                f'{self.indexed} else {handle}']
        return names

    def index(self, pred: str) -> str:
        if pred in self.idb:
            return self.relation(pred)
        handle, rows = self._input(pred)
        self.emit(f'if {handle}.__class__ is not {self.indexed}:')
        self.emit(f'    {handle} = {self.indexed}({rows})')
        return handle

    def rows(self, pred: str) -> str:
        if pred in self.idb:
            return super().rows(pred)
        return self._input(pred)[1]


def _reads(steps, operands=()) -> set[int]:
    """The slots ``steps`` (and the extra ``(slot, const)``
    ``operands``) read: a slot nothing reads is never assigned."""
    pairs = list(operands)
    for step in steps:
        cls = step.__class__
        if cls is CompareStep:
            pairs += (step.left, step.right)
        elif cls is BindStep:
            pairs.append(step.source)
        else:
            pairs += step.key
    return {slot for slot, _ in pairs if slot >= 0}


#: Constant classes an ordered comparison compares inline: a value of
#: the class ``_compare`` accepts against it compares directly.
_INLINE_ORDER = {int: ('int', 'float'), float: ('int', 'float'),
                 str: ('str',)}


def _comparison(em: _Emitter, step: CompareStep) -> str:
    """The test of a :class:`CompareStep` as an expression.  An ordered
    comparison of a slot against an ``int``, ``float`` or ``str``
    constant runs inline behind a class test; any other value (a
    ``bool``, a subclass, a mixed type) goes to :func:`_compare`, which
    decides — and raises — as always."""
    left, right = em.operand(step.left), em.operand(step.right)
    if step.op == '=':
        return f'{left} {"==" if step.expect else "!="} {right}'
    call = f'_compare({em.const(step.op)}, {left}, {right})'
    (ls, lc), (rs, rc) = step.left, step.right
    slot, const = (ls, rc) if rs < 0 <= ls else (rs, lc) if ls < 0 <= rs \
        else (None, None)
    classes = _INLINE_ORDER.get(const.__class__)
    if slot is not None and classes:
        guard = ' or '.join(f's{slot}.__class__ is {name}'
                            for name in classes)
        call = f'({left} {step.op} {right} if {guard} else {call})'
    return call if step.expect else f'not {call}'


def _index_key(em: _Emitter, key) -> str:
    """A key of an index's dict: the bare value for one position."""
    return em.key_tuple(key) if len(key) > 1 else em.operand(key[0])


def _emit_steps(em: _Emitter, steps, success: str, reads: set) -> None:
    """Generate the nested loop/guard pyramid for ``steps``; the
    ``success`` snippet runs at full depth once per satisfying
    binding.  Mirrors the generic tier's step semantics exactly; only
    slots in ``reads`` are assigned, a fully bound atom of a predicate
    outside the rule's IDB is a plain membership test, and a partly
    bound scan or membership test reads its index's dict
    (:meth:`_Emitter.index_keys`) inline: a bucket, or a key test.  The
    first step, a scan of a delta input on some positions, filters its
    rows in the loop instead (the generic tier's index would be built
    for that one scan)."""
    for i, step in enumerate(steps):
        cls = step.__class__
        if cls is ScanStep:
            row = em.fresh('_t')
            filtered = i == 0 and step.positions \
                and is_delta_pred(step.pred) and step.pred not in em.idb
            if step.positions and not filtered:
                # ``IndexedRelation.lookup``'s bucket shapes: a list, a
                # dict, or one bare row.
                keys = em.index_keys(step.pred, step.positions)
                bucket = em.fresh('_b')
                em.emit(f'{bucket} = {keys}.get({_index_key(em, step.key)})')
                em.emit(f'if {bucket} is not None:')
                em.indent += 1
                source = (f'{bucket} if {bucket}.__class__ is list or '
                          f'{bucket}.__class__ is dict else ({bucket},)')
            else:
                source = em.rows(step.pred)
            em.emit(f'for {row} in {source}:')
            em.indent += 1
            if filtered:
                test = ' or '.join(f'{row}[{pos}] != {em.operand(pair)}'
                                   for pos, pair in zip(step.positions,
                                                        step.key))
                em.emit(f'if {test}:')
                em.emit('    continue')
            for a, b in step.checks:
                em.emit(f'if {row}[{a}] != {row}[{b}]:')
                em.indent += 1
                em.emit('continue')
                em.indent -= 1
            for pos, slot in step.free:
                if slot in reads:
                    em.emit(f's{slot} = {row}[{pos}]')
        elif cls is ProbeStep or cls is NegationStep:
            negated = cls is NegationStep
            test = 'not in' if negated else 'in'
            if len(step.positions) != step.arity:
                if step.positions:
                    keys = em.index_keys(step.pred, step.positions)
                    em.emit(f'if {_index_key(em, step.key)} {test} {keys}:')
                else:                       # every column a wildcard
                    em.emit(f'if {"not " * negated}{em.rows(step.pred)}:')
                em.indent += 1
                continue
            if step.pred not in em.idb:
                rows = em.rows(step.pred)
                em.emit(f'if {em.key_tuple(step.key)} {test} {rows}:')
                em.indent += 1
                continue
            # Fully bound membership, answered top-down while the
            # predicate is pending.  The pending check runs per reach
            # (an earlier step may have materialised the predicate
            # mid-run), but the relation handle is memoised once the
            # materialised branch is taken.
            pred = em.pred_const(step.pred)
            key = em.fresh('_k')
            em.emit(f'{key} = {em.key_tuple(step.key)}')
            em.context()
            em.emit(f'if ctx.is_pending_idb({pred}):')
            em.indent += 1
            em.emit(f'{key} = ctx.probe({pred}, {key})')
            em.indent -= 1
            em.emit('else:')
            em.indent += 1
            em.emit(f'{key} = {key} in {em.rows(step.pred)}')
            em.indent -= 1
            em.emit(f'if not {key}:' if negated else f'if {key}:')
            em.indent += 1
        elif cls is CompareStep:
            em.emit(f'if {_comparison(em, step)}:')
            em.indent += 1
        elif step.slot in reads:                # BindStep
            em.emit(f's{step.slot} = {em.operand(step.source)}')
    em.emit(success)


@lru_cache(maxsize=1024)
def _factory_code(source: str):
    """Compile generated factory source.  Constants and predicate names
    are factory arguments, so every rule of one shape — the same rule
    sealed again in another plan, most often — compiles once."""
    return compile(source, '<sealed>', 'exec')


def _compile_factory(em: _Emitter, name: str, signature: str,
                     label: str) -> object:
    """exec() the generated ``name`` function and bind its constants."""
    source = '\n'.join(
        [f'def _make(_compare, {", ".join(f"c{i}" for i in range(len(em.consts)))}):',
         f'    def {name}({signature}):'] +
        ['        ' + line for line in em.preamble] +
        ['        ' + line for line in em.lines] +
        [f'    return {name}'])
    namespace: dict = {}
    exec(_factory_code(source), namespace)
    function = namespace['_make'](_compare, *em.consts)
    # Tracebacks and profiles still name the rule.
    function.__code__ = function.__code__.replace(
        co_filename=f'<sealed {label}>')
    return function


def _count_seal() -> None:
    """Tick the process-wide ``plan.seals`` counter.  Imported lazily:
    sealing is a once-per-rule event, and a module-level import of
    rdbms.metrics from here would cycle through the rdbms package."""
    from repro.rdbms.metrics import GLOBAL
    GLOBAL.counter('plan.seals')


def _seal_run(rule_plan: RulePlan):
    """Generate the bottom-up executor for one rule plan:
    ``fn(ctx, out, limit)`` adding head rows to ``out``."""
    _count_seal()
    em = _Emitter(rule_plan.idb)
    em.preamble.append('_add = out.add')
    head = em.key_tuple(rule_plan.head)
    _emit_steps(em, rule_plan.steps, f'_add({head})',
                _reads(rule_plan.steps, rule_plan.head))
    em.emit('if limit is not None and len(out) >= limit:')
    em.indent += 1
    em.emit('return')
    return _compile_factory(em, '_run', 'ctx, out, limit',
                            str(rule_plan.rule))


def _seal_probe(rule_plan: RulePlan):
    """Generate the top-down prober for one rule plan:
    ``fn(ctx, row) -> bool``."""
    _count_seal()
    em = _Emitter(rule_plan.idb)
    steps = rule_plan.probe_steps
    reads = _reads(steps) | {slot for _, slot in rule_plan.match_checks}
    for pos, value in rule_plan.match_consts:
        em.emit(f'if row[{pos}] != {em.const(value)}:')
        em.indent += 1
        em.emit('return False')
        em.indent -= 1
    for pos, slot in rule_plan.match_binds:
        if slot in reads:
            em.emit(f's{slot} = row[{pos}]')
    for pos, slot in rule_plan.match_checks:
        em.emit(f'if row[{pos}] != s{slot}:')
        em.indent += 1
        em.emit('return False')
        em.indent -= 1
    base_indent = em.indent
    _emit_steps(em, steps, 'return True', reads)
    em.indent = base_indent
    em.emit('return False')
    return _compile_factory(em, '_probe', 'ctx, row',
                            str(rule_plan.rule))


def _seal_putback(plan: ExecutionPlan, relations: frozenset, check: bool):
    """Generate one putback run of ``plan`` for the delta goals that
    target ``relations``: ``fn(edb) -> {relation: (insertions,
    deletions)}``, relations in sorted order and each with a row.  With
    ``check``, every ⊥-rule runs first and its first witness raises
    :class:`ConstraintViolation`; each rule is one pyramid of
    :func:`_emit_steps` at the function's top level."""
    _count_seal()
    em = _PlanEmitter(plan)

    def emit_rule(rule_plan: RulePlan, success: str) -> None:
        _emit_steps(em, rule_plan.steps, success.format(
            em.key_tuple(rule_plan.head)),
            _reads(rule_plan.steps, rule_plan.head))
        em.indent = 0

    for constraint in plan.constraint_plans if check else ():
        emit_rule(constraint.rule_plan,
                  f'raise {em.const(ConstraintViolation)}('
                  f'{em.const(pretty_rule(constraint.rule))}, {{}})')
    pairs: dict[str, list[str]] = {}
    for goal, relation, insertion in plan.delta_targets:
        if relation in relations:
            out = em.fresh('_o')
            em.preamble += [f'{out} = set()', f'{out}_add = {out}.add']
            pairs.setdefault(relation, [em.empty, em.empty])[
                not insertion] = out
            for rule_plan in plan.rule_plans[goal]:
                emit_rule(rule_plan, f'{out}_add({{}})')
    em.emit('out = {}')
    for relation in sorted(pairs):
        insertions, deletions = pairs[relation]
        em.emit(f'if {insertions} or {deletions}:')
        em.emit(f'    out[{em.const(relation)}] = '
                f'({insertions}, {deletions})')
    em.emit('return out')
    return _compile_factory(em, '_putback', 'edb',
                            f'putback of {", ".join(sorted(pairs))}')


# ---------------------------------------------------------------------------
# Plan-level execution
# ---------------------------------------------------------------------------


def execute_plan(plan: ExecutionPlan, edb, *, goals=None) -> Database:
    """Run a compiled plan over ``edb`` and return the IDB relations.

    With ``goals`` given, only those predicates (and what they demand)
    are materialised — auxiliary predicates that are only probed with
    fully bound arguments are answered top-down and never computed
    wholesale.
    """
    ctx = _PlanContext(edb, plan)
    idb = plan.idb
    for pred in (goals if goals is not None else plan.order):
        if pred in idb and ctx.is_pending_idb(pred):
            ctx.materialize(pred)
    names = goals if goals is not None else plan.order
    return ctx.snapshot(names)


def execute_goal(plan: ExecutionPlan, edb, goal: str) -> set:
    """Materialise one predicate of ``plan`` over ``edb`` and hand over
    its rows: the set the rules built, not a copy — the caller owns it
    (empty when no rule defines ``goal``)."""
    if goal not in plan.idb:
        return set()
    return _PlanContext(edb, plan).relation(goal).rows


def execute_constraints(plan: ExecutionPlan, edb, *,
                        first_witness: bool = False
                        ) -> list[tuple[Rule, tuple]]:
    """Evaluate the plan's compiled ⊥-rules over ``edb`` and return
    ``(rule, witness_row)`` pairs for each violated constraint.

    Nothing is materialised eagerly: constraint bodies demand exactly
    what they need (fully bound auxiliaries are just probed).  With
    ``first_witness``, each rule's enumeration stops at its first
    witness and the whole check stops at the first violated rule — the
    short-circuit a putback run's check makes (:func:`execute_deltas`),
    at the cost of a search-order-dependent (rather than canonical)
    witness row.
    """
    if not plan.constraint_plans:
        return []
    ctx = _PlanContext(edb, plan)
    violations: list[tuple[Rule, tuple]] = []
    for constraint in plan.constraint_plans:
        rows: set[Row] = set()
        _run_rule(constraint.rule_plan, ctx, rows,
                  limit=1 if first_witness else None)
        if rows:
            if first_witness:
                violations.append((constraint.rule, next(iter(rows))))
                return violations
            # key=repr: witness columns may mix value types.
            violations.append((constraint.rule, min(rows, key=repr)))
    return violations


def execute_deltas(plan: ExecutionPlan, edb, relations, *,
                   check: bool = True) -> dict:
    """One putback run — ``∂put`` or the full putback — over ``edb``:
    ``{relation: (insertions, deletions)}`` for each of ``relations``
    the plan's delta goals write a row of, in sorted order (the rows of
    a goal the plan does not have are an empty ``frozenset``).  With
    ``check``, the plan's ⊥-rules run first and the first witness of
    the first violated rule raises :class:`ConstraintViolation` (the
    rule text and witness :func:`execute_constraints` reports with
    ``first_witness``).  The run is one function sealed for the plan
    and ``(relations, check)`` at its first call
    (:func:`_seal_putback`); the goals of other relations (a derived
    program's auxiliary ``+__bN``) are never run."""
    key = (frozenset(relations), check)
    run = plan.sealed.get(key)
    if run is None:
        run = plan.sealed[key] = _seal_putback(plan, *key)
    return run(edb.relations if isinstance(edb, Database) else edb)


# ---------------------------------------------------------------------------
# Historical entry points (compile-and-run wrappers)
# ---------------------------------------------------------------------------


def evaluate(program: Program, edb, *,
             check_safety: bool = True, goals=None) -> Database:
    """Evaluate ``program`` over ``edb`` and return IDB relations.

    ``edb`` may be a :class:`Database`, a plain ``{name: rows}`` mapping,
    or a mapping holding pre-indexed :class:`IndexedRelation` values.
    With ``goals`` given, only those predicates (and what they demand) are
    materialised.  Constraint rules are ignored here (see
    :func:`constraint_violations`).  EDB relations named like IDB
    predicates are shadowed by the computed IDB values, as in standard
    Datalog semantics.

    Compilation is memoized: repeated calls with an equal program reuse
    one :class:`~repro.datalog.plan.ExecutionPlan`.
    """
    plan = compile_program(program, check_safety=check_safety)
    return execute_plan(plan, edb, goals=goals)


def evaluate_query(program: Program, edb: Database, goal: str) -> frozenset:
    """Evaluate the Datalog query ``(program, goal)`` (§2.1)."""
    return evaluate(program, edb)[goal]


def constraint_violations(program: Program, edb
                          ) -> list[tuple[Rule, tuple]]:
    """Evaluate every constraint (⊥) rule of ``program`` over ``edb``
    (after computing what the constraint bodies demand) and return
    ``(rule, witness_binding_row)`` pairs for each violated constraint.

    A constraint ``⊥ :- body`` is violated when its body is satisfiable in
    the instance; the returned witness row holds the values of the body's
    variables in sorted name order.
    """
    plan = compile_program(program)
    return execute_constraints(plan, edb)
