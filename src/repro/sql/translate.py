"""Translation of nonrecursive Datalog queries to SQL (§6.1).

Nonrecursive Datalog with negation maps onto SQL directly.  Each rule
becomes a ``SELECT DISTINCT`` with

* one ``FROM`` alias per positive body atom over a stored or staged
  relation, listed in the join order the plan compiler would run
  (:func:`repro.datalog.plan.schedule_static` — staged deltas
  ``+v``/``-v``, statically small, first) and joined with the dialect's
  separator: ``CROSS JOIN`` on SQLite, which its planner documents as
  order-preserving, so the delta drives the loop and stored relations
  are probed through their keys and indexes;
* ``WHERE`` equalities for join variables / constants;
* builtin predicates as comparisons; and
* ``NOT EXISTS`` subqueries for negated atoms (unbound anonymous
  variables inside a negated atom simply contribute no condition —
  the ¬∃ semantics).

An auxiliary (IDB) predicate ``p`` is unfolded at its use site wherever
SQL can probe instead of materialise:

* ``not p(...)`` becomes one correlated ``NOT EXISTS`` over the body of
  each rule defining ``p`` (¬(∃b₁ ∨ ∃b₂) = ¬∃b₁ ∧ ¬∃b₂) with the rule's
  head bound by the enclosing row, recursively;
* a positive ``p(...)`` all of whose variables shared with the head or
  another literal are bound by a ``FROM`` item becomes a correlated
  ``EXISTS`` semi-join the same way (under ``SELECT DISTINCT`` join and
  semi-join agree);
* a positive ``p(...)`` that has to *bind* such a variable is read from
  ``FROM`` as a CTE holding the ``UNION`` of ``p``'s rules.

The ``WITH`` clause of a statement holds exactly the CTEs it still
reads, and only the goal's dependency cone is lowered at all, so
per-goal queries (one per delta relation, one per constraint) stay
independent and minimal.

Column naming uses the relation schema when available and ``c0..cN``
otherwise; relation and column names are always rendered as quoted
identifiers (a relation may be called ``order``).  Two output dialects
are supported: PostgreSQL (the paper's target, the default) and SQLite
(the storage backend of :mod:`repro.rdbms.backends.sqlite`, which
executes compiled plans as SQL).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from repro.datalog.ast import (Atom, BuiltinLit, Const, Lit, Program, Rule,
                               Var, delta_base, is_anonymous)
from repro.datalog.dependency import stratify
from repro.datalog.plan import schedule_static
from repro.errors import TransformationError
from repro.relational.schema import DatabaseSchema

__all__ = ['SqlDialect', 'POSTGRES', 'SQLITE', 'sql_literal', 'sql_ident',
           'quote_ident', 'sql_table', 'rule_to_select', 'query_to_sql',
           'constraint_witness', 'constraint_to_sql', 'plan_to_sql',
           'ColumnNamer']


@dataclass(frozen=True)
class SqlDialect:
    """The few rendering choices that differ between target engines."""

    name: str
    true_literal: str = 'TRUE'
    false_literal: str = 'FALSE'
    #: Separator of ``FROM`` items.  They are listed in the planner's
    #: join order; an engine that re-orders joins from statistics of
    #: its own (PostgreSQL analyses its temp tables) gets the plain
    #: comma, one that has none gets a join keyword it honours.
    join: str = ', '


POSTGRES = SqlDialect('postgresql')
#: SQLite has no boolean literals before 3.23 and stores 1/0 regardless;
#: it never re-orders the operands of a ``CROSS JOIN``.
SQLITE = SqlDialect('sqlite', true_literal='1', false_literal='0',
                    join=' CROSS JOIN ')

def sql_literal(value, dialect: SqlDialect = POSTGRES) -> str:
    """Render a constant as a SQL literal.

    Booleans render per dialect (``TRUE`` on PostgreSQL, ``1`` on
    SQLite) and must be tested before ints — ``bool`` is an ``int``
    subclass.  ``None`` renders as ``NULL``.
    """
    if value is None:
        return 'NULL'
    if isinstance(value, bool):
        return dialect.true_literal if value else dialect.false_literal
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def sql_ident(name: str) -> str:
    """A predicate name as the name of its SQL relation (delta prefixes
    become readable name parts)."""
    if name.startswith('+'):
        return f'delta_ins_{name[1:]}'
    if name.startswith('-'):
        return f'delta_del_{name[1:]}'
    return name


def quote_ident(name: str) -> str:
    """``name`` as a quoted SQL identifier: keywords (``order``,
    ``group``) and mixed case are legal relation and column names."""
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def sql_table(pred: str) -> str:
    """The quoted SQL relation name of predicate ``pred``."""
    return quote_ident(sql_ident(pred))


class ColumnNamer:
    """Column names per relation: schema attributes when known.

    ``extra`` maps predicate names to explicit column tuples; a delta
    predicate (``+v``/``-v``) inherits the columns of its base relation
    from either source, so the staged delta tables of the SQLite backend
    line up with the compiled queries by construction.
    """

    def __init__(self, schema: DatabaseSchema | None = None,
                 extra: dict[str, tuple[str, ...]] | None = None):
        self.schema = schema
        self.extra = extra or {}

    def columns(self, pred: str, arity: int) -> tuple[str, ...]:
        if pred in self.extra:
            return self.extra[pred]
        base = delta_base(pred)
        if base in self.extra:
            return self.extra[base]
        if self.schema is not None and base in self.schema:
            return self.schema[base].attributes
        return tuple(f'c{i}' for i in range(arity))


def _bind_equalities(body, exprs: dict[str, str],
                     dialect: SqlDialect) -> None:
    """Positive equalities bind further variables (``X = 'a'``,
    ``X = Y``): complete ``exprs`` to its closure under them."""
    changed = True
    while changed:
        changed = False
        for literal in body:
            if not isinstance(literal, BuiltinLit) or literal.op != '=' \
                    or not literal.positive:
                continue
            left, right = literal.left, literal.right
            for a, b in ((left, right), (right, left)):
                if isinstance(a, Var) and a.name not in exprs:
                    if isinstance(b, Const):
                        exprs[a.name] = sql_literal(b.value, dialect)
                        changed = True
                    elif b.name in exprs:
                        exprs[a.name] = exprs[b.name]
                        changed = True


def _where(conditions: list[str]) -> str:
    return ' WHERE ' + ' AND '.join(conditions) if conditions else ''


class _Lowering:
    """The lowering of one SQL statement: the constraint-free program
    defining its IDB predicates, naming, dialect, the counter that
    keeps every ``FROM`` alias of the statement distinct (subqueries
    are standardised apart from the rows they correlate with), and the
    IDB predicates the statement reads as CTEs."""

    def __init__(self, program: Program, namer: ColumnNamer,
                 dialect: SqlDialect):
        self.program = program
        self.namer = namer
        self.dialect = dialect
        self.idb = frozenset(program.idb_preds())
        self.order = stratify(program)     # also rejects recursion
        self.ctes: set[str] = set()
        self._aliases = itertools.count()

    # -- statements -----------------------------------------------------

    def statement(self, select: str) -> str:
        """``select`` under a ``WITH`` clause of exactly the CTEs it
        reads (lowering a CTE's body may reference further ones)."""
        bodies: dict[str, str] = {}
        while self.ctes - bodies.keys():
            for pred in sorted(self.ctes - bodies.keys()):
                bodies[pred] = self.union(pred)
        if not bodies:
            return select
        with_items = ',\n'.join(
            f'{sql_table(pred)} AS (\n{bodies[pred]}\n)'
            for pred in self.order if pred in bodies)
        return f'WITH {with_items}\n{select}'

    def union(self, pred: str) -> str:
        """The ``UNION`` of the rules defining IDB predicate ``pred``."""
        rules = self.program.rules_for(pred)
        columns = self.namer.columns(pred, rules[0].head.arity)
        return '\nUNION\n'.join(self.select(rule, columns)
                                for rule in rules)

    def select(self, rule: Rule,
               head_columns: tuple[str, ...] | None = None) -> str:
        """One rule as a ``SELECT DISTINCT`` statement."""
        exprs: dict[str, str] = {}
        sources, conditions = self._body(rule, exprs)
        if head_columns is None:
            head_columns = tuple(f'c{i}' for i in range(rule.head.arity))
        select_items = []
        for col, term in zip(head_columns, rule.head.args):
            expr = self._term(term, exprs)
            if expr is None:
                raise TransformationError(
                    f'head term {term} of rule {rule} is unbound')
            select_items.append(f'{expr} AS {quote_ident(col)}')
        select = 'SELECT DISTINCT ' + ', '.join(select_items)
        if sources:
            select += '\n  FROM ' + self.dialect.join.join(sources)
        if conditions:
            select += '\n  WHERE ' + '\n    AND '.join(conditions)
        return select

    # -- rule bodies ----------------------------------------------------

    def _table(self, pred: str) -> str:
        if pred in self.idb:
            self.ctes.add(pred)
        return sql_table(pred)

    def _term(self, term, exprs: dict[str, str]) -> str | None:
        if isinstance(term, Const):
            return sql_literal(term.value, self.dialect)
        return exprs.get(term.name)

    def _joined(self, rule: Rule, bound) -> set[int]:
        """Which positive literals of ``rule`` (by ``id``) become
        ``FROM`` items: every atom over a stored or staged relation,
        plus each IDB atom that has to *bind* a variable the head or
        another literal reads — the others are semi-joins
        (:meth:`_membership`).  ``_anon*`` names count like any other:
        machine-derived rules carry them into heads."""
        positives = [l for l in rule.body
                     if isinstance(l, Lit) and l.positive]
        joined = [l for l in positives if l.atom.pred not in self.idb]
        semi = [l for l in positives if l.atom.pred in self.idb]
        if semi:
            uses = Counter(var.name
                           for part in (rule.head, *rule.body)
                           if part is not None for var in part.variables())
        while semi:
            known = dict.fromkeys(bound, '')
            for literal in joined:
                known.update(dict.fromkeys(literal.var_names(), ''))
            _bind_equalities(rule.body, known, self.dialect)
            binder = next((l for l in semi
                           if any(name not in known and uses[name] > 1
                                  for name in l.var_names())), None)
            if binder is None:
                break
            semi.remove(binder)
            joined.append(binder)
        return {id(l) for l in joined}

    def _body(self, rule: Rule,
              exprs: dict[str, str]) -> tuple[list[str], list[str]]:
        """The ``FROM`` items and ``WHERE`` conditions of ``rule``'s
        body.  ``exprs`` maps the variables the enclosing row already
        binds (none at the top level) to SQL expressions and is
        completed in place."""
        joined = self._joined(rule, exprs)
        sources: list[str] = []
        conditions: list[str] = []
        # FROM lists the joins in the order the plan compiler would run
        # them — staged deltas outermost — and the dialect's join
        # keyword makes the engine keep it.
        for literal in schedule_static(rule.body, frozenset(exprs),
                                       self.idb):
            if id(literal) not in joined:
                continue
            atom = literal.atom
            alias = f't{next(self._aliases)}'
            sources.append(f'{self._table(atom.pred)} {alias}')
            cols = self.namer.columns(atom.pred, atom.arity)
            for col, term in zip(cols, atom.args):
                place = f'{alias}.{quote_ident(col)}'
                if isinstance(term, Const):
                    conditions.append(
                        f'{place} = {sql_literal(term.value, self.dialect)}')
                elif term.name in exprs:
                    conditions.append(f'{exprs[term.name]} = {place}')
                else:
                    exprs[term.name] = place
        _bind_equalities(rule.body, exprs, self.dialect)
        for literal in rule.body:
            if isinstance(literal, BuiltinLit):
                conditions += self._comparison(literal, exprs, rule)
            elif id(literal) not in joined:
                conditions.append(self._membership(literal, exprs, rule))
        return sources, conditions

    def _comparison(self, literal: BuiltinLit, exprs: dict[str, str],
                    rule: Rule) -> list[str]:
        left = self._term(literal.left, exprs)
        right = self._term(literal.right, exprs)
        if left is None or right is None:
            raise TransformationError(
                f'builtin {literal} has an unbound operand in rule {rule}')
        if literal.op == '=' and literal.positive and left == right:
            return []  # tautology introduced by the expression map
        clause = f'{left} {literal.op} {right}'
        return [clause if literal.positive else f'NOT ({clause})']

    def _membership(self, literal: Lit, exprs: dict[str, str],
                    rule: Rule) -> str:
        """A negated atom, or a positive IDB atom that binds nothing,
        as (``NOT``) ``EXISTS`` — over the relation itself, or for an
        IDB predicate over the body of each rule defining it
        (¬(∃b₁ ∨ ∃b₂) = ¬∃b₁ ∧ ¬∃b₂), correlated with this row."""
        atom = literal.atom
        args: list[str | None] = []        # None matches anything
        for term in atom.args:
            expr = self._term(term, exprs)
            if expr is None and not literal.positive \
                    and not is_anonymous(term):
                raise TransformationError(
                    f'negated atom {atom} has unbound variable {term} '
                    f'in rule {rule}')
            args.append(expr)
        if atom.pred in self.idb:
            subqueries = [self._correlated(definition, args)
                          for definition in self.program.rules_for(atom.pred)]
        else:
            cols = self.namer.columns(atom.pred, atom.arity)
            subqueries = [f'SELECT 1 FROM {sql_table(atom.pred)} s' + _where(
                [f's.{quote_ident(col)} = {expr}'
                 for col, expr in zip(cols, args) if expr is not None])]
        if not literal.positive:
            return ' AND '.join(f'NOT EXISTS ({s})' for s in subqueries)
        exists = ' OR '.join(f'EXISTS ({s})' for s in subqueries)
        return f'({exists})' if len(subqueries) > 1 else exists

    def _correlated(self, definition: Rule,
                    args: list[str | None]) -> str:
        """``SELECT 1`` over the body of ``definition`` for the rows
        whose head matches ``args`` — the head's variables are bound by
        the enclosing row before the body is lowered."""
        exprs: dict[str, str] = {}
        conditions: list[str] = []
        for term, outer in zip(definition.head.args, args):
            if outer is None:
                continue
            inner = self._term(term, exprs)
            if inner is None:
                exprs[term.name] = outer
            else:                       # constant or repeated variable
                conditions.append(f'{inner} = {outer}')
        sources, body_conditions = self._body(definition, exprs)
        select = 'SELECT 1'
        if sources:
            select += ' FROM ' + self.dialect.join.join(sources)
        return select + _where(conditions + body_conditions)


def rule_to_select(rule: Rule, namer: ColumnNamer,
                   head_columns: tuple[str, ...] | None = None,
                   dialect: SqlDialect = POSTGRES) -> str:
    """One rule as a ``SELECT`` statement, every body predicate read as
    a relation of its own name."""
    return _Lowering(Program(()), namer, dialect).select(rule,
                                                         head_columns)


def _dependency_cone(program: Program, goals) -> Program:
    """The constraint-free subprogram transitively needed for ``goals``
    (reusing the evaluator's :func:`prune_unreachable`)."""
    from repro.datalog.transform import prune_unreachable
    return prune_unreachable(program.without_constraints(), set(goals))


def query_to_sql(program: Program, goal: str,
                 namer: ColumnNamer | None = None,
                 schema: DatabaseSchema | None = None,
                 dialect: SqlDialect = POSTGRES) -> str:
    """A complete ``[WITH ...] SELECT`` statement for a Datalog query.

    Only the goal's dependency cone is lowered, so a program defining
    many delta relations compiles into one lean query per goal — and
    rules outside the cone may contain constructs SQL lowering rejects
    without poisoning the query.
    """
    cone = _dependency_cone(program, {goal})
    if goal not in cone.idb_preds():
        raise TransformationError(f'no rules define {goal!r}')
    lowering = _Lowering(cone, namer or ColumnNamer(schema), dialect)
    return lowering.statement(lowering.union(goal))


def constraint_witness(rule: Rule, goal: str = '__viol__'
                       ) -> tuple[Rule, tuple[str, ...]]:
    """The witness-query rewrite for one ⊥-rule: a probe rule whose head
    lists the body's named variables in sorted order (the plan
    compiler's convention), plus matching ``v0..vN`` column names.

    A constraint whose variables are all anonymous still needs one
    ``SELECT`` item to be expressible in SQL — its witness head is the
    constant ``1``.
    """
    if rule.head is not None:
        raise TransformationError(f'{rule} is not a constraint rule')
    names = sorted(n for n in rule.variables() if not n.startswith('_'))
    args: tuple = tuple(Var(n) for n in names) or (Const(1),)
    head_cols = tuple(f'v{i}' for i in range(len(args)))
    return Rule(Atom(goal, args), rule.body), head_cols


def constraint_to_sql(program: Program, rule: Rule,
                      namer: ColumnNamer | None = None,
                      schema: DatabaseSchema | None = None,
                      dialect: SqlDialect = POSTGRES) -> str:
    """A witness query for one ⊥-rule of ``program``.

    The constraint body is compiled as a ``SELECT`` over the body's
    named variables (sorted, as in the plan compiler's witness rewrite);
    the ``WITH`` clause carries exactly the IDB cone the body reads.
    The query returns one row per violation witness — wrap it in
    ``EXISTS`` or fetch a row to report.
    """
    witness, head_cols = constraint_witness(rule)
    lowering = _Lowering(_dependency_cone(program, rule.body_preds()),
                         namer or ColumnNamer(schema), dialect)
    return lowering.statement(lowering.select(witness, head_cols))


def plan_to_sql(plan, goal: str,
                namer: ColumnNamer | None = None,
                schema: DatabaseSchema | None = None,
                dialect: SqlDialect = POSTGRES) -> str:
    """Lower one goal of a compiled :class:`ExecutionPlan` to SQL.

    Plans carry their source program verbatim, so the lowering runs on
    the same artifact the interpreter executes — the SQLite backend
    compiles each view's plans through this entry point exactly once, at
    ``define_view`` time, and executes the resulting text on every
    update thereafter.
    """
    return query_to_sql(plan.program, goal, namer, schema, dialect)
