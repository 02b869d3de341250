"""The Datalog→SQL lowering, *executed*: every lowered statement runs on
SQLite and must return exactly what the evaluator computes.

``tests/test_sql.py`` reads the emitted text; this file is the
differential that keeps the lowering honest while its shape changes
(auxiliary predicates unfolded into correlated subqueries, joins
re-ordered, identifiers quoted).  Three sources of programs:

* every catalog entry — its ``get``, its putback, its incrementalized
  ``∂put`` (LVGN and machine-derived general path alike) and every
  ⊥-rule — over ``random_database`` instances and a view update drawn
  from them;
* a pinned corpus of small programs, one per way an auxiliary predicate
  can be used;
* Hypothesis-generated nonrecursive programs over a tiny value domain.

One deliberate limit: SQL's ``=`` never matches ``NULL`` where the
evaluator's ``==`` matches ``None``.  The engine stores no ``None``
(``validate_tuple`` rejects it and stored tables are keyed on every
column), so rows here carry ``None`` only where no literal compares it.
"""

import random
import sqlite3

import pytest
from hypothesis import given, strategies as st

from repro.benchsuite.catalog import ALL_ENTRIES
from repro.core.incremental import incrementalize_plan
from repro.datalog.ast import Program, delete_pred, insert_pred
from repro.datalog.evaluator import evaluate
from repro.datalog.parser import parse_program
from repro.relational.generators import random_database, random_rows
from repro.sql.translate import (SQLITE, ColumnNamer, constraint_to_sql,
                                 constraint_witness, query_to_sql,
                                 quote_ident, sql_table)


def sqlite_results(program: Program, edb: dict, namer: ColumnNamer):
    """``{goal: rows}`` for every IDB predicate and ``{rule: witnesses}``
    for every ⊥-rule of ``program``, computed by running the lowered SQL
    over ``edb`` loaded into a fresh SQLite database."""
    conn = sqlite3.connect(':memory:')
    try:
        arities = program.arities()
        for pred in program.edb_preds():
            columns = namer.columns(pred, arities[pred])
            conn.execute(f'CREATE TABLE {sql_table(pred)} '
                         f'({", ".join(map(quote_ident, columns))})')
            marks = ', '.join('?' * len(columns))
            conn.executemany(
                f'INSERT INTO {sql_table(pred)} VALUES ({marks})',
                list(edb.get(pred, ())))
        goals = {goal: set(conn.execute(
                     query_to_sql(program, goal, namer, dialect=SQLITE)))
                 for goal in sorted(program.idb_preds())}
        witnesses = {rule: set(conn.execute(
                         constraint_to_sql(program, rule, namer,
                                           dialect=SQLITE)))
                     for rule in program.constraints()}
        return goals, witnesses
    finally:
        conn.close()


def evaluator_results(program: Program, edb: dict):
    """The same two mappings from :func:`evaluate` — ⊥-rules through
    their witness rewrite, as one more goal."""
    proper = program.without_constraints()
    output = evaluate(proper, edb)
    goals = {goal: set(output[goal]) for goal in program.idb_preds()}
    witnesses = {}
    for rule in program.constraints():
        probe, _cols = constraint_witness(rule, '__witness__')
        probed = evaluate(Program(proper.rules + (probe,)), edb,
                          goals=('__witness__',))
        witnesses[rule] = set(probed['__witness__'])
    return goals, witnesses


def assert_sql_agrees(program: Program, edb: dict,
                      namer: ColumnNamer | None = None) -> dict:
    got = sqlite_results(program, edb, namer or ColumnNamer())
    expected = evaluator_results(program, edb)
    assert got == expected, f'lowering disagrees on\n{program}'
    return expected[0]


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

CATALOG = [entry for entry in ALL_ENTRIES if entry.expressible]


def _updated_view(view_schema, rows: set, rng: random.Random) -> set:
    """A plausible ``V'``: some rows gone, some changed in one column,
    some brand new."""
    ordered = sorted(rows, key=repr)
    rng.shuffle(ordered)
    fresh = random_rows(view_schema, 3, rng)
    updated = set(ordered[4:]) | fresh
    for row, donor in zip(ordered[:2], sorted(fresh, key=repr)):
        position = rng.randrange(len(row))
        updated.add(row[:position] + (donor[position],)
                    + row[position + 1:])
    return updated


@pytest.mark.parametrize('entry', CATALOG, ids=lambda e: e.name)
@pytest.mark.parametrize('seed', [3, 11])
def test_catalog_programs_execute_as_evaluated(entry, seed):
    strategy = entry.strategy()
    view = strategy.view.name
    namer = ColumnNamer(strategy.sources,
                        extra={view: strategy.view.attributes})
    rng = random.Random(seed)
    base = dict(random_database(strategy.sources, entry.sizes(40),
                                seed=seed,
                                column_pools=entry.column_pools).relations)
    old_view = assert_sql_agrees(strategy.expected_get, base, namer)[view]
    new_view = _updated_view(strategy.view, old_view, rng)

    deltas = assert_sql_agrees(strategy.putdelta,
                               {**base, view: new_view}, namer)
    assert any(deltas[goal] for goal in strategy.putdelta.delta_preds()), \
        'the drawn view update should reach the base tables'

    incremental, _plan = incrementalize_plan(strategy)
    assert_sql_agrees(incremental,
                      {**base, view: old_view,
                       insert_pred(view): new_view - old_view,
                       delete_pred(view): old_view - new_view}, namer)


# ---------------------------------------------------------------------------
# One program per way of using an auxiliary predicate
# ---------------------------------------------------------------------------

SHAPES = {
    'negated': """
        aux(X, Y) :- r(X, Y), Y > 0.
        q(X, Y) :- +v(X, Y), not aux(X, Y).
    """,
    'negated with anonymous arguments': """
        aux(X, Y) :- r(X, Y).
        q(X) :- t(X), not aux(X, _).
        p(X) :- t(X), not aux(_, _).
    """,
    'positive and fully bound': """
        aux(X) :- s(X, _).
        q(X, Y) :- r(X, Y), aux(X), -v(X, Y).
    """,
    'positive and binding a head variable': """
        aux(X, Y) :- r(X, Y), not t(Y).
        q(X, Y) :- t(X), aux(X, Y).
    """,
    'positive and binding a variable a negation reads': """
        aux(X, Y) :- r(X, Y).
        q(X) :- t(X), aux(X, Y), not s(Y, X).
    """,
    'used both ways': """
        inflow(T) :- s(T, _).
        q(T, N) :- +v(T, N), not inflow(T).
        p(T, N) :- r(T, N), inflow(T), -v(T, N).
        ⊥ :- +v(T, _), not inflow(T).
    """,
    'two levels deep': """
        low(X) :- t(X), not s(X, X).
        mid(X, Y) :- r(X, Y), not low(Y).
        q(X) :- t(X), not mid(X, _).
        p(X, Y) :- +v(X, Y), mid(X, Y), low(X).
    """,
    'several rules': """
        aux(X) :- r(X, _).
        aux(X) :- s(_, X), X > 1.
        q(X) :- t(X), not aux(X).
        p(X, Y) :- +v(X, Y), aux(X), aux(Y).
    """,
    'constant in the head': """
        aux(X, 1) :- r(X, _).
        aux(X, T) :- s(X, _), T = 2.
        q(X, Y) :- +v(X, Y), not aux(X, Y).
        p(X) :- t(X), aux(X, 2).
        w(X) :- t(X), not aux(X, 1).
    """,
    'repeated variable in the head': """
        aux(X, X) :- t(X).
        q(X, Y) :- r(X, Y), not aux(X, Y).
        p(X, Y) :- r(X, Y), aux(X, Y).
        w(X) :- t(X), aux(X, _).
    """,
    'repeated variable at the use site': """
        aux(X, Y) :- r(X, Y).
        q(X) :- t(X), not aux(X, X).
        p(X) :- t(X), aux(X, X).
        w(X) :- aux(X, X).
    """,
    'underscore-named variable reaching a head': """
        aux(X, _y) :- r(X, _y).
        q(X, _y) :- t(X), aux(X, _y).
        p(_y) :- s(_y, _), aux(_, _y).
    """,
    'underscore-named variable bound outside the negation reading it': """
        aux(X, Y) :- r(X, Y).
        q(X) :- t(X), not aux(X, _y), s(_y, _).
        p(X) :- t(X), s(_y, _), not aux(X, _y).
        w(X) :- s(_y, _), t(X), not aux(X, _y).
    """,
    'auxiliary predicate over no relation': """
        aux(X) :- X = 2.
        q(X) :- t(X), not aux(X).
        p(X) :- t(X), aux(X).
    """,
    'only semi-joins in the body': """
        aux(X) :- t(X).
        q(Y) :- aux(_), Y = 1.
        ⊥ :- aux(2), not aux(3).
    """,
}

_DOMAIN = (0, 1, 2, 3)
_ARITIES = {'r': 2, 's': 2, 't': 1, '+v': 2, '-v': 2}


def _instance(rng: random.Random) -> dict:
    return {pred: {tuple(rng.choice(_DOMAIN) for _ in range(arity))
                   for _ in range(rng.randrange(7))}
            for pred, arity in _ARITIES.items()}


@pytest.mark.parametrize('shape', SHAPES)
def test_auxiliary_predicate_shapes(shape):
    program = parse_program(SHAPES[shape])
    rng = random.Random(shape)
    produced = False
    for _ in range(25):
        goals = assert_sql_agrees(program, _instance(rng))
        produced = produced or any(goals.values())
    assert produced, 'every instance left every goal empty'


def test_none_values_outside_comparisons():
    """Rows holding ``None`` flow through projection, ``DISTINCT``,
    ``UNION``, a CTE and wildcard positions of unfolded subqueries."""
    program = parse_program("""
        aux(X, P) :- r(X, P).
        aux(X, P) :- s(X, P).
        q(X, P) :- t(X), aux(X, P).
        p(X) :- t(X), not aux(X, _).
        w(X) :- t(X), aux(X, _).
    """)
    edb = {'r': {(1, None), (1, 'a'), (2, None)},
           's': {(1, None), (3, None)},
           't': {(1,), (2,), (4,)}}
    goals = assert_sql_agrees(program, edb)
    assert (1, None) in goals['q'] and goals['p'] == {(4,)}


# ---------------------------------------------------------------------------
# Generated programs
# ---------------------------------------------------------------------------

_VARS = ('X', 'Y', 'Z')


@st.composite
def _rules(draw, head: str | None, arity: int, preds: dict) -> str:
    """One safe rule for ``head`` (a ⊥-rule when None) over ``preds``:
    positive atoms bind the variables every other literal reads."""
    def argument(pool):
        return draw(st.sampled_from(pool))

    positives, bound = [], []
    for pred in draw(st.lists(st.sampled_from(sorted(preds)),
                              min_size=1, max_size=3)):
        args = [argument(_VARS + _VARS + ('_', '_', '1'))
                for _ in range(preds[pred])]
        bound += [a for a in args if a in _VARS and a not in bound]
        positives.append(f'{pred}({", ".join(args)})')
    values = tuple(bound) + ('0', '1', '3')
    body = list(positives)
    for pred in draw(st.lists(st.sampled_from(sorted(preds)),
                              max_size=2)):
        args = [argument(values + ('_',)) for _ in range(preds[pred])]
        body.append(f'not {pred}({", ".join(args)})')
    if bound and draw(st.booleans()):
        op = draw(st.sampled_from(['=', '<', '>', '<=', '<>']))
        negated = draw(st.sampled_from(['', 'not ']))
        body.append(f'{negated}{argument(tuple(bound))} {op} '
                    f'{argument(values)}')
    if draw(st.booleans()):
        body.append('W = 2')                 # a variable bound by '='
        values += ('W',)
    draw(st.randoms(use_true_random=False)).shuffle(body)
    if head is None:
        return f'⊥ :- {", ".join(body)}.'
    args = [argument(values) for _ in range(arity)]
    return f'{head}({", ".join(args)}) :- {", ".join(body)}.'


@st.composite
def programs(draw):
    """A three-layer nonrecursive program: ``low`` over the relations,
    ``mid`` over those and ``low``, goals and one ⊥-rule over all."""
    preds = dict(_ARITIES)
    lines = []
    for name, count in (('low', 2), ('mid', 2), ('q', 2), ('p', 1)):
        arity = draw(st.integers(1, 2))
        lines += [draw(_rules(name, arity, preds))
                  for _ in range(draw(st.integers(1, count)))]
        preds[name] = arity
    lines.append(draw(_rules(None, 0, preds)))
    return '\n'.join(lines)


_rows = {pred: st.sets(st.tuples(*[st.sampled_from(_DOMAIN)] * arity),
                       max_size=12)
         for pred, arity in _ARITIES.items()}


@given(text=programs(), edb=st.fixed_dictionaries(_rows))
def test_generated_programs_execute_as_evaluated(text, edb):
    assert_sql_agrees(parse_program(text), edb)
