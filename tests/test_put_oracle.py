"""Runtime put oracle for every updatable catalog entry.

An engine that runs ∂put must answer every view transaction as the
reference semantics does, on a steady state (the ⊥-constraints hold and
``put(S, get(S)) = S``): it raises :class:`ConstraintViolation` exactly
when ``UpdateStrategy.check_constraints(S, V')`` raises, and otherwise
commits ``UpdateStrategy.put(S, V')`` for the transaction's net view
``V'``.  The transactions are one view INSERT, DELETE or UPDATE, two
UPDATEs at once (so ``+v`` and ``-v`` are combined), runs of 3–4
statements, and one row inserted then deleted or deleted then
re-inserted — the shapes the batched pipeline coalesces.  Half of
them put a statement on a table no view reads between each two view
statements, so the view's pending delta composes across buckets.
"""

import random

import pytest

from repro.benchsuite.catalog import ALL_ENTRIES, entry_by_name
from repro.core.lvgn import is_lvgn
from repro.core.strategyfile import loads_strategy
from repro.errors import ConstraintViolation
from repro.rdbms.dml import Delete, Insert
from repro.rdbms.engine import Engine
from repro.relational.database import Database
from repro.relational.generators import random_database, random_rows
from repro.relational.schema import RelationSchema

#: The updatable entries whose ∂put is the Appendix-C construction.
GENERAL_PATH = ('tracks1', 'bstudents', 'all_cars', 'newpc',
                'activestudents', 'vw_customers', 'poi_view', 'products',
                'koncerty', 'purchaseview', 'vehicle_view')
#: The updatable entries whose ∂put is Lemma 5.2's LVGN substitution.
LVGN_PATH = ('car_master', 'goodstudents', 'luxuryitems', 'usa_city',
             'ced', 'residents1962', 'employees', 'researchers',
             'retired', 'paramountmovies', 'officeinfo', 'vw_brands',
             'tracks2', 'residents', 'tracks3', 'measurement', 'ukaz_lok',
             'message', 'outstanding_task', 'phonelist')
SCALE = 20
SEEDS = range(6)
EDITS_PER_STATE = 16
POOL = 3                # fresh values per view column and state
#: A table no view reads or writes.  A statement on it splits a
#: transaction's view statements into buckets without forcing their
#: translation, so the pending view delta can keep a row written and
#: undone (in ``-v`` but not in ``v``, or in ``+v`` and in ``v``).
SIDE = RelationSchema('oracle_side', ('x',))


def steady_states(entry, seeds=SEEDS):
    """``(seed, S)`` for the empty state (seed -1, steady for every
    entry) and each seed whose random state at ``SCALE`` is steady
    under the entry's strategy."""
    strategy = entry.strategy()
    yield -1, Database()
    for seed in seeds:
        state = random_database(entry.sources, entry.sizes(SCALE),
                                seed=seed, column_pools=entry.column_pools)
        if is_steady(strategy, state):
            yield seed, state


def is_steady(strategy, state) -> bool:
    """Do the ⊥-constraints hold on ``(S, get(S))`` and does
    ``put(S, get(S)) = S``?"""
    view = strategy.get(state)
    try:
        strategy.check_constraints(state, view)
    except ConstraintViolation:
        return False
    return strategy.put(state, view) == state


def _edit(rng: random.Random, rows: list, pools: list, attributes: tuple):
    """One random transaction on the view: ``[(method, args), ...]``.
    Values come from small per-column pools that hold the view's own
    values, so an edit often collides with a row on a key."""
    columns = [sorted({row[i] for row in rows} | set(pool), key=repr)
               for i, pool in enumerate(pools)]

    def where(row):
        return dict(zip(attributes, row))

    def fresh():
        return tuple(map(rng.choice, columns))

    def update(row):
        column = rng.randrange(len(attributes))
        return 'update', ({attributes[column]: rng.choice(columns[column])},
                          where(row))

    def statement(rows):
        """One INSERT, DELETE or UPDATE on the view ``rows``."""
        kind = rng.choice(('insert', 'delete', 'update')) if rows \
            else 'insert'
        if kind == 'insert':
            return 'insert', (fresh(),)
        row = rng.choice(rows)
        return ('delete', (where(row),)) if kind == 'delete' \
            else update(row)

    kind = rng.choice(('one', 'update2', 'run', 'flip'))
    if kind == 'run':
        statements, view = [], frozenset(rows)
        for _ in range(rng.randint(3, 4)):
            statements.append(statement(sorted(view, key=repr)))
            view = expected_view(view, statements[-1:], attributes)
        return statements
    if kind == 'flip':
        if rows and rng.random() < 0.5:
            row = rng.choice(rows)
            return [('delete', (where(row),)), ('insert', (row,))]
        row = fresh()
        return [('insert', (row,)), ('delete', (where(row),))]
    if kind == 'update2' and rows:
        return [update(row) for row in rng.sample(rows, min(len(rows), 2))]
    return [statement(rows)]


def expected_view(view, statements, attributes) -> frozenset:
    """The view after ``statements`` — ``(method, args)`` pairs as
    :class:`~repro.rdbms.engine.Transaction` takes them, each WHERE a
    column→value mapping or None — applied one at a time under set
    semantics: an UPDATE replaces every matching row by its image."""
    rows = set(view)
    for method, args in statements:
        if method == 'insert':
            rows.add(tuple(args[0]))
            continue
        where = args[-1] or {}
        positions = [(attributes.index(a), value)
                     for a, value in where.items()]
        matched = {row for row in rows
                   if all(row[i] == value for i, value in positions)}
        rows -= matched
        if method == 'update':
            rows |= {tuple(args[0].get(a, value)
                           for a, value in zip(attributes, row))
                     for row in matched}
    return frozenset(rows)


def check_entry(name: str, backend: str, seeds=SEEDS,
                edits: int = EDITS_PER_STATE) -> tuple[int, int]:
    """Drive ``edits`` random transactions through an engine on each
    steady state of ``seeds`` and compare every outcome with the
    reference semantics.  Returns ``(edits compared, rejected)``."""
    entry = entry_by_name(name)
    strategy = entry.strategy()
    compared = rejected = 0
    for seed, state in steady_states(entry, seeds):
        rng = random.Random(seed)
        pools = list(zip(*random_rows(strategy.view, POOL, rng)))
        with Engine(strategy.sources.extend(SIDE),
                    backend=backend) as engine:
            for relation in strategy.sources.names():
                engine.load(relation, state[relation])
            engine.define_view(strategy, validate_first=False)
            assert engine.view(name).use_incremental
            attributes = engine.view(name).schema.attributes
            for _ in range(edits):
                source = engine.database()
                view = strategy.get(source)
                if strategy.put(source, view) != source:
                    break                   # no longer a steady state
                statements = _edit(rng, sorted(view, key=repr), pools,
                                   attributes)
                new_view = expected_view(view, statements, attributes)
                try:
                    strategy.check_constraints(source, new_view)
                    expected = strategy.put(source, new_view)
                except ConstraintViolation:
                    expected = None
                split = rng.random() < 0.5
                try:
                    with engine.transaction() as txn:
                        for method, args in statements:
                            getattr(txn, method)(name, *args)
                            if split:
                                txn.delete(SIDE.name)
                except ConstraintViolation:
                    assert expected is None, \
                        (name, seed, statements, 'engine rejected')
                    assert engine.database() == source
                    rejected += 1
                else:
                    assert expected is not None, \
                        (name, seed, statements, 'engine accepted')
                    assert engine.database() == expected, \
                        (name, seed, statements)
                compared += 1
    return compared, rejected


def _updatable(lvgn: bool) -> set:
    return {entry.name for entry in ALL_ENTRIES if entry.expressible
            and is_lvgn(entry.strategy().putdelta, entry.name) == lvgn}


def test_general_path_list_is_the_catalog():
    assert set(GENERAL_PATH) == _updatable(lvgn=False)


def test_lvgn_path_list_is_the_catalog():
    assert set(LVGN_PATH) == _updatable(lvgn=True)


@pytest.mark.parametrize('backend', ['memory', 'sqlite'])
@pytest.mark.parametrize('name', GENERAL_PATH + LVGN_PATH)
def test_engine_verdict_and_state_match_put(name, backend):
    compared, _rejected = check_entry(name, backend)
    assert compared > 0, f'no steady state for {name!r} at n={SCALE}'


#: A valid general-path strategy whose union ``u`` is an intermediate
#: predicate read further down, where every catalog union is a delta
#: head (Proposition 5.1 then drops the union's deletion rules).  Here
#: ``-u`` reaches ``-r``: deleting a view row that the other branch
#: (``s``) still derives must leave ``r`` alone and hide the row
#: through ``d`` instead.
UNION_READ_DOWNSTREAM = """
.source r(x: int).
.source d(x: int).
.source s(x: int).
.view v(x: int).

.get
v(X) :- r(X), not d(X).
.end

u(X) :- v(X).
u(X) :- s(X).
-r(X) :- r(X), not u(X), not d(X).
+r(X) :- v(X), not r(X).
+d(X) :- r(X), s(X), not v(X), not d(X).
-d(X) :- d(X), v(X).
"""


def _one_row_edits_match_put(strategy, state, inserts, backend):
    """Every one-row DELETE of a view row and INSERT of each row of
    ``inserts``, each on a fresh engine loaded with the steady
    ``state``, commits exactly ``put(S, V')``.  Returns the view's
    registry entry of the last engine."""
    name = strategy.view.name
    view = strategy.get(state)
    assert strategy.put(state, view) == state
    edits = [('delete', row, view - {row}) for row in sorted(view)] + \
        [('insert', row, view | {row}) for row in inserts]
    for method, row, new_view in edits:
        with Engine(strategy.sources, backend=backend) as engine:
            for relation in strategy.sources.names():
                engine.load(relation, state[relation])
            entry = engine.define_view(strategy, validate_first=False)
            args = dict(zip(entry.schema.attributes, row)) \
                if method == 'delete' else row
            getattr(engine, method)(name, args)
            assert engine.database() == strategy.put(state, new_view), \
                (method, row)
    return entry


@pytest.mark.parametrize('backend', ['memory', 'sqlite'])
def test_union_read_downstream_matches_put(backend):
    """Every one-row INSERT and DELETE on a steady state of
    :data:`UNION_READ_DOWNSTREAM` commits exactly ``put(S, V')``."""
    strategy = loads_strategy(UNION_READ_DOWNSTREAM)
    state = Database.from_dict({'r': {(1,), (2,), (3,)}, 'd': {(3,)},
                                's': {(1,), (3,)}})
    assert strategy.get(state) == {(1,), (2,)}
    entry = _one_row_edits_match_put(strategy, state, [(3,), (4,)],
                                     backend)
    assert not entry.lvgn and entry.use_incremental


_LOGGED = """
.source r(x: int).
.source log(x: int).
.view v(x: int).

.get
v(X) :- r(X).
.end

-r(X) :- r(X), not v(X).
+log(X) :- +r(X), not log(X).
"""

#: Valid strategies whose putdelta reads a delta predicate: ``log``
#: records each row the view inserts into ``r``.  ∂put names the
#: derived insertion set ``+r``, so neither path derives the ``+log``
#: rule (Lemma 5.2 would drop it as view-free), and the engine runs the
#: full putback.  The view in an auxiliary rule (``vr``) puts the
#: second strategy outside LVGN.
READS_A_DELTA = {
    'lvgn': _LOGGED + '+r(X) :- v(X), not r(X).\n',
    'general': _LOGGED + 'vr(X) :- v(X).\n+r(X) :- vr(X), not r(X).\n'}


@pytest.mark.parametrize('backend', ['memory', 'sqlite'])
@pytest.mark.parametrize('path', READS_A_DELTA)
def test_a_putdelta_reading_a_delta_runs_the_full_putback(path, backend):
    strategy = loads_strategy(READS_A_DELTA[path])
    state = Database.from_dict({'r': {(1,), (2,)}, 'log': {(1,), (3,)}})
    entry = _one_row_edits_match_put(strategy, state, [(3,), (4,)],
                                     backend)
    assert entry.lvgn == (path == 'lvgn') and not entry.use_incremental
    assert 'TransformationError' in entry.incremental_error \
        and '+log(X) :- +r(X)' in entry.incremental_error


#: Base writes under a defined view that break one of its ⊥-rules:
#: ``(entry, loaded state, base insert, view insert after it)``.
UNSTEADY_BASE_WRITES = {
    # ⊥ :- stock(P, Q), not has_name(P).
    'products': ({'product_names': {(1, 'a')}, 'stock': {(1, 5)}},
                 ('stock', (2, 7)), (3, 'c', 4)),
    # The view's key P → C: a second purchase 10 of another customer.
    'purchaseview': ({'purchases': {(10, 1, 5, '2020-01-01')},
                      'customers2': {(1, 'a'), (2, 'b')}},
                     ('purchases', (10, 2, 5, '2020-01-01')),
                     (11, 1, 'a', 6)),
}


@pytest.mark.xfail(strict=True, reason='a base write under a defined '
                   "view is not checked against the view's ⊥-rules, "
                   'so it can commit a state that is not steady')
@pytest.mark.parametrize('name', UNSTEADY_BASE_WRITES)
@pytest.mark.parametrize('backend', ['memory', 'sqlite'])
def test_base_write_keeps_the_state_steady(backend, name):
    """Every committed state is steady: a base write that would break
    the view's ⊥-rules is refused, and the view statement after it is
    answered as ``put`` answers it."""
    strategy = entry_by_name(name).strategy()
    loaded, (base, row), view_row = UNSTEADY_BASE_WRITES[name]
    with Engine(strategy.sources, backend=backend) as engine:
        for relation in strategy.sources.names():
            engine.load(relation, loaded.get(relation, ()))
        engine.define_view(strategy, validate_first=False)
        try:
            engine.insert(base, row)
        except ConstraintViolation:
            pass
        state = engine.database()
        view = strategy.get(state)
        try:
            strategy.check_constraints(state, view)
        except ConstraintViolation as error:
            pytest.fail(f'{base} insert {row} committed a state that is '
                        f'not steady: {error}')
        try:
            expected = strategy.put(state, view | {view_row})
        except ConstraintViolation:
            with pytest.raises(ConstraintViolation):
                engine.insert(name, view_row)
        else:
            engine.insert(name, view_row)
            assert engine.database() == expected


#: A base bucket, then a view bucket that deletes the row the base
#: bucket wrote: ``(strategy fixture, loaded state, transaction)``.
#: The view bucket reads get(S) of the working state, so the row is
#: deleted from the view and, by the putback, from the base.
BASE_THEN_VIEW = {
    'union': ('union_strategy', {'r1': {(1,)}, 'r2': {(2,)}},
              [('r2', [Insert((8,))]), ('v', [Delete({'a': 8})])]),
    'luxuryitems': ('luxury_strategy', {'items': {(1, 'a', 2000)}},
                    [('items', [Insert((9, 'z', 5000))]),
                     ('luxuryitems', [Delete({'iid': 9})])]),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a view bucket reads the view cache plus the "
                   "transaction's view deltas, not the base writes "
                   'staged before it in the same transaction')
@pytest.mark.parametrize('warm', [False, True], ids=['cold', 'warm'])
@pytest.mark.parametrize('case', BASE_THEN_VIEW)
@pytest.mark.parametrize('backend', ['memory', 'sqlite'])
def test_view_bucket_sees_earlier_base_write(backend, case, warm,
                                             request):
    """A view statement sees the base writes before it in the same
    transaction, as the paper's ``INSTEAD OF`` trigger over a
    ``CREATE VIEW`` does (§6.1): the transaction commits the state it
    started from."""
    fixture, loaded, transaction = BASE_THEN_VIEW[case]
    strategy = request.getfixturevalue(fixture)
    with Engine(strategy.sources, backend=backend) as engine:
        for relation, rows in loaded.items():
            engine.load(relation, rows)
        engine.define_view(strategy, validate_first=False)
        before = engine.database()
        if warm:
            engine.rows(strategy.view.name)
        engine.execute_many(transaction)
        assert engine.database() == before
        assert set(engine.rows(strategy.view.name)) \
            == strategy.get(before)
