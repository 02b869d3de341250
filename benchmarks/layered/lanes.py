"""Inputs of a run: base rows, the pure-Python model, and the op stream.

Everything here is generated from the seed before any clock starts; the
program under test only ever sees strategy text, base rows and prebuilt
statements.  The tuple templates, key columns and safe columns per view
are the ones ``tests/fuzz/strategies.py`` proves valid (copied, because
the benchmark must not import from ``tests/``).

The model is plain set arithmetic written from each entry's
``expected_get`` and putback rules — it never calls the engine:

* :data:`GET` computes a view from base sets;
* :data:`TO_BASE` maps a view row to the base row its insertion creates
  (and its deletion removes).

A round only ever inserts, updates and deletes *fresh* rows (keys at or
above :data:`FRESH`, which no generated base row uses), so the model of
a half is ``initial state + that round's fresh rows`` and the model of a
finished round is the initial state again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.rdbms.dml import Delete, Insert, Update

from layered.spec import BATCH_ROWS, WARMUPS, Workload

#: The paper's Figure 6 views: selection, projection, join with ID and
#: C constraints, union.
VIEWS = ('luxuryitems', 'officeinfo', 'outstanding_task', 'vw_brands')

KEY_COLUMN = {'luxuryitems': 'iid', 'officeinfo': 'wname',
              'outstanding_task': 'tid', 'vw_brands': 'bid'}

#: A view column that takes part in no ⊥-constraint — safe to UPDATE.
SAFE_COLUMN = {'luxuryitems': 'iname', 'officeinfo': 'office',
               'outstanding_task': 'title', 'vw_brands': 'bname'}

_SAFE_POSITION = 1      # where that column sits, in all four views

HAS_CONSTRAINTS = {'luxuryitems': True, 'officeinfo': False,
                   'outstanding_task': True, 'vw_brands': True}

#: Co-partitioned shard keys: every relation a putback reaches shares
#: its view's key attribute, so all four views stay shard-local.
SHARD_KEYS = {
    'luxuryitems': 'iid', 'items': 'iid',
    'officeinfo': 'wname', 'works': 'wname',
    'outstanding_task': 'tid', 'tasks': 'tid', 'flow': 'tid',
    'vw_brands': 'bid', 'brands_domestic': 'bid', 'brands_imported': 'bid',
}

BASES = ('items', 'works', 'tasks', 'flow', 'brands_domestic',
         'brands_imported')

FRESH = 5_000_000
_PRICES = list(range(1, 2001, 7))     # the catalog's price pool


# -- the model --------------------------------------------------------

def _get_luxuryitems(bases):
    return {row for row in bases['items'] if row[2] > 1000}


def _get_officeinfo(bases):
    return {(name, office) for name, office, _p, _e in bases['works']}


def _get_outstanding_task(bases):
    inflow = {tid for tid, _step in bases['flow']}
    return {(tid, title, owner, priority)
            for tid, title, owner, _created, priority, status
            in bases['tasks'] if status == 'open' and tid in inflow}


def _get_vw_brands(bases):
    return ({(bid, name, 'domestic')
             for bid, name in bases['brands_domestic']}
            | {(bid, name, 'imported')
               for bid, name in bases['brands_imported']})


GET = {'luxuryitems': _get_luxuryitems, 'officeinfo': _get_officeinfo,
       'outstanding_task': _get_outstanding_task,
       'vw_brands': _get_vw_brands}

TO_BASE = {
    'luxuryitems': lambda r: ('items', r),
    'officeinfo': lambda r: ('works', (r[0], r[1], 'n/a', 'n/a')),
    'outstanding_task': lambda r: ('tasks', (r[0], r[1], r[2],
                                             '2020-01-01', r[3], 'open')),
    'vw_brands': lambda r: ('brands_' + r[2], (r[0], r[1])),
}


@dataclass
class Model:
    """Expected contents of every base relation and view."""

    bases: dict
    views: dict

    @classmethod
    def of(cls, bases: dict) -> 'Model':
        return cls(bases, {view: GET[view](bases) for view in VIEWS})

    def apply(self, view: str, rows, *, remove: bool = False) -> None:
        """Advance by inserting (or removing) fresh view ``rows``."""
        to_base = TO_BASE[view]
        for row in rows:
            relation, base_row = to_base(row)
            if remove:
                self.views[view].discard(row)
                self.bases[relation].discard(base_row)
            else:
                self.views[view].add(row)
                self.bases[relation].add(base_row)

    def consistent(self) -> bool:
        """The incrementally advanced views equal a full recompute."""
        return all(GET[view](self.bases) == self.views[view]
                   for view in VIEWS)


# -- base rows --------------------------------------------------------

def base_rows(n: int, reserve: int, rng: random.Random) -> dict:
    """``n`` rows per base relation (``flow``: 0.6 n, as in the
    catalog), plus ``reserve`` flow rows at fresh tids so that fresh
    ``outstanding_task`` rows satisfy the inclusion constraint."""
    choice, randrange = rng.choice, rng.randrange
    steps = ('triage', 'review', 'qa')
    flow = {(randrange(n), choice(steps)) for _ in range(int(n * 0.6))}
    flow.update((FRESH + i, 'triage') for i in range(reserve))
    return {
        'items': {(i, f'item{i}', choice(_PRICES)) for i in range(n)},
        'works': {(f'w{i}', f'office_{randrange(50)}',
                   f'555-{randrange(10_000):04d}', f'w{i}@example.org')
                  for i in range(n)},
        'tasks': {(randrange(n), f'task{i}', f'owner{randrange(40)}',
                   f'20{randrange(10, 20)}-0{randrange(1, 10)}-1{i % 10}',
                   randrange(4), choice(('open', 'done')))
                  for i in range(n)},
        'flow': flow,
        'brands_domestic': {(i, f'dom{i}') for i in range(n)},
        'brands_imported': {(n + i, f'imp{i}') for i in range(n)},
    }


def _fresh_key(view: str, index: int):
    return f'fresh_{index}' if view == 'officeinfo' else FRESH + index


def _fresh_row(view: str, index: int, marker: str,
               rng: random.Random) -> tuple:
    """A view tuple insertable under the entry's constraints; the safe
    column carries ``marker`` so one predicate DELETE sweeps a round."""
    key = _fresh_key(view, index)
    if view == 'luxuryitems':
        return (key, marker, 1001 + rng.randrange(5000))
    if view == 'officeinfo':
        return (key, marker)
    if view == 'outstanding_task':
        return (key, marker, f'owner{rng.randrange(4)}', rng.randrange(4))
    return (key, marker, rng.choice(('domestic', 'imported')))


def _violating_row(view: str, index: int, rng: random.Random) -> tuple:
    """A view tuple whose insertion must raise ConstraintViolation."""
    if view == 'luxuryitems':
        return (FRESH + index, 'cheap', rng.randrange(1000))
    if view == 'outstanding_task':
        if rng.random() < 0.5:      # tid outside flow: the ID constraint
            return (77_000_000 + index, 'ghost', 'nobody', 1)
        return (FRESH + index, 'neg', 'owner', -1)
    return (FRESH + index, 'brand', 'neither')


# -- the op stream ----------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One timed operation: a prebuilt transaction on one lane.

    ``kind`` is the operation class; ``batch`` the ``execute_many``
    argument; ``probe`` the row a ``visible`` read must contain."""

    kind: str
    view: str
    batch: list
    probe: tuple | None = None
    user_bytes: int = 0


@dataclass
class Round:
    forward: list
    backward: list
    fresh: dict            # view -> rows present after the forward half


@dataclass
class Inputs:
    workload: Workload
    seed: int
    bases: dict                     # relation -> set of rows (never mutated)
    model: Model
    scale: float                    # what the workload was scaled by
    rounds: list = field(default_factory=list)


def _one(kind, view, statement, probe=None):
    return Op(kind, view, [(view, [statement])], probe,
              len(repr(statement)))


def _round(workload: Workload, index: int, rng: random.Random) -> Round:
    """The op stream of one round.  Classes run in order — inserts (the
    first WARMUPS per lane classed ``warm``, rejects interleaved),
    visibles, keyed updates, batches; then keyed deletes and the sweep
    — and lanes alternate within each class, so a slow stretch of the
    box hits every lane alike."""
    marker, updated = f'#r{index}', f'#u{index}'
    forward: list = []
    backward: list = []
    fresh: dict = {view: [] for view in VIEWS}
    cursor = dict.fromkeys(VIEWS, 0)

    def new_row(view):
        row = _fresh_row(view, cursor[view], marker, rng)
        cursor[view] += 1
        fresh[view].append(row)
        return row

    for i in range(workload.inserts):
        for view in VIEWS:
            forward.append(_one('warm' if i < WARMUPS else 'insert', view,
                                Insert(new_row(view))))
            if HAS_CONSTRAINTS[view] \
                    and i % workload.reject_every == workload.reject_every - 1:
                # Reuses the next fresh key without consuming it: a
                # rejected insert must leave no trace.
                forward.append(_one('reject', view, Insert(
                    _violating_row(view, cursor[view], rng))))
    for _ in range(workload.visibles):
        for view in VIEWS:
            row = new_row(view)
            forward.append(_one('visible', view, Insert(row), probe=row))
    for i in range(workload.wheres):
        for view in VIEWS:
            old = fresh[view][i]
            new = (old[:_SAFE_POSITION] + (updated,)
                   + old[_SAFE_POSITION + 1:])
            fresh[view][i] = new
            where = {KEY_COLUMN[view]: old[0]}
            forward.append(_one('update', view, Update(
                {SAFE_COLUMN[view]: updated}, where)))
            backward.append(_one('delete', view, Delete(where)))
    for _ in range(workload.batches):
        for view in VIEWS:
            statements = [Insert(new_row(view)) for _ in range(BATCH_ROWS)]
            forward.append(Op('batch', view, [(view, statements)],
                              user_bytes=len(repr(statements))))
    for view in VIEWS:
        backward.append(_one('sweep', view,
                             Delete({SAFE_COLUMN[view]: marker})))
    return Round(forward, backward, fresh)


def fresh_keys_per_round(workload: Workload) -> int:
    return (workload.inserts + workload.visibles
            + workload.batches * BATCH_ROWS + 1)


def make_inputs(workload: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Everything a run of the (already scaled) ``workload`` needs, from
    ``seed`` alone."""
    rng = random.Random(seed)
    bases = base_rows(workload.n, fresh_keys_per_round(workload), rng)
    model = Model.of({name: set(rows) for name, rows in bases.items()})
    inputs = Inputs(workload, seed, bases, model, scale)
    inputs.rounds = [_round(workload, index, rng)
                     for index in range(workload.rounds)]
    return inputs
