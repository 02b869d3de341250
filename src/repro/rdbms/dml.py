"""DML statements against views and the view-delta derivation (App. D).

The RDBMS layer accepts the three declarative statement forms of the paper
— ``INSERT INTO V VALUES(...)``, ``DELETE FROM V WHERE <cond>`` and
``UPDATE V SET attr=expr, ... WHERE <cond>`` — as plain Python objects.
:func:`derive_view_delta` implements Algorithm 2: fold a statement
sequence into a single (Δ⁺V, Δ⁻V) pair where later statements override
earlier ones.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Union

from repro.errors import SchemaError, ViewUpdateError
from repro.relational.delta import Composition, Delta
from repro.relational.schema import RelationSchema

__all__ = ['Insert', 'Delete', 'Update', 'Statement', 'derive_view_delta',
           'match_where', 'compile_where']

Where = Union[None, Mapping[str, object], Callable[[Mapping[str, object]],
                                                   bool]]


@dataclass(frozen=True)
class Insert:
    """``INSERT INTO <target> VALUES (values)``."""

    values: tuple

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            object.__setattr__(self, 'values', tuple(self.values))


@dataclass(frozen=True)
class Delete:
    """``DELETE FROM <target> WHERE where``.

    ``where`` is a column→value mapping (conjunctive equality), a callable
    over a column→value dict, or None (delete everything).
    """

    where: Where = None


@dataclass(frozen=True)
class Update:
    """``UPDATE <target> SET assignments WHERE where``.

    Assignment values may be constants or callables receiving the row as a
    column→value mapping (expressions).
    """

    assignments: Mapping[str, object] = field(default_factory=dict)
    where: Where = None


Statement = Union[Insert, Delete, Update]

#: Shared empties for the all-INSERT path (Delta is immutable, so the
#: instances are safe to share).
_EMPTY_ROWS = frozenset()
_NO_CHANGE = Delta()


def _as_named(row: tuple, schema: RelationSchema) -> dict[str, object]:
    return dict(zip(schema.attributes, row))


def match_where(row: tuple, where: Where, schema: RelationSchema) -> bool:
    """Does ``row`` satisfy the statement's WHERE condition?"""
    if where is None:
        return True
    named = _as_named(row, schema)
    if callable(where):
        return bool(where(named))
    for attr, expected in where.items():
        if attr not in named:
            raise SchemaError(
                f'unknown column {attr!r} in WHERE for {schema.name!r}')
        if named[attr] != expected:
            return False
    return True


def compile_where(where: Where, schema: RelationSchema):
    """``where`` as a row predicate, resolved against ``schema`` once.

    Semantically :func:`match_where` with the per-row work hoisted:
    mapping conditions compare tuple positions directly instead of
    building a column→value dict per row.  The predicate is what
    decides a match on every path: it runs once per row of the
    (shard-local) target when the WHERE is answered by a scan, and
    once per row of the probed bucket when a hash index narrowed the
    candidates first (see :meth:`_RunningState.matching`).  An
    unknown column raises from the first row the
    predicate is applied to, never eagerly: the single engine stays
    silent on an empty relation, and the sharded router's broadcast
    semantics depend on reproducing exactly that data-dependent
    behavior."""
    if where is None:
        return lambda row: True
    if callable(where):
        attributes = schema.attributes
        return lambda row: bool(where(dict(zip(attributes, row))))
    attributes = schema.attributes
    pairs = []
    error = None
    for attr, expected in where.items():
        if attr not in attributes:
            # Exactly :func:`match_where`: the unknown column raises
            # only when the conditions *before* it (in mapping order)
            # all matched the row — an earlier failing condition still
            # returns False without ever reaching it.
            error = (f'unknown column {attr!r} in WHERE for '
                     f'{schema.name!r}')
            break
        pairs.append((attributes.index(attr), expected))
    if error is not None:
        def match_then_raise(row):
            for position, expected in pairs:
                if row[position] != expected:
                    return False
            raise SchemaError(error)
        return match_then_raise
    if len(pairs) == 1:
        (position, expected), = pairs
        return lambda row: row[position] == expected
    return lambda row: all(row[position] == expected
                           for position, expected in pairs)


def _apply_assignments(row: tuple, assignments: Mapping[str, object],
                       schema: RelationSchema) -> tuple:
    named = _as_named(row, schema)
    for attr, value in assignments.items():
        if attr not in named:
            raise SchemaError(
                f'unknown column {attr!r} in SET for {schema.name!r}')
        named[attr] = value(dict(named)) if callable(value) else value
    return tuple(map(named.__getitem__, schema.attributes))


class _RunningState(Composition):
    """The view state mid-sequence — ``(current \\ deletions) ∪
    insertions``, the statements' deltas composed so far — without
    ever copying ``current`` (it can be a large live table).

    ``probe(positions, key)`` — :meth:`IndexedRelation.lookup
    <repro.datalog.evaluator.IndexedRelation.lookup>` of the relation
    whose rows ``current`` is — lets a column→value WHERE read one hash
    bucket instead of iterating ``current``; it may answer None for
    "no index after all"."""

    __slots__ = ('current', 'probe', 'counters')

    def __init__(self, current, probe=None, counters=None):
        super().__init__()
        self.current = current
        self.probe = probe
        self.counters = counters

    def matching(self, where, schema: RelationSchema) -> list:
        """Rows satisfying ``where``.  A fully keyed mapping is a
        membership probe; any other mapping over known columns with
        hashable values reads the bucket of ``current``'s hash index on
        exactly those columns — O(matches) — when a ``probe`` was
        given; everything else (callable, ``None``, an unknown column,
        an unhashable value, no index) iterates ``current``."""
        counters = self.counters
        # (``dict`` first: an ABC check is a Python call.)
        mapping = where.__class__ is dict or isinstance(where, Mapping)
        if mapping and set(where) == set(schema.attributes):
            if counters is not None:
                counters.append('dml.where_probes')
            row = tuple(map(where.__getitem__, schema.attributes))
            return [row] if self.contains(row) else []
        match = compile_where(where, schema)
        current, plus, minus = \
            self.current, self.insertions, self.deletions
        # The bucket only narrows the candidates (it holds every row
        # equal to the key under ``==``, since equal values hash
        # equal); ``match`` still decides, exactly as in the scan.
        candidates = self._bucket(where, schema) if mapping else None
        if counters is not None:
            counters.append('dml.where_scans' if candidates is None
                            else 'dml.where_probes')
        if candidates is None:
            candidates = current
        # Flat list comprehensions over the overlay parts: for an
        # unindexed WHERE this is the whole-relation scan.
        matched = [row for row in candidates
                   if row not in minus and match(row)]
        if plus:
            matched += [row for row in plus
                        if row not in current and match(row)]
        return matched

    def _bucket(self, where: Mapping, schema: RelationSchema):
        """The rows of ``current`` a column→value ``where`` can match,
        from the hash index on its column set — or None when only a
        scan can answer it."""
        if self.probe is None or not where:
            return None
        attributes = schema.attributes
        try:
            pairs = sorted([(attributes.index(attr), expected)
                            for attr, expected in where.items()])
        except ValueError:
            # Unknown column: the scan raises lazily, per row, and
            # stays silent on an empty relation.
            return None
        positions, key = zip(*pairs)
        try:
            hash(key)
        except TypeError:
            return None
        return self.probe(positions, key)

    def contains(self, row: tuple) -> bool:
        if row in self.insertions:
            return True
        return row in self.current and row not in self.deletions


def _statement_deltas(statement: Statement, state: _RunningState,
                      schema: RelationSchema) -> tuple[set, set]:
    """(δ⁺, δ⁻) of one DELETE or UPDATE against the running view
    state (INSERTs arrive in runs: :func:`derive_view_delta`)."""
    if isinstance(statement, Delete):
        return set(), set(state.matching(statement.where, schema))
    if isinstance(statement, Update):
        if not statement.assignments:
            raise ViewUpdateError('UPDATE requires at least one assignment')
        victims = state.matching(statement.where, schema)
        replacements = set()
        for row in victims:
            new_row = _apply_assignments(row, statement.assignments, schema)
            schema.check_rows((new_row,))
            replacements.add(new_row)
        # An UPDATE is deletions followed by insertions (App. D).
        return replacements, set(victims) - replacements
    raise ViewUpdateError(f'unknown statement {statement!r}')


def derive_view_delta(statements: Sequence[Statement], current,
                      schema: RelationSchema, *, probe=None,
                      counters: list | None = None) -> Delta:
    """Algorithm 2: fold a statement sequence into one view delta.

    Each statement's (δ⁺, δ⁻) is derived against the *running* view state
    (earlier statements already applied) and merged by sequential
    composition (:class:`~repro.relational.delta.Composition`), so
    later statements take precedence.  A maximal run of consecutive
    INSERTs is one step: its rows are checked in one
    :meth:`~RelationSchema.check_rows` pass, in statement order (the
    first refused row raises), and composed as one δ⁺ — which is what
    composing them one by one gives.  A bucket of INSERTs only is that
    one run against ``current``.  The returned delta is effective with
    respect to ``current`` (insertions not yet present, deletions
    present), and ``current`` — a ``set`` or ``frozenset`` — is never
    copied.

    When ``current`` is the row set of an :class:`~repro.datalog.
    evaluator.IndexedRelation`, pass that relation's ``lookup`` as
    ``probe`` and column→value WHEREs read one hash bucket instead of
    iterating ``current`` (a ``probe`` that returns None sends that
    statement back to the scan); the derived delta is the same either
    way.  ``counters``, a list, gets the name of the path that
    answered each UPDATE/DELETE statement's WHERE appended —
    ``dml.where_probes`` or ``dml.where_scans`` — for the caller to
    record (the engine ticks them with its transaction's other
    counters, :meth:`~repro.rdbms.metrics.MetricsRegistry.record`).
    """
    state = None
    run = []
    for statement in statements:
        if isinstance(statement, Insert):
            run.append(tuple(statement.values))
            continue
        if state is None:
            state = _RunningState(current, probe, counters)
        if run:
            schema.check_rows(run)
            state.then(set(run), ())
            run = []
        state.then(*_statement_deltas(statement, state, schema))
    if state is None:
        schema.check_rows(run)
        inserted = frozenset(run).difference(current)
        return Delta(inserted, _EMPTY_ROWS) if inserted else _NO_CHANGE
    if run:
        schema.check_rows(run)
        state.then(set(run), ())
    return Delta(state.insertions.difference(current),
                 {row for row in state.deletions if row in current})
