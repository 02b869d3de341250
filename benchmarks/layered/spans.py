"""Tracing from outside: spans around the program's public functions.

The traced run wraps, from this file, the calls into each layer (= each
module of ``src/repro``): module functions are rebound in every
``repro.*`` module that imported them, methods are patched on their
classes.  A span records name, start, end, its parent span and the id of
the operation (or cold start) it ran under; spans stay in memory and are
written out when the run ends.  A layer's *self* time is its span's
duration minus the part of that interval its child spans cover.

Nothing is wrapped inside worker processes: a fork hook switches every
wrapper to pass-through in the child.  End-to-end numbers are never
taken from a traced run.
"""

from __future__ import annotations

import json
import multiprocessing.connection
import os
import sqlite3
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

_ACTIVE: list = []
_FORK_HOOKED = False
_MISSING = object()


def _disable_in_child() -> None:
    for tracer in _ACTIVE:
        tracer.enabled = False


class Tracer:
    """In-memory span recorder.  ``phase`` is set by the measuring loop:
    ``('op', id)`` during an operation, ``('cold', k)`` during a cold
    start, ``None`` elsewhere (checks, teardown)."""

    def __init__(self):
        self.enabled = False
        self.phase = None
        self.spans: list = []      # [name, start, end, parent, phase]
        self.counts: Counter = Counter()
        self._main = threading.get_ident()
        self._stacks: dict = defaultdict(list)
        self._restore: list = []

    # -- recording ------------------------------------------------------

    def count(self, key: str, n: int = 1) -> None:
        """Add to ``<phase kind>:<key>`` (``idle`` outside any phase)."""
        phase = self.phase
        self.counts[f'{phase[0] if phase else "idle"}:{key}'] += n

    def wrap(self, name: str, function, after=None):
        """``function`` recorded as span ``name``; ``after(tracer, args,
        result)`` takes counts at the same boundary."""
        tracer, stacks, spans = self, self._stacks, self.spans
        main, ident, clock = self._main, threading.get_ident, perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            thread = ident()
            stack = stacks[thread]
            if stack:
                parent = stack[-1]
            elif thread != main and stacks[main]:
                # A pool thread working for the call the main thread is
                # blocked in.
                parent = stacks[main][-1]
            else:
                parent = None
            span = [name, 0.0, 0.0, parent, tracer.phase]
            stack.append(span)
            span[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, '__name__', name)
        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``, remembering what ``owner`` itself
        held (``_MISSING`` when the attribute was inherited)."""
        self._restore.append((owner, attribute,
                              vars(owner).get(attribute, _MISSING)))
        setattr(owner, attribute, replacement)

    def patch_function(self, module, attribute: str, name: str,
                       after=None) -> None:
        """Wrap a module-level function everywhere it was imported (in
        the program's modules and in the benchmark's own)."""
        original = getattr(module, attribute)
        wrapper = self.wrap(name, original, after)
        for candidate in list(sys.modules.values()):
            if getattr(candidate, '__name__', '').startswith(
                    ('repro', 'layered')):
                for key, value in list(vars(candidate).items()):
                    if value is original:
                        self._patch(candidate, key, wrapper)

    def patch_methods(self, cls, names, name: str, after=None) -> None:
        """Wrap the methods (or property getters) ``cls`` defines."""
        for attribute in names:
            original = cls.__dict__.get(attribute)
            if original is None \
                    or getattr(original, '__isabstractmethod__', False):
                continue
            if isinstance(original, property):
                wrapper = property(self.wrap(name, original.fget, after))
            else:
                wrapper = self.wrap(name, original, after)
            self._patch(cls, attribute, wrapper)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attribute, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._restore.clear()
        if self in _ACTIVE:
            _ACTIVE.remove(self)

    # -- reading --------------------------------------------------------

    def self_times(self, kind: str) -> tuple[dict, dict]:
        """``(self seconds, calls)`` by span name over the spans recorded
        under phases of ``kind`` (``'op'``, ``'cold'``, ``'maint'``).  A
        span nested directly in one of the same name (a base-class
        method delegating to an override) is not a call of its own."""
        children: dict = defaultdict(list)
        selected = [span for span in self.spans
                    if span[4] is not None and span[4][0] == kind]
        for span in selected:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        seconds: dict = defaultdict(float)
        counts: Counter = Counter()
        for span in selected:
            covered = union(children.get(id(span), ()), span[1], span[2])
            seconds[span[0]] += (span[2] - span[1]) - covered
            if span[3] is None or span[3][0] != span[0]:
                counts[span[0]] += 1
        return seconds, counts

    def covered_by_op(self) -> dict:
        """Seconds of each operation's window covered by root spans."""
        roots: dict = defaultdict(list)
        for span in self.spans:
            phase = span[4]
            if span[3] is None and phase is not None and phase[0] == 'op':
                roots[phase[1]].append((span[1], span[2]))
        return roots

    def dump(self, path) -> None:
        index = {id(span): number
                 for number, span in enumerate(self.spans)}
        with open(path, 'w') as handle:
            json.dump({
                'fields': ['name', 'start', 'end', 'parent', 'phase'],
                'spans': [[span[0], span[1], span[2],
                           index.get(id(span[3])) if span[3] else None,
                           list(span[4]) if span[4] else None]
                          for span in self.spans],
                'counts': dict(self.counts),
            }, handle)


def union(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    edge = low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            total += end - start
            edge = end
    return total


# -- counts taken at the span boundaries --------------------------------

def _count_rules(tracer, args, program) -> None:
    tracer.count('parser.rules', len(program.rules))


def _count_checks(tracer, args, report) -> None:
    tracer.count('validation.checks', len(report.checks))


def _count_sql_bytes(tracer, args, text) -> None:
    tracer.count('sql.bytes', len(text.encode()))


def _count_examined(tracer, args, _delta) -> None:
    """Rows a statement bucket had to look at: a single INSERT and a
    fully keyed WHERE probe one row, any other WHERE scans the view."""
    from repro.rdbms.dml import Insert
    statements, current, schema = args[:3]
    arity = len(schema.attributes)
    for statement in statements:
        where = getattr(statement, 'where', None)
        if isinstance(statement, Insert) \
                or (isinstance(where, dict) and len(where) == arity):
            tracer.count('dml.examined')
        else:
            tracer.count('dml.examined', len(current))
    tracer.count('dml.statements', len(statements))


def _count_wal_bytes(tracer, args, _lsn) -> None:
    log = args[0]
    kind = 'outbox' if log.path.name.startswith('share-') else \
        'sidecar' if log.path.name == 'peer-state.wal' else 'engine'
    tracer.count(f'wal.{kind}.bytes', log.stats['last_record_bytes'])


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary named in the README's table."""
    global _FORK_HOOKED
    from repro.core import incremental, validation
    from repro.datalog import parser, plan
    from repro.fol import solver
    from repro.rdbms import dml, peernet, procpool, replica, sharded, wal
    from repro.rdbms.backends.base import Backend
    from repro.rdbms.backends.memory import MemoryBackend
    from repro.rdbms.backends.sqlite import SQLiteBackend
    from repro.rdbms.engine import Engine
    from repro.sql import translate, triggers

    if not _FORK_HOOKED:
        os.register_at_fork(after_in_child=_disable_in_child)
        _FORK_HOOKED = True
    _ACTIVE.append(tracer)

    function = tracer.patch_function
    function(parser, 'parse_program', 'datalog.parser.parse', _count_rules)
    function(validation, 'validate', 'core.validation.validate',
             _count_checks)
    function(solver, 'check_satisfiable', 'fol.solver.sat')
    function(incremental, 'incrementalize_plan', 'core.incremental.derive')
    function(plan, 'compile_program', 'datalog.plan.compile')
    function(triggers, 'compile_strategy_to_sql', 'sql.compile',
             _count_sql_bytes)
    for attribute in ('query_to_sql', 'plan_to_sql', 'constraint_to_sql'):
        function(translate, attribute, 'sql.compile')
    function(dml, 'derive_view_delta', 'rdbms.dml.derive', _count_examined)

    methods = tracer.patch_methods
    for attribute, name in (('begin', 'begin'),
                            ('apply_statements', 'stage'),
                            ('prepare_commit', 'prepare'),
                            ('apply_prepared', 'apply'),
                            ('load', 'load'), ('define_view', 'define'),
                            ('rows', 'read')):
        methods(Engine, [attribute], f'rdbms.engine.{name}')
    methods(Engine, ['checkpoint'], 'rdbms.wal.checkpoint')
    for cls in (Backend, MemoryBackend, SQLiteBackend):
        methods(cls, ['evaluate_incremental_batch', 'evaluate_incremental',
                      'evaluate_putback', 'evaluate_get'],
                'rdbms.backends.eval')
        methods(cls, ['check_view_constraints'], 'rdbms.backends.constraint')
        methods(cls, ['apply_deltas', 'apply_delta', 'load'],
                'rdbms.backends.apply')
        methods(cls, ['store_cache', 'drop_cache'], 'rdbms.backends.cache')
        methods(cls, ['register_view'], 'rdbms.backends.register')
    methods(wal.WriteAheadLog, ['append'], 'rdbms.wal.append',
            _count_wal_bytes)
    methods(sharded.ShardedEngine, ['execute_many'], 'rdbms.sharded.route')
    methods(sharded.ShardedEngine, ['rows', 'database', 'shard_rows'],
            'rdbms.sharded.gather')
    methods(sharded.ShardedEngine, ['load', 'define_view'],
            'rdbms.sharded.setup')
    methods(procpool.ProcessShard,
            ['begin', 'queue_apply', 'queue_flush', 'drain', 'txn_rows',
             'prepare_commit', 'apply_prepared', 'abort', 'rows',
             'snapshot', 'load', 'count', 'has_cache', 'define_view',
             'commit_lsn', 'metrics'], 'rdbms.procpool.rpc')
    methods(replica.ReplicaEngine, ['catch_up'], 'rdbms.replica.catch_up')
    methods(replica.ReplicaSet, ['read'], 'rdbms.replica.read')
    methods(peernet.PeerNetwork, ['settle', 'pump'], 'rdbms.peernet.pump')
    methods(peernet.Peer, ['receive'], 'rdbms.peernet.receive')
    methods(peernet.Peer, ['_on_commit'], 'rdbms.peernet.publish')

    # Counts the program keeps no counter for, taken at the standard
    # library calls it makes: fsyncs, SQL statements, pipe bytes.
    fsync = os.fsync

    def counted_fsync(fd):
        if tracer.enabled:
            tracer.count('fsyncs')
        return fsync(fd)
    tracer._patch(os, 'fsync', counted_fsync)

    connect = sqlite3.connect

    def count_statement(_sql):
        if tracer.enabled:
            tracer.count('sqlite.statements')

    def traced_connect(*args, **kwargs):
        connection = connect(*args, **kwargs)
        connection.set_trace_callback(count_statement)
        return connection
    tracer._patch(sqlite3, 'connect', traced_connect)

    connection_class = multiprocessing.connection.Connection
    send, receive = connection_class.send_bytes, connection_class.recv_bytes

    def send_bytes(self, buffer, *args):
        if tracer.enabled:
            tracer.count('pipe.bytes', len(buffer))
        return send(self, buffer, *args)

    def recv_bytes(self, *args):
        data = receive(self, *args)
        if tracer.enabled:
            tracer.count('pipe.bytes', len(data))
        return data
    tracer._patch(connection_class, 'send_bytes', send_bytes)
    tracer._patch(connection_class, 'recv_bytes', recv_bytes)
    tracer.enabled = True
