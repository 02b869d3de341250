"""Exception hierarchy for the repro (BIRDS reproduction) library.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors from semantic ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class DatalogSyntaxError(ReproError):
    """Raised by the lexer/parser on malformed Datalog source text.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    available so that editors and tests can point at the exact location.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        location = ''
        if line is not None:
            location = f' at line {line}'
            if column is not None:
                location += f', column {column}'
        super().__init__(message + location)
        self.message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # Exceptions pickle through ``(cls, self.args)`` by default,
        # which would re-run __init__ on the already-located message
        # (doubling the location) and drop line/column.  The process
        # pool ships exceptions between worker and coordinator, so the
        # round trip must be exact.
        return (type(self), (self.message, self.line, self.column))


class SafetyError(ReproError):
    """A Datalog rule violates the safety (range restriction) condition."""


class RecursionError_(ReproError):
    """The program is recursive; this library handles nonrecursive Datalog."""


class SchemaError(ReproError):
    """A predicate is used with the wrong arity, or a schema is inconsistent."""


class FragmentError(ReproError):
    """A program falls outside a required language fragment (e.g. LVGN)."""


class ContradictionError(ReproError):
    """A computed delta inserts and deletes the same tuple (Def. 3.1)."""

    def __init__(self, relation: str, tuples: frozenset):
        preview = sorted(tuples)[:5]
        super().__init__(
            f'putback program is not well defined: delta for relation '
            f'{relation!r} both inserts and deletes tuple(s) {preview}')
        self.relation = relation
        self.tuples = tuples

    def __reduce__(self):
        # args holds the formatted message, not (relation, tuples) —
        # reconstruct from the real attributes so the process pool's
        # exception round trip is exact (see DatalogSyntaxError).
        return (type(self), (self.relation, self.tuples))


class ValidationError(ReproError):
    """A view update strategy failed validation (Algorithm 1)."""


class ConstraintViolation(ReproError):
    """A view update violates a declared integrity constraint (⊥ rule)."""

    def __init__(self, constraint: str, witness=None):
        message = f'view update rejected: constraint violated: {constraint}'
        if witness is not None:
            message += f' (witness: {witness})'
        super().__init__(message)
        self.constraint = constraint
        self.witness = witness

    def __reduce__(self):
        # See DatalogSyntaxError: reconstruct from the originating
        # attributes, not the formatted args, so pickling is exact.
        return (type(self), (self.constraint, self.witness))


class ViewUpdateError(ReproError):
    """A DML statement against a view could not be translated to the source."""


class ShardUnavailableError(ReproError):
    """A shard's worker process died (or its RPC channel broke) while a
    request was outstanding.  The cluster transaction that hit it is
    rolled back on every other shard; the pool restarts the worker so
    the *next* transaction finds a serving (catalog-recovered) shard.

    ``applied`` is the caller's contract for re-runs.  ``False`` means
    the abort was clean: no shard committed any of the transaction, and
    the caller may run it again.  ``True`` means the failure came after
    a shard may have committed (the apply phase, or a one-message
    commit its log could not decide), so the transaction must not be
    run again.
    """

    applied: bool = False

    def __init__(self, shard: int, reason: str = ''):
        message = f'shard {shard} worker is unavailable'
        if reason:
            message += f': {reason}'
        super().__init__(message)
        self.shard = shard
        self.reason = reason

    def __reduce__(self):
        return (type(self), (self.shard, self.reason))


class TransformationError(ReproError):
    """A formula transformation (SRNF/RANF/FO→Datalog) cannot proceed."""
