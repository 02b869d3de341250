"""Pluggable storage backends for the RDBMS engine.

The engine's storage and plan-execution substrate is the
:class:`~repro.rdbms.backends.base.Backend` interface; two
implementations ship:

* ``memory`` — :class:`MemoryBackend`, indexed Python sets executed by
  the compiled-plan interpreter (the original substrate, and the
  default);
* ``sqlite`` — :class:`SQLiteBackend`, tables in SQLite with plans
  lowered to SQL once per view (the paper's run-inside-the-database
  deployment style).

``create_backend`` resolves a backend by name; the engine reads the
default from the ``REPRO_BACKEND`` environment variable, which is how
CI runs the whole test suite over each backend.
"""

from __future__ import annotations

import os

from repro.errors import SchemaError
from repro.rdbms.backends.base import Backend, StoredRelation
from repro.rdbms.backends.memory import MemoryBackend
from repro.rdbms.backends.sqlite import SQLiteBackend

__all__ = ['Backend', 'StoredRelation', 'MemoryBackend', 'SQLiteBackend',
           'BACKENDS', 'create_backend', 'create_shard_backends',
           'default_backend_kind', 'shard_backend_specs']

BACKENDS = {
    MemoryBackend.kind: MemoryBackend,
    SQLiteBackend.kind: SQLiteBackend,
}


def default_backend_kind() -> str:
    """The backend used when none is requested explicitly: the
    ``REPRO_BACKEND`` environment variable, defaulting to ``memory``."""
    kind = os.environ.get('REPRO_BACKEND', 'memory').strip() or 'memory'
    if kind not in BACKENDS:
        raise SchemaError(
            f'REPRO_BACKEND={kind!r} is not a known backend; expected '
            f'one of {sorted(BACKENDS)}')
    return kind


def create_backend(kind, schema) -> Backend:
    """Instantiate a backend for ``schema``.

    ``kind`` may be a backend name (``'memory'``/``'sqlite'``), ``None``
    (resolve via :func:`default_backend_kind`), or an already-built
    :class:`Backend` instance (returned as-is, so callers can hand the
    engine a specially configured backend, e.g. a file-backed SQLite
    database).
    """
    if isinstance(kind, Backend):
        return kind
    if kind is None:
        kind = default_backend_kind()
    try:
        factory = BACKENDS[kind]
    except KeyError:
        raise SchemaError(f'unknown backend {kind!r}; expected one of '
                          f'{sorted(BACKENDS)}') from None
    return factory(schema)


def shard_backend_specs(spec, n_shards: int) -> list:
    """One backend spec per shard from a sharded engine's ``backends``
    option: ``None`` (the default kind for every shard), a single
    backend *name* (that kind for every shard), or a sequence of
    exactly ``n_shards`` names/instances — which is how hot shards are
    kept on ``'memory'`` while cold shards run on ``'sqlite'``.
    Backend *instances* are only accepted inside the per-shard
    sequence: one instance is one shard's storage."""
    if isinstance(spec, Backend):
        raise SchemaError(
            'a single Backend instance cannot serve every shard (each '
            'shard needs its own storage); pass a backend name, or a '
            'sequence with one distinct instance per shard')
    if spec is None or isinstance(spec, str):
        spec = [spec] * n_shards
    else:
        spec = list(spec)
    if len(spec) != n_shards:
        raise SchemaError(
            f'{len(spec)} shard backends specified for {n_shards} shards')
    return spec


def create_shard_backends(spec, schema, n_shards: int) -> list[Backend]:
    """Instantiate one backend per shard for a sharded engine
    (``spec`` as for :func:`shard_backend_specs`).  Each instance in
    the sequence must be distinct: sharing it would make every shard
    write the same tables."""
    spec = shard_backend_specs(spec, n_shards)
    instances = [kind for kind in spec if isinstance(kind, Backend)]
    if len(instances) != len({id(backend) for backend in instances}):
        raise SchemaError('the same Backend instance appears more than '
                          'once in the shard backends')
    return [create_backend(kind, schema) for kind in spec]
