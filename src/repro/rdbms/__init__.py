"""In-memory RDBMS with programmable updatable views — the execution
substrate standing in for PostgreSQL (§6.1; substitution documented in
DESIGN.md).

Observability: every engine owns a
:class:`~repro.rdbms.metrics.MetricsRegistry`; ``Engine`` exposes
``metrics_snapshot()``, ``ShardedEngine`` exposes a merged
``metrics()`` (worker processes ship their counters back over the
existing RPC channel)."""

from repro.rdbms.dml import (Delete, Insert, Statement, Update,
                             derive_view_delta)
from repro.rdbms.engine import Engine, Transaction, ViewEntry
from repro.rdbms.metrics import MetricsRegistry, merge_snapshots
from repro.rdbms.peernet import (Peer, PeerCrashed, PeerGap, PeerNetwork,
                                 ShareDelta, converged)
from repro.rdbms.replica import ReplicaEngine, ReplicaSet
from repro.rdbms.sharded import ShardedEngine
from repro.rdbms.wal import WalRecord, WriteAheadLog

__all__ = ['Delete', 'Insert', 'Statement', 'Update', 'derive_view_delta',
           'Engine', 'Transaction', 'ViewEntry', 'ShardedEngine',
           'WriteAheadLog', 'WalRecord',
           'ReplicaEngine', 'ReplicaSet', 'MetricsRegistry',
           'merge_snapshots',
           'Peer', 'PeerNetwork', 'PeerGap', 'PeerCrashed', 'ShareDelta',
           'converged']
