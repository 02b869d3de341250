"""Subprocess body for the coordinator crash tests (ROADMAP item 15).

Builds a 3-shard ``union`` cluster over ``WAL_DIR`` (``r1`` = {0, 1, 2},
``r2`` = {4, 5}, view ``v`` = r1 ∪ r2, every relation keyed on ``a``),
then runs one transaction and exits with ``os._exit`` — no shutdown of
any kind — in the middle of its commit:

* ``one-shard`` — inserts ``(7,)`` (shard 1), the one-message commit:
  the coordinator exits right after the request left it, before any
  reply;
* ``two-shard`` — inserts ``(7,)`` and ``(8,)`` (shards 1 and 2), the
  two-phase commit: the coordinator exits after the first of the two
  ``apply_prepared`` calls was sent.

A process shard's worker outlives the coordinator until it has served
what is already in its pipe; it holds this process's stdout, so a
parent reading the output to the end waits for it.

Usage:  python _coordinator_crash_child.py WAL_DIR EXECUTION CASE
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / 'src'))

from repro.core.strategy import UpdateStrategy              # noqa: E402
from repro.rdbms.dml import Insert                          # noqa: E402
from repro.rdbms.procpool import ProcessShard               # noqa: E402
from repro.rdbms.sharded import ShardedEngine               # noqa: E402
from repro.relational.schema import DatabaseSchema          # noqa: E402

# Mirrors tests/conftest.py (duplicated on purpose: this script runs
# standalone, outside any test package).
UNION_PUTDELTA = """
    -r1(X) :- r1(X), not v(X).
    -r2(X) :- r2(X), not v(X).
    +r1(X) :- v(X), not r1(X), not r2(X).
"""
UNION_GET = """
    v(X) :- r1(X).
    v(X) :- r2(X).
"""
KEYS = {'v': 'a', 'r1': 'a', 'r2': 'a'}
TRANSACTIONS = {'one-shard': [('v', [Insert((7,))])],
                'two-shard': [('v', [Insert((7,)), Insert((8,))])]}
#: The call whose first send ends the coordinator, per case.
EXIT_AFTER = {'one-shard': 'commit_local', 'two-shard': 'apply_prepared'}


def open_cluster(wal_dir, execution: str) -> ShardedEngine:
    """The cluster over ``wal_dir`` — fresh, or recovered from its logs
    (the view is adopted, never redefined)."""
    sources = DatabaseSchema.build(r1={'a': 'int'}, r2={'a': 'int'})
    strategy = UpdateStrategy.parse('v', sources, UNION_PUTDELTA,
                                    expected_get=UNION_GET)
    engine = ShardedEngine(sources, shards=3, shard_keys=KEYS,
                           execution=execution, wal_dir=wal_dir,
                           wal_sync=False)
    engine.define_view(strategy, validate_first=False, exist_ok=True)
    return engine


def main() -> int:
    wal_dir, execution, case = sys.argv[1], sys.argv[2], sys.argv[3]
    engine = open_cluster(wal_dir, execution)
    engine.load('r1', [(0,), (1,), (2,)])
    engine.load('r2', [(4,), (5,)])
    submit = ProcessShard.submit

    def exiting_submit(self, method, *args):
        token = submit(self, method, *args)
        if method == EXIT_AFTER[case]:
            os._exit(0)
        return token

    ProcessShard.submit = exiting_submit
    engine.execute_many(TRANSACTIONS[case])
    raise AssertionError(f'survived case {case!r}')  # pragma: no cover


if __name__ == '__main__':
    raise SystemExit(main())
