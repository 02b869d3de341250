"""Rollback/abort coverage: a failing transaction must leave base
tables, materialised view caches, AND the compiled plans exactly as
they were — on both storage backends, on the ∂put path and the full
putback, and across every shard a sharded transaction touched."""

import pytest

from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.engine import Engine
from repro.rdbms.sharded import ShardedEngine

BACKENDS = ('memory', 'sqlite')
MODES = (True, False)          # use_incremental


def _luxury_engine(luxury_strategy, backend, incremental):
    engine = Engine(luxury_strategy.sources, backend=backend)
    engine.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                          (3, 'cap', 10)])
    engine.define_view(luxury_strategy, validate_first=False,
                       use_incremental=incremental)
    engine.rows('luxuryitems')        # materialise the cache
    return engine


def _planner_state(engine, view):
    """The view's compiled plans, by identity: a transaction, aborted
    or not, leaves the very plans ``define_view`` compiled."""
    entry = engine.view(view)
    return id(entry.get_plan), id(entry.incremental_plan)


class TestSingleEngineRollback:

    @pytest.mark.parametrize('backend', BACKENDS)
    @pytest.mark.parametrize('incremental', MODES)
    def test_constraint_mid_transaction(self, luxury_strategy, backend,
                                        incremental):
        engine = _luxury_engine(luxury_strategy, backend, incremental)
        before_db = engine.database()
        before_view = frozenset(engine.rows('luxuryitems'))
        before_planner = _planner_state(engine, 'luxuryitems')
        with pytest.raises(ConstraintViolation):
            with engine.transaction() as txn:
                txn.insert('luxuryitems', (10, 'tiara', 9000))
                txn.insert('luxuryitems', (11, 'gum', 5))     # violates
                txn.insert('luxuryitems', (12, 'crown', 8000))
        assert engine.database() == before_db
        assert engine.backend.has_cache('luxuryitems')
        assert frozenset(engine.rows('luxuryitems')) == before_view
        assert _planner_state(engine, 'luxuryitems') == before_planner

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_schema_error_after_view_writes(self, luxury_strategy,
                                            backend):
        """A late schema error aborts the already-translated view
        writes of the same transaction."""
        engine = _luxury_engine(luxury_strategy, backend, True)
        before_db = engine.database()
        with pytest.raises(SchemaError):
            with engine.transaction() as txn:
                txn.insert('luxuryitems', (10, 'tiara', 9000))
                txn.insert('items', ('bad-id', 'x', 1))
        assert engine.database() == before_db
        assert frozenset(engine.rows('luxuryitems')) \
            == {(1, 'watch', 5000), (2, 'ring', 4000)}

    @pytest.mark.parametrize('backend', BACKENDS)
    def test_failed_transaction_then_success(self, luxury_strategy,
                                             backend):
        """The engine is fully usable after an abort — no leaked
        staging state."""
        engine = _luxury_engine(luxury_strategy, backend, True)
        with pytest.raises(ConstraintViolation):
            engine.insert('luxuryitems', (11, 'gum', 5))
        engine.insert('luxuryitems', (12, 'crown', 8000))
        assert (12, 'crown', 8000) in engine.rows('items')


class TestShardedRollback:

    def _sharded(self, luxury_strategy, incremental=True):
        sharded = ShardedEngine(luxury_strategy.sources,
                                backends=['memory', 'sqlite', 'memory'],
                                shard_keys={'luxuryitems': 'iid',
                                            'items': 'iid'})
        sharded.load('items', [(1, 'watch', 5000), (2, 'ring', 4000)])
        sharded.define_view(luxury_strategy, validate_first=False,
                            use_incremental=incremental)
        sharded.rows('luxuryitems')
        return sharded

    @pytest.mark.parametrize('incremental', MODES)
    def test_abort_rolls_back_every_touched_shard(self, luxury_strategy,
                                                  incremental):
        sharded = self._sharded(luxury_strategy, incremental)
        before_db = sharded.database()
        before_shards = sharded.shard_rows('items')
        before_caches = sharded.shard_rows('luxuryitems')
        before_planner = [_planner_state(engine, 'luxuryitems')
                         for engine in sharded.engines]
        with pytest.raises(ConstraintViolation):
            with sharded.transaction() as txn:
                txn.insert('luxuryitems', (10, 'a', 2000))   # shard 1
                txn.insert('luxuryitems', (11, 'b', 3000))   # shard 2
                txn.insert('luxuryitems', (12, 'c', 4000))   # shard 0
                txn.insert('luxuryitems', (13, 'gum', 5))    # violates
        assert sharded.database() == before_db
        assert sharded.shard_rows('items') == before_shards
        assert sharded.shard_rows('luxuryitems') == before_caches
        assert [_planner_state(engine, 'luxuryitems')
                for engine in sharded.engines] == before_planner
        for engine in sharded.engines:
            assert engine.backend.has_cache('luxuryitems')

    def test_abort_with_direct_base_writes(self, luxury_strategy):
        sharded = self._sharded(luxury_strategy)
        before_db = sharded.database()
        with pytest.raises(ConstraintViolation):
            with sharded.transaction() as txn:
                txn.insert('items', (20, 'direct', 1))       # shard 2
                txn.insert('luxuryitems', (21, 'gum', 5))    # violates
        assert sharded.database() == before_db

    def test_sharded_engine_usable_after_abort(self, luxury_strategy):
        sharded = self._sharded(luxury_strategy)
        with pytest.raises(ConstraintViolation):
            sharded.insert('luxuryitems', (11, 'gum', 5))
        sharded.insert('luxuryitems', (12, 'crown', 8000))
        assert (12, 'crown', 8000) in sharded.rows('items')
        assert (12, 'crown', 8000) in sharded.shard_rows('items')[0]
