"""Sharded engine tests: hash placement, placement rules, statement
routing (including cross-shard key moves), scatter-gather reads, mixed
per-shard backends, aggregated planner stats, and multi-shard
atomicity.  The randomized equivalence proof lives in
``tests/fuzz/test_differential.py``; these are the deterministic
anchors."""

import pytest

from repro.core.strategy import UpdateStrategy
from repro.errors import ConstraintViolation, SchemaError
from repro.rdbms.backends import MemoryBackend, SQLiteBackend
from repro.rdbms.engine import Engine
from repro.rdbms.placement import shard_of
from repro.rdbms.sharded import ShardedEngine
from repro.relational.schema import DatabaseSchema

UNION_KEYS = {'v': 'a', 'r1': 'a', 'r2': 'a'}


def _union_pair(union_strategy, shards=3, backends=None, keys=UNION_KEYS):
    """(single Engine, ShardedEngine) with identical starting state."""
    single = Engine(union_strategy.sources)
    sharded = ShardedEngine(union_strategy.sources, shards=shards,
                            backends=backends, shard_keys=keys)
    for engine in (single, sharded):
        engine.load('r1', [(1,), (4,)])
        engine.load('r2', [(2,), (5,)])
        engine.define_view(union_strategy, validate_first=False)
    return single, sharded


def _luxury_sharded(luxury_strategy, backends=('memory', 'sqlite',
                                               'memory')):
    sharded = ShardedEngine(luxury_strategy.sources, shards=len(backends),
                            backends=list(backends),
                            shard_keys={'luxuryitems': 'iid',
                                        'items': 'iid'})
    sharded.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                           (3, 'cap', 10)])
    sharded.define_view(luxury_strategy, validate_first=False)
    return sharded


class TestPartitioners:

    def test_hash_int_is_modular(self):
        assert [shard_of(i, 4) for i in range(8)] == [0, 1, 2, 3,
                                                      0, 1, 2, 3]

    def test_hash_strings_stable_and_in_range(self):
        """CRC-32 of the ``repr``, never the process-seeded ``hash``:
        the mapping is pinned, so every run and every process agrees
        on row ownership."""
        assert {s: shard_of(s, 3) for s in ('alice', 'bob', 'carol')} \
            == {'alice': 0, 'bob': 2, 'carol': 2}

    def test_equal_values_route_equally(self):
        """x == y must imply shard_of(x) == shard_of(y): WHERE clauses
        match rows with ==, where 1 == 1.0 == True == Decimal(1)."""
        from decimal import Decimal
        from fractions import Fraction
        assert shard_of(1, 3) == shard_of(1.0, 3) \
            == shard_of(True, 3) == shard_of(Decimal(1), 3)
        assert shard_of(0, 3) == shard_of(0.0, 3) == shard_of(False, 3)
        assert shard_of(4.0, 3) == shard_of(4, 3)
        assert shard_of(1.5, 3) == shard_of(Decimal('1.5'), 3) \
            == shard_of(Fraction(3, 2), 3)
        assert shard_of(float('inf'), 3) \
            == shard_of(Decimal('Infinity'), 3)
        assert shard_of(complex(1, 0), 3) == shard_of(1, 3)
        assert shard_of('1', 3) != 'unrouted'   # strings stay strings

    @pytest.mark.parametrize('shards', [0, -1])
    def test_at_least_one_shard(self, union_sources, shards):
        with pytest.raises(SchemaError, match='at least one shard'):
            ShardedEngine(union_sources, shards=shards)


class TestConstruction:

    def test_shard_count_inferred_from_backends(self, union_sources):
        sharded = ShardedEngine(union_sources,
                                backends=['memory', 'sqlite', 'memory'])
        assert sharded.n_shards == 3
        kinds = [type(e.backend) for e in sharded.engines]
        assert kinds == [MemoryBackend, SQLiteBackend, MemoryBackend]

    def test_backend_count_mismatch_rejected(self, union_sources):
        with pytest.raises(SchemaError):
            ShardedEngine(union_sources, shards=2,
                          backends=['memory', 'memory', 'memory'])

    def test_shared_backend_instance_rejected(self, union_sources):
        """One Backend instance cannot serve every shard — the shards
        would all write the same tables."""
        with pytest.raises(SchemaError, match='own storage'):
            ShardedEngine(union_sources, shards=2,
                          backends=MemoryBackend(union_sources))
        shared = MemoryBackend(union_sources)
        with pytest.raises(SchemaError, match='more than once'):
            ShardedEngine(union_sources, backends=[shared, shared])

    def test_unknown_shard_key_attribute_rejected(self, union_sources):
        with pytest.raises(SchemaError):
            ShardedEngine(union_sources, shards=2,
                          shard_keys={'r1': 'nope'})

    def test_load_splits_by_key(self, union_sources):
        sharded = ShardedEngine(union_sources, shards=2,
                                shard_keys={'r1': 'a'})
        sharded.load('r1', [(0,), (1,), (2,), (3,)])
        assert sharded.shard_rows('r1') == (frozenset({(0,), (2,)}),
                                            frozenset({(1,), (3,)}))
        assert sharded.rows('r1') == {(0,), (1,), (2,), (3,)}
        assert sharded.count('r1') == 4

    def test_load_with_invalid_row_leaves_all_shards_untouched(self):
        """Bulk-load validates every row before replacing any shard —
        like the single engine, an invalid row aborts with the old
        contents intact everywhere."""
        sources = DatabaseSchema.build(
            items={'iid': 'int', 'iname': 'string'})
        sharded = ShardedEngine(sources, shards=3,
                                shard_keys={'items': 'iid'})
        sharded.load('items', [(1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')])
        before = sharded.shard_rows('items')
        with pytest.raises(SchemaError):
            sharded.load('items', [(9, 'x'), (10, 'y'), (14, 99)])
        assert sharded.shard_rows('items') == before

    def test_unkeyed_base_is_global(self, union_sources):
        sharded = ShardedEngine(union_sources, shards=2,
                                shard_keys={'r1': 'a'})
        sharded.load('r2', [(1,), (2,)])
        assert sharded.placement('r2') == 0
        assert sharded.shard_rows('r2') == (frozenset({(1,), (2,)}),
                                            frozenset())


class TestPlacement:

    def test_co_partitioned_view_is_shard_local(self, union_strategy):
        _single, sharded = _union_pair(union_strategy)
        assert sharded.placement('v') == 'partitioned'

    def test_unkeyed_view_goes_global_and_demotes_bases(
            self, union_strategy):
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys={'r1': 'a', 'r2': 'a'})
        sharded.load('r1', [(0,), (1,), (2,)])
        sharded.define_view(union_strategy, validate_first=False)
        assert sharded.placement('v') == 0
        assert sharded.placement('r1') == 0
        # Demotion migrated the partitioned rows to the global shard.
        assert sharded.shard_rows('r1') == (frozenset({(0,), (1,), (2,)}),
                                            frozenset(), frozenset())
        sharded.insert('v', (7,))
        assert sharded.shard_rows('r1')[0] == {(0,), (1,), (2,), (7,)}

    def test_differently_keyed_source_forces_global(self):
        sources = DatabaseSchema.build(
            pairs={'a': 'int', 'b': 'int'})
        strategy = UpdateStrategy.parse('w', sources, """
            +pairs(X, Y) :- w(X, Y), not pairs(X, Y).
            -pairs(X, Y) :- pairs(X, Y), not w(X, Y).
        """, expected_get='w(X, Y) :- pairs(X, Y).')
        # The view is keyed on `b`, the base on `a`: update_closure
        # writes a relation partitioned on a different key.
        sharded = ShardedEngine(sources, shards=2,
                                shard_keys={'w': 'b', 'pairs': 'a'})
        sharded.load('pairs', [(1, 2), (2, 3)])
        sharded.define_view(strategy, validate_first=False)
        assert sharded.placement('w') == 0
        assert sharded.placement('pairs') == 0
        sharded.insert('w', (5, 6))
        assert (5, 6) in sharded.rows('pairs')

    def test_misaligned_join_variable_forces_global(self, union_sources):
        """Matching key *names* is not enough: a putback rule that
        joins through a variable other than the view key cannot be
        routed shard-locally — it must fall back to global placement
        and still match the single engine."""
        bad = UpdateStrategy.parse('v', union_sources, """
            +r1(X) :- r2(X), v(Y), not r1(X).
            -r1(X) :- r1(X), not r2(X).
        """, expected_get='v(X) :- r1(X).')
        sharded = ShardedEngine(union_sources, shards=2,
                                shard_keys={'v': 'a', 'r1': 'a',
                                            'r2': 'a'})
        single = Engine(union_sources)
        for engine in (sharded, single):
            engine.load('r1', [])
            engine.load('r2', [(1,), (3,)])
            engine.define_view(bad, validate_first=False)
        assert sharded.placement('v') == 0
        for engine in (sharded, single):
            engine.insert('v', (4,))
        assert sharded.database() == single.database()

    def test_key_dropping_intermediate_forces_global(self):
        """An intermediate predicate that projects the key away breaks
        shard-local evaluability even when every relation is keyed on
        the same attribute."""
        sources = DatabaseSchema.build(t={'k': 'int', 'p': 'int'})
        dropping = UpdateStrategy.parse('tv', sources, """
            seen(P) :- t(_, P).
            +t(K, P) :- tv(K, P), not t(K, P).
            -t(K, P) :- t(K, P), seen(P), not tv(K, P).
        """, expected_get='tv(K, P) :- t(K, P).')
        sharded = ShardedEngine(sources, shards=2,
                                shard_keys={'tv': 'k', 't': 'k'})
        sharded.define_view(dropping, validate_first=False)
        assert sharded.placement('tv') == 0

    def test_key_carrying_intermediate_stays_local(self):
        """The Figure-6c shape: intermediates that carry the key
        (``inflow``/``open_task``-style) keep the view shard-local."""
        sources = DatabaseSchema.build(t={'k': 'int', 'p': 'int'})
        carrying = UpdateStrategy.parse('tv', sources, """
            big(K, P) :- t(K, P), P > 10.
            +t(K, P) :- tv(K, P), not t(K, P).
            -t(K, P) :- big(K, P), not tv(K, P).
        """, expected_get='tv(K, P) :- t(K, P), P > 10.')
        sharded = ShardedEngine(sources, shards=2,
                                shard_keys={'tv': 'k', 't': 'k'})
        sharded.define_view(carrying, validate_first=False)
        assert sharded.placement('tv') == 'partitioned'

    def test_demotion_conflict_with_shard_local_view(self, union_sources):
        local = UpdateStrategy.parse('w', union_sources, """
            +r1(X) :- w(X), not r1(X).
            -r1(X) :- r1(X), not w(X).
        """, expected_get='w(X) :- r1(X).')
        cross = UpdateStrategy.parse('x', union_sources, """
            +r1(X) :- x(X), not r1(X).
            -r1(X) :- r1(X), not x(X).
        """, expected_get='x(X) :- r1(X).')
        sharded = ShardedEngine(union_sources, shards=2,
                                shard_keys={'w': 'a', 'r1': 'a'})
        sharded.define_view(local, validate_first=False)
        with pytest.raises(SchemaError, match='shard-local'):
            sharded.define_view(cross, validate_first=False)

    def test_unknown_updated_relation_rejected(self, union_sources):
        bad = UpdateStrategy.parse('w', union_sources, """
            +r9(X) :- w(X), not r9(X).
        """, expected_get='w(X) :- r1(X).')
        sharded = ShardedEngine(union_sources, shards=2)
        with pytest.raises(SchemaError, match='unknown relation'):
            sharded.define_view(bad, validate_first=False)

    def test_duplicate_view_rejected(self, union_strategy):
        _single, sharded = _union_pair(union_strategy)
        with pytest.raises(SchemaError):
            sharded.define_view(union_strategy, validate_first=False)

    def test_failed_define_view_leaves_partitioning_intact(
            self, union_strategy):
        """A define_view that fails after the placement decision must
        not leave base tables demoted to the global shard."""
        from repro.errors import ValidationError
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys={'r1': 'a', 'r2': 'a'})
        sharded.load('r1', [(0,), (1,), (2,)])
        before = sharded.shard_rows('r1')
        no_get = UpdateStrategy.parse('v', union_strategy.sources, """
            +r1(X) :- v(X), not r1(X).
            -r1(X) :- r1(X), not v(X).
        """)                          # no expected_get, no validation
        with pytest.raises(ValidationError):
            sharded.define_view(no_get, validate_first=False)
        assert sharded.placement('r1') == 'partitioned'
        assert sharded.shard_rows('r1') == before

    def test_mistyped_view_key_attribute_raises(self, union_strategy):
        """A view key naming a nonexistent attribute is a configuration
        error at define_view — never a silent global demotion."""
        sharded = ShardedEngine(union_strategy.sources, shards=2,
                                shard_keys={'v': 'aa', 'r1': 'a',
                                            'r2': 'a'})
        sharded.load('r1', [(0,), (1,)])
        with pytest.raises(SchemaError, match='not an attribute'):
            sharded.define_view(union_strategy, validate_first=False)
        assert sharded.placement('r1') == 'partitioned'

    def test_partial_define_view_failure_rolls_back(self, union_strategy,
                                                    monkeypatch):
        """A per-shard define_view failure mid-loop must unregister the
        view from the shards that already accepted it, so the name is
        not wedged."""
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys=UNION_KEYS)
        boom = RuntimeError('shard 2 is on fire')
        original = Engine.define_view

        def failing(engine_self, *args, **kwargs):
            if engine_self is sharded.engines[2]:
                raise boom
            return original(engine_self, *args, **kwargs)

        monkeypatch.setattr(Engine, 'define_view', failing)
        with pytest.raises(RuntimeError):
            sharded.define_view(union_strategy, validate_first=False)
        monkeypatch.setattr(Engine, 'define_view', original)
        for engine in sharded.engines:
            assert not engine.is_view('v')
        # The name is free again: a retry succeeds.
        sharded.define_view(union_strategy, validate_first=False)
        assert sharded.placement('v') == 'partitioned'

    def test_failing_shard_itself_is_unregistered(self, union_strategy,
                                                  monkeypatch):
        """Engine.define_view adds the catalog entry before the backend
        hooks run; a backend failure must not leave the view half
        registered on the failing shard either."""
        sharded = ShardedEngine(union_strategy.sources, shards=2,
                                shard_keys=UNION_KEYS)
        target = sharded.engines[1].backend

        def boom(entry):
            raise RuntimeError('lowering failed')

        monkeypatch.setattr(target, 'register_view', boom)
        with pytest.raises(RuntimeError):
            sharded.define_view(union_strategy, validate_first=False)
        monkeypatch.undo()
        assert not any(engine.is_view('v') for engine in sharded.engines)
        sharded.define_view(union_strategy, validate_first=False)
        assert sharded.placement('v') == 'partitioned'

    def test_failed_exist_ok_define_keeps_adopted_views(
            self, luxury_strategy, tmp_path, monkeypatch):
        """A failed ``define_view(exist_ok=True)`` rolls back only the
        shards on which that call *created* the view.  Shards that
        merely adopted a WAL-recovered view must keep it: dropping it
        there would append ``drop_view`` records and durably delete a
        view the failed call never defined."""
        keys = {'luxuryitems': 'iid', 'items': 'iid'}

        def reopen():
            return ShardedEngine(luxury_strategy.sources, shards=2,
                                 shard_keys=keys, wal_dir=tmp_path,
                                 wal_sync=False)

        with reopen() as sharded:
            sharded.load('items', [(1, 'watch', 5000), (2, 'ring', 4000)])
            sharded.define_view(luxury_strategy, validate_first=False)
        sharded = reopen()          # both shards recover the view
        assert [e.is_view('luxuryitems') for e in sharded.engines] \
            == [True, True]
        original = Engine.define_view

        def failing(engine_self, *args, **kwargs):
            if engine_self is sharded.engines[1]:
                raise RuntimeError('shard 1 is on fire')
            return original(engine_self, *args, **kwargs)

        monkeypatch.setattr(Engine, 'define_view', failing)
        with pytest.raises(RuntimeError):
            sharded.define_view(luxury_strategy, validate_first=False,
                                exist_ok=True)
        monkeypatch.undo()
        assert [e.is_view('luxuryitems') for e in sharded.engines] \
            == [True, True]
        sharded.close()
        with reopen() as sharded:   # and nothing was dropped durably
            assert [e.is_view('luxuryitems') for e in sharded.engines] \
                == [True, True]
            sharded.define_view(luxury_strategy, validate_first=False,
                                exist_ok=True)
            assert sharded.rows('luxuryitems') == {(1, 'watch', 5000),
                                                   (2, 'ring', 4000)}

    def test_failed_demotion_restores_partitioned_layout(
            self, union_strategy, monkeypatch):
        """A migration failure during global demotion restores the
        key-partitioned row layout and unregisters the view — no
        duplicated rows, no wedged name."""
        bad = UpdateStrategy.parse('v', union_strategy.sources, """
            +r1(X) :- r2(X), v(Y), not r1(X).
            -r1(X) :- r1(X), not r2(X).
        """, expected_get='v(X) :- r1(X).')   # misaligned → global
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys={'v': 'a', 'r1': 'a',
                                            'r2': 'a'})
        sharded.load('r1', [(0,), (1,), (2,)])
        sharded.load('r2', [(3,), (4,)])
        before_r1 = sharded.shard_rows('r1')
        original = Engine.load
        calls = {'n': 0}

        def failing(engine_self, name, rows):
            calls['n'] += 1
            if calls['n'] == 2:          # mid-migration
                raise RuntimeError('disk full')
            return original(engine_self, name, rows)

        monkeypatch.setattr(Engine, 'load', failing)
        with pytest.raises(RuntimeError):
            sharded.define_view(bad, validate_first=False)
        monkeypatch.undo()
        assert sharded.shard_rows('r1') == before_r1
        assert sharded.placement('r1') == 'partitioned'
        assert not any(engine.is_view('v') for engine in sharded.engines)
        assert sharded.rows('r1') == {(0,), (1,), (2,)}

    def test_partial_demotion_failure_restores_all_bases(
            self, union_strategy, monkeypatch):
        """When the SECOND base's demotion fails, the first —
        already-demoted — base must be re-partitioned too: a failed
        define_view leaves no lasting degradation."""
        bad = UpdateStrategy.parse('v', union_strategy.sources, """
            +r1(X) :- r2(X), v(Y), not r1(X).
            -r1(X) :- r1(X), not r2(X).
        """, expected_get='v(X) :- r1(X).\nv(X) :- r2(X).')
        sharded = ShardedEngine(union_strategy.sources, shards=3,
                                shard_keys={'v': 'a', 'r1': 'a',
                                            'r2': 'a'})
        sharded.load('r1', [(0,), (1,), (2,)])
        sharded.load('r2', [(3,), (4,), (5,)])
        before = (sharded.shard_rows('r1'), sharded.shard_rows('r2'))
        original = Engine.load
        calls = {'n': 0}

        def failing(engine_self, name, rows):
            calls['n'] += 1
            if calls['n'] == 5:          # mid-migration of base #2
                raise RuntimeError('disk full')
            return original(engine_self, name, rows)

        monkeypatch.setattr(Engine, 'load', failing)
        with pytest.raises(RuntimeError):
            sharded.define_view(bad, validate_first=False)
        monkeypatch.undo()
        assert sharded.placement('r1') == 'partitioned'
        assert sharded.placement('r2') == 'partitioned'
        assert (sharded.shard_rows('r1'),
                sharded.shard_rows('r2')) == before
        assert not any(engine.is_view('v') for engine in sharded.engines)

    def test_report_view_definition_constrains_placement(self):
        """Placement must analyse the get program the engine will
        actually evaluate — a certified report.view_definition reading
        relations beyond the putback must pull them into the global
        demotion set."""
        from repro.datalog.parser import parse_program

        class CertifiedReport:
            def __init__(self, view_definition):
                self.view_definition = view_definition

            def raise_if_invalid(self):
                pass

        sources = DatabaseSchema.build(r1={'a': 'int'}, r3={'a': 'int'})
        strategy = UpdateStrategy.parse('v', sources, """
            +r1(X) :- v(X), not r1(X).
            -r1(X) :- r1(X), not v(X).
        """, expected_get='v(X) :- r1(X).')
        # The certified definition additionally reads r3, misaligned.
        report = CertifiedReport(parse_program(
            'v(X) :- r1(X), r3(Y), X = Y.'))
        sharded = ShardedEngine(sources, shards=2,
                                shard_keys={'v': 'a', 'r1': 'a',
                                            'r3': 'a'})
        single = Engine(sources)
        for engine in (sharded, single):
            engine.load('r1', [(1,), (2,)])
            engine.load('r3', [(1,), (2,), (3,)])
            engine.define_view(strategy, report=report)
        assert sharded.placement('v') == 0
        assert sharded.placement('r3') == 0      # demoted with the view
        for engine in (sharded, single):
            engine.insert('v', (3,))
        assert sharded.database() == single.database()
        assert sharded.rows('v') == frozenset(single.rows('v'))

    def test_aggregated_stats_feed_define_view(self, union_strategy):
        sharded = ShardedEngine(union_strategy.sources, shards=2,
                                shard_keys=UNION_KEYS)
        sharded.load('r1', [(i,) for i in range(10)])
        sharded.load('r2', [(i,) for i in range(100, 140)])
        sharded.define_view(union_strategy, validate_first=False)
        # Every shard's plans were seeded with the cluster-wide counts,
        # not the local (roughly halved) ones.
        for engine in sharded.engines:
            assert engine._wal_defines['v'][3] == {'r1': 10, 'r2': 40}


class TestRouting:

    def test_insert_routes_to_owning_shard(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            engine.insert('v', (9,))
        assert (9,) in sharded.shard_rows('r1')[9 % 3]
        assert single.database() == sharded.database()

    def test_keyed_delete_routes(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            engine.delete('v', where={'a': 2})
        assert single.database() == sharded.database()
        assert sharded.rows('v') == {(1,), (4,), (5,)}

    def test_keyed_delete_with_equal_but_differently_typed_key(
            self, union_strategy):
        """WHERE matches rows with == (1 == 1.0 == True): routing must
        land on the shard that holds them."""
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            engine.delete('v', where={'a': True})      # matches (1,)
            engine.delete('v', where={'a': 4.0})       # matches (4,)
        assert single.database() == sharded.database()
        assert sharded.rows('v') == {(2,), (5,)}

    def test_unkeyed_delete_broadcasts(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            engine.delete('v', where=lambda row: row['a'] > 3)
        assert single.database() == sharded.database()
        assert sharded.rows('v') == {(1,), (2,)}

    def test_delete_everything(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            engine.delete('v')
        assert single.database() == sharded.database()
        assert sharded.rows('v') == frozenset()

    def test_update_moving_rows_across_shards(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        # 1 lives on shard 1 (mod 3); 8 lives on shard 2.
        for engine in (single, sharded):
            engine.update('v', {'a': 8}, where={'a': 1})
        assert single.database() == sharded.database()
        assert (8,) in sharded.shard_rows('r1')[8 % 3]
        assert all((1,) not in rows for rows in sharded.shard_rows('r1'))

    def test_update_not_touching_key_broadcasts(self):
        sources = DatabaseSchema.build(t={'k': 'int', 'p': 'int'})
        strategy = UpdateStrategy.parse('tv', sources, """
            +t(K, P) :- tv(K, P), not t(K, P).
            -t(K, P) :- t(K, P), not tv(K, P).
        """, expected_get='tv(K, P) :- t(K, P).')
        single = Engine(sources)
        sharded = ShardedEngine(sources, shards=2,
                                shard_keys={'tv': 'k', 't': 'k'})
        for engine in (single, sharded):
            engine.load('t', [(1, 10), (2, 20), (4, 40)])
            engine.define_view(strategy, validate_first=False)
            engine.update('tv', {'p': lambda row: row['p'] + 1},
                          where=lambda row: row['p'] >= 20)
        assert single.database() == sharded.database()
        assert sharded.rows('tv') == {(1, 10), (2, 21), (4, 41)}

    def test_statement_order_preserved_within_bucket(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        from repro.rdbms.dml import Delete, Insert, Update
        bucket = [Insert((9,)), Update({'a': 12}, {'a': 9}),
                  Delete({'a': 12}), Insert((12,))]
        for engine in (single, sharded):
            engine.execute('v', bucket)
        assert single.database() == sharded.database()
        assert (12,) in sharded.rows('v')

    def test_transaction_spanning_views_and_bases(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            with engine.transaction() as txn:
                txn.insert('v', (7,))
                txn.insert('r2', (10,))
                txn.delete('v', where={'a': 4})
        assert single.database() == sharded.database()
        assert frozenset(single.rows('v')) == sharded.rows('v')

    def test_direct_base_dml_splits(self, union_strategy):
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            engine.insert('r1', (6,))
            engine.delete('r2', where={'a': 5})
        assert single.database() == sharded.database()
        assert (6,) in sharded.shard_rows('r1')[0]

    def test_arity_error_is_schema_error(self, union_strategy):
        _single, sharded = _union_pair(union_strategy)
        with pytest.raises(SchemaError):
            sharded.insert('v', (1, 2, 3))

    def test_unknown_target_rejected(self, union_strategy):
        _single, sharded = _union_pair(union_strategy)
        with pytest.raises(SchemaError):
            sharded.insert('nope', (1,))


class TestMixedBackends:

    def test_mixed_shards_agree_with_single(self, luxury_strategy):
        sharded = _luxury_sharded(luxury_strategy)
        single = Engine(luxury_strategy.sources)
        single.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                              (3, 'cap', 10)])
        single.define_view(luxury_strategy, validate_first=False)
        for engine in (single, sharded):
            engine.rows('luxuryitems')
            with engine.transaction() as txn:
                for i in range(10, 22):
                    txn.insert('luxuryitems', (i, f'item{i}', 2000 + i))
                txn.delete('luxuryitems', where={'iid': 11})
        assert single.database() == sharded.database()
        assert frozenset(single.rows('luxuryitems')) \
            == sharded.rows('luxuryitems')
        # Every shard holds only its own key range.
        for index, rows in enumerate(sharded.shard_rows('items')):
            assert all(iid % 3 == index for iid, _n, _p in rows)

    def test_file_backed_cold_shard(self, luxury_strategy, tmp_path):
        cold = SQLiteBackend(luxury_strategy.sources,
                             path=str(tmp_path / 'cold.db'))
        sharded = ShardedEngine(luxury_strategy.sources,
                                backends=['memory', cold],
                                shard_keys={'luxuryitems': 'iid',
                                            'items': 'iid'})
        sharded.load('items', [(2, 'ring', 4000), (3, 'cap', 2000)])
        sharded.define_view(luxury_strategy, validate_first=False)
        sharded.insert('luxuryitems', (5, 'tiara', 9000))
        assert (5, 'tiara', 9000) in sharded.shard_rows('items')[1]
        sharded.close()


class TestAtomicity:

    def test_constraint_violation_rolls_back_all_shards(
            self, luxury_strategy):
        sharded = _luxury_sharded(luxury_strategy)
        sharded.rows('luxuryitems')
        before = sharded.database()
        before_shards = sharded.shard_rows('items')
        with pytest.raises(ConstraintViolation):
            with sharded.transaction() as txn:
                txn.insert('luxuryitems', (10, 'a', 2000))   # shard 1
                txn.insert('luxuryitems', (11, 'b', 3000))   # shard 2
                txn.insert('luxuryitems', (12, 'gum', 5))    # violates
        assert sharded.database() == before
        assert sharded.shard_rows('items') == before_shards
        assert sharded.rows('luxuryitems') == {(1, 'watch', 5000),
                                               (2, 'ring', 4000)}

    def test_empty_bucket_does_not_split_batched_translation(
            self, luxury_strategy):
        """An empty bucket is a no-op before the flush gate on both
        deployments: a transiently-violating insert repaired later in
        the same transaction still coalesces to nothing."""
        from repro.rdbms.dml import Delete, Insert
        sharded = _luxury_sharded(luxury_strategy)
        single = Engine(luxury_strategy.sources)
        single.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                              (3, 'cap', 10)])
        single.define_view(luxury_strategy, validate_first=False)
        batches = [('luxuryitems', [Insert((7, 'cheap', 5))]),
                   ('items', []),
                   ('luxuryitems', [Delete({'iid': 7})])]
        for engine in (single, sharded):
            engine.execute_many(batches)       # net-empty: no raise
        assert sharded.database() == single.database()

    def test_unknown_where_column_raises_like_single_engine(
            self, union_strategy):
        """A keyed WHERE naming an unknown column must not be pinned
        away from the rows whose scan raises the SchemaError."""
        single, sharded = _union_pair(union_strategy)
        for engine in (single, sharded):
            with pytest.raises(SchemaError, match='unknown column'):
                engine.delete('r1', where={'bogus': 9, 'a': 2})
        assert single.database() == sharded.database()

    def test_two_faults_on_different_shards_raise_like_single_engine(
            self, luxury_strategy):
        """A constraint fault on one shard plus a schema fault on
        another must surface in single-engine statement order: the
        pending view flush is forced before the later bucket derives,
        so ConstraintViolation wins on both deployments."""
        from repro.rdbms.dml import Insert
        sharded = _luxury_sharded(luxury_strategy)
        single = Engine(luxury_strategy.sources)
        single.load('items', [(1, 'watch', 5000), (2, 'ring', 4000),
                              (3, 'cap', 10)])
        single.define_view(luxury_strategy, validate_first=False)
        batches = [('luxuryitems', [Insert((5, 'cheap', 10))]),
                   ('items', [Insert((500, 'x', 'NOT_AN_INT'))])]
        for engine in (single, sharded):
            with pytest.raises(ConstraintViolation):
                engine.execute_many(batches)
        assert sharded.database() == single.database()

    def test_multi_view_abort_surfaces_first_staged_violation(self):
        """Two views violating in one transaction: shards prepare in
        first-touched order, so the SAME view's violation surfaces as
        on a single engine (same witness, not just same type)."""
        sources = DatabaseSchema.build(
            items={'iid': 'int', 'price': 'int'},
            goods={'gid': 'int', 'price': 'int'})
        lux = UpdateStrategy.parse('lux', sources, """
            ⊥ :- lux(I, P), not P > 1000.
            +items(I, P) :- lux(I, P), not items(I, P).
            -items(I, P) :- items(I, P), P > 1000, not lux(I, P).
        """, expected_get='lux(I, P) :- items(I, P), P > 1000.')
        cheap = UpdateStrategy.parse('cheap', sources, """
            ⊥ :- cheap(I, P), not P < 100.
            +goods(I, P) :- cheap(I, P), not goods(I, P).
            -goods(I, P) :- goods(I, P), P < 100, not cheap(I, P).
        """, expected_get='cheap(I, P) :- goods(I, P), P < 100.')
        witnesses = []
        for build in ('single', 'sharded'):
            if build == 'single':
                engine = Engine(sources)
            else:
                engine = ShardedEngine(sources, shards=2,
                                       shard_keys={'lux': 'iid',
                                                   'items': 'iid',
                                                   'cheap': 'gid',
                                                   'goods': 'gid'})
            engine.load('items', [])
            engine.load('goods', [])
            engine.define_view(lux, validate_first=False)
            engine.define_view(cheap, validate_first=False)
            from repro.rdbms.dml import Insert
            with pytest.raises(ConstraintViolation) as err:
                # lux's violation routes to shard 1, cheap's to shard
                # 0: index order would surface cheap's first.
                engine.execute_many([('lux', [Insert((1, 50))]),
                                     ('cheap', [Insert((2, 500))])])
            witnesses.append(err.value.witness)
        assert witnesses[0] == witnesses[1]

    @pytest.mark.parametrize('execution', ['inline', 'processes'])
    def test_unstorable_row_refuses_the_whole_load(self, execution):
        """A row one shard's backend cannot store (SQLite keeps no
        integer outside 64 bits) refuses the whole reload before any
        shard's table is replaced: the cluster keeps its old rows, as
        a single engine does."""
        schema = DatabaseSchema.build(t={'k': 'int', 'v': 'int'})
        with ShardedEngine(schema, shards=2, shard_keys={'t': 'k'},
                           backends='sqlite',
                           execution=execution) as sharded:
            sharded.load('t', [(k, k) for k in range(10)])
            before = sharded.shard_rows('t')
            with pytest.raises(SchemaError, match='64 bits'):
                sharded.load('t', [(k, 100 + k) for k in range(10)]
                             + [(3, 2 ** 70)])
            assert sharded.shard_rows('t') == before
            assert sorted(sharded.rows('t')) == [(k, k) for k in range(10)]
            sharded.load('t', [(k, 100 + k) for k in range(10)])
            assert sorted(sharded.rows('t')) \
                == [(k, 100 + k) for k in range(10)]

    def test_schema_error_rolls_back_all_shards(self, union_strategy):
        _single, sharded = _union_pair(union_strategy)
        before = sharded.database()
        with pytest.raises(SchemaError):
            with sharded.transaction() as txn:
                txn.insert('v', (9,))
                txn.insert('r1', ('not-an-int',))
        assert sharded.database() == before


class TestScatterGather:

    def test_view_cache_materialises_per_shard(self, union_strategy):
        _single, sharded = _union_pair(union_strategy)
        assert sharded.rows('v') == {(1,), (2,), (4,), (5,)}
        for index, engine in enumerate(sharded.engines):
            assert engine.backend.has_cache('v')
            assert frozenset(engine.rows('v')) \
                == sharded.shard_rows('v')[index]

    def test_database_merges_shards(self, union_strategy):
        _single, sharded = _union_pair(union_strategy)
        snapshot = sharded.database()
        assert snapshot['r1'] == {(1,), (4,)}
        assert snapshot['r2'] == {(2,), (5,)}

    def test_classifier_matches_delta_split(self, union_strategy):
        from repro.relational.delta import Delta
        _single, sharded = _union_pair(union_strategy)
        delta = Delta({(0,), (1,), (5,)}, {(4,)})
        parts = delta.split(sharded.classifier('r1'))
        assert parts[0].insertions == {(0,)}
        assert parts[1].insertions == {(1,)}
        assert parts[2].insertions == {(5,)}
        assert parts[1].deletions == {(4,)}
        assert Delta(frozenset().union(*(p.insertions
                                         for p in parts.values())),
                     frozenset().union(*(p.deletions
                                         for p in parts.values()))) == delta
