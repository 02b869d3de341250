"""Unit tests for the deterministic fault-injection subsystem.

The distributed-stack tests (``test_procpool.py``, ``test_wal.py``,
``tests/fuzz/test_chaos.py``) prove what the *system* does under
injected faults; these prove the injector itself — rule matching, hit
counting, once/recurring arming, identity stamping, central vs.
site-interpreted actions, and the no-plan fast path — so a chaos test
that passes is passing for the right reason.
"""

import pytest

from repro.errors import SchemaError, ShardUnavailableError
from repro.rdbms import faults
from repro.rdbms.faults import FaultPlan, InjectedFault


@pytest.fixture(autouse=True)
def no_leftover_plan():
    yield
    faults.uninstall()
    faults.set_identity(shard=None, generation=0)


class TestFire:

    def test_no_plan_is_a_noop(self):
        assert faults.active() is None
        assert faults.fire('rpc.send', method='ping') is None

    def test_unknown_site_and_action_rejected(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match='unknown fault site'):
            plan._add('no.such.site', 'drop', 1, {})
        with pytest.raises(ValueError, match='unknown fault action'):
            plan._add('rpc.send', 'explode', 1, {})
        with pytest.raises(ValueError, match='hit must be'):
            plan.drop_rpc(hit=0)

    def test_hit_counting_and_once(self):
        plan = FaultPlan()
        plan.delay_rpc(method='ping', hit=2, seconds=0.0)
        with plan.installed():
            assert faults.fire('rpc.send', method='ping') is None
            assert faults.fire('rpc.send', method='ping') == 'delay'
            # once=True: disarmed after the first firing.
            assert faults.fire('rpc.send', method='ping') is None
        assert plan.fired() == 1
        assert plan.fired('rpc.send') == 1
        assert plan.fired('wal.fsync') == 0

    def test_recurring_rule_fires_every_match(self):
        plan = FaultPlan()
        plan.delay_rpc(method='ping', hit=1, seconds=0.0, once=False)
        with plan.installed():
            for _ in range(3):
                assert faults.fire('rpc.send', method='ping') == 'delay'
        assert plan.fired() == 3

    def test_match_is_exact_with_none_wildcards(self):
        plan = FaultPlan()
        plan.drop_rpc(shard=1, method='prepare_commit')
        with plan.installed():
            # Wrong method, wrong shard: no firing.
            assert faults.fire('rpc.send', method='ping', shard=1) is None
            assert faults.fire('rpc.send', method='prepare_commit',
                               shard=0) is None
            with pytest.raises(InjectedFault):
                faults.fire('rpc.send', method='prepare_commit', shard=1)
        plan2 = FaultPlan()
        plan2.drop_rpc()                         # all-wildcard rule
        with plan2.installed():
            with pytest.raises(InjectedFault):
                faults.fire('rpc.send', method='anything', shard=9)

    def test_identity_is_merged_into_context(self):
        """Worker identity (shard, generation) stamps every fired
        context, so a rule can spare restarted incarnations — the
        guard against crash-looping a kill rule."""
        plan = FaultPlan()
        plan.tear_frame(shard=2, generation=0)
        with plan.installed():
            faults.set_identity(shard=2, generation=1)   # a restart
            assert faults.fire('wal.append', kind='commit') is None
            faults.set_identity(shard=2, generation=0)   # the original
            # 'tear' is site-interpreted: fire() returns the name, the
            # call site (wal.append) decides what it means.
            assert faults.fire('wal.append', kind='commit') == 'tear'
        assert plan.fired('wal.append') == 1
        site, action, ctx = plan.log[0]
        assert (site, action) == ('wal.append', 'tear')
        assert ctx['shard'] == 2 and ctx['generation'] == 0

    def test_error_actions_raise_oserror_subclass(self):
        plan = FaultPlan()
        plan.fail_fsync()
        plan.fail_replica()
        with plan.installed():
            with pytest.raises(InjectedFault) as excinfo:
                faults.fire('wal.fsync')
            assert isinstance(excinfo.value, OSError)
            with pytest.raises(InjectedFault):
                faults.fire('replica.catch_up')

    def test_stall_is_returned_not_raised(self):
        plan = FaultPlan()
        plan.stall_replica()
        with plan.installed():
            assert faults.fire('replica.catch_up') == 'stall'
            assert faults.fire('replica.catch_up') is None  # once

    def test_installed_contextmanager_uninstalls_on_error(self):
        plan = FaultPlan()
        with pytest.raises(RuntimeError):
            with plan.installed():
                assert faults.active() is plan
                raise RuntimeError('boom')
        assert faults.active() is None

    def test_log_records_every_firing_in_order(self):
        plan = FaultPlan(seed=7)
        plan.delay_rpc(method='a', seconds=0.0)
        plan.delay_rpc(method='b', seconds=0.0)
        with plan.installed():
            faults.fire('rpc.send', method='b')
            faults.fire('rpc.send', method='a')
        assert [ctx['method'] for _, _, ctx in plan.log] == ['b', 'a']
        assert plan.seed == 7


class TestHookSites:
    """Each production hook actually consults the plan (smoke-level:
    the full behaviours live in the subsystem test files)."""

    def test_rpc_send_drop_breaks_the_channel(self, union_sources,
                                              tmp_path):
        from repro.rdbms.procpool import ProcessShard
        plan = FaultPlan()
        plan.drop_rpc(method='ping')
        shard = ProcessShard(0, union_sources, 'memory',
                             wal_path=tmp_path / 'shard-0.wal')
        try:
            with plan.installed():
                with pytest.raises(ShardUnavailableError):
                    shard.channel.call('ping')
            assert plan.fired('rpc.send') == 1
            assert shard.channel.dead            # like a real OSError
            assert shard.process.is_alive()      # worker side unharmed
            shard.restart()
            assert shard.channel.call('ping') == 'pong'
        finally:
            shard.close()

    def test_wal_append_without_plan_is_clean(self, tmp_path):
        from repro.rdbms.wal import WriteAheadLog
        with WriteAheadLog(tmp_path / 'w.wal', sync=False) as wal:
            assert wal.append('drop_view', 'a') == 1

    def test_worker_dispatch_hang_site(self, union_sources):
        """The dispatch hook honours a hang rule (tiny sleep here; the
        timeout behaviour is proven in test_procpool.py)."""
        from repro.rdbms.procpool import WorkerRuntime
        plan = FaultPlan()
        rule = plan.hang_worker(method='ping', seconds=0.0,
                                generation=None)
        runtime = WorkerRuntime(union_sources, 'memory')
        try:
            with plan.installed():
                assert runtime.dispatch('ping', ()) == 'pong'
            assert rule.fired == 1
        finally:
            runtime.close()
