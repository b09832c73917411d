"""Tests for the timing core model, driven through a real L1 + directory."""

import pytest

from repro.cpu.core import Core, CoreConfig, CoreState, Op, OpKind
from repro.cpu.sync import SyncManager

from tests.coherence.conftest import Fabric


class ScriptedWorkload:
    """Yields a fixed op list, then WORK forever."""

    def __init__(self, ops):
        self.ops = list(ops)

    def next_op(self, rng):
        if self.ops:
            return self.ops.pop(0)
        return Op(kind=OpKind.WORK)


def make_core(node, fabric, ops, sync=None, **config_kwargs):
    sync = sync or SyncManager(1)
    config = CoreConfig(**config_kwargs)
    core = Core(
        node=node,
        workload=ScriptedWorkload(ops),
        l1=fabric.l1s[node],
        sync=sync,
        config=config,
        seed=0,
    )
    return core


def run(fabric, cores, cycles):
    for cycle in range(cycles):
        for core in cores:
            core.tick(cycle)
        fabric.pump()


class TestConfig:
    @pytest.mark.parametrize("interval", (0, -4))
    def test_spin_interval_below_one_rejected(self, interval):
        with pytest.raises(ValueError, match=f"spin_interval.*{interval}"):
            CoreConfig(spin_interval=interval)

    def test_blocking_fraction_message_names_the_value(self):
        with pytest.raises(ValueError, match="1.5"):
            CoreConfig(blocking_fraction=1.5)


class TestIssue:
    def test_work_ops_retire_at_ipc(self):
        fabric = Fabric(num_nodes=1)
        core = make_core(0, fabric, [], ipc=3)
        run(fabric, [core], 10)
        assert core.instructions == 30

    def test_hit_does_not_stall(self):
        fabric = Fabric(num_nodes=1)
        fabric.read(0, 0x5)  # pre-fill the line
        core = make_core(
            0, fabric, [Op(kind=OpKind.MEM, line=0x5)], blocking_fraction=1.0
        )
        run(fabric, [core], 3)
        assert core.state is CoreState.RUNNING

    def test_blocking_miss_stalls_until_fill(self):
        fabric = Fabric(num_nodes=1)
        core = make_core(
            0, fabric, [Op(kind=OpKind.MEM, line=0x5)], blocking_fraction=1.0
        )
        core.tick(0)  # miss issued, core stalls
        assert core.state is CoreState.STALLED
        fabric.pump()  # data comes back -> on_fill
        assert core.state is CoreState.RUNNING
        assert core.mshr.in_use == 0

    def test_nonblocking_miss_overlaps(self):
        fabric = Fabric(num_nodes=1)
        ops = [Op(kind=OpKind.MEM, line=0x5)] + [Op(kind=OpKind.WORK)] * 5
        core = make_core(0, fabric, ops, blocking_fraction=0.0, ipc=1)
        core.tick(0)
        assert core.state is CoreState.RUNNING  # continued past the miss

    def test_mshr_full_structural_stall(self):
        fabric = Fabric(num_nodes=1)
        ops = [Op(kind=OpKind.MEM, line=line) for line in (0x1, 0x2)]
        core = make_core(0, fabric, ops, blocking_fraction=0.0, mshr_limit=1, ipc=2)
        core.tick(0)  # first miss issues; second blocks on MSHRs
        assert core.state is CoreState.STALLED
        assert core._pending is not None
        fabric.pump()
        run(fabric, [core], 3)
        assert core.mshr.in_use == 0

    def test_secondary_access_to_inflight_line_stalls(self):
        fabric = Fabric(num_nodes=1)
        ops = [
            Op(kind=OpKind.MEM, line=0x1),
            Op(kind=OpKind.MEM, line=0x1, is_write=True),
        ]
        core = make_core(0, fabric, ops, blocking_fraction=0.0, ipc=2)
        core.tick(0)
        assert core.state is CoreState.STALLED
        fabric.pump()
        run(fabric, [core], 5)
        # The retried write upgraded the line to M.
        from repro.coherence.l1 import L1State

        assert fabric.l1s[0].state(0x1) is L1State.M


class TestBarriers:
    def test_two_cores_meet_at_barrier(self):
        fabric = Fabric(num_nodes=2)
        sync = SyncManager(2)
        fast = make_core(0, fabric, [Op(kind=OpKind.BARRIER)], sync=sync)
        slow_ops = [Op(kind=OpKind.WORK)] * 12 + [Op(kind=OpKind.BARRIER)]
        slow = make_core(1, fabric, slow_ops, sync=sync, ipc=1)
        run(fabric, [fast, slow], 60)
        assert sync.barriers_completed == 1
        assert fast.state is CoreState.RUNNING
        assert slow.state is CoreState.RUNNING

    def test_early_arriver_spins(self):
        fabric = Fabric(num_nodes=2)
        sync = SyncManager(2)
        fast = make_core(0, fabric, [Op(kind=OpKind.BARRIER)], sync=sync)
        never = make_core(1, fabric, [], sync=sync)
        run(fabric, [fast, never], 30)
        assert fast.state is CoreState.BARRIER_SPIN
        assert sync.barriers_completed == 0

    def test_subscription_waits_without_spinning(self):
        fabric = Fabric(num_nodes=2)
        sync = SyncManager(2, subscription=True)
        fast = make_core(0, fabric, [Op(kind=OpKind.BARRIER)], sync=sync)
        never = make_core(1, fabric, [], sync=sync)
        run(fabric, [fast, never], 30)
        assert fast.state is CoreState.BARRIER_WAIT
        # A spinning core would issue read requests; a waiter is silent.
        from repro.coherence.messages import MsgType

        spin_reads = [
            m
            for m in fabric.log
            if m.line == SyncManager.barrier_line()
            and m.mtype is MsgType.REQ_SH
        ]
        assert spin_reads == []

    def test_release_signal_wakes_waiter(self):
        fabric = Fabric(num_nodes=2)
        sync = SyncManager(2, subscription=True)
        waiter = make_core(0, fabric, [Op(kind=OpKind.BARRIER)], sync=sync)
        other = make_core(1, fabric, [Op(kind=OpKind.BARRIER)], sync=sync)
        run(fabric, [waiter], 10)
        assert waiter.state is CoreState.BARRIER_WAIT
        run(fabric, [other], 10)  # completes the barrier
        waiter.release_signal()
        assert waiter.state is CoreState.RUNNING


class TestLocks:
    def test_uncontended_lock_episode(self):
        fabric = Fabric(num_nodes=1)
        sync = SyncManager(1)
        ops = [Op(kind=OpKind.LOCK, lock_id=0, hold_cycles=3)]
        core = make_core(0, fabric, ops, sync=sync)
        run(fabric, [core], 30)
        assert sync.lock_acquisitions == 1
        assert sync.holder(0) == -1  # released
        assert core.state is CoreState.RUNNING

    def test_contended_lock_serializes(self):
        fabric = Fabric(num_nodes=2)
        sync = SyncManager(2)
        a = make_core(
            0, fabric, [Op(kind=OpKind.LOCK, lock_id=0, hold_cycles=5)], sync=sync
        )
        b = make_core(
            1, fabric, [Op(kind=OpKind.LOCK, lock_id=0, hold_cycles=5)], sync=sync
        )
        run(fabric, [a, b], 120)
        assert sync.lock_acquisitions == 2
        assert sync.holder(0) == -1
        assert a.state is CoreState.RUNNING and b.state is CoreState.RUNNING

    def test_subscription_lock_handoff(self):
        fabric = Fabric(num_nodes=2)
        sync = SyncManager(2, subscription=True)
        wakeups = []
        a = make_core(
            0, fabric, [Op(kind=OpKind.LOCK, lock_id=0, hold_cycles=5)], sync=sync
        )
        b = make_core(
            1, fabric, [Op(kind=OpKind.LOCK, lock_id=0, hold_cycles=5)], sync=sync
        )
        cores = {0: a, 1: b}
        sync.on_lock_release = lambda lock, waiters: wakeups.extend(
            cores[w].release_signal() or w for w in waiters
        )
        run(fabric, [a, b], 120)
        assert sync.lock_acquisitions == 2
        assert len(wakeups) == 1


class TestCycleAccounting:
    def test_busy_stall_sync_partition(self):
        fabric = Fabric(num_nodes=1)
        ops = [Op(kind=OpKind.MEM, line=0x9)]
        core = make_core(0, fabric, ops, blocking_fraction=1.0)
        core.tick(0)       # busy (issued the miss)
        core.tick(1)       # stalled
        fabric.pump()
        core.tick(2)       # busy again
        cycles = core.stats.as_dict()  # the read settles the ledger
        assert cycles["busy_cycles"] == 2
        assert cycles["stall_cycles"] == 1
