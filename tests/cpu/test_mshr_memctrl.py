"""Tests for MSHRs and memory controllers."""

import pytest

from repro.coherence.messages import CoherenceMessage, MsgType
from repro.cpu.memctrl import MemoryConfig, MemoryController
from repro.cpu.mshr import MshrFile


class TestMshrFile:
    def test_allocate_until_full(self):
        mshr = MshrFile(limit=2)
        assert mshr.allocate(1)
        assert mshr.allocate(2)
        assert not mshr.allocate(3)
        assert not mshr.contains(3)  # a refused miss holds no register

    def test_merge_secondary_miss(self):
        mshr = MshrFile(limit=1)
        assert mshr.allocate(1)
        assert mshr.allocate(1)  # merge, no new register
        assert mshr.in_use == 1

    def test_release_frees(self):
        mshr = MshrFile(limit=1)
        mshr.allocate(1)
        mshr.release(1)
        assert mshr.allocate(2)

    def test_release_unknown_noop(self):
        MshrFile().release(9)

    def test_full_property(self):
        mshr = MshrFile(limit=1)
        assert not mshr.full
        mshr.allocate(1)
        assert mshr.full

    def test_validation(self):
        with pytest.raises(ValueError):
            MshrFile(limit=0)


def mem_read(line=0x10, uid_src=3):
    return CoherenceMessage(
        mtype=MsgType.MEM_READ, line=line, sender=uid_src, dest=0, requester=1
    )


class TestMemoryConfig:
    def test_from_gbps_table4_low(self):
        assert MemoryConfig.from_gbps(8.8).occupancy_cycles == 12

    def test_from_gbps_table4_high(self):
        assert MemoryConfig.from_gbps(52.8).occupancy_cycles == 2

    def test_latency_default(self):
        assert MemoryConfig().latency == 200


class TestMemoryController:
    """The controller files each transfer start through ``schedule``;
    these tests stand in for the system calendar with a list."""

    def make(self, gbps=8.8):
        log, filed = [], []
        controller = MemoryController(
            node=0,
            send=lambda msg, delay: log.append((msg, delay)),
            schedule=lambda cycle, action: filed.append((cycle, action)),
            config=MemoryConfig.from_gbps(gbps),
        )
        return controller, log, filed

    @staticmethod
    def run(filed):
        """Run the filed starts in cycle order (a start may file the
        next one); returns the cycles they ran at."""
        ran = []
        while filed:
            filed.sort(key=lambda entry: entry[0])
            cycle, action = filed.pop(0)
            ran.append(cycle)
            action()
        return ran

    def test_read_replies_after_latency(self):
        controller, log, filed = self.make()
        controller.handle(mem_read(), 0)
        self.run(filed)
        msg, delay = log[0]
        assert msg.mtype is MsgType.MEM_ACK
        assert msg.dest == 3
        assert delay == 200 + 12

    def test_write_is_fire_and_forget(self):
        controller, log, filed = self.make()
        controller.handle(
            CoherenceMessage(
                mtype=MsgType.MEM_WRITE, line=1, sender=3, dest=0, requester=3
            ),
            0,
        )
        self.run(filed)
        assert log == []
        assert int(controller.writes) == 1

    def test_bandwidth_serializes_requests(self):
        controller, log, filed = self.make()
        controller.handle(mem_read(0x1, uid_src=0), 0)
        controller.handle(mem_read(0x2, uid_src=0), 0)
        assert len(filed) == 1  # the second start is filed by the first
        assert self.run(filed) == [0, 12]
        assert len(log) == 2
        # Second transfer started 12 cycles (one occupancy) later.
        assert controller.queue_wait.maximum == 12

    def test_higher_bandwidth_less_queuing(self):
        controller, log, filed = self.make(gbps=52.8)
        controller.handle(mem_read(0x1, uid_src=0), 0)
        controller.handle(mem_read(0x2, uid_src=0), 0)
        assert self.run(filed) == [0, 2]
        assert controller.queue_wait.maximum == 2

    def test_start_cycle_of_a_remote_and_a_local_request(self):
        """A request that crossed the network is delivered after the
        cycle's starts ran, so it starts next cycle; a local one is
        delivered from the calendar and starts in its own cycle."""
        controller, _, filed = self.make()
        controller.handle(mem_read(0x1, uid_src=3), 5)
        assert [cycle for cycle, _ in filed] == [6]
        assert self.run(filed) == [6]
        controller.handle(mem_read(0x2, uid_src=0), 30)
        assert [cycle for cycle, _ in filed] == [30]
        # Arriving at a busy channel: filed for the cycle it frees up.
        self.run(filed)
        controller.handle(mem_read(0x3, uid_src=3), 31)
        assert [cycle for cycle, _ in filed] == [42]

    def test_rejects_foreign_messages(self):
        controller, _, filed = self.make()
        with pytest.raises(ValueError):
            controller.handle(
                CoherenceMessage(
                    mtype=MsgType.REQ_SH, line=1, sender=3, dest=0, requester=3
                ),
                0,
            )
        assert filed == []

    def test_quiescent(self):
        controller, _, filed = self.make()
        assert controller.quiescent(0)
        controller.handle(mem_read(), 0)
        assert not controller.quiescent(0)
        self.run(filed)
        assert controller.quiescent(20)
