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
    def make(self, gbps=8.8):
        log = []
        controller = MemoryController(
            node=0,
            send=lambda msg, delay: log.append((msg, delay)),
            config=MemoryConfig.from_gbps(gbps),
        )
        return controller, log

    def test_read_replies_after_latency(self):
        controller, log = self.make()
        controller.handle(mem_read(), 0)
        controller.tick(0)
        msg, delay = log[0]
        assert msg.mtype is MsgType.MEM_ACK
        assert msg.dest == 3
        assert delay == 200 + 12

    def test_write_is_fire_and_forget(self):
        controller, log = self.make()
        controller.handle(
            CoherenceMessage(
                mtype=MsgType.MEM_WRITE, line=1, sender=3, dest=0, requester=3
            ),
            0,
        )
        controller.tick(0)
        assert log == []
        assert int(controller.writes) == 1

    def test_bandwidth_serializes_requests(self):
        controller, log = self.make()
        controller.handle(mem_read(0x1), 0)
        controller.handle(mem_read(0x2), 0)
        for cycle in range(30):
            controller.tick(cycle)
        assert len(log) == 2
        # Second transfer started 12 cycles (one occupancy) later.
        assert controller.queue_wait.maximum == 12

    def test_higher_bandwidth_less_queuing(self):
        controller, log = self.make(gbps=52.8)
        controller.handle(mem_read(0x1), 0)
        controller.handle(mem_read(0x2), 0)
        for cycle in range(10):
            controller.tick(cycle)
        assert controller.queue_wait.maximum == 2

    def test_rejects_foreign_messages(self):
        controller, _ = self.make()
        with pytest.raises(ValueError):
            controller.handle(
                CoherenceMessage(
                    mtype=MsgType.REQ_SH, line=1, sender=3, dest=0, requester=3
                ),
                0,
            )

    def test_quiescent(self):
        controller, _ = self.make()
        assert controller.quiescent(0)
        controller.handle(mem_read(), 0)
        assert not controller.quiescent(0)
        for cycle in range(20):
            controller.tick(cycle)
        assert controller.quiescent(20)
