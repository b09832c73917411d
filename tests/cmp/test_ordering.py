"""Tests for the §4.4 per-line point-to-point ordering in the CMP layer.

The paper serializes messages about the same cache line at the sender;
without it, a meta-lane acknowledgment can overtake the data-lane
writeback it logically follows and the Table 2 machines see impossible
events.  These tests pin the mechanism itself, and where in a cycle a memory
transfer start takes its place in that order.
"""

import itertools

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirectoryController
from repro.coherence.messages import CoherenceMessage, MsgType


def make_system(**kwargs):
    kwargs.setdefault("num_nodes", 16)
    kwargs.setdefault("app", "ba")
    kwargs.setdefault("network", "fsoi")
    return CmpSystem(CmpConfig(**kwargs))


def msg(mtype, line, sender, dest):
    return CoherenceMessage(
        mtype=mtype, line=line, sender=sender, dest=dest, requester=sender
    )


def stub_directory(system, node, handler=lambda message: None):
    """Point ``node``'s directory rows of the jump table at ``handler``
    (these tests plant messages Table 2 would reject, e.g. a WriteBack
    in DI)."""
    for mtype in DirectoryController.HANDLERS:
        system._handlers[mtype._value_][node] = handler


def watch_deliveries(system, watched, log, key=lambda message: message.mtype):
    """Log ``key(message)`` as each watched message is delivered."""
    original = system._deliver

    def spy(message, holder):
        if message.uid in watched:
            log.append(key(message))
        original(message, holder)

    system._deliver = spy


class TestPerLineOrdering:
    def test_second_message_held_until_first_delivered(self):
        system = make_system(warm_start=False)
        line = 0x3  # home node 3; sender node 1
        first = msg(MsgType.WRITEBACK, line, 1, 3)
        second = msg(MsgType.DWG_ACK, line, 1, 3)
        watched = {first.uid, second.uid}
        delivered = []
        watch_deliveries(system, watched, delivered)
        stub_directory(system, 3)
        system._send_from(1, first, 0)
        system._send_from(1, second, 0)
        # The data packet takes 5+ cycles; the meta ack would take 2 if
        # it were allowed to race ahead.
        for _ in range(4):
            system.tick()
        assert delivered == []  # nothing yet: writeback still in flight
        for _ in range(20):
            system.tick()
        assert delivered == [MsgType.WRITEBACK, MsgType.DWG_ACK]

    def test_different_lines_not_serialized(self):
        system = make_system(warm_start=False)
        stub_directory(system, 3)
        stub_directory(system, 4)
        slow = msg(MsgType.WRITEBACK, 0x3, 1, 3)   # data lane, 5 cycles
        fast = msg(MsgType.INV_ACK, 0x4, 1, 4)     # meta lane, 2 cycles
        order = []
        watch_deliveries(system, {slow.uid, fast.uid}, order)
        system._send_from(1, slow, 0)
        system._send_from(1, fast, 0)
        for _ in range(20):
            system.tick()
        assert order[0] is MsgType.INV_ACK  # meta overtakes across lines

    def test_pending_state_cleaned_up(self):
        system = make_system(warm_start=False)
        stub_directory(system, 3)
        system._send_from(1, msg(MsgType.INV_ACK, 0x3, 1, 3), 0)
        for _ in range(10):
            system.tick()
        assert (1, 0x3) not in system._line_pending

    def test_queue_drains_in_fifo_order(self):
        system = make_system(warm_start=False)
        stub_directory(system, 3)
        kinds = [MsgType.INV_ACK, MsgType.DWG_ACK, MsgType.INV_ACK]
        messages = [msg(kind, 0x3, 1, 3) for kind in kinds]
        order = []
        watch_deliveries(
            system, {m.uid for m in messages}, order, key=lambda m: m.uid
        )
        for message in messages:
            system._send_from(1, message, 0)
        for _ in range(40):
            system.tick()
        assert order == [m.uid for m in messages]

    def test_local_messages_also_serialized(self):
        system = make_system(warm_start=False)
        line = 0x11  # home node 1 == sender node 1: local path
        wb = msg(MsgType.WRITEBACK, line, 1, 1)
        ack = msg(MsgType.DWG_ACK, line, 1, 1)
        watched = {wb.uid, ack.uid}
        received = []
        stub_directory(
            system, 1,
            lambda m: received.append(m.mtype) if m.uid in watched else None,
        )
        system._send_from(1, wb, 0)
        system._send_from(1, ack, 0)
        for _ in range(10):
            system.tick()
        assert received == [MsgType.WRITEBACK, MsgType.DWG_ACK]


def line_served_by(system, node):
    """A line far above the workloads' addresses whose memory channel
    is at ``node``."""
    return next(
        line for line in itertools.count(1 << 24)
        if system.memory_node_of(line) == node
    )


class TestTransferStartOrder:
    """A memory transfer start runs where a per-cycle memory phase
    would: after every calendar entry due in its cycle, even one filed
    during that cycle's sweep, and the controllers in node order."""

    @pytest.mark.parametrize(
        "during_sweep", [False, True], ids=["filed-before", "filed-in-sweep"]
    )
    def test_reply_queues_behind_a_same_cycle_send_about_its_line(
        self, during_sweep
    ):
        system = make_system(warm_start=False)
        node = system.controller_nodes[0]
        line = line_served_by(system, node)
        home = (node + 1) % system.config.num_nodes
        system._send_from(home, msg(MsgType.MEM_READ, line, home, node), 0)
        while not system.memory[node].pending:
            system.tick()
        # Delivered in the network phase: the transfer starts this cycle.
        start = system.cycle
        inv = msg(MsgType.INV, line, node, home)

        def send():
            system._send_from(node, inv, 5)

        calendar = system._calendar
        if during_sweep:
            calendar.schedule(start, lambda: calendar.schedule(start, send))
        else:
            calendar.schedule(start, send)
        system.tick()
        assert int(system.memory[node].reads) == 1
        held = system._line_pending[(node, line)]
        assert [(m.mtype, delay) for m, delay in held] == [(MsgType.MEM_ACK, 212)]
        system.close()

    def test_controllers_starting_in_one_cycle_send_in_node_order(self):
        system = make_system(warm_start=False)
        nodes = system.controller_nodes
        sent = []
        transmit = system._transmit

        def spy(node, message, delay):
            if message.mtype is MsgType.MEM_ACK:
                sent.append(node)
            transmit(node, message, delay)

        system._transmit = spy
        for node in reversed(nodes):  # delivered in reverse node order
            home = (node + 1) % system.config.num_nodes
            system.memory[node].handle(
                msg(MsgType.MEM_READ, line_served_by(system, node), home, node),
                system.cycle,
            )
        system.tick()
        system.tick()
        assert sent == sorted(nodes)
        system.close()
