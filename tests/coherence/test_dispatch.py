"""The coherence dispatch, one message at a time.

``tests/cmp/test_behaviour_pins.py`` pins whole runs; this suite takes
the dispatch apart: ``CmpSystem``'s jump table is driven one message at
a time on planted protocol state and held to the Table 2 cells
transcribed in ``test_table2_matrix.py`` (the same data the standalone
controllers are checked against — there is one set of handlers, so the
system must land in the same cell), the fast constructors
(``make_message`` / ``make_packet``) are compared field-for-field with
the dataclass originals, the precomputed ``pkt_*`` classification flags
are re-derived from first principles, and delivery is shown to dispatch
inline, once, through the same function whether or not a tracer is on.
"""

from collections import Counter

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirState
from repro.coherence.l1 import L1State
from repro.coherence.messages import CoherenceMessage, MsgType, make_message
from repro.net.packet import LaneKind, Packet, make_packet
from repro.obs.trace import tracing
from tests.coherence.test_table2_matrix import (
    DIR_EFFECTS,
    L1_EFFECTS,
    counts,
    moved,
)

NUM_NODES = 16


# ---------------------------------------------------------------------------
# harness: one system, planted state, every send recorded
# ---------------------------------------------------------------------------


def make_system(**kwargs):
    """A cold-started system — every directory entry and L1 line begins
    at I/DI, scenarios plant exactly the state they mean to test — whose
    controllers log each message they send to ``system.sent``."""
    system = CmpSystem(CmpConfig(
        app="oc", network="fsoi", num_nodes=NUM_NODES, seed=9,
        warm_start=False, **kwargs,
    ))
    system.sent = []
    for controller in (
        *system.l1s, *system.directories, *system.memory.values()
    ):
        def send(msg, delay, inner=controller.send):
            system.sent.append(msg)
            inner(msg, delay)

        controller.send = send
    return system


def plant(system, home, line, state, sharers=(), dirty=False):
    """Install one stable directory entry plus matching L1 lines."""
    ent = system.directories[home].entry(line)
    ent.state = state
    ent.sharers = set(sharers)
    ent.dirty = dirty
    l1_state = L1State.M if state is DirState.DM else L1State.S
    for node in sharers:
        l1 = system.l1s[node]
        l1.array.insert(line)
        l1._states[line] = l1_state
    return ent


def deliver(system, src, msg):
    """Feed one message through the network's delivery callback."""
    system._on_packet(system._packetize(src, msg))


def request(mtype, line, requester):
    return CoherenceMessage(
        mtype=mtype, line=line, sender=requester,
        dest=line % NUM_NODES, requester=requester,
    )


# ---------------------------------------------------------------------------
# the system's jump table lands in Table 2's cells
# ---------------------------------------------------------------------------


class TestJumpTableLandsInTable2:
    def check_directory_cell(self, system, line, cell, mtype, nodes):
        """Deliver ``mtype`` to the line's home and hold it to
        ``DIR_EFFECTS[cell]``.  ``nodes`` maps that table's fixture
        labels (1 and 2 the sharers, 1 the DM owner, 3 the outside
        requester) onto the nodes this scenario planted."""
        next_state, sharers, emitted, counters = DIR_EFFECTS[cell]
        sender = nodes[int(cell[1].partition("@")[2] or 3)]
        directory = system.directories[line % NUM_NODES]
        before = counts(directory)
        del system.sent[:]
        deliver(system, sender, request(mtype, line, sender))
        assert directory.state(line) is next_state
        assert directory.entry(line).sharers == {nodes[n] for n in sharers}
        assert Counter(m.mtype for m in system.sent) == Counter(emitted)
        assert moved(before, directory) == counters
        # The packet's source held no §4.4 line hold to leak.
        assert (sender, line) not in system._line_pending

    @pytest.mark.parametrize("mtype", (MsgType.REQ_SH, MsgType.REQ_EX))
    @pytest.mark.parametrize(
        "state", (DirState.DI, DirState.DV, DirState.DS, DirState.DM)
    )
    def test_requests_against_stable_states(self, mtype, state):
        system = make_system()
        event = "sh" if mtype is MsgType.REQ_SH else "ex"
        for line in range(40, 40 + 3 * NUM_NODES, 7):  # homes 8, 15, 6, ...
            home = line % NUM_NODES
            nodes = {label: (home + label) % NUM_NODES for label in (1, 2, 3)}
            sharers = {
                DirState.DS: (nodes[1], nodes[2]), DirState.DM: (nodes[1],),
            }.get(state, ())
            plant(system, home, line, state, sharers)
            self.check_directory_cell(
                system, line, (state, event), mtype, nodes
            )

    def test_upgrade_from_a_sharer(self):
        system = make_system()
        home, line = 3, 3 + NUM_NODES
        requester, other = 5, 9
        ent = plant(system, home, line, DirState.DS, (requester, other))
        self.check_directory_cell(
            system, line, (DirState.DS, "upg@1"), MsgType.REQ_UPG,
            {1: requester, 2: other},
        )
        assert ent.requester == requester
        (inv,) = system.sent
        assert (inv.dest, inv.requester) == (other, home)

    def test_invalidate_and_downgrade_at_the_l1(self):
        system = make_system()
        for scenario, (event, mtype, l1_state, dir_state) in enumerate((
            ("inv", MsgType.INV, L1State.S, DirState.DS),
            ("inv", MsgType.INV, L1State.M, DirState.DM),
            ("dwg", MsgType.DWG, L1State.M, DirState.DM),
        )):
            home, target = 2, 7
            line = home + NUM_NODES * (scenario + 1)
            plant(system, home, line, dir_state, (target,))
            l1 = system.l1s[target]
            l1._states[line] = l1_state
            next_state, emitted, counters = L1_EFFECTS[l1_state, event]
            before = counts(l1)
            del system.sent[:]
            deliver(system, home, CoherenceMessage(
                mtype=mtype, line=line, sender=home,
                dest=target, requester=11,
            ))
            assert l1.state(line) is next_state
            assert [m.mtype for m in system.sent] == emitted
            assert moved(before, l1) == dict.fromkeys(counters, 1)
            (ack,) = system.sent
            assert (ack.dest, ack.requester) == (home, 11)
            # The ack is in flight: it holds the target's line until
            # it is delivered.
            assert (target, line) in system._line_pending

    def test_request_to_a_transient_line_queues_identically(self):
        # Table 2's "z": the request waits in the line's queue, and the
        # MemAck that completes the fetch serves it from there.
        system = make_system()
        home, line = 4, 4 + NUM_NODES
        directory = system.directories[home]
        ent = directory.entry(line)
        ent.state = DirState.DI_DSD
        ent.requester = 8
        before = counts(directory)
        deliver(system, 12, request(MsgType.REQ_SH, line, 12))
        assert ent.state is DirState.DI_DSD and len(ent.queued) == 1
        assert system.sent == []
        assert moved(before, directory) == {"requests": 1, "queued": 1}
        assert directory._queued_total == 1
        memory = system.memory_node_of(line)
        deliver(system, memory, CoherenceMessage(
            mtype=MsgType.MEM_ACK, line=line, sender=memory, dest=home,
            requester=home,
        ))
        # Data(E) to the first requester, then the queued Req(Sh) finds
        # the line DM and downgrades its new owner.
        assert [(m.mtype, m.dest) for m in system.sent] == [
            (MsgType.DATA_E, 8), (MsgType.DWG, 8),
        ]
        assert ent.state is DirState.DM_DSD and not ent.queued
        assert directory._queued_total == 0
        assert moved(before, directory) == {
            "requests": 1, "queued": 1, "downgrades_sent": 1,
        }


# ---------------------------------------------------------------------------
# fast constructors
# ---------------------------------------------------------------------------


class TestFastConstructors:
    def test_make_message_matches_dataclass(self):
        ref = CoherenceMessage(
            mtype=MsgType.DATA_S, line=42, sender=1, dest=2, requester=2,
            ack_via_confirmation=True,
        )
        fast = make_message(MsgType.DATA_S, 42, 1, 2, 2, True)
        assert fast.mtype is ref.mtype
        assert (fast.line, fast.sender, fast.dest, fast.requester) == (
            ref.line, ref.sender, ref.dest, ref.requester
        )
        assert fast.ack_via_confirmation is ref.ack_via_confirmation
        assert fast.uid == ref.uid + 1  # same shared counter, in order

    def test_make_message_default_ack_flag(self):
        assert make_message(MsgType.INV, 7, 0, 3, 5).ack_via_confirmation \
            is False

    def test_make_packet_matches_dataclass(self):
        msg = make_message(MsgType.REQ_EX, 10, 4, 2, 4)
        ref = Packet(
            src=4, dst=2, lane=LaneKind.META, payload=msg,
            expects_data_reply=True,
        )
        fast = make_packet(
            4, 2, LaneKind.META, msg, False, False, False, True, ref.uid + 1
        )
        for field_name in (
            "src", "dst", "lane", "payload", "is_reply_to_request",
            "is_writeback", "is_memory", "expects_data_reply",
            "on_confirmed", "enqueue_cycle", "scheduled_cycle",
            "first_tx_cycle", "final_tx_cycle", "deliver_cycle",
            "retries", "_corrupted", "_fault_delivered",
            "_fault_confirm_fired",
        ):
            assert getattr(fast, field_name) == getattr(ref, field_name), \
                field_name
        assert fast.uid == ref.uid + 1

    def test_pkt_flags_match_membership_definitions(self):
        replies = {MsgType.DATA_S, MsgType.DATA_E, MsgType.DATA_M,
                   MsgType.MEM_ACK}
        memory = {MsgType.MEM_READ, MsgType.MEM_WRITE, MsgType.MEM_ACK}
        expects = {MsgType.REQ_SH, MsgType.REQ_EX, MsgType.MEM_READ}
        for mtype in MsgType:
            assert mtype.pkt_is_reply == (mtype in replies)
            assert mtype.pkt_is_writeback == (mtype is MsgType.WRITEBACK)
            assert mtype.pkt_is_memory == (mtype in memory)
            assert mtype.pkt_expects_data == (mtype in expects)


# ---------------------------------------------------------------------------
# delivery: inline, once, the same function with a tracer on
# ---------------------------------------------------------------------------


class TestInlineDelivery:
    def _request_packet(self, system, src, home, line):
        return system._packetize(src, request(MsgType.REQ_SH, line, src))

    def _spy_on_requests(self, system, calls):
        """Log every call of the jump table's Req(Sh) row; returns the
        original row."""
        row = system._handlers[MsgType.REQ_SH._value_]
        original = list(row)
        for node, handler in enumerate(original):
            def spy(msg, node=node, handler=handler):
                calls.append((node, msg.line, handler))
                handler(msg)

            row[node] = spy
        return original

    def test_dispatches_at_the_delivery_instant(self):
        # Deliveries dispatch at the delivery instant: each handler has
        # run by the time the network's callback returns.
        system = make_system()
        calls = []
        self._spy_on_requests(system, calls)
        plant(system, 1, 17, DirState.DV)
        plant(system, 2, 18, DirState.DV)
        system._on_packet(self._request_packet(system, 5, 1, 17))
        assert [(node, line) for node, line, _ in calls] == [(1, 17)]
        assert system.directories[1].state(17) is DirState.DM
        system._on_packet(self._request_packet(system, 6, 2, 18))
        assert [(node, line) for node, line, _ in calls] == [(1, 17), (2, 18)]

    def test_requests_counted_once(self):
        system = make_system()
        plant(system, 1, 17, DirState.DV)
        plant(system, 2, 18, DirState.DV)
        system._on_packet(self._request_packet(system, 5, 1, 17))
        system._on_packet(self._request_packet(system, 6, 2, 18))
        requests = [d._count["requests"].value for d in system.directories]
        assert requests[1] == 1 and requests[2] == 1 and sum(requests) == 2

    def test_tracing_dispatches_inline(self):
        # Tracing runs the same handler: the function the jump table
        # calls for a delivery does not depend on the tracer.
        system = make_system()
        calls = []
        original = self._spy_on_requests(system, calls)
        plant(system, 1, 17, DirState.DV)
        plant(system, 1, 33, DirState.DV)
        system._on_packet(self._request_packet(system, 5, 1, 17))
        with tracing() as tracer:
            system._on_packet(self._request_packet(system, 5, 1, 33))
            events = [e.name for e in tracer.events()]
        (_, _, plain), (_, _, traced) = calls
        assert plain is traced is original[1]
        assert plain.__func__ is type(system.directories[1])._on_request
        assert "dir_event" in events
        assert system.directories[1]._count["requests"].value == 2
