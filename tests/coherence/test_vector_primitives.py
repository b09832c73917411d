"""Unit tests for the columnar coherence engine's building blocks.

Where ``test_vector_equivalence.py`` proves whole runs bit-exact, this
suite takes the primitives apart: the fused per-``MsgType`` kernels are
driven one message at a time against the scalar reference handlers on
identically planted protocol state, the fast constructors
(``make_message`` / ``make_packet``) are compared field-for-field with
the dataclass originals, the precomputed ``pkt_*`` classification flags
are re-derived from first principles, and the mailbox/next_event/audit
machinery is exercised directly.
"""

import os
import random

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirState
from repro.coherence.l1 import L1State
from repro.coherence.messages import CoherenceMessage, MsgType, make_message
from repro.net.packet import LaneKind, Packet, make_packet
from repro.obs.trace import tracing

NUM_NODES = 16


# ---------------------------------------------------------------------------
# harness: twin systems, one per engine, with identical planted state
# ---------------------------------------------------------------------------


def make_pair(**kwargs):
    """A (vectorized, reference) pair of otherwise identical systems.

    Cold-started so every directory entry and L1 line begins at
    I/DI — scenarios plant exactly the state they mean to test.
    """
    return [
        CmpSystem(CmpConfig(
            app="oc", network="fsoi", num_nodes=NUM_NODES, seed=9,
            warm_start=False, vectorized=vectorized, **kwargs,
        ))
        for vectorized in (True, False)
    ]


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


def deliver(system, src, msg):
    """Feed one message through the system's delivery entry point.

    The vectorized side goes mailbox -> drain (the wiring the networks
    use); the reference side dispatches inline, exactly as the naive
    delivery callback would.
    """
    packet = system._packetize(src, msg)
    engine = system._coherence
    if engine is not None:
        engine.on_packet(packet)
        engine.drain()
    else:
        system._on_packet(packet)


def snapshot(system):
    """Every uid-free observable the two paths must agree on.

    Message/packet uids are excluded on purpose: the module-level uid
    counters are shared by both twin systems, so absolute values
    interleave — the equivalence suite covers uid streams by running
    each arm in the same allocation order instead.
    """
    return {
        "dirs": [
            {
                line: (
                    ent.state, tuple(sorted(ent.sharers)), ent.dirty,
                    ent.requester, ent.acks_needed, len(ent.queued),
                )
                for line, ent in directory._entries.items()
            }
            for directory in system.directories
        ],
        "l1s": [dict(l1._states) for l1 in system.l1s],
        "dir_counts": [
            {name: c.value for name, c in d._count.items()}
            for d in system.directories
        ],
        "l1_counts": [
            {name: c.value for name, c in l1._count.items()}
            for l1 in system.l1s
        ],
        # values are either the empty-tuple sentinel or a deque of
        # queued (msg, delay) pairs; compare keys and depths only
        "pending": sorted(
            (key, len(q)) for key, q in system._line_pending.items()
        ),
        "calendar": [(cycle, seq) for cycle, seq, _ in system._calendar._heap],
        "net_sent": system.network.stats.sent.value,
    }


def assert_twins_match(vec, ref):
    snap_vec, snap_ref = snapshot(vec), snapshot(ref)
    assert snap_vec == snap_ref
    vec._coherence.audit()


# ---------------------------------------------------------------------------
# fused kernels vs scalar handlers
# ---------------------------------------------------------------------------


#: These classes drive the coherence engine itself, which
#: REPRO_NO_VECTOR pins off for the whole process (CI's second leg).
requires_vector_default = pytest.mark.skipif(
    os.environ.get("REPRO_NO_VECTOR", "") not in ("", "0"),
    reason="REPRO_NO_VECTOR pins the reference coherence dispatch for "
    "the whole process, so there is no engine to drive",
)


@requires_vector_default
class TestKernelsMatchHandlers:
    def _home_line(self, rng):
        line = rng.randrange(NUM_NODES, 1600)
        return line % NUM_NODES, line

    @pytest.mark.parametrize("mtype", (MsgType.REQ_SH, MsgType.REQ_EX))
    @pytest.mark.parametrize(
        "state", (DirState.DI, DirState.DV, DirState.DS, DirState.DM)
    )
    def test_requests_against_stable_states(self, mtype, state):
        rng = random.Random(hash((mtype.name, state.name)) & 0xFFFF)
        vec, ref = make_pair()
        for _ in range(8):
            home, line = self._home_line(rng)
            requester = (home + rng.randrange(1, NUM_NODES)) % NUM_NODES
            if state is DirState.DM:
                sharers = ((home + requester + 1) % NUM_NODES,)
                if sharers[0] == requester:
                    sharers = ((sharers[0] + 1) % NUM_NODES,)
            elif state is DirState.DS:
                sharers = tuple(
                    n for n in rng.sample(range(NUM_NODES), 3)
                    if n != requester
                ) or ((requester + 1) % NUM_NODES,)
            else:
                sharers = ()
            for system in (vec, ref):
                plant(system, home, line, state, sharers)
                deliver(system, requester, CoherenceMessage(
                    mtype=mtype, line=line, sender=requester,
                    dest=home, requester=requester,
                ))
            assert_twins_match(vec, ref)

    def test_upgrade_from_a_sharer(self):
        vec, ref = make_pair()
        home, line = 3, 3 + NUM_NODES
        requester, other = 5, 9
        for system in (vec, ref):
            plant(system, home, line, DirState.DS, (requester, other))
            deliver(system, requester, CoherenceMessage(
                mtype=MsgType.REQ_UPG, line=line, sender=requester,
                dest=home, requester=requester,
            ))
        assert_twins_match(vec, ref)

    def test_invalidate_and_downgrade_at_the_l1(self):
        vec, ref = make_pair()
        for scenario, (mtype, l1_state, dir_state) in enumerate((
            (MsgType.INV, L1State.S, DirState.DS),
            (MsgType.INV, L1State.M, DirState.DM),
            (MsgType.DWG, L1State.M, DirState.DM),
        )):
            home = 2
            target = 7
            line = home + NUM_NODES * (scenario + 1)
            for system in (vec, ref):
                plant(system, home, line, dir_state, (target,))
                system.l1s[target]._states[line] = l1_state
                deliver(system, home, CoherenceMessage(
                    mtype=mtype, line=line, sender=home,
                    dest=target, requester=11,
                ))
            assert_twins_match(vec, ref)

    def test_request_to_a_transient_line_queues_identically(self):
        # Transient-state requests leave the fused fast path
        # (_enqueue_or_nack): both arms must queue the same way and the
        # dir_queued mirror must track the reference-path increment.
        vec, ref = make_pair()
        home, line = 4, 4 + NUM_NODES
        for system in (vec, ref):
            ent = system.directories[home].entry(line)
            ent.state = DirState.DI_DSD
            ent.requester = 8
            deliver(system, 12, CoherenceMessage(
                mtype=MsgType.REQ_SH, line=line, sender=12,
                dest=home, requester=12,
            ))
        assert_twins_match(vec, ref)
        assert snapshot(vec)["dirs"][home][line][5] == 1  # one queued msg


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
# mailbox, horizon, trace interaction
# ---------------------------------------------------------------------------


@requires_vector_default
class TestMailbox:
    def _request_packet(self, system, src, home, line):
        return system._packetize(src, CoherenceMessage(
            mtype=MsgType.REQ_SH, line=line, sender=src,
            dest=home, requester=src,
        ))

    def test_collects_then_drains_in_delivery_order(self):
        vec, _ = make_pair()
        engine = vec._coherence
        order = []
        original = list(engine._kernels)
        value = MsgType.REQ_SH._value_
        engine._kernels[value] = (
            lambda node, msg, k=original[value]: (
                order.append((node, msg.line)), k(node, msg)
            )
        )
        plant(vec, 1, 17, DirState.DV)
        plant(vec, 2, 18, DirState.DV)
        engine.on_packet(self._request_packet(vec, 5, 1, 17))
        engine.on_packet(self._request_packet(vec, 6, 2, 18))
        assert len(engine._mailbox) == 2
        assert engine.next_event(0) == 0      # queued work pins "now"
        engine.drain()
        assert engine._mailbox == []
        assert engine.next_event(0) is None   # empty mailbox: no horizon
        assert order == [(5, 17), (6, 18)]
        engine._kernels[value] = original[value]

    def test_requests_counted_once_per_drain(self):
        vec, _ = make_pair()
        engine = vec._coherence
        plant(vec, 1, 17, DirState.DV)
        plant(vec, 2, 18, DirState.DV)
        engine.on_packet(self._request_packet(vec, 5, 1, 17))
        engine.on_packet(self._request_packet(vec, 6, 2, 18))
        engine.drain()
        counts = [d._count["requests"].value for d in vec.directories]
        assert counts[1] == 1 and counts[2] == 1 and sum(counts) == 2

    def test_tracing_dispatches_inline(self):
        vec, _ = make_pair()
        engine = vec._coherence
        plant(vec, 1, 17, DirState.DV)
        with tracing():
            engine.on_packet(self._request_packet(vec, 5, 1, 17))
            assert engine._mailbox == []  # handled inline, not queued
        assert vec.directories[1]._count["requests"].value == 1

    def test_columns_accrue_from_mirrors(self):
        vec, _ = make_pair()
        engine = vec._coherence
        engine._l1_transients[2] = 3
        engine._mshr_in_use[5] = 1
        engine.accrue_columns()
        assert engine.l1_transients[2] == 3
        assert engine.mshr_in_use[5] == 1
        engine._l1_transients[2] = 0
        engine._mshr_in_use[5] = 0
