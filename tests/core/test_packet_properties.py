"""Property-based invariants of the PID/~PID collision code (§4.3.2).

The receiver sees the OR of simultaneous optical headers.  The code's
safety property: the merged header of *any* set of two or more
distinct senders is always flagged corrupt (some bit set in both PID
and ~PID), while a single sender's header never is — no false
negatives, no false alarms.  The hint decode must always include every
true participant.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lanes import LaneConfig
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.net.packet import (
    LaneKind,
    Packet,
    candidate_senders,
    collision_detected,
    merged_header,
    merged_one_hot,
    one_hot_senders,
)
from repro.obs import tracing

id_bits = st.integers(min_value=2, max_value=10)


@st.composite
def distinct_senders(draw, min_size=2):
    bits = draw(id_bits)
    senders = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=min_size, max_size=6, unique=True,
        )
    )
    return bits, senders


@given(data=distinct_senders(min_size=2))
@settings(max_examples=200, deadline=None)
def test_merged_headers_from_distinct_senders_always_flag_corrupt(data):
    bits, senders = data
    pid, pidc = merged_header(senders, id_bits=bits)
    assert collision_detected(pid, pidc)


@given(bits=id_bits, data=st.data())
@settings(max_examples=200, deadline=None)
def test_single_sender_never_flags_corrupt(bits, data):
    sender = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
    pid, pidc = merged_header([sender], id_bits=bits)
    assert not collision_detected(pid, pidc)
    # The lone sender decodes back out of its own header.
    assert candidate_senders(pid, pidc, [sender], id_bits=bits) == [sender]


@given(data=distinct_senders(min_size=1))
@settings(max_examples=200, deadline=None)
def test_candidates_always_include_every_true_participant(data):
    bits, senders = data
    pid, pidc = merged_header(senders, id_bits=bits)
    candidates = candidate_senders(
        pid, pidc, range(1 << bits), id_bits=bits
    )
    assert set(senders) <= set(candidates)


@given(data=distinct_senders(min_size=2))
@settings(max_examples=200, deadline=None)
def test_duplicate_transmissions_do_not_unflag_a_collision(data):
    """OR-ing a sender's header twice changes nothing (light is light)."""
    bits, senders = data
    once = merged_header(senders, id_bits=bits)
    twice = merged_header(senders + senders, id_bits=bits)
    assert once == twice
    assert collision_detected(*twice)


@given(nodes=st.integers(min_value=2, max_value=64), data=st.data())
@settings(max_examples=200, deadline=None)
def test_one_hot_merge_decodes_exact_participant_set(nodes, data):
    senders = data.draw(
        st.lists(st.integers(min_value=0, max_value=nodes - 1),
                 min_size=1, max_size=8, unique=True)
    )
    merged = merged_one_hot(senders, nodes)
    assert one_hot_senders(merged, nodes) == sorted(senders)


# -- collided slots are always detected (per physical receiver) ------------
#
# A receiver only merges headers of senders that its §4.3.1 static
# partition actually routes to it; the detection property must hold per
# *receiver*, not just per destination.


@st.composite
def slot_traffic(draw):
    """One destination's slot: a set of distinct concurrent senders."""
    num_nodes = draw(st.sampled_from([4, 16, 64]))
    dst = draw(st.integers(min_value=0, max_value=num_nodes - 1))
    senders = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_nodes - 1),
            min_size=1, max_size=min(8, num_nodes - 1), unique=True,
        ).filter(lambda s: dst not in s)
    )
    lane = draw(st.sampled_from([LaneKind.META, LaneKind.DATA]))
    return num_nodes, dst, senders, lane


@given(traffic=slot_traffic())
@settings(max_examples=200, deadline=None)
def test_collided_slot_always_detected_per_receiver(traffic):
    """Group a slot's senders by receiver; every shared receiver flags."""
    num_nodes, dst, senders, lane = traffic
    lanes = LaneConfig()
    bits = FsoiConfig(num_nodes=num_nodes).id_bits
    by_receiver: dict[int, list[int]] = {}
    for src in senders:
        rx = lanes.receiver_for(lane, src, dst, num_nodes)
        by_receiver.setdefault(rx, []).append(src)
    for group in by_receiver.values():
        pid, pidc = merged_header(group, id_bits=bits)
        if len(group) >= 2:
            # The PID/~PID OR-merge must flag every true collision.
            assert collision_detected(pid, pidc)
        else:
            # A solo sender's header is clean and self-identifying.
            assert not collision_detected(pid, pidc)
            assert candidate_senders(pid, pidc, group, id_bits=bits) == group


# -- the confirmation channel never collides by construction ---------------


@given(
    delay=st.integers(min_value=1, max_value=5),
    received=st.lists(st.integers(min_value=0, max_value=200),
                      min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_confirmation_delivered_exactly_once_at_fixed_delay(delay, received):
    """Every arrival filed on the confirmation lane fires exactly once,
    at its filing cycle plus the delay."""
    net = FsoiNetwork(FsoiConfig(num_nodes=16, lanes=LaneConfig(confirmation_delay=delay)))
    arrivals: dict[int, list[int]] = {}
    current = {"cycle": 0}
    for index, cycle in enumerate(received):
        promised = net.send_signal(
            cycle,
            (lambda i=index: arrivals.setdefault(i, []).append(current["cycle"])),
        )
        assert promised == cycle + delay
    for cycle in range(max(received) + delay + 1):
        current["cycle"] = cycle
        net.tick(cycle)
    assert net.quiescent()
    for index, cycle in enumerate(received):
        assert arrivals[index] == [cycle + delay]


def test_confirmation_arrivals_never_overlap_per_sender():
    """No collisions by construction, observed on a real contended run.

    A node starts at most one packet per lane per slot, so the
    confirmations it receives back on a lane are at least one slot
    apart — even under heavy contention and retransmission.  The trace
    layer makes the per-arrival timing observable.
    """
    num_nodes = 16
    config = FsoiConfig(num_nodes=num_nodes)
    net = FsoiNetwork(config)
    rng = random.Random(7)
    with tracing(capacity=1 << 20) as tracer:
        for cycle in range(6000):
            if cycle < 200 and rng.random() < 0.8:
                src = rng.randrange(num_nodes)
                dst = (src + rng.randrange(1, num_nodes)) % num_nodes
                lane = LaneKind.META if rng.random() < 0.5 else LaneKind.DATA
                net.try_send(Packet(src=src, dst=dst, lane=lane), cycle)
            net.tick(cycle)
            if cycle >= 200 and net.quiescent():
                break
    assert net.quiescent(), "traffic failed to drain"
    assert tracer.dropped == 0
    confirmations = list(tracer.events(name="confirmation", cat="fsoi"))
    assert len(confirmations) > 50  # contention actually happened
    by_sender: dict[tuple[int, str], list[int]] = {}
    for event in confirmations:
        by_sender.setdefault((event.node, event.lane), []).append(event.cycle)
    slot_len = {
        lane.value: config.lanes.slot_cycles(lane)
        for lane in (LaneKind.META, LaneKind.DATA)
    }
    for (node, lane), cycles in by_sender.items():
        cycles.sort()
        gaps = [b - a for a, b in zip(cycles, cycles[1:])]
        assert all(gap >= slot_len[lane] for gap in gaps), (
            f"node {node} {lane}: confirmation arrivals {cycles} "
            f"violate the {slot_len[lane]}-cycle slot spacing"
        )
