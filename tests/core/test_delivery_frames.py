"""A delivered FSOI packet opens no Python frame of its own.

A solo reception is filed as the packet itself on the outcome calendar,
and ``FsoiNetwork.tick`` runs its delivery tail in place (lane tally,
trace event, stamp, joint latency sample, traffic matrix, callback).
This pin drives a bare 16-node channel on a fixed uniform schedule
under ``sys.setprofile`` and counts the Python calls into the network
and interface modules other than the two the driver makes (``try_send``
and ``tick``): they are bounded by the slot boundaries with pending
work plus the collision and back-off calls, with less slack than one
frame a delivery would need.  The count is of calls, not of time, so
the pin does not depend on the host.
"""

import sys
from collections import Counter

import numpy as np

import repro.core.network as network_module
import repro.net.interface as interface_module
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.net.packet import LaneKind, Packet

NODES, OFFERED, DRAIN = 16, 2000, 600
PROFILED = {network_module.__file__, interface_module.__file__}


def test_no_frame_per_delivery():
    rng = np.random.default_rng(47)
    cycle, src = np.nonzero(rng.random((OFFERED, NODES)) < 0.05)
    dst = rng.integers(0, NODES - 1, len(src))
    dst += dst >= src
    by_cycle = {}
    for uid, (c, s, d, data) in enumerate(zip(
        cycle.tolist(), src.tolist(), dst.tolist(), (rng.random(len(src)) < 0.5).tolist()
    )):
        by_cycle.setdefault(c, []).append(
            Packet(s, d, LaneKind.DATA if data else LaneKind.META, uid=uid)
        )
    net = FsoiNetwork(FsoiConfig(num_nodes=NODES, seed=47))
    delivered = []
    for node in range(NODES):
        net.set_delivery_callback(node, delivered.append)
    slots = [(net._pending[lane], net.lanes.slot_cycles(lane)) for lane in LaneKind]

    calls = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in PROFILED:
            calls[frame.f_code.co_name] += 1

    busy = 0  # slot boundaries at which a lane has pending senders
    sys.setprofile(profile)
    try:
        for c in range(OFFERED + DRAIN):
            for packet in by_cycle.get(c, ()):
                net.try_send(packet, c)
            for pending, slot_len in slots:
                busy += c % slot_len == 0 and bool(pending)
            net.tick(c)
    finally:
        sys.setprofile(None)

    assert net.quiescent()
    net.audit()
    stats = net.stats.group.as_dict()
    assert len(delivered) == stats["packets_delivered"] == stats["packets_sent"] > 1000
    events = sum(stats[lane.value]["collision_events"] for lane in LaneKind)
    assert events > 0
    assert calls["_back_off"] == events  # no errors or faults: one a collision
    others = sum(calls.values()) - calls["try_send"] - calls["tick"]
    # A collision opens _handle_collision and (data lane) _classify; its
    # losers back off in one later call.
    bound = busy + 2 * events + calls["_back_off"]
    assert others <= bound, calls
    assert bound - others < len(delivered), "the pin would miss a frame a delivery"
