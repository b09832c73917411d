"""Tests for the slotted-vs-unslotted ablation (§4.3.2, ref [40])."""

import numpy as np
import pytest

from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.net.packet import LaneKind, Packet
from repro.workloads.traffic import BernoulliTraffic, TrafficDriver


def drain(net, start, limit=20_000):
    cycle = start
    while not net.quiescent() and cycle < start + limit:
        net.tick(cycle)
        cycle += 1


class TestUnslottedBasics:
    def test_solo_packet_delivered_any_start_cycle(self):
        net = FsoiNetwork(FsoiConfig(num_nodes=4, slotted=False))
        p = Packet(src=0, dst=1, lane=LaneKind.META)
        for cycle in range(3):
            net.tick(cycle)
        net.try_send(p, 3)  # an off-slot cycle
        for cycle in range(3, 20):
            net.tick(cycle)
        assert p.first_tx_cycle == 3  # no alignment wait
        assert p.deliver_cycle == 5

    def test_partial_overlap_collides(self):
        """Slot-offset transmissions that would be safe when slotted
        corrupt each other in pure-ALOHA mode."""
        net = FsoiNetwork(FsoiConfig(num_nodes=4, slotted=False, seed=3))
        a = Packet(src=0, dst=3, lane=LaneKind.META)
        b = Packet(src=2, dst=3, lane=LaneKind.META)
        net.tick(0)
        net.try_send(a, 0)  # enqueue during cycle 0; transmits cycle 1
        net.tick(1)
        net.try_send(b, 1)  # starts cycle 2: overlaps a's [1, 3)
        for cycle in range(2, 100):
            net.tick(cycle)
        drain(net, 100)
        assert a.retries >= 1 and b.retries >= 1
        assert int(net.stats.delivered) == 2  # both retransmitted fine

    def test_slotted_mode_tolerates_offset_starts(self):
        """The same offered pattern in the slotted design does NOT
        collide: both transmissions land in distinct slots."""
        net = FsoiNetwork(FsoiConfig(num_nodes=4, slotted=True, seed=3))
        a = Packet(src=0, dst=3, lane=LaneKind.META)
        b = Packet(src=2, dst=3, lane=LaneKind.META)
        net.try_send(a, 0)  # transmits in slot [0, 2)
        net.tick(0)
        net.try_send(b, 1)  # waits for the slot starting at cycle 2
        for cycle in range(1, 40):
            net.tick(cycle)
        assert a.retries == 0 and b.retries == 0

    def test_conservation_under_load(self):
        net = FsoiNetwork(FsoiConfig(num_nodes=8, slotted=False, seed=9))
        delivered = []
        for node in range(8):
            net.set_delivery_callback(node, lambda p: delivered.append(p.uid))
        rng = np.random.default_rng(0)
        sent = []
        for cycle in range(500):
            for src in range(8):
                if rng.random() < 0.06:
                    dst = int(rng.integers(0, 7))
                    dst = dst if dst < src else dst + 1
                    p = Packet(src=src, dst=dst, lane=LaneKind.META)
                    if net.try_send(p, cycle):
                        sent.append(p.uid)
            net.tick(cycle)
        drain(net, 500)
        assert net.quiescent()
        assert sorted(delivered) == sorted(sent)

    # The pure-ALOHA path draws no signaling errors and issues no
    # resolution hints, so a config asking for either is refused
    # rather than run without it.
    def test_rejects_packet_error_rate(self):
        with pytest.raises(ValueError, match="packet_error_rate"):
            FsoiNetwork(FsoiConfig(num_nodes=8, slotted=False, packet_error_rate=0.5))

    def test_rejects_resolution_hints(self):
        hints = OptimizationConfig(resolution_hints=True)
        with pytest.raises(ValueError, match="resolution_hints"):
            FsoiNetwork(FsoiConfig(num_nodes=8, slotted=False, optimizations=hints))


class TestSlottingReducesCollisions:
    def test_aloha_factor(self):
        """Ref [40]: slotting roughly halves the vulnerable window, so
        the unslotted channel shows clearly more collisions at the same
        offered load."""
        rates = {}
        for slotted in (True, False):
            net = FsoiNetwork(FsoiConfig(num_nodes=16, slotted=slotted, seed=4))
            # Unsynchronized offers so the unslotted mode is exercised.
            traffic = BernoulliTraffic(p=0.08, slot_cycles=1)
            TrafficDriver(net, traffic, seed=6).run(6000)
            rates[slotted] = net.collision_rate(LaneKind.META)
        assert rates[False] > 1.4 * rates[True]
        assert rates[True] > 0  # both operate in the colliding regime
