"""Tests for the mesh network (routers + network interfaces)."""

import numpy as np
import pytest

from repro.mesh.network import MeshConfig, MeshNetwork
from repro.net.packet import LaneKind, Packet


def make_mesh(**kwargs) -> MeshNetwork:
    kwargs.setdefault("num_nodes", 16)
    return MeshNetwork(MeshConfig(**kwargs))


def run(net, cycles, start=0):
    for cycle in range(start, start + cycles):
        net.tick(cycle)


def drain(net, start, limit=5000):
    cycle = start
    while not net.quiescent() and cycle < start + limit:
        net.tick(cycle)
        cycle += 1
    return cycle


class TestConfig:
    def test_defaults_match_table3(self):
        config = MeshConfig()
        assert config.num_vcs == 4
        assert config.buffer_flits == 12
        assert config.router_latency == 4
        assert config.link_latency == 1

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MeshConfig(num_nodes=10)

    @pytest.mark.parametrize("field, lowest, message", [
        ("num_vcs", 1, "1 VC"),
        ("buffer_flits", 1, "1 buffer slot"),
        ("router_latency", 1, "router latency >= 1"),
        ("link_latency", 0, "link latency >= 0"),
        ("injection_queue", 1, "injection queue"),
    ])
    def test_integer_bounds(self, field, lowest, message):
        assert getattr(MeshConfig(**{field: lowest}), field) == lowest
        with pytest.raises(ValueError, match=message):
            MeshConfig(**{field: lowest - 1})

    @pytest.mark.parametrize("scale", (0.1, 0.5, 1.0))
    def test_bandwidth_scale_accepted(self, scale):
        assert MeshConfig(bandwidth_scale=scale).bandwidth_scale == scale

    @pytest.mark.parametrize("scale", (0.09, 1.01))
    def test_bandwidth_scale_rejected(self, scale):
        with pytest.raises(ValueError, match=r"out of \[0\.1, 1\]"):
            MeshConfig(bandwidth_scale=scale)


class TestSinglePacket:
    def test_neighbor_latency(self):
        net = make_mesh()
        p = Packet(src=0, dst=1, lane=LaneKind.META)
        net.try_send(p, 0)
        drain(net, 0)
        # 1 hop: inject + router(4)+link(1) + eject router(4) ~ 10 cycles.
        assert 8 <= p.total_delay <= 14
        assert p.deliver_cycle > 0

    def test_latency_grows_with_distance(self):
        near_net = make_mesh()
        near = Packet(src=0, dst=1, lane=LaneKind.META)
        near_net.try_send(near, 0)
        drain(near_net, 0)

        far_net = make_mesh()
        far = Packet(src=0, dst=15, lane=LaneKind.META)
        far_net.try_send(far, 0)
        drain(far_net, 0)
        # 5 extra hops at 5 cycles each.
        assert far.total_delay - near.total_delay == 25

    def test_data_packet_serialization(self):
        net = make_mesh()
        m = Packet(src=0, dst=5, lane=LaneKind.META)
        d = Packet(src=1, dst=6, lane=LaneKind.DATA)
        net.try_send(m, 0)
        net.try_send(d, 0)
        drain(net, 0)
        assert d.total_delay - m.total_delay == 4  # 4 extra flits

    def test_hops_recorded(self):
        net = make_mesh()
        net.try_send(Packet(src=0, dst=15, lane=LaneKind.META), 0)
        drain(net, 0)
        hops = net.stats.group.as_dict()["hops"]
        assert hops["mean"] == 6


class TestBackpressure:
    def test_injection_queue_refuses_when_full(self):
        net = make_mesh(injection_queue=2)
        assert net.try_send(Packet(src=0, dst=1, lane=LaneKind.DATA), 0)
        assert net.try_send(Packet(src=0, dst=1, lane=LaneKind.DATA), 0)
        assert not net.try_send(Packet(src=0, dst=1, lane=LaneKind.DATA), 0)
        assert int(net.stats.refused) == 1


class TestConservation:
    def test_random_traffic_all_delivered_once(self):
        net = make_mesh()
        delivered = []
        for node in range(16):
            net.set_delivery_callback(node, lambda p: delivered.append(p.uid))
        rng = np.random.default_rng(3)
        sent = []
        for cycle in range(300):
            for src in range(16):
                if rng.random() < 0.05:
                    dst = int(rng.integers(0, 15))
                    dst = dst if dst < src else dst + 1
                    lane = LaneKind.DATA if rng.random() < 0.3 else LaneKind.META
                    p = Packet(src=src, dst=dst, lane=lane)
                    if net.try_send(p, cycle):
                        sent.append(p.uid)
            net.tick(cycle)
        end = drain(net, 300)
        assert net.quiescent(), f"not drained by cycle {end}"
        assert sorted(delivered) == sorted(sent)

    def test_wormhole_packets_arrive_intact(self):
        """Data packets interleaved from two sources both eject whole."""
        net = make_mesh()
        a = Packet(src=0, dst=5, lane=LaneKind.DATA)
        b = Packet(src=1, dst=5, lane=LaneKind.DATA)
        net.try_send(a, 0)
        net.try_send(b, 0)
        drain(net, 0)
        assert a.deliver_cycle > 0 and b.deliver_cycle > 0

    def test_point_to_point_order_preserved(self):
        """Same source, same destination, no other traffic: delivery
        follows injection.  That is all the mesh keeps: a source injects
        in queue order and each VC is a FIFO, but one source's packets
        take different VCs and switch allocation picks among VCs
        round-robin, so under contention a later packet can overtake an
        earlier one.  Coherence relies on the §4.4 per-line hold, not on
        network order."""
        net = make_mesh()
        order = []
        net.set_delivery_callback(7, lambda p: order.append(p.uid))
        packets = [Packet(src=0, dst=7, lane=LaneKind.META) for _ in range(5)]
        for p in packets:
            net.try_send(p, 0)
        drain(net, 0)
        assert order == [p.uid for p in packets]


class TestActivity:
    def test_activity_counters_consistent(self):
        net = make_mesh()
        net.try_send(Packet(src=0, dst=3, lane=LaneKind.META), 0)
        drain(net, 0)
        activity = net.activity()
        # 1 flit, 3 hops of link traversal, 4 routers touched.
        assert activity["link_flits"] == 3
        assert activity["buffer_writes"] == activity["buffer_reads"]
        assert activity["flits_routed"] == 4
