"""Tests for the idealized L0 / Lr1 / Lr2 networks."""

from repro.mesh.ideal import IdealConfig, IdealNetwork
from repro.net.packet import LaneKind, Packet


def run(net, cycles):
    for cycle in range(cycles):
        net.tick(cycle)


class TestConfigs:
    def test_factories(self):
        assert IdealConfig.l0().router_cycles_per_hop is None
        assert IdealConfig.lr1().router_cycles_per_hop == 1
        assert IdealConfig.lr2().router_cycles_per_hop == 2

    def test_labels(self):
        assert IdealConfig.l0().label == "L0"
        assert IdealConfig.lr1().label == "Lr1"
        assert IdealConfig.lr2().label == "Lr2"


class TestL0:
    def test_latency_is_serialization_only(self):
        net = IdealNetwork(IdealConfig.l0(16))
        m = Packet(src=0, dst=15, lane=LaneKind.META)
        d = Packet(src=1, dst=14, lane=LaneKind.DATA)
        net.try_send(m, 0)
        net.try_send(d, 0)
        run(net, 10)
        assert m.total_delay == 1
        assert d.total_delay == 5

    def test_source_queuing_modeled(self):
        """Throughput is modeled: the second packet waits for the channel."""
        net = IdealNetwork(IdealConfig.l0(16))
        first = Packet(src=0, dst=1, lane=LaneKind.DATA)
        second = Packet(src=0, dst=2, lane=LaneKind.META)
        net.try_send(first, 0)
        net.try_send(second, 0)
        run(net, 12)
        assert first.deliver_cycle == 5
        assert second.first_tx_cycle == 5  # waited for the data packet
        assert second.deliver_cycle == 6

    def test_distance_irrelevant(self):
        net = IdealNetwork(IdealConfig.l0(16))
        near = Packet(src=0, dst=1, lane=LaneKind.META)
        far = Packet(src=5, dst=10, lane=LaneKind.META)
        net.try_send(near, 0)
        net.try_send(far, 0)
        run(net, 5)
        assert near.total_delay == far.total_delay == 1


class TestLr:
    def test_lr1_hop_latency(self):
        net = IdealNetwork(IdealConfig.lr1(16))
        p = Packet(src=0, dst=15, lane=LaneKind.META)  # 6 hops
        net.try_send(p, 0)
        run(net, 30)
        assert p.total_delay == 1 + 6 * 2  # serialization + hops*(1+1)

    def test_lr2_hop_latency(self):
        net = IdealNetwork(IdealConfig.lr2(16))
        p = Packet(src=0, dst=15, lane=LaneKind.META)
        net.try_send(p, 0)
        run(net, 30)
        assert p.total_delay == 1 + 6 * 3

    def test_lr2_slower_than_lr1(self):
        lr1 = IdealNetwork(IdealConfig.lr1(16))
        lr2 = IdealNetwork(IdealConfig.lr2(16))
        for net in (lr1, lr2):
            net.try_send(Packet(src=0, dst=12, lane=LaneKind.META), 0)
            run(net, 30)
        assert lr2.stats.total.mean > lr1.stats.total.mean


class TestBookkeeping:
    def test_refusal_when_full(self):
        net = IdealNetwork(IdealConfig(num_nodes=16, injection_queue=1))
        assert net.try_send(Packet(src=0, dst=1, lane=LaneKind.META), 0)
        assert not net.try_send(Packet(src=0, dst=2, lane=LaneKind.META), 0)

    def test_quiescence(self):
        net = IdealNetwork(IdealConfig.l0(16))
        assert net.quiescent()
        net.try_send(Packet(src=0, dst=1, lane=LaneKind.META), 0)
        assert not net.quiescent()
        run(net, 5)
        assert net.quiescent()
