"""Tests for the idealized L0 / Lr1 / Lr2 networks."""

import random

import pytest

from repro.mesh.ideal import IdealConfig, IdealNetwork
from repro.net.packet import LaneKind, Packet
from tests.conftest import compare_engine_pair


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


def every_node_next_event(net, cycle):
    """``next_event`` recomputed by walking every node's queue."""
    horizon = min(net._deliveries) if net._deliveries else None
    if horizon is not None and horizon <= cycle:
        return cycle
    for node, queue in enumerate(net._queues):
        if not queue:
            continue
        free = net._channel_free_at[node]
        if free <= cycle:
            return cycle
        if horizon is None or free < horizon:
            horizon = free
    return horizon


@pytest.mark.parametrize("kind", ("l0", "lr1", "lr2"))
class TestActiveSources:
    def test_active_set_is_the_non_empty_queues(self, kind):
        # Bursty offers (several packets per source per cycle, then
        # silence) so queues fill, drain and refill.
        net = IdealNetwork(getattr(IdealConfig, kind)(16))
        rng = random.Random(7)
        delivered = []
        for node in range(16):
            net.set_delivery_callback(node, delivered.append)
        offered = 0
        for cycle in range(600):
            if cycle < 400 and cycle % 40 < 12:
                for _ in range(rng.randrange(6)):
                    src = rng.randrange(16)
                    dst = (src + rng.randrange(1, 16)) % 16
                    lane = rng.choice((LaneKind.META, LaneKind.DATA))
                    offered += net.try_send(Packet(src=src, dst=dst, lane=lane), cycle)
            net.tick(cycle)
            recount = {node for node, queue in enumerate(net._queues) if queue}
            assert net._active == recount
            assert net.quiescent() == (not net._deliveries and not recount)
            assert net.next_event(cycle + 1) == every_node_next_event(net, cycle + 1)
        assert net.quiescent()
        assert len(delivered) == offered > 100

    def test_fast_forward_changes_nothing(self, kind):
        loop = compare_engine_pair(
            app="ba", network=kind, num_nodes=16, seed=3, cycles=1000,
        )
        assert loop["executed_cycles"] + loop["skipped_cycles"] == 1000
