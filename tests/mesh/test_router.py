"""Router-internal corner cases: VC exhaustion, credit discipline."""

import pytest

from repro.mesh.network import MeshConfig, MeshNetwork
from repro.mesh.router import Router
from repro.mesh.routing import Port
from repro.net.packet import LaneKind, Packet


def drain(net, start=0, limit=3000):
    cycle = start
    while not net.quiescent() and cycle < start + limit:
        net.tick(cycle)
        cycle += 1
    return cycle


class TestVcExhaustion:
    def test_more_packets_than_vcs_still_complete(self):
        """Six concurrent data packets from one node with 4 VCs: the
        injection port recycles VCs as tails depart."""
        net = MeshNetwork(MeshConfig(num_nodes=16, num_vcs=4))
        packets = [
            Packet(src=0, dst=5 + i % 3, lane=LaneKind.DATA) for i in range(6)
        ]
        for cycle, p in enumerate(packets):
            assert net.try_send(p, 0)
        drain(net)
        assert net.quiescent()
        assert all(p.deliver_cycle > 0 for p in packets)

    def test_single_vc_serializes_packets(self):
        one_vc = MeshNetwork(MeshConfig(num_nodes=16, num_vcs=1))
        a = Packet(src=0, dst=5, lane=LaneKind.DATA)
        b = Packet(src=0, dst=5, lane=LaneKind.DATA)
        one_vc.try_send(a, 0)
        one_vc.try_send(b, 0)
        drain(one_vc)
        # The second packet could not start injection until the first's
        # tail released the VC: at least 5 flit-cycles later.
        assert b.first_tx_cycle - a.first_tx_cycle >= 5

    def test_tiny_buffers_still_deliver(self):
        tight = MeshNetwork(MeshConfig(num_nodes=16, buffer_flits=1))
        packets = [
            Packet(src=0, dst=15, lane=LaneKind.DATA) for _ in range(3)
        ]
        for p in packets:
            tight.try_send(p, 0)
        drain(tight)
        assert all(p.deliver_cycle > 0 for p in packets)


class TestCreditDiscipline:
    def make_router(self):
        deliveries = []
        router = Router(
            node=0, side=4, num_vcs=2, buffer_flits=2,
            router_latency=4, link_latency=1,
            deliver=lambda p, c: deliveries.append((p, c)),
        )
        return router, deliveries

    def test_overflow_raises(self):
        router, _ = self.make_router()
        packet = Packet(src=1, dst=0, lane=LaneKind.DATA)
        router.accept_flit(Port.EAST, 0, 0, packet, 5)
        router.accept_flit(Port.EAST, 0, 0)
        with pytest.raises(RuntimeError, match="credit"):
            router.accept_flit(Port.EAST, 0, 0)

    def test_double_head_raises(self):
        router, _ = self.make_router()
        first = Packet(src=1, dst=0, lane=LaneKind.META)
        second = Packet(src=2, dst=0, lane=LaneKind.META)
        router.accept_flit(Port.EAST, 0, 0, first, 1)
        with pytest.raises(RuntimeError, match="VC allocation"):
            router.accept_flit(Port.EAST, 0, 0, second, 1)

    def test_local_ejection_delivers_on_tail(self):
        router, deliveries = self.make_router()
        packet = Packet(src=1, dst=0, lane=LaneKind.META)
        router.accept_flit(Port.EAST, 0, 0, packet, 1)
        router.tick(0)
        assert len(deliveries) == 1
        delivered, cycle = deliveries[0]
        assert delivered is packet
        assert cycle == 4  # router latency

    def test_validation(self):
        # The router takes its parameters from a validated MeshConfig.
        with pytest.raises(ValueError):
            MeshConfig(num_vcs=0)
        with pytest.raises(ValueError):
            MeshConfig(router_latency=0)


class TestArbitrationBound:
    """The round-robin wrap is derived from ``num_vcs``: arbitration
    indices run to ``5 * num_vcs``, past 1000 from 200 VCs per port up,
    and no fixed modulus orders them."""

    NUM_VCS = 250
    KEYS = [(Port.EAST, 0), (Port.SOUTH, 0), (Port.SOUTH, 249)]  # 251, 1001, 1250

    def index(self, key):
        return key[0] * self.NUM_VCS + key[1] + 1

    def ejection_order(self, start):
        delivered = []
        router = Router(
            node=5, side=4, num_vcs=self.NUM_VCS, buffer_flits=2,
            router_latency=4, link_latency=1,
            deliver=lambda packet, cycle: delivered.append(packet),
        )
        packet_of = {}
        for key in self.KEYS:
            packet_of[key] = Packet(src=0, dst=5, lane=LaneKind.META)
            router.accept_flit(*key, 0, packet_of[key], 1)
        router._arbiter_state[Port.LOCAL] = start
        pointers = []
        for cycle in range(len(self.KEYS)):
            router.tick(cycle)
            pointers.append(router._arbiter_state[Port.LOCAL])
        order = [
            next(k for k, p in packet_of.items() if p is packet)
            for packet in delivered
        ]
        assert pointers == [self.index(key) + 1 for key in order]
        return order

    def test_ascending_from_a_fresh_pointer(self):
        assert self.ejection_order(0) == self.KEYS

    @pytest.mark.parametrize("first", range(3))
    def test_wraps_past_index_1000(self, first):
        # Pointer just past requester ``first - 1``: service starts at
        # ``first`` and wraps around to the lower indices.
        start = self.index(self.KEYS[first - 1]) + 1 if first else 0
        assert self.ejection_order(start) == self.KEYS[first:] + self.KEYS[:first]
