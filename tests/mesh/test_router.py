"""Router-internal corner cases: VC exhaustion, credit discipline, and
round-robin switch arbitration.

The arbitration tests drive one router of a bare 4x4 mesh: flits are
placed with :meth:`Router.accept_flit`, and ``MeshNetwork.tick`` moves
the fronts due into the ready sets and runs :meth:`Router.switch`, the
one switch implementation.  With ``k`` ready requesters on one output
port and the arbiter pointer at ``start``, the flit forwarded is the one
``min((index - start) % 1000)`` names (``index = in_port * num_vcs + vc
+ 1``) — the first element of a ``sorted`` pick by cyclic distance —
and the pointer advances just past it.  An ejected tail is delivered
``router_latency`` (4) cycles later.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.network import MeshConfig, MeshNetwork
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
        net = MeshNetwork(MeshConfig(num_nodes=16, num_vcs=2, buffer_flits=2))
        deliveries = []
        net.set_delivery_callback(0, lambda p: deliveries.append((p, p.deliver_cycle)))
        return net, net.routers[0], deliveries

    def test_overflow_raises(self):
        _, router, _ = self.make_router()
        packet = Packet(src=1, dst=0, lane=LaneKind.DATA)
        router.accept_flit(Port.EAST, 0, 0, packet, 5)
        router.accept_flit(Port.EAST, 0, 0)
        with pytest.raises(RuntimeError, match="credit"):
            router.accept_flit(Port.EAST, 0, 0)

    def test_double_head_raises(self):
        _, router, _ = self.make_router()
        first = Packet(src=1, dst=0, lane=LaneKind.META)
        second = Packet(src=2, dst=0, lane=LaneKind.META)
        router.accept_flit(Port.EAST, 0, 0, first, 1)
        with pytest.raises(RuntimeError, match="VC allocation"):
            router.accept_flit(Port.EAST, 0, 0, second, 1)

    def test_local_ejection_delivers_on_tail(self):
        net, router, deliveries = self.make_router()
        packet = Packet(src=1, dst=0, lane=LaneKind.META)
        router.accept_flit(Port.EAST, 0, 0, packet, 1)
        drain(net)
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
        net = MeshNetwork(
            MeshConfig(num_nodes=16, num_vcs=self.NUM_VCS, buffer_flits=2)
        )
        delivered = []
        net.set_delivery_callback(5, delivered.append)
        router = net.routers[5]
        packet_of = {}
        for key in self.KEYS:
            packet_of[key] = Packet(src=0, dst=5, lane=LaneKind.META)
            router.accept_flit(*key, 0, packet_of[key], 1)
        router._arbiter_state[Port.LOCAL] = start
        pointers = []
        for cycle in range(len(self.KEYS)):
            net.tick(cycle)
            pointers.append(router._arbiter_state[Port.LOCAL])
        drain(net, len(self.KEYS))
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


NUM_VCS = 4
NODE = 5  # an interior node of the 4x4 mesh

#: Distinct (input port, vc) requesters; the ejection port is never
#: flow-control blocked, so every ready head is a candidate.
requester_keys = st.sets(
    st.tuples(st.sampled_from(list(Port)), st.integers(0, NUM_VCS - 1)),
    min_size=1, max_size=len(Port) * NUM_VCS,
)
pointers = st.integers(min_value=0, max_value=999)


def arbitration_index(key):
    in_port, vc = key
    return in_port * NUM_VCS + vc + 1


def ejecting_router(keys, start, flits=1, not_ready=()):
    """A bare 4x4 mesh whose router ``NODE`` holds one packet for its
    local port in each of ``keys``, the ejection arbiter pointer at
    ``start``.

    Returns ``(net, router, delivered, packet_of)``; deliveries at
    ``NODE`` append to ``delivered``.  Heads in ``not_ready`` become
    processable only at cycle 100.
    """
    net = MeshNetwork(MeshConfig(num_nodes=16, num_vcs=NUM_VCS, buffer_flits=4))
    delivered = []
    net.set_delivery_callback(NODE, delivered.append)
    router = net.routers[NODE]
    packet_of = {}
    for key in sorted(keys):
        packet = Packet(src=0, dst=NODE, lane=LaneKind.META)
        packet_of[key] = packet
        ready = 100 if key in not_ready else 0
        router.accept_flit(*key, ready, packet, flits)
        for _ in range(flits - 1):
            router.accept_flit(*key, ready)
    router._arbiter_state[Port.LOCAL] = start
    return net, router, delivered, packet_of


def eject_once(net):
    """Switch cycle 0 and return the ejection arbiter pointer it left;
    tick on until cycle 0's ejection is delivered (later ones are
    delivered later)."""
    net.tick(0)
    pointer = net.routers[NODE]._arbiter_state[Port.LOCAL]
    for cycle in range(1, 5):
        net.tick(cycle)
    return pointer


class TestRrPick:
    @settings(deadline=None)
    @given(keys=requester_keys, start=pointers)
    def test_matches_sorted_pick(self, keys, start):
        net, router, delivered, packet_of = ejecting_router(keys, start)
        pointer = eject_once(net)
        # The rule as a stable sort by cyclic distance from the arbiter
        # pointer, winner first.
        winner = sorted(
            keys, key=lambda key: (arbitration_index(key) - start) % 1000
        )[0]
        assert delivered == [packet_of[winner]]
        assert pointer == arbitration_index(winner) + 1

    @settings(deadline=None)
    @given(data=st.data(), keys=requester_keys, start=pointers)
    def test_winner_minimizes_cyclic_distance(self, data, keys, start):
        # Only ready heads compete: the winner is cyclically nearest the
        # pointer among them, however near a future-ready head sits.
        not_ready = data.draw(st.sets(st.sampled_from(sorted(keys))))
        net, router, delivered, packet_of = ejecting_router(
            keys, start, not_ready=not_ready
        )
        pointer = eject_once(net)
        ready = keys - not_ready
        if not ready:
            assert delivered == []
            assert pointer == start
            return
        (winner,) = [key for key in ready if packet_of[key] is delivered[0]]
        winner_distance = (arbitration_index(winner) - start) % 1000
        assert all(
            (arbitration_index(key) - start) % 1000 >= winner_distance
            for key in ready
        )

    def test_pointer_update_gives_lowest_priority_to_winner(self):
        # After a grant the arbiter pointer moves to winner + 1, so an
        # immediate re-request from the same input loses to anyone else
        # — the property that makes the scheme fair.  Two 2-flit packets
        # (arbitration indices 5 and 10) alternate on the ejection port.
        first, second = (Port.EAST, 0), (Port.WEST, 1)
        net, router, delivered, packet_of = ejecting_router(
            {first, second}, start=0, flits=2
        )
        granted = []
        for cycle in range(4):
            net.tick(cycle)
            granted.append(router._arbiter_state[Port.LOCAL] - 1)
        drain(net, 4)
        assert granted == [
            arbitration_index(first), arbitration_index(second),
            arbitration_index(first), arbitration_index(second),
        ]
        assert delivered == [packet_of[first], packet_of[second]]
