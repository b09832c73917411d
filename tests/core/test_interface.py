"""Tests for the shared Interconnect base class and its statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.network import FsoiConfig, FsoiNetwork
from repro.corona.network import CoronaConfig, CoronaNetwork
from repro.mesh.ideal import IdealConfig, IdealNetwork
from repro.mesh.network import MeshConfig, MeshNetwork
from repro.net.interface import Interconnect, InterconnectStats
from repro.net.packet import LaneKind, Packet, make_packet
from repro.util.stats import LatencyStat

#: Every transport ``CmpSystem`` can build, at 16 nodes.
TRANSPORTS = {
    "fsoi": lambda: FsoiNetwork(FsoiConfig(num_nodes=16)),
    "mesh": lambda: MeshNetwork(MeshConfig(num_nodes=16)),
    "l0": lambda: IdealNetwork(IdealConfig.l0(16)),
    "lr1": lambda: IdealNetwork(IdealConfig.lr1(16)),
    "lr2": lambda: IdealNetwork(IdealConfig.lr2(16)),
    "corona": lambda: CoronaNetwork(CoronaConfig(num_nodes=16)),
}


class _Null(Interconnect):
    """Minimal concrete network: delivers on demand."""

    def try_send(self, packet, cycle):
        packet.enqueue_cycle = cycle
        packet.scheduled_cycle = cycle
        self.stats.sent.add()
        return True

    def tick(self, cycle):
        pass

    def force_deliver(self, packet, cycle):
        packet.first_tx_cycle = packet.scheduled_cycle
        packet.final_tx_cycle = packet.scheduled_cycle
        self._deliver(packet, cycle)


class TestBaseClass:
    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            _Null(1)

    def test_callback_invoked_on_delivery(self):
        net = _Null(4)
        seen = []
        net.set_delivery_callback(2, seen.append)
        p = Packet(src=0, dst=2, lane=LaneKind.META)
        net.try_send(p, 0)
        net.force_deliver(p, 5)
        assert seen == [p]
        assert p.deliver_cycle == 5

    def test_missing_callback_is_fine(self):
        net = _Null(4)
        p = Packet(src=0, dst=1, lane=LaneKind.META)
        net.try_send(p, 0)
        net.force_deliver(p, 3)  # no callback installed: no crash
        assert int(net.stats.delivered) == 1

    def test_node_range_checked(self):
        net = _Null(4)
        with pytest.raises(ValueError):
            net.set_delivery_callback(4, lambda p: None)

    def test_audit_checks_deliveries_against_sends(self):
        net = _Null(4)
        net.audit()
        net.force_deliver(Packet(src=0, dst=1, lane=LaneKind.META), 2)
        with pytest.raises(AssertionError, match="delivered 1 packets but only 0 sent"):
            net.audit()

    def test_quiescent_default(self):
        net = _Null(4)
        assert net.quiescent()
        p = Packet(src=0, dst=1, lane=LaneKind.META)
        net.try_send(p, 0)
        assert not net.quiescent()
        net.force_deliver(p, 1)
        assert net.quiescent()


@pytest.mark.parametrize("kind", TRANSPORTS)
class TestSendPrecondition:
    """``try_send`` refuses what no transport can carry, identically
    everywhere: the shared ``Interconnect._check_packet``."""

    def test_packet_to_self_raises(self, kind):
        # make_packet skips the Packet constructor's own src != dst check.
        net = TRANSPORTS[kind]()
        loop = make_packet(3, 3, LaneKind.META, None, False, False, False, False, 99)
        with pytest.raises(ValueError, match="packet to self: node 3$"):
            net.try_send(loop, 0)
        assert int(net.stats.sent) == 0 and net.quiescent()
        net.audit()

    @pytest.mark.parametrize("src, dst", [(16, 3), (3, 16), (-1, 3)])
    def test_endpoint_out_of_range_raises(self, kind, src, dst):
        net = TRANSPORTS[kind]()
        packet = make_packet(src, dst, LaneKind.DATA, None, False, False, False, False, 99)
        with pytest.raises(ValueError, match="out of range"):
            net.try_send(packet, 0)
        assert int(net.stats.sent) == 0


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_full_source_refuses(kind):
    """A source whose queue is at capacity is refused — Corona counts
    its packets to every destination together — and others still send."""
    net = TRANSPORTS[kind]()
    capacity = (
        net.lanes.queue_capacity if kind == "fsoi" else net.config.injection_queue
    )
    for i in range(capacity):
        assert net.try_send(Packet(src=0, dst=1 + i % 15, lane=LaneKind.META), 0)
    assert not net.try_send(Packet(src=0, dst=1, lane=LaneKind.META), 0)
    assert (int(net.stats.sent), int(net.stats.refused)) == (capacity, 1)
    assert net.try_send(Packet(src=1, dst=0, lane=LaneKind.META), 0)
    net.audit()


class TestStats:
    def test_breakdown_fields(self):
        stats = InterconnectStats()
        p = Packet(src=0, dst=1, lane=LaneKind.META)
        p.enqueue_cycle = 0
        p.scheduled_cycle = 2
        p.first_tx_cycle = 4
        p.final_tx_cycle = 8
        p.deliver_cycle = 10
        stats.record_delivery(p)
        breakdown = stats.breakdown()
        assert breakdown["scheduling"] == 2
        assert breakdown["queuing"] == 2
        assert breakdown["collision_resolution"] == 4
        assert breakdown["network"] == 2
        assert breakdown["total"] == 10

    def test_means_accumulate(self):
        stats = InterconnectStats()
        for total in (10, 20):
            p = Packet(src=0, dst=1, lane=LaneKind.META)
            p.enqueue_cycle = 0
            p.scheduled_cycle = 0
            p.first_tx_cycle = 0
            p.final_tx_cycle = 0
            p.deliver_cycle = total
            stats.record_delivery(p)
        assert stats.breakdown()["total"] == 15


#: One delivery's four components, zero and large latencies included.
_COMPONENT = st.one_of(st.just(0), st.integers(0, 40), st.integers(10**6, 10**9))


class TestJointLatencyTable:
    """The five latency stats are views of one joint table: each reads
    exactly as a ``LatencyStat`` fed its component sample by sample."""

    @given(st.lists(st.tuples(*[_COMPONENT] * 4), max_size=40))
    def test_views_equal_per_sample_stats(self, deliveries):
        stats = InterconnectStats()
        views = {
            "queuing": stats.queuing, "scheduling": stats.scheduling,
            "resolution": stats.resolution, "network": stats.network,
            "total": stats.total,
        }
        plain = {name: LatencyStat(name) for name in views}
        for queuing, scheduling, resolution, network in deliveries:
            p = Packet(src=0, dst=1, lane=LaneKind.META)
            p.enqueue_cycle = 7
            p.scheduled_cycle = p.enqueue_cycle + scheduling
            p.first_tx_cycle = p.scheduled_cycle + queuing
            p.final_tx_cycle = p.first_tx_cycle + resolution
            p.deliver_cycle = p.final_tx_cycle + network
            stats.record_delivery(p)
            samples = {
                "queuing": queuing, "scheduling": scheduling,
                "resolution": resolution, "network": network,
                "total": queuing + scheduling + resolution + network,
            }
            for name, value in samples.items():
                plain[name].record(value)
                # A read between two deliveries sees the newest sample.
                assert views[name].count == plain[name].count
                assert views[name].maximum == plain[name].maximum
        for name, view in views.items():
            expected = plain[name]
            assert list(view._counts.items()) == list(expected._counts.items())
            assert view.summary() == expected.summary()
            for q in (0, 1, 50, 95, 99.5, 100):
                assert view.percentile(q) == expected.percentile(q)
        registered = stats.group.as_dict()
        assert registered["total_delay"] == plain["total"].summary()

    def test_views_are_read_only(self):
        stats = InterconnectStats()
        for view in (stats.queuing, stats.scheduling, stats.resolution,
                     stats.network, stats.total):
            with pytest.raises(TypeError, match="view of a joint table"):
                view.record(3)
        assert stats.total.count == 0 and stats.joint == {}
