"""Tests for the cycle-level FSOI network simulator."""

import pytest

from repro.core.backoff import BackoffPolicy
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.net.packet import LaneKind, Packet, make_packet


def make_network(**kwargs) -> FsoiNetwork:
    kwargs.setdefault("num_nodes", 4)
    return FsoiNetwork(FsoiConfig(**kwargs))


def run(network: FsoiNetwork, cycles: int) -> None:
    for cycle in range(cycles):
        network.tick(cycle)


def meta(src, dst, **kw):
    return Packet(src=src, dst=dst, lane=LaneKind.META, **kw)


def data(src, dst, **kw):
    return Packet(src=src, dst=dst, lane=LaneKind.DATA, **kw)


class TestSoloTiming:
    def test_meta_packet_timing(self):
        net = make_network()
        p = meta(0, 1)
        assert net.try_send(p, 0)
        run(net, 10)
        # Slot [0,2): received at cycle 1, delivered after 1 decode cycle.
        assert p.final_tx_cycle == 0
        assert p.deliver_cycle == 2
        assert p.network_delay == 2
        assert p.retries == 0

    def test_data_packet_timing(self):
        net = make_network()
        p = data(0, 1)
        net.try_send(p, 0)
        run(net, 10)
        assert p.deliver_cycle == 5  # slot [0,5), received 4, +1 decode

    def test_off_slot_enqueue_waits_for_boundary(self):
        net = make_network()
        p = meta(0, 1)
        run(net, 1)  # advance past cycle 0
        net.try_send(p, 1)
        for cycle in range(1, 10):
            net.tick(cycle)
        assert p.first_tx_cycle == 2  # next meta slot boundary
        assert p.queuing_delay == 1

    def test_confirmation_counted(self):
        net = make_network()
        net.try_send(meta(0, 1), 0)
        run(net, 10)
        assert net.confirmations_sent == 1

    def test_on_confirmed_hook_fires(self):
        net = make_network()
        fired = []
        p = meta(0, 1)
        p.on_confirmed = lambda: fired.append(True)
        net.try_send(p, 0)
        run(net, 2)
        assert not fired  # confirmation arrives at receive+2 = cycle 3
        run_from = 2
        for cycle in range(run_from, 5):
            net.tick(cycle)
        assert fired == [True]

    def test_lanes_are_independent(self):
        net = make_network()
        m, d = meta(0, 1), data(0, 1)
        net.try_send(m, 0)
        net.try_send(d, 0)
        run(net, 10)
        assert m.deliver_cycle == 2 and d.deliver_cycle == 5


class TestQueueing:
    def test_queue_capacity_refuses(self):
        net = make_network()
        for i in range(net.lanes.queue_capacity):
            assert net.try_send(meta(0, 1), 0)
        assert not net.try_send(meta(0, 1), 0)
        assert int(net.stats.refused) == 1

    def test_self_addressed_packet_refused_at_the_door(self):
        # make_packet skips Packet's own src != dst validation; such a
        # packet used to be queued, then delivered over the optical
        # medium when alone in its slot, or raise from inside tick()
        # (after the slot's packets had been popped) when not.
        net = make_network()
        net.try_send(meta(0, 1), 0)
        loop = make_packet(3, 3, LaneKind.META, None, False, False, False, False, 99)
        with pytest.raises(ValueError, match="packet to self"):
            net.try_send(loop, 0)
        assert int(net.stats.sent) == 1
        run(net, 10)
        net.audit()
        assert net.quiescent() and int(net.stats.delivered) == 1

    def test_back_to_back_slots(self):
        net = make_network()
        first, second = meta(0, 1), meta(0, 2)
        net.try_send(first, 0)
        net.try_send(second, 0)
        run(net, 10)
        assert first.final_tx_cycle == 0
        assert second.final_tx_cycle == 2  # immediately following slot


class TestCollisions:
    """With N=4 and 2 receivers, destination 3's senders 0 and 2 share
    receiver 0 (ranks 0 and 2), while sender 1 uses receiver 1."""

    def test_same_receiver_collides(self):
        net = make_network()
        a, b = meta(0, 3), meta(2, 3)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 60)
        assert a.retries + b.retries >= 2  # both failed at least once
        assert a.deliver_cycle > 2 and b.deliver_cycle > 2
        assert int(net.stats.delivered) == 2  # both retransmitted fine
        stats = net.stats.group.as_dict()["meta"]
        assert stats["collision_events"] >= 1
        assert stats["collided_transmissions"] >= 2

    def test_different_receivers_no_collision(self):
        net = make_network()
        a, b = meta(0, 3), meta(1, 3)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 10)
        assert a.deliver_cycle == 2 and b.deliver_cycle == 2
        assert a.retries == b.retries == 0

    def test_different_destinations_no_collision(self):
        net = make_network()
        a, b = meta(0, 1), meta(2, 3)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 10)
        assert a.retries == b.retries == 0

    def test_resolution_delay_recorded(self):
        net = make_network()
        a, b = meta(0, 3), meta(2, 3)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 60)
        assert a.resolution_delay > 0 or b.resolution_delay > 0
        assert net.stats.resolution.mean > 0

    def test_collision_rate_accounts_transmissions(self):
        net = make_network()
        net.try_send(meta(0, 3), 0)
        net.try_send(meta(2, 3), 0)
        run(net, 60)
        assert net.collision_rate(LaneKind.META) > 0
        assert net.collision_events_per_node_slot(LaneKind.META) > 0


class TestErrors:
    def test_signaling_error_behaves_like_collision(self):
        # §4.3.1: errors and collisions are handled by the same mechanism.
        net = make_network(packet_error_rate=0.5, seed=3)
        packets = [meta(0, 1) for _ in range(6)]
        for p in packets:
            net.try_send(p, 0)
        run(net, 300)
        assert int(net.stats.delivered) == 6  # all eventually delivered
        errors = net.stats.group.as_dict()["meta"]["error_corrupted"]
        assert errors > 0
        assert any(p.retries > 0 for p in packets)


    @pytest.mark.parametrize("rate", [1.5, -0.1, float("nan")])
    def test_out_of_range_error_rate_rejected(self, rate):
        with pytest.raises(ValueError, match=f"packet_error_rate .*{rate!r}"):
            FsoiConfig(packet_error_rate=rate)


class TestPhaseArray:
    """§4.1 steering, read off the network: a send to a target other than
    the one the lane's beam points at pays one setup cycle, and
    ``phase_array_summary`` counts sends and retargets."""

    def test_setup_penalty_on_retarget(self):
        net = make_network(phase_array=True)
        p = meta(0, 1)
        net.try_send(p, 0)
        run(net, 10)
        assert p.deliver_cycle == 3  # +1 steering cycle
        assert net.phase_array_summary() == {
            "sends": 1, "retargets": 1, "retarget_fraction": 1.0
        }

    def test_same_target_no_penalty(self):
        net = make_network(phase_array=True)
        first, second = meta(0, 1), meta(0, 1)
        net.try_send(first, 0)
        net.try_send(second, 0)
        run(net, 12)
        assert first.network_delay == 3
        assert second.network_delay == 2  # already steered at node 1
        assert net.phase_array_summary()["retargets"] == 1

    def test_negative_target_refused_at_the_door(self):
        net = make_network(phase_array=True)
        stray = make_packet(0, -1, LaneKind.META, None, False, False, False, False, 98)
        with pytest.raises(ValueError):
            net.try_send(stray, 0)
        run(net, 10)
        assert net.phase_array_summary() == {
            "sends": 0, "retargets": 0, "retarget_fraction": 0.0
        }

    def test_every_transmission_is_a_send(self):
        # Senders 0 and 2 collide at destination 3, so each transmits at
        # least twice, and aims its beam once.
        net = make_network(phase_array=True)
        net.try_send(meta(0, 3), 0)
        net.try_send(meta(2, 3), 0)
        run(net, 80)
        transmissions = net.stats.group.as_dict()["meta"]["transmissions"]
        assert transmissions >= 4
        assert net.phase_array_summary()["sends"] == transmissions
        assert net.phase_array_summary()["retargets"] == 2


class TestRequestSpacing:
    def test_second_request_spaced(self):
        opts = OptimizationConfig(request_spacing=True)
        net = make_network(optimizations=opts)
        a = meta(0, 1, expects_data_reply=True)
        b = meta(0, 2, expects_data_reply=True)
        net.try_send(a, 0)
        net.try_send(b, 0)
        assert a.scheduling_delay == 0
        assert b.scheduling_delay == net.lanes.slot_cycles(LaneKind.DATA)

    def test_non_requests_not_spaced(self):
        opts = OptimizationConfig(request_spacing=True)
        net = make_network(optimizations=opts)
        a = meta(0, 1)
        net.try_send(a, 0)
        assert a.scheduling_delay == 0


class TestResolutionHints:
    def test_winner_retransmits_next_slot(self):
        opts = OptimizationConfig(resolution_hints=True)
        net = make_network(optimizations=opts, seed=1)
        a, b = data(0, 3), data(2, 3)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 120)
        hints = net.hint_summary()
        assert hints["issued"] == 1
        winner = a if a.final_tx_cycle == 5 else b
        assert winner.final_tx_cycle == 5  # the very next data slot
        assert int(net.stats.delivered) == 2
        # The winner is a collider like the loser: one collision, one retry.
        assert (a.retries, b.retries) == (1, 1)

    def test_hints_only_on_data_lane(self):
        opts = OptimizationConfig(resolution_hints=True)
        net = make_network(optimizations=opts)
        net.try_send(meta(0, 3), 0)
        net.try_send(meta(2, 3), 0)
        run(net, 60)
        assert net.hint_summary()["issued"] == 0

    def test_expectation_narrows_candidates(self):
        opts = OptimizationConfig(resolution_hints=True)
        net = make_network(optimizations=opts, seed=2)
        net.expect_data_from(3, 0)
        net.expect_data_from(3, 2)
        a, b = data(0, 3), data(2, 3)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 120)
        assert net.hint_summary()["correct"] == 1


class TestConservation:
    def test_every_packet_delivered_exactly_once(self):
        import numpy as np

        net = make_network(num_nodes=8, seed=9)
        delivered = []
        for node in range(8):
            net.set_delivery_callback(node, lambda p: delivered.append(p.uid))
        rng = np.random.default_rng(0)
        sent = []
        for cycle in range(400):
            if cycle % 2 == 0:
                for src in range(8):
                    if rng.random() < 0.2:
                        dst = int(rng.integers(0, 7))
                        dst = dst if dst < src else dst + 1
                        lane = LaneKind.DATA if rng.random() < 0.3 else LaneKind.META
                        p = Packet(src=src, dst=dst, lane=lane)
                        if net.try_send(p, cycle):
                            sent.append(p.uid)
            net.tick(cycle)
        drain = 400
        while not net.quiescent() and drain < 5000:
            net.tick(drain)
            drain += 1
        assert net.quiescent()
        assert sorted(delivered) == sorted(sent)
        assert len(set(delivered)) == len(delivered)

    def test_quiescent_empty_network(self):
        assert make_network().quiescent()


class TestBreakdownConsistency:
    def test_components_sum_to_total(self):
        net = make_network(seed=4)
        packets = [meta(0, 3), meta(2, 3), data(1, 0), meta(1, 2)]
        for p in packets:
            net.try_send(p, 0)
        run(net, 120)
        breakdown = net.stats.breakdown()
        parts = (
            breakdown["queuing"]
            + breakdown["scheduling"]
            + breakdown["network"]
            + breakdown["collision_resolution"]
        )
        assert parts == pytest.approx(breakdown["total"])
