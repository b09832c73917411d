"""Tests for the corona-style token-ring optical crossbar."""

import pytest

from repro.corona.network import CoronaConfig, CoronaNetwork
from repro.net.packet import LaneKind, Packet


def make(**kwargs):
    kwargs.setdefault("num_nodes", 16)
    return CoronaNetwork(CoronaConfig(**kwargs))


def run(net, cycles, start=0):
    for cycle in range(start, start + cycles):
        net.tick(cycle)


class TestTokenArbitration:
    def test_single_packet_waits_for_token(self):
        net = make()
        p = Packet(src=5, dst=3, lane=LaneKind.META)
        net.try_send(p, 0)
        run(net, 60)
        assert p.deliver_cycle > 0
        # Token wait bounded by one full round.
        wait = p.first_tx_cycle - p.enqueue_cycle
        assert 0 <= wait <= net.config.token_round_cycles + 1

    def test_no_collisions_ever(self):
        """All contenders for one destination serialize on the token."""
        net = make()
        packets = [
            Packet(src=src, dst=0, lane=LaneKind.META) for src in range(1, 9)
        ]
        for p in packets:
            net.try_send(p, 0)
        run(net, 300)
        assert all(p.deliver_cycle > 0 for p in packets)
        assert all(p.retries == 0 for p in packets)
        # Transmissions never overlap on the channel.
        spans = sorted(
            (p.final_tx_cycle, p.final_tx_cycle + 2) for p in packets
        )
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert s2 >= e1

    def test_token_held_during_data_serialization(self):
        net = make()
        a = Packet(src=1, dst=0, lane=LaneKind.DATA)
        b = Packet(src=2, dst=0, lane=LaneKind.DATA)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 120)
        assert abs(a.final_tx_cycle - b.final_tx_cycle) >= 5

    def test_distinct_destinations_parallel(self):
        net = make()
        a = Packet(src=1, dst=0, lane=LaneKind.META)
        b = Packet(src=2, dst=3, lane=LaneKind.META)
        net.try_send(a, 0)
        net.try_send(b, 0)
        run(net, 60)
        # Independent channels: both go within one token round.
        assert max(a.deliver_cycle, b.deliver_cycle) <= 20


class TestBookkeeping:
    def test_injection_limit(self):
        net = make(injection_queue=2)
        assert net.try_send(Packet(src=0, dst=1, lane=LaneKind.META), 0)
        assert net.try_send(Packet(src=0, dst=2, lane=LaneKind.META), 0)
        assert not net.try_send(Packet(src=0, dst=3, lane=LaneKind.META), 0)

    def test_token_wait_recorded(self):
        net = make()
        net.try_send(Packet(src=9, dst=2, lane=LaneKind.META), 0)
        run(net, 40)
        waits = net.stats.group.as_dict()["token_wait"]
        assert waits["count"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CoronaConfig(token_round_cycles=0)
