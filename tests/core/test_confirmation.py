"""The FSOI confirmation lane (§4.3.2, §5.1) on a real network: its
fixed delay, filing order within a cycle, its counts, and an unheard
arrival holding the horizon and quiescence."""

from repro.core.lanes import LaneConfig
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.net.packet import LaneKind, Packet


def make_network(delay=2) -> FsoiNetwork:
    lanes = LaneConfig(confirmation_delay=delay)
    return FsoiNetwork(FsoiConfig(num_nodes=4, lanes=lanes))


def meta(src, dst, on_confirmed=None) -> Packet:
    packet = Packet(src=src, dst=dst, lane=LaneKind.META)
    packet.on_confirmed = on_confirmed
    return packet


def run(net: FsoiNetwork, start: int, end: int) -> None:
    for cycle in range(start, end):
        net.tick(cycle)


class TestConfirmationLane:
    def test_fixed_delay(self):
        # A meta packet sent in slot [0, 2) is received in cycle 1; its
        # confirmation and a signal sent then arrive `delay` cycles later.
        for delay in (1, 2, 4):
            net = make_network(delay)
            fired = []
            net.try_send(meta(0, 1, lambda: fired.append("confirmed")), 0)
            run(net, 0, 2)
            assert net.send_signal(1, lambda: fired.append("signal")) == 1 + delay
            run(net, 2, 1 + delay)
            assert fired == []
            net.tick(1 + delay)
            assert fired == ["confirmed", "signal"]

    def test_insertion_order_within_cycle(self):
        net = make_network()
        fired = []
        net.try_send(meta(2, 3, lambda: fired.append("2->3")), 0)
        net.try_send(meta(0, 1, lambda: fired.append("0->1")), 0)
        net.send_signal(0, lambda: fired.append("early"))  # arrives in cycle 2
        net.tick(0)  # both confirmations filed for cycle 3, node order
        net.send_signal(1, lambda: fired.append("signal"))
        run(net, 1, 4)
        assert fired == ["early", "0->1", "2->3", "signal"]

    def test_counts_confirmations_and_signals(self):
        net = make_network()
        net.try_send(meta(0, 1), 0)
        net.send_signal(0, lambda: None)
        net.send_signal(0, lambda: None)
        run(net, 0, 10)
        assert (net.confirmations_sent, net.signals_sent) == (1, 2)

    def test_arrivals_drain(self):
        net = make_network()
        net.send_signal(0, lambda: None)
        run(net, 0, 2)
        assert (net.quiescent(), net.next_event(1)) == (False, 2)
        net.tick(2)
        assert (net.quiescent(), net.next_event(2)) == (True, None)

    def test_unheard_confirmation_keeps_only_its_arrival(self):
        net = make_network()
        fired = []
        net.try_send(meta(0, 1), 0)
        net.tick(0)
        assert (net._unheard, net._heard, net.confirmations_sent) == ([3], [], 1)
        run(net, 1, 3)  # delivered in cycle 2: only the arrival is left
        assert (net.quiescent(), net.next_event(2)) == (False, 3)
        net.send_signal(2, lambda: fired.append("heard"))
        net.tick(3)
        assert (net.quiescent(), net.next_event(3), fired) == (False, 4, [])
        net.tick(4)
        assert (net.quiescent(), net.next_event(4), fired) == (True, None, ["heard"])
