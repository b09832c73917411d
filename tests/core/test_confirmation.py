"""Tests for the confirmation channel."""

import pytest

from repro.core.confirmation import ConfirmationChannel


class TestConfirmationChannel:
    def test_fixed_delay(self):
        channel = ConfirmationChannel(4, delay=2)
        fired = []
        arrival = channel.send_confirmation(10, lambda: fired.append("ok"))
        assert arrival == 12
        channel.tick(11)
        assert fired == []
        channel.tick(12)
        assert fired == ["ok"]

    def test_insertion_order_within_cycle(self):
        channel = ConfirmationChannel(4)
        fired = []
        channel.send_confirmation(5, lambda: fired.append("a"))
        channel.send_confirmation(5, lambda: fired.append("b"))
        channel.tick(7)
        assert fired == ["a", "b"]

    def test_counts_confirmations_and_signals(self):
        channel = ConfirmationChannel(4)
        channel.send_confirmation(0, lambda: None)
        channel.send_signal(0, lambda: None)
        channel.send_signal(0, lambda: None)
        assert channel.confirmations_sent == 1
        assert channel.signals_sent == 2

    def test_pending_drains(self):
        channel = ConfirmationChannel(4)
        channel.send_confirmation(0, lambda: None)
        assert channel.pending() == 1
        channel.tick(2)
        assert channel.pending() == 0

    def test_unheard_confirmation_keeps_only_its_arrival(self):
        channel = ConfirmationChannel(4, delay=2)
        fired = []
        assert channel.send_confirmation(3, None) == 5
        channel.send_confirmation(4, lambda: fired.append("heard"))
        assert channel.confirmations_sent == 2
        assert (channel.pending(), channel.next_event(4)) == (2, 5)
        channel.tick(5)
        assert (channel.pending(), channel.next_event(5), fired) == (1, 6, [])
        channel.tick(6)
        assert (channel.pending(), channel.next_event(6), fired) == (0, None, ["heard"])

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfirmationChannel(4, delay=0)

