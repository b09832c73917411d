"""Tests for the back-off policy, lane/slot configuration and phase array.

The phase array's steering lives in the FSOI network's lane state, so
its checks here script a sender's targets on a network and read each
packet's setup cycles and ``phase_array_summary``.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.backoff import BackoffPolicy
from repro.core.lanes import LaneConfig
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.net.packet import LaneKind, Packet
from tests.core.backoff_draws import network_draws


class TestBackoffPolicy:
    def test_paper_defaults(self):
        policy = BackoffPolicy()
        assert policy.start_window == 2.7
        assert policy.base == 1.1

    def test_window_growth(self):
        policy = BackoffPolicy(2.7, 1.1)
        assert policy.window(1) == pytest.approx(2.7)
        assert policy.window(2) == pytest.approx(2.97)
        assert policy.window(10) == pytest.approx(2.7 * 1.1**9)

    def test_window_clamped(self):
        policy = BackoffPolicy(2.0, 2.0, max_window=64)
        assert policy.window(50) == 64

    def test_base_one_is_fixed_window(self):
        policy = BackoffPolicy(3.0, 1.0)
        assert policy.window(1) == policy.window(100) == 3.0

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=2**31))
    def test_draw_within_window(self, retry, seed):
        policy = BackoffPolicy(2.7, 1.1)
        (draw,) = network_draws(policy, retry, 1, seed)
        assert 1 <= draw <= int(np.ceil(policy.window(retry)))

    def test_expected_delay_matches_draws(self):
        policy = BackoffPolicy(4.0, 1.0)
        draws = network_draws(policy, 1, 20_000)
        assert np.mean(draws) == pytest.approx(policy.expected_delay_slots(1), rel=0.02)

    def test_retry_is_one_based(self):
        with pytest.raises(ValueError):
            BackoffPolicy().window(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(start_window=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.9)
        with pytest.raises(ValueError):
            BackoffPolicy(start_window=10, max_window=5)


class TestLaneConfig:
    lanes = LaneConfig()

    def test_slot_lengths_table3(self):
        # 72-bit meta over 3x12 bits/cycle = 2 cycles; 360-bit data over
        # 6x12 = 5 cycles.
        assert self.lanes.slot_cycles(LaneKind.META) == 2
        assert self.lanes.slot_cycles(LaneKind.DATA) == 5

    def test_lane_widths(self):
        assert self.lanes.lane_width_bits(LaneKind.META) == 36
        assert self.lanes.lane_width_bits(LaneKind.DATA) == 72

    def test_receiver_partition_even(self):
        # 15 senders over 2 receivers: 8 / 7 split, deterministic.
        counts = [0, 0]
        for src in range(16):
            if src == 5:
                continue
            counts[self.lanes.receiver_for(LaneKind.META, src, 5, 16)] += 1
        assert sorted(counts) == [7, 8]

    def test_receiver_for_rejects_self(self):
        with pytest.raises(ValueError):
            self.lanes.receiver_for(LaneKind.META, 3, 3, 16)

    def test_slot_alignment(self):
        assert self.lanes.slot_aligned(0, LaneKind.DATA)
        assert self.lanes.slot_aligned(10, LaneKind.DATA)
        assert not self.lanes.slot_aligned(3, LaneKind.DATA)

    def test_next_slot_start(self):
        assert self.lanes.next_slot_start(0, LaneKind.DATA) == 0
        assert self.lanes.next_slot_start(1, LaneKind.DATA) == 5
        assert self.lanes.next_slot_start(5, LaneKind.DATA) == 5
        assert self.lanes.next_slot_start(7, LaneKind.META) == 8

    def test_vcsel_count_paper_estimate(self):
        # §4.1: N=16, k~9-10 bits per node -> "approximately 2000 VCSELs".
        per_node = self.lanes.total_vcsels_per_node(16, dedicated=True)
        total = per_node * 16
        assert 1500 < total < 3000

    def test_phase_array_constant_vcsels(self):
        assert self.lanes.total_vcsels_per_node(64, dedicated=False) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            LaneConfig(meta_vcsels=0)
        with pytest.raises(ValueError):
            LaneConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            LaneConfig(meta_receivers=0)
        with pytest.raises(ValueError):
            LaneConfig(confirmation_delay=0)


def steer(targets, num_nodes=8):
    """Node 0 sends one meta packet to each of ``targets``, one slot
    apart; returns each packet's steering cycles and the network's
    ``phase_array_summary``."""
    net = FsoiNetwork(FsoiConfig(num_nodes=num_nodes, phase_array=True))
    packets = [Packet(src=0, dst=target, lane=LaneKind.META) for target in targets]
    for packet in packets:
        assert net.try_send(packet, 0)
    for cycle in range(2 * len(packets) + 10):
        net.tick(cycle)
    # A solo meta packet is delivered two cycles after its slot starts.
    setups = [p.deliver_cycle - p.final_tx_cycle - 2 for p in packets]
    return setups, net.phase_array_summary()


class TestPhaseArray:
    def test_first_steer_pays_setup(self):
        setups, summary = steer([3])
        assert setups == [1]
        assert summary["retargets"] == 1

    def test_same_target_free(self):
        setups, summary = steer([3, 3])
        assert setups == [1, 0]
        assert summary["retargets"] == 1

    def test_retarget_pays_again(self):
        setups, summary = steer([3, 3, 7])
        assert setups == [1, 0, 1]
        assert summary["retargets"] == 2

    def test_retarget_fraction(self):
        setups, summary = steer([1, 1, 2, 2, 2, 3])
        assert setups == [1, 0, 1, 0, 0, 1]
        assert summary == {"sends": 6, "retargets": 3, "retarget_fraction": 0.5}
