"""Tests for the back-off policy, lane/slot configuration and phase array."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.backoff import BackoffPolicy
from repro.core.lanes import LaneConfig
from repro.core.phase_array import PhaseArray
from repro.net.packet import LaneKind


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
        rng = np.random.default_rng(seed)
        draw = policy.draw_delay_slots(rng, retry)
        assert 1 <= draw <= int(np.ceil(policy.window(retry)))

    def test_expected_delay_matches_draws(self):
        policy = BackoffPolicy(4.0, 1.0)
        rng = np.random.default_rng(0)
        draws = [policy.draw_delay_slots(rng, 1) for _ in range(20_000)]
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


class TestPhaseArray:
    def test_first_steer_pays_setup(self):
        opa = PhaseArray()
        assert opa.steer(3) == 1

    def test_same_target_free(self):
        opa = PhaseArray()
        opa.steer(3)
        assert opa.steer(3) == 0

    def test_retarget_pays_again(self):
        opa = PhaseArray()
        opa.steer(3)
        opa.steer(3)
        assert opa.steer(7) == 1

    def test_retarget_fraction(self):
        opa = PhaseArray()
        for target in (1, 1, 2, 2, 2, 3):
            opa.steer(target)
        assert opa.retarget_fraction == pytest.approx(3 / 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseArray().steer(-2)
