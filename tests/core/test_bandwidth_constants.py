"""Tests for deriving the §4.3.1 bandwidth-split constants and the
Table 3 lane slot lengths they split."""

import math

import pytest

from repro.config import table3
from repro.core.analytical import (
    bandwidth_constants,
    optimal_meta_bandwidth,
)
from repro.core.lanes import LaneConfig
from repro.net.packet import DATA_PACKET_BITS, META_PACKET_BITS, LaneKind


class TestDerivation:
    def test_paper_mix_reproduces_paper_optimum(self):
        """The measured ~2:1 meta:data mix lands B_M at the paper's 0.285."""
        constants = bandwidth_constants(2000, 1000)
        assert optimal_meta_bandwidth(constants) == pytest.approx(0.285, abs=0.01)

    def test_more_meta_traffic_shifts_optimum_up(self):
        heavy_meta = optimal_meta_bandwidth(bandwidth_constants(4000, 1000))
        balanced = optimal_meta_bandwidth(bandwidth_constants(2000, 1000))
        heavy_data = optimal_meta_bandwidth(bandwidth_constants(1000, 1000))
        assert heavy_meta > balanced > heavy_data

    def test_constants_positive(self):
        assert all(c > 0 for c in bandwidth_constants(100, 100))

    def test_validation(self):
        with pytest.raises(ValueError):
            bandwidth_constants(0, 0)
        with pytest.raises(ValueError):
            bandwidth_constants(-1, 5)


class TestLaneSlotLengths:
    def test_table3_slot_lengths(self):
        """Rederive each slot from the paper's numbers alone: packet bits
        over lane VCSELs x 12 bits per VCSEL per cycle (40 Gbps at
        3.3 GHz), rounded up — 72-bit meta on 3 VCSELs, 360-bit data on 6."""
        for lane, bits, vcsels, cycles in (
            (LaneKind.META, 72, 3, 2),
            (LaneKind.DATA, 360, 6, 5),
        ):
            assert math.ceil(bits / (vcsels * 12)) == cycles
            assert LaneConfig().slot_cycles(lane) == cycles
            assert table3(16).lanes.slot_cycles(lane) == cycles
        assert (META_PACKET_BITS, DATA_PACKET_BITS) == (72, 360)


class TestFromMeasuredRun:
    def test_cmp_mix_yields_paper_band(self):
        """Close the loop: derive the constants from an actual 16-node
        FSOI run's packet mix and check the optimum motivates the
        3-meta / 6-data VCSEL split."""
        from repro.cmp import run_app

        result = run_app("ba", "fsoi", num_nodes=16, cycles=4000)
        meta = result.fsoi["meta_transmissions"]
        data = result.fsoi["data_transmissions"]
        assert meta > data > 0  # requests/acks outnumber data replies
        constants = bandwidth_constants(meta, data)
        optimum = optimal_meta_bandwidth(constants)
        assert 0.22 < optimum < 0.38
        # 3/9 is the nearest feasible integer split.
        assert abs(3 / 9 - optimum) < abs(5 / 9 - optimum)
