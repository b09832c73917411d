"""Tests for the Table 3 configuration presets."""

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.config import SystemConfig, table3


class TestTable3:
    def test_16_node_preset(self):
        config = table3(16)
        assert config.num_nodes == 16
        assert config.memory_channels == 4
        assert not config.phase_array

    def test_64_node_preset(self):
        config = table3(64)
        assert config.memory_channels == 8
        assert config.phase_array

    @pytest.mark.parametrize("nodes", [16, 64])
    def test_matches_the_built_system(self, nodes):
        config = table3(nodes)
        system = CmpSystem(CmpConfig(num_nodes=nodes))
        assert config.memory_channels == len(system.controller_nodes)
        assert config.phase_array == system.network.config.phase_array
        system.close()

    def test_other_sizes_rejected(self):
        with pytest.raises(ValueError):
            table3(32)

    def test_render_contains_key_rows(self):
        text = table3(16).render()
        for fragment in (
            "3.3 GHz",
            "8 KB, 2-way, 32 B line",
            "8.8 GB/s, latency 200 cycles",
            "12 bits per CPU cycle",
            "6/3/1 bits",
            "W=2.7, B=1.1",
            "dedicated per destination",
        ):
            assert fragment in text, fragment

    def test_render_64_mentions_phase_array(self):
        assert "phase-array" in table3(64).render()

    def test_rows_are_pairs(self):
        for key, value in table3(16).rows():
            assert isinstance(key, str) and isinstance(value, str)
