"""Tests for the full CMP system wiring."""

import pytest

from repro.cmp import CmpConfig, CmpSystem, run_app
from repro.core.optimizations import OptimizationConfig


class TestConfig:
    def test_network_kinds_validated(self):
        with pytest.raises(ValueError):
            CmpConfig(network="token-ring")

    def test_optimizations_require_fsoi(self):
        with pytest.raises(ValueError):
            CmpConfig(network="mesh", optimizations=OptimizationConfig.all())
        CmpConfig(network="fsoi", optimizations=OptimizationConfig.all())

    @pytest.mark.parametrize("field, value", [
        ("memory_gbps", 0), ("memory_gbps", -1.0), ("memory_gbps", float("nan")),
        ("fsoi_packet_error_rate", 1.5), ("fsoi_packet_error_rate", -0.1),
        ("fsoi_packet_error_rate", float("nan")),
    ])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} .*{value!r}"):
            CmpConfig(**{field: value})

    def test_memory_channels_default(self):
        assert CmpConfig(num_nodes=16).memory_channels == 4
        assert CmpConfig(num_nodes=64).memory_channels == 8

    @pytest.mark.parametrize("nodes", [2, 3])
    def test_fewer_nodes_than_memory_channels_rejected(self, nodes):
        with pytest.raises(ValueError, match=f"num_nodes {nodes} .* memory_channels 4"):
            CmpConfig(num_nodes=nodes)

    def test_app_lookup(self):
        assert CmpConfig(app="oc").app_signature.name == "ocean"


class TestWiring:
    def test_home_interleaving(self):
        system = CmpSystem(CmpConfig(num_nodes=16))
        assert system.home_of(0x10) == 0
        assert system.home_of(0x13) == 3

    def test_memory_controllers_placed(self):
        system = CmpSystem(CmpConfig(num_nodes=16))
        assert len(system.memory) == 4
        for line in range(64):
            assert system.memory_node_of(line) in system.memory

    def test_memory_controllers_on_distinct_nodes_in_rank_order(self):
        # One controller per channel, each on its own node, and the
        # same-cycle start rank (schedule_last) follows node order.
        for n in range(4, 101):
            system = CmpSystem(CmpConfig(num_nodes=n, warm_start=False))
            channels = system.config.memory_channels
            nodes = system.controller_nodes
            assert len(set(nodes)) == len(system.memory) == channels, n
            ranks = [system.memory[node].schedule.args[0] for node in sorted(nodes)]
            assert ranks == list(range(channels)), n
            system.close()

    def test_phase_array_only_at_64(self):
        small = CmpSystem(CmpConfig(num_nodes=16, network="fsoi"))
        large = CmpSystem(CmpConfig(num_nodes=64, network="fsoi"))
        assert not small.network.config.phase_array
        assert large.network.config.phase_array

    def test_warm_start_installs_hot_sets(self):
        from repro.coherence.l1 import L1State

        system = CmpSystem(CmpConfig(num_nodes=16, app="ba"))
        workload = system.cores[0].workload
        hot_line = workload.reuse_lines()[0]
        assert system.l1s[0].state(hot_line) is L1State.E

    def test_warm_start_can_be_disabled(self):
        from repro.coherence.directory import DirState

        system = CmpSystem(CmpConfig(num_nodes=16, warm_start=False))
        workload = system.cores[0].workload
        line = workload.reuse_lines()[0]
        assert system.directories[system.home_of(line)].state(line) is DirState.DI


class TestRun:
    def test_results_populated(self):
        result = run_app("ba", "fsoi", num_nodes=16, cycles=2000)
        assert result.instructions > 0
        assert result.packets_delivered > 0
        assert result.cycles == 2000
        assert len(result.instructions_per_core) == 16
        assert result.ipc > 0

    def test_deterministic_given_seed(self):
        a = run_app("ba", "fsoi", cycles=2000, seed=5)
        b = run_app("ba", "fsoi", cycles=2000, seed=5)
        assert a.instructions == b.instructions
        assert a.packets_sent == b.packets_sent

    def test_seed_changes_run(self):
        a = run_app("ba", "fsoi", cycles=2000, seed=5)
        b = run_app("ba", "fsoi", cycles=2000, seed=6)
        assert a.instructions != b.instructions

    def test_speedup_over(self):
        mesh = run_app("ba", "mesh", cycles=2000)
        fsoi = run_app("ba", "fsoi", cycles=2000)
        assert fsoi.speedup_over(mesh) > 0.8

    def test_speedup_rejects_mismatched_runs(self):
        a = run_app("ba", "mesh", cycles=1000)
        b = run_app("oc", "fsoi", cycles=1000)
        with pytest.raises(ValueError):
            b.speedup_over(a)

    def test_fsoi_stats_only_for_fsoi(self):
        mesh = run_app("ba", "mesh", cycles=1000)
        fsoi = run_app("ba", "fsoi", cycles=1000)
        assert mesh.fsoi == {}
        assert "meta_collision_rate" in fsoi.fsoi
        assert mesh.mesh_activity and not fsoi.mesh_activity

    def test_reply_latency_histogram_populated(self):
        result = run_app("oc", "fsoi", cycles=3000)
        assert result.reply_latency.count > 0
        assert sum(result.reply_latency.fractions()) == pytest.approx(1.0)

    def test_memory_bandwidth_knob(self):
        low = run_app("rx", "fsoi", cycles=4000, memory_gbps=8.8)
        high = run_app("rx", "fsoi", cycles=4000, memory_gbps=52.8)
        assert high.ipc >= low.ipc

    def test_negative_cycle_count_rejected(self):
        system = CmpSystem(CmpConfig(num_nodes=16))
        with pytest.raises(ValueError, match="-5"):
            system.run(-5)
        assert system.run(0).cycles == 0

    def test_run_continues_across_calls(self):
        system = CmpSystem(CmpConfig(num_nodes=16, app="ba"))
        first = system.run(1000)
        second = system.run(1000)
        assert second.cycles == 2000
        assert second.instructions >= first.instructions


class TestConfirmationAckWiring:
    def test_suppressed_acks_still_complete_transactions(self):
        opts = OptimizationConfig(confirmation_ack=True)
        result = run_app("em", "fsoi", cycles=4000, optimizations=opts)
        baseline = run_app("em", "fsoi", cycles=4000)
        # Optimization must not wedge progress...
        assert result.ipc > 0.8 * baseline.ipc
        # ...and must remove ack packets from the wire.
        assert result.l1["acks_suppressed"] > 0
        assert result.packets_sent < baseline.packets_sent

    def test_subscription_reduces_sync_traffic(self):
        opts = OptimizationConfig(llsc_subscription=True)
        base = run_app("ray", "fsoi", cycles=6000, seed=2)
        sub = run_app("ray", "fsoi", cycles=6000, optimizations=opts, seed=2)
        assert sub.fsoi["signals"] > 0
        assert sub.ipc > 0.8 * base.ipc
