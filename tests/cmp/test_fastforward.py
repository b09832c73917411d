"""The fast-forward engine's equivalence contract.

The next-event loop (docs/performance.md) must be *invisible* in every
measured quantity: a fast-forwarded run and a naive cycle-by-cycle run
of the same configuration produce byte-identical ``CmpResults`` (minus
the ``loop`` accounting field, which exists to describe the difference)
and identical metrics-registry snapshots.  These tests pin that down
across networks, seeds, system sizes and fault plans, plus the one
escape hatch (``CmpConfig.fast_forward``).

The run-both-and-diff machinery lives in ``tests/conftest.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.messages import REQ_SH, make_message
from tests.conftest import EQUIVALENCE_FAULT_PLAN, compare_engine_pair


class TestEquivalence:
    @pytest.mark.parametrize(
        "network", ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")
    )
    def test_all_networks(self, compare_engines, network):
        compare_engines(app="oc", network=network, num_nodes=16, seed=1)

    @pytest.mark.parametrize("seed", (0, 7))
    def test_seeds(self, compare_engines, seed):
        compare_engines(app="ba", network="fsoi", num_nodes=16, seed=seed)

    def test_64_nodes_phase_array(self, compare_engines):
        compare_engines(
            app="em", network="fsoi", num_nodes=64, seed=2, cycles=900,
        )

    def test_faults_on(self, compare_engines):
        compare_engines(
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )

    def test_low_activity_run_actually_skips(self, compare_engines):
        # Ocean on the ideal L0 network has windows where every core is
        # blocked at a barrier or on memory — real gaps between events.
        loop = compare_engines(app="oc", network="l0", num_nodes=16, seed=1)
        assert loop["skipped_cycles"] > 0

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        app=st.sampled_from(["oc", "ba", "mp", "ws"]),
        network=st.sampled_from(["fsoi", "mesh", "lr2"]),
        seed=st.integers(min_value=0, max_value=50),
        cycles=st.integers(min_value=50, max_value=800),
    )
    def test_property_equivalence(self, app, network, seed, cycles):
        compare_engine_pair(
            app=app, network=network, num_nodes=16, seed=seed, cycles=cycles,
        )

    def test_run_until_instructions_stops_at_same_cycle(self):
        systems = [
            CmpSystem(CmpConfig(
                app="lu", network="l0", num_nodes=16, seed=1,
                fast_forward=fast_forward,
            ))
            for fast_forward in (True, False)
        ]
        results = [s.run_until_instructions(20_000) for s in systems]
        assert results[0].cycles == results[1].cycles
        assert results[0].instructions == results[1].instructions


class TestEscapeHatches:
    def test_config_flag_disables_skipping(self):
        system = CmpSystem(CmpConfig(
            app="lu", network="l0", num_nodes=16, seed=1, fast_forward=False
        ))
        result = system.run(1200)
        assert result.loop == {"executed_cycles": 1200, "skipped_cycles": 0}


class TestCalendarClamps:
    """The old dict calendar silently stranded past-cycle entries
    (``_calendar.pop(cycle, ())`` never revisited a drained key).  The
    two schedulers now make that impossible: ``CmpSystem._transmit``
    runs a present-cycle send now instead of filing it, and the FSOI
    network refuses a past cycle loudly.
    """

    def test_system_transmit_runs_present_cycle_immediately(self):
        system = CmpSystem(CmpConfig(app="oc", network="l0", num_nodes=16, seed=0))
        system.run(100)
        now, later = (make_message(REQ_SH, line, 0, 5, 0) for line in (1, 2))
        injected = []
        system._inject = lambda node, msg: injected.append(msg)
        system._transmit(0, now, 0)
        assert injected == [now]
        system._transmit(0, later, 5)
        assert injected == [now]  # future entries wait
        system.run(10)
        assert [m for m in injected if m is now or m is later] == [now, later]

    def test_fsoi_schedule_rejects_past_cycles(self):
        from repro.core.network import FsoiConfig, FsoiNetwork

        net = FsoiNetwork(FsoiConfig(num_nodes=16, seed=0))
        for cycle in range(6):
            net.tick(cycle)
        with pytest.raises(ValueError, match="already ticked cycle 5"):
            net._schedule(5, lambda: None)
        with pytest.raises(ValueError, match="cannot schedule"):
            net._schedule(0, lambda: None)
        net._schedule(6, lambda: None)  # the future is still fine


class TestLoopAccounting:
    def test_counters_cover_the_window(self):
        system = CmpSystem(CmpConfig(app="oc", network="fsoi", num_nodes=16, seed=0))
        result = system.run(2000)
        loop = result.loop
        assert loop["executed_cycles"] + loop["skipped_cycles"] == 2000
        assert result.cycles == 2000

    def test_round_trips_through_to_dict(self):
        from repro.cmp.results import CmpResults

        system = CmpSystem(CmpConfig(app="oc", network="l0", num_nodes=16, seed=0))
        result = system.run(600)
        clone = CmpResults.from_dict(result.to_dict())
        assert clone.loop == result.loop

    def test_old_results_load_without_loop_field(self):
        from repro.cmp.results import CmpResults

        system = CmpSystem(CmpConfig(app="oc", network="l0", num_nodes=16, seed=0))
        data = system.run(400).to_dict()
        del data["loop"]  # a result saved before the loop field existed
        assert CmpResults.from_dict(data).loop == {}
