"""The fast-forward engine's loop accounting and its escape hatch.

The next-event loop (docs/performance.md) must be *invisible* in every
measured quantity; ``tests/cmp/test_behaviour_pins.py`` runs its
configurations with ``fast_forward`` on and off and diffs them.  These
tests hold what the loop itself reports: the ``loop`` split, the
``CmpConfig.fast_forward`` escape hatch, and the calendars that refuse
to strand a past-cycle entry.
"""

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.messages import REQ_SH, make_message


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
