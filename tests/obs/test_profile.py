"""Tests for the per-phase cycle-loop profiler."""

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.obs import PROFILER, PhaseProfiler, profiling

#: Every phase a profiled run reports: the tick's phase table, the
#: coherence dispatch nested in it and the fast-forward horizon.
PHASES = (
    "calendar", "overflow", "network", "cores", "coherence", "horizon",
)


class TestPhaseProfiler:
    def test_add_accumulates(self):
        prof = PhaseProfiler()
        prof.add("net", 0.5)
        prof.add("net", 0.25)
        prof.add("cores", 1.0)
        assert prof.attributed_seconds == pytest.approx(1.75)

    def test_report_shares_sum_to_one(self):
        prof = PhaseProfiler()
        prof.add("a", 3.0)
        prof.add("b", 1.0)
        report = prof.report()
        assert sum(row["share"] for row in report.values()) == pytest.approx(1.0)
        assert report["a"]["share"] == pytest.approx(0.75)

    def test_report_sorted_heaviest_first(self):
        prof = PhaseProfiler()
        prof.add("light", 0.1)
        prof.add("heavy", 2.0)
        assert list(prof.report()) == ["heavy", "light"]

    def test_empty_report_has_no_nan(self):
        assert PhaseProfiler().report() == {}
        assert PhaseProfiler().attributed_seconds == 0.0

    def test_render_mentions_every_phase(self):
        prof = PhaseProfiler()
        prof.add("network", 0.5)
        prof.cycles = 1
        prof.stop()
        text = prof.render()
        assert "network" in text and "attributed" in text


class TestProfilingContext:
    def test_enables_and_restores(self):
        assert not PROFILER.enabled
        with profiling() as prof:
            assert prof is PROFILER
            assert PROFILER.enabled
        assert not PROFILER.enabled

    def test_reset_on_entry(self):
        PROFILER.add("stale", 9.0)
        with profiling() as prof:
            pass
        assert prof.attributed_seconds == 0.0

    def test_wall_frozen_on_exit(self):
        with profiling() as prof:
            pass
        wall = prof.wall_seconds
        assert wall == prof.wall_seconds  # stable after stop()


class TestProfiledRun:
    @pytest.mark.parametrize("network", ["fsoi", "mesh"])
    def test_phases_captured_for_real_run(self, network):
        config = CmpConfig(num_nodes=16, app="ba", network=network, seed=0)
        with profiling() as prof:
            CmpSystem(config).run(500)
        report = prof.report()
        for phase in PHASES:
            assert phase in report, f"missing phase {phase!r} in {sorted(report)}"
        assert prof.cycles == 500
        assert 0 < prof.attributed_seconds <= prof.wall_seconds

    def test_cycle_counts_are_the_loops(self):
        """On a config that fast-forwards, ``cycles`` counts exactly
        the executed ticks and ``skipped`` the jumped cycles."""
        config = CmpConfig(num_nodes=16, app="oc", network="l0", seed=1)
        with profiling() as prof:
            loop = CmpSystem(config).run(1500).loop
        assert loop["skipped_cycles"] > 0
        assert prof.cycles == loop["executed_cycles"]
        assert prof.skipped == loop["skipped_cycles"]
        assert set(prof.report()) == set(PHASES)

    def test_profiled_run_matches_unprofiled_results(self):
        config = CmpConfig(num_nodes=16, app="ba", network="fsoi", seed=0)
        baseline = CmpSystem(config).run(500).to_dict()
        with profiling():
            profiled = CmpSystem(config).run(500).to_dict()
        assert profiled == baseline
