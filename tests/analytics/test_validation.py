"""Paper-figure tolerance bands over synthetic and real runs."""

import pytest

from repro.analytics import RunStore, validate
from repro.analytics.validation import RunContext, default_checks
from repro.faults.plan import FaultPlan, ThermalDroop
from repro.sweep import make_point


def _pair(app="ba", network="fsoi", nodes=16, seed=0, instructions=1000,
          cycles=100, fsoi=None, **extras):
    point = make_point(app, network, num_nodes=nodes, seed=seed,
                       cycles=cycles, **extras).to_dict()
    result = {
        "instructions": instructions,
        "cycles": cycles,
        "packets_delivered": 10,
        "latency_breakdown": {"total": 10.0},
    }
    if fsoi is not None:
        result["fsoi"] = fsoi
    return point, result


def _check(key):
    (found,) = [c for c in default_checks() if c.key == key]
    return found


class TestSpeedupChecks:
    def test_fig6_passes_inside_band(self):
        context = RunContext((
            _pair(network="fsoi", instructions=1360),
            _pair(network="mesh", instructions=1000),
        ))
        result = _check("fig6-speedup-16").run(context)
        assert result.status == "pass"
        assert result.value == pytest.approx(1.36)

    def test_fig6_fails_below_band(self):
        context = RunContext((
            _pair(network="fsoi", instructions=900),
            _pair(network="mesh", instructions=1000),
        ))
        result = _check("fig6-speedup-16").run(context)
        assert result.status == "fail"
        assert result.value == pytest.approx(0.9)

    def test_fig7_skips_without_64_node_points(self):
        context = RunContext((
            _pair(network="fsoi"), _pair(network="mesh"),
        ))
        result = _check("fig7-speedup-64").run(context)
        assert result.status == "skipped"
        assert result.value is None

    def test_speedups_pair_on_every_axis_but_network(self):
        context = RunContext((
            _pair(network="fsoi", seed=0, instructions=1500),
            _pair(network="mesh", seed=0, instructions=1000),
            _pair(network="fsoi", seed=1, instructions=2000),
            _pair(network="mesh", seed=1, instructions=1000),
            _pair(network="fsoi", seed=2),  # no mesh partner: dropped
        ))
        assert context.paired_speedups(nodes=16) == [1.5, 2.0]

    def test_speedups_take_only_plain_fsoi_points(self):
        droop = FaultPlan(label="droop", droops=(ThermalDroop(droop_db=2.5),))
        context = RunContext((
            _pair(network="fsoi", instructions=1500),
            _pair(network="fsoi", instructions=900, faults=droop),
            _pair(network="fsoi", instructions=2000, optimizations="all"),
            _pair(network="mesh", instructions=1000),
        ))
        assert context.paired_speedups(nodes=16) == [1.5]


class TestBackoffCheck:
    def test_sixty_cycle_ceiling_fails_regardless_of_model(self):
        context = RunContext((
            _pair(fsoi={
                "meta_tx_probability": 0.05,
                "meta_resolution_delay": 75.0,
            }),
        ))
        result = _check("fig4-backoff").run(context)
        assert result.status == "fail"
        assert result.value == float("inf")
        assert ">= 60 cycles" in result.detail

    def test_skips_without_resolved_collisions(self):
        context = RunContext((
            _pair(fsoi={"meta_tx_probability": 0.0,
                        "meta_resolution_delay": 0.0}),
        ))
        result = _check("fig4-backoff").run(context)
        assert result.status == "skipped"


class TestMembwCheck:
    def test_delta_between_lowest_and_highest_bandwidth(self):
        context = RunContext((
            _pair(network="mesh", instructions=1000),
            _pair(network="fsoi", instructions=1300, memory_gbps=8.8),
            _pair(network="fsoi", instructions=1360, memory_gbps=52.8),
        ))
        result = _check("table4-membw").run(context)
        assert result.status == "pass"
        assert result.value == pytest.approx(0.06)

    def test_bandwidth_regression_fails(self):
        context = RunContext((
            _pair(network="mesh", instructions=1000),
            _pair(network="fsoi", instructions=1300, memory_gbps=8.8),
            _pair(network="fsoi", instructions=1200, memory_gbps=52.8),
        ))
        result = _check("table4-membw").run(context)
        assert result.status == "fail"

    def test_skips_with_a_single_bandwidth(self):
        context = RunContext((
            _pair(network="mesh", instructions=1000),
            _pair(network="fsoi", instructions=1300, memory_gbps=8.8),
        ))
        result = _check("table4-membw").run(context)
        assert result.status == "skipped"


class TestRealRun:
    """The acceptance bar: a real fsoi-vs-mesh sweep passes the bands."""

    def test_small_sweep_passes_fig3_fig4_and_energy(self, small_report):
        report = validate(small_report)
        by_key = {r.check.key: r for r in report.results}
        assert by_key["fig3-collision"].status == "pass"
        assert by_key["fig4-backoff"].status == "pass"
        assert by_key["fig6-speedup-16"].status == "pass"
        assert by_key["fig8-network-energy"].status == "pass"
        assert by_key["fig8-total-energy"].status == "pass"
        # Axes the grid did not sweep skip instead of failing.
        assert by_key["fig7-speedup-64"].status == "skipped"
        assert by_key["table4-membw"].status == "skipped"
        assert report.ok
        assert (report.passed, report.failed, report.skipped) == (5, 0, 2)

    def test_every_source_shape_validates_identically(
        self, small_report, tmp_path
    ):
        from_report = validate(small_report)
        records = [o.record(i) for i, o in enumerate(small_report.outcomes)]
        from_records = validate(records)
        with RunStore(tmp_path / "ledger.sqlite") as store:
            info = store.ingest_report(small_report)
            from_ledger = validate(store.select(info.run_id))
        values = [
            [r.value for r in report.results]
            for report in (from_report, from_records, from_ledger)
        ]
        assert values[0] == values[1] == values[2]


class TestReportRendering:
    def test_render_and_to_dict(self, small_report):
        report = validate(small_report)
        text = report.render()
        assert "5 pass, 0 fail, 2 skipped" in text
        assert "[PASS] Figure 3" in text
        assert "[skip] Figure 7" in text
        data = report.to_dict()
        assert data["passed"] == 5
        assert len(data["checks"]) == 7
        assert all("band" in check for check in data["checks"])

    def test_failures_cite_their_tolerance_source(self):
        context = RunContext((
            _pair(network="fsoi", instructions=900),
            _pair(network="mesh", instructions=1000),
        ))
        report = validate(context, checks=[_check("fig6-speedup-16")])
        assert not report.ok
        assert "EXPERIMENTS.md" in report.render()
