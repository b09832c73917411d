"""The sweep runner: caching, crash isolation, timeouts, JSONL, CLI.

The injected-executor tests (sleep/crash payloads) need the ``fork``
start method so module-level test functions resolve in the workers;
Linux (and CI) default to fork.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.analytics.validation import RunContext
from repro.cli import main
from repro.sweep import (
    ResultCache,
    SweepSpec,
    load_jsonl,
    make_point,
    metrics_filename,
    run_sweep,
)
from repro.sweep.spec import OPTIMIZATION_FLAGS

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="injected executors require the fork start method",
)

APPS = ("ba", "lu", "oc", "ro")


def _spec(**overrides):
    base = dict(apps=("ba", "lu"), networks=("fsoi", "mesh"), cycles=300)
    base.update(overrides)
    return SweepSpec(**base)


# -- injectable worker payloads (module-level: picklable) ----------------

def _sleep_execute(point_dict):
    time.sleep(0.2)
    return {"app": point_dict["app"], "slept": True}


def _crash_on_ba(point_dict):
    if point_dict["app"] == "ba":
        os._exit(9)  # simulate a segfaulting worker
    return {"app": point_dict["app"]}


def _crash_on_ba_while_others_sleep(point_dict):
    if point_dict["app"] == "ba":
        os._exit(1)
    time.sleep(0.3)  # still in flight (or queued) when ba's worker dies
    return {"app": point_dict["app"]}


def _fail_on_ba(point_dict):
    if point_dict["app"] == "ba":
        raise RuntimeError("synthetic point failure")
    return {"app": point_dict["app"]}


def _hang(point_dict):
    time.sleep(30.0)
    return {}


def _never_called(point_dict):  # for cache-only assertions
    raise AssertionError("simulator executed despite warm cache")


# -- core behaviour ------------------------------------------------------

class TestRunSweep:
    def test_serial_runs_all_points(self, tmp_path):
        report = run_sweep(_spec(), workers=1)
        assert report.ok == 4 and report.failed == 0
        assert report.executed == 4 and report.from_cache == 0
        ipcs = [r.ipc for _, r in report.results()]
        assert all(ipc > 0 for ipc in ipcs)

    def test_warm_cache_executes_nothing(self, tmp_path):
        spec = _spec()
        cold = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert cold.executed == 4
        warm = run_sweep(spec, workers=1, cache_dir=tmp_path,
                         execute=_never_called)
        assert warm.ok == 4
        assert warm.from_cache == 4
        assert warm.executed == 0
        assert [r.to_dict() for _, r in warm.results()] == [
            r.to_dict() for _, r in cold.results()
        ]

    def test_code_version_change_invalidates(self, tmp_path):
        spec = _spec(apps=("ba",), networks=("fsoi",))
        run_sweep(spec, workers=1, cache_dir=tmp_path, code_version="v1")
        rerun = run_sweep(spec, workers=1, cache_dir=tmp_path,
                          code_version="v2")
        assert rerun.executed == 1 and rerun.from_cache == 0

    def test_interrupted_sweep_resumes_from_cache(self, tmp_path):
        spec = _spec()
        points = spec.points()
        # Simulate an interruption: only the first two points finished.
        run_sweep(points[:2], workers=1, cache_dir=tmp_path)
        resumed = run_sweep(spec, workers=1, cache_dir=tmp_path)
        assert resumed.from_cache == 2
        assert resumed.executed == 2

    def test_exception_marks_point_failed_not_sweep(self):
        report = run_sweep(_spec().points(), workers=1, execute=_fail_on_ba)
        failed = [o for o in report.outcomes if not o.ok]
        assert report.ok == 2 and len(failed) == 2
        assert all(o.point.app == "ba" for o in failed)
        assert "synthetic point failure" in failed[0].error

    def test_failed_points_are_not_cached(self, tmp_path):
        spec = _spec(apps=("ba",), networks=("fsoi",))
        report = run_sweep(spec, workers=1, cache_dir=tmp_path,
                           execute=_fail_on_ba)
        assert report.failed == 1
        assert ResultCache(tmp_path).entries() == 0

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(_spec().points(), workers=1,
                  progress=lambda done, total, o: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestMetricsArchive:
    def test_every_executed_point_archives_a_snapshot(self, tmp_path):
        spec = _spec()
        metrics_dir = tmp_path / "metrics"
        report = run_sweep(spec, workers=1, metrics_path=metrics_dir)
        assert report.executed == 4
        files = sorted(metrics_dir.glob("*.json"))
        assert len(files) == 4
        expected = {metrics_filename(p) for p in spec.points()}
        assert {f.name for f in files} == expected
        for path in files:
            snapshot = json.loads(path.read_text())
            assert snapshot["run"]["cycles"] == spec.cycles
            assert snapshot["network"]

    def test_metrics_filenames_distinguish_cycle_counts(self):
        a = make_point(app="ba", network="fsoi", cycles=300)
        b = make_point(app="ba", network="fsoi", cycles=600)
        assert metrics_filename(a) != metrics_filename(b)

    def test_metrics_filenames_distinguish_fault_plan_labels(self):
        """Plans differing only in label must not share an archive file.

        The label rides inside ``FaultPlan.to_dict()`` and therefore
        inside the point's canonical extras, so the content hash in the
        filename separates them even though the fault schedule — and
        the point's human-readable label — is identical.
        """
        from repro.faults import FaultPlan, LaneFault

        schedule = (LaneFault(node=3, lane="meta"),)
        a = make_point(app="ba", network="fsoi", cycles=300,
                       faults=FaultPlan(label="a", lane_faults=schedule))
        b = make_point(app="ba", network="fsoi", cycles=300,
                       faults=FaultPlan(label="b", lane_faults=schedule))
        assert a.label() == b.label()  # '+flt' tag only
        assert metrics_filename(a) != metrics_filename(b)

    def test_cache_hits_skip_metrics_archiving(self, tmp_path):
        spec = _spec(apps=("ba",), networks=("fsoi",))
        metrics_dir = tmp_path / "metrics"
        run_sweep(spec, workers=1, cache_dir=tmp_path / "cache",
                  metrics_path=metrics_dir)
        assert len(list(metrics_dir.glob("*.json"))) == 1
        for stale in metrics_dir.glob("*.json"):
            stale.unlink()
        warm = run_sweep(spec, workers=1, cache_dir=tmp_path / "cache",
                         metrics_path=metrics_dir)
        assert warm.from_cache == 1
        assert not list(metrics_dir.glob("*.json"))

    @needs_fork
    def test_parallel_workers_archive_metrics(self, tmp_path):
        spec = _spec()
        metrics_dir = tmp_path / "metrics"
        report = run_sweep(spec, workers=2, metrics_path=metrics_dir)
        assert report.ok == 4
        assert len(list(metrics_dir.glob("*.json"))) == 4


class TestParallel:
    @needs_fork
    def test_pool_overlaps_sleeping_points(self):
        """16 sleeping points: 4 workers must overlap them >=2x.

        Sleep is not CPU-bound, so the assertion holds on any machine
        regardless of core count — it verifies genuine concurrency in
        the pool path, not hardware parallelism.
        """
        points = [
            make_point(app, "fsoi", cycles=100, seed=seed)
            for app in APPS for seed in range(4)
        ]
        serial = run_sweep(points, workers=1, execute=_sleep_execute)
        pooled = run_sweep(points, workers=4, execute=_sleep_execute)
        assert serial.ok == pooled.ok == 16
        assert serial.wall_seconds / pooled.wall_seconds >= 2.0

    @needs_fork
    def test_worker_crash_is_isolated(self):
        spec = _spec(apps=("ba", "lu", "oc"), networks=("fsoi",))
        report = run_sweep(spec.points(), workers=2, execute=_crash_on_ba)
        by_app = {o.point.app: o for o in report.outcomes}
        assert not by_app["ba"].ok
        assert "worker process died" in by_app["ba"].error
        assert by_app["lu"].ok and by_app["oc"].ok

    @needs_fork
    def test_crash_is_charged_only_to_the_point_that_died_alone(self):
        """The pool ba breaks also fails lu and oc; rerun alone, they
        succeed and only ba (dead on its own, twice) is marked failed."""
        spec = _spec(apps=("ba", "lu", "oc"), networks=("fsoi",))
        report = run_sweep(spec.points(), workers=2,
                           execute=_crash_on_ba_while_others_sleep)
        by_app = {o.point.app: o for o in report.outcomes}
        assert "worker process died" in by_app["ba"].error
        assert by_app["lu"].result == {"app": "lu"}
        assert by_app["oc"].result == {"app": "oc"}

    def test_timeout_fails_point_cleanly(self):
        points = _spec(apps=("ba", "lu"), networks=("fsoi",)).points()
        report = run_sweep(points, workers=1, execute=_hang, timeout=0.2)
        assert report.failed == 2
        assert all("timeout" in o.error.lower() for o in report.outcomes)


class TestJsonl:
    def test_stream_is_ordered_and_loadable(self, tmp_path):
        spec = _spec()
        path = tmp_path / "results.jsonl"
        report = run_sweep(spec, workers=1, jsonl_path=path)
        records = load_jsonl(path)
        assert [r["index"] for r in records] == [0, 1, 2, 3]
        assert [r["point"]["app"] for r in records] == ["ba", "ba", "lu", "lu"]
        assert all(r["status"] == "ok" for r in records)
        assert records[0]["result"]["instructions"] == \
            report.outcomes[0].result["instructions"]

    def test_failed_points_recorded_with_error(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(_spec().points(), workers=1, execute=_fail_on_ba,
                  jsonl_path=path)
        records = load_jsonl(path)
        failed = [r for r in records if r["status"] == "failed"]
        assert len(failed) == 2
        assert all(r["result"] is None for r in failed)
        assert all("synthetic" in r["error"] for r in failed)


class TestLoadJsonl:
    def _write(self, tmp_path):
        path = tmp_path / "results.jsonl"
        run_sweep(_spec(apps=("ba", "lu"), networks=("fsoi",)).points(),
                  workers=1, execute=_fail_on_ba, jsonl_path=path)
        return path

    def test_strict_names_the_corrupt_line(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"index": 2, "status"\n')
        with pytest.raises(ValueError, match=r"results\.jsonl:3"):
            load_jsonl(path)

    def test_non_strict_skips_corrupt_and_truncated_lines(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"index": 2, "truncat')  # interrupted write
        records = load_jsonl(path, strict=False)
        assert [r["index"] for r in records] == [0, 1]

    def test_blank_lines_are_not_corruption(self, tmp_path):
        path = self._write(tmp_path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_jsonl(path)) == 2


class TestHeartbeat:
    def test_inline_pulses_announce_each_point(self):
        pulses = []
        run_sweep(_spec(apps=("ba", "lu"), networks=("fsoi",)).points(),
                  workers=1, execute=_fail_on_ba,
                  heartbeat=pulses.append)
        assert [p.in_flight for p in pulses] == [
            ("ba/fsoi/n16/s0",), ("lu/fsoi/n16/s0",),
        ]
        assert all(p.total == 2 and p.workers == 1 for p in pulses)
        assert [p.done for p in pulses] == [0, 1]

    @needs_fork
    def test_pool_pulses_carry_in_flight_labels(self):
        pulses = []
        points = [make_point(app, "fsoi", cycles=100) for app in APPS]
        report = run_sweep(points, workers=2, execute=_sleep_execute,
                           heartbeat=pulses.append,
                           heartbeat_interval=0.05)
        assert report.ok == 4
        assert pulses  # the 0.2s sleeps guarantee at least one pulse
        assert all(len(p.in_flight) <= 2 for p in pulses)
        assert all(p.elapsed >= 0.0 for p in pulses)


class TestReport:
    def test_result_for_matches_unique_point(self):
        report = run_sweep(_spec(), workers=1)
        result = report.result_for(app="ba", network="fsoi")
        assert result.app == "ba" and result.network == "fsoi"
        with pytest.raises(KeyError):
            report.result_for(app="ba")  # ambiguous: two networks
        with pytest.raises(KeyError):
            report.result_for(app="ws")  # no such point

    def test_paired_speedups(self):
        report = run_sweep(_spec(seeds=(0, 1)), workers=1)
        summary = report.paired_speedups("fsoi", baseline="mesh")
        assert summary.count == 4  # 2 apps x 2 seeds
        assert summary.mean > 1.0  # FSOI beats the mesh

    def test_paired_speedups_keep_every_optimization_set(self):
        """Each optimization set pairs its own FSOI points with the mesh
        partners; neither overwrites the other, and the paper-figure
        pairs take the un-optimized points only."""
        report = run_sweep(_spec(optimizations=("none", "all")), workers=1)

        def ratios(flags):
            return tuple(
                report.result_for(app=app, network="fsoi",
                                  optimizations=flags).ipc
                / report.result_for(app=app, network="mesh").ipc
                for app in ("ba", "lu")
            )

        plain = report.paired_speedups("fsoi", baseline="mesh")
        optimized = report.paired_speedups(
            "fsoi", baseline="mesh", optimizations="all"
        )
        assert plain.values == ratios(())
        assert optimized.values == ratios(tuple(sorted(OPTIMIZATION_FLAGS)))
        context = RunContext.from_outcomes(report.outcomes)
        assert context.paired_speedups(nodes=16) == list(plain.values)
        assert [fsoi.instructions for fsoi, _mesh in context.energy_pairs()] \
            == [report.result_for(app=app, network="fsoi",
                                  optimizations=()).instructions
                for app in ("ba", "lu")]

    def test_fast_forward_accounting(self):
        report = run_sweep(_spec(), workers=1)
        total = report.executed_cycles + report.skipped_cycles
        assert total == 4 * 300  # every point covers its full window
        assert 0.0 <= report.skip_ratio <= 1.0

    def test_skip_ratio_zero_for_pre_loop_results(self):
        # Cached results written before the loop counters existed have
        # no "loop" field; the report reads them as zero, not a crash.
        from repro.sweep.runner import PointOutcome, SweepReport

        point = make_point("ba", "fsoi", cycles=300)
        report = SweepReport(outcomes=[
            PointOutcome(point=point, status="ok", key="k", result={}),
            PointOutcome(point=point, status="failed", key="k2"),
        ])
        assert report.executed_cycles == 0
        assert report.skipped_cycles == 0
        assert report.skip_ratio == 0.0


class TestCli:
    ARGS = ["sweep", "--apps", "ba,lu", "--networks", "fsoi,mesh",
            "--seeds", "0", "--cycles", "300", "--workers", "1"]

    def test_sweep_cold_then_cached(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "cache"),
                            "--out", str(tmp_path / "r.jsonl")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4 executed, 0 from cache" in out
        assert "speedup fsoi vs mesh" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 from cache" in out
        assert len(load_jsonl(tmp_path / "r.jsonl")) == 4

    def test_optimized_sweep_prints_one_speedup_per_set(self, tmp_path, capsys):
        args = self.ARGS + ["--optimized", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "speedup" in line]
        assert [line.split(":")[0].strip() for line in lines] == [
            "speedup fsoi vs mesh", "speedup fsoi+all vs mesh",
        ]
        assert all(line.endswith("(n=2)") for line in lines)

    def test_sweep_no_cache(self, tmp_path, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        assert "cache off" in capsys.readouterr().out

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"apps": ["ba"], "networks": ["fsoi"], "cycles": 300}
        ))
        assert main(["sweep", "--spec", str(spec_path), "--no-cache"]) == 0
        assert "1 points" in capsys.readouterr().out

    def test_sweep_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep"])
        assert args.networks == "fsoi,mesh"
        assert args.workers == 1
        assert not args.no_cache
