"""The observability CLI surface: ``run --timeline/--health``,
``trace --summary/--timeline``, ``profile --json``, ``faults
--strict-health`` and the ``repro top`` dashboard.

Everything drives :func:`repro.cli.main` exactly as a shell would and
asserts on the printed contract — exit codes, report lines, and the
validity of every file the commands leave behind.
"""

import json

import pytest

from repro.cli import main
from repro.obs import (
    load_timeline_jsonl,
    validate_openmetrics,
    validate_trace_file,
)

RUN = ["--app", "fft", "--nodes", "16", "--cycles", "1500", "--seed", "3"]


class TestRunTimeline:
    def test_timeline_and_openmetrics_exports(self, tmp_path, capsys):
        timeline = tmp_path / "run.timeline.jsonl"
        metrics = tmp_path / "metrics.txt"
        code = main(["run", *RUN, "--timeline", str(timeline),
                     "--openmetrics", str(metrics)])
        out = capsys.readouterr().out
        assert code == 0
        assert "timeline      15 windows of 100 cycles" in out
        assert "openmetrics" in out
        loaded = load_timeline_jsonl(timeline)
        assert loaded["meta"]["app"] == "fft"
        assert len(loaded["cycles"]) == 15
        assert validate_openmetrics(metrics.read_text()) > 0

    def test_clean_run_reports_ok_health(self, capsys):
        code = main(["run", *RUN, "--health"])
        out = capsys.readouterr().out
        assert code == 0
        assert "health: OK (no events)" in out

    def test_strict_health_passes_clean_runs(self, capsys):
        assert main(["run", *RUN, "--strict-health"]) == 0
        assert "health: OK" in capsys.readouterr().out


class TestFaultsHealth:
    def test_lane_kill_fails_strict_health(self, capsys):
        code = main([
            "faults", "--app", "ba", "--nodes", "16", "--cycles", "6000",
            "--kill", "3:data:500", "--strict-health",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "starvation" in out
        assert "backoff_storm" in out
        assert "--strict-health" in out


class TestTraceCli:
    def test_summary_and_merged_timeline(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code = main(["trace", *RUN, "--out", str(out_path),
                     "--summary", "--timeline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "counter events merged" in out
        assert "trace summary" in out or "events by category" in out.lower()
        assert validate_trace_file(out_path) > 0

    def test_overflow_prints_drop_warning(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        code = main(["trace", *RUN, "--out", str(out_path),
                     "--buffer", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "warning: ring buffer overflowed" in out

    def test_unknown_category_is_a_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", *RUN, "--out", str(out_path),
                  "--categories", "fsoi,bogus"])
        assert exit_info.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (
            "repro trace: error: unknown --categories bogus (valid: "
            "backoff,coherence,confirmation,fault,fsoi,loop,mesh)"
        )
        assert not out_path.exists()


class TestProfileCli:
    def test_json_report_is_parseable(self, capsys):
        code = main(["profile", *RUN, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["app"] == "fft"
        assert report["cycles"] == 1500
        assert report["total_cycles"] == 1500
        assert report["phases"]
        for phase in report["phases"].values():
            assert set(phase) == {"seconds", "share"}


class TestTopCli:
    def test_once_renders_final_frame_and_archive(self, tmp_path, capsys):
        archive = tmp_path / "top.timeline.jsonl"
        code = main(["top", *RUN, "--once", "--out", str(archive)])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro top — fft on fsoi, 16 nodes, seed 3" in out
        assert "health OK" in out
        assert "cycle 1,500/1,500 (100%)" in out
        assert f"timeline: 15 windows -> {archive}" in out
        assert len(load_timeline_jsonl(archive)["cycles"]) == 15

    def test_row_budget_cut_points_at_flag(self, capsys):
        main(["top", *RUN, "--once", "--rows", "3"])
        out = capsys.readouterr().out
        assert "more paths; raise --rows)" in out
        # exactly 3 sparkline rows survive the cut
        assert sum(
            1 for line in out.splitlines() if line.startswith("  network.")
            or line.startswith("  run.") or line.startswith("  sync.")
        ) == 3

    def test_from_renders_archived_timeline(self, tmp_path, capsys):
        archive = tmp_path / "top.timeline.jsonl"
        main(["top", *RUN, "--once", "--out", str(archive)])
        capsys.readouterr()
        code = main(["top", "--from", str(archive)])
        out = capsys.readouterr().out
        assert code == 0
        assert "repro top — fft on fsoi, 16 nodes, seed 3" in out
        # archived frames have no run target, so no progress/eta block
        assert "cycle 1,500/1,500" not in out

    def test_custom_paths_restrict_rows(self, capsys):
        main(["top", *RUN, "--once", "--paths", "network.packets_*"])
        out = capsys.readouterr().out
        assert "network.packets_delivered" in out
        assert "run.instructions" not in out

    def test_archive_matches_uninterrupted_run(self, tmp_path, capsys):
        """The sliced driver loop samples the same windows as one
        ``repro run --timeline`` of the same seed."""
        top_archive = tmp_path / "top.timeline.jsonl"
        run_archive = tmp_path / "run.timeline.jsonl"
        main(["top", *RUN, "--once", "--out", str(top_archive)])
        main(["run", *RUN, "--timeline", str(run_archive)])
        capsys.readouterr()
        assert top_archive.read_text() == run_archive.read_text()
