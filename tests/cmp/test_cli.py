"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_trace_file


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "oc"
        assert args.network == "fsoi"
        assert args.nodes == 16

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "doom"])

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--network", "carrier-pigeon"])

    def test_config_nodes_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["config", "--nodes", "32"])


class TestCommands:
    def test_link(self, capsys):
        assert main(["link"]) == 0
        out = capsys.readouterr().out
        assert "optical_path_loss_db" in out
        assert "receiver_clip_db" in out

    def test_config(self, capsys):
        assert main(["config", "--nodes", "64"]) == 0
        out = capsys.readouterr().out
        assert "phase-array" in out

    def test_run(self, capsys):
        assert main(
            ["run", "--app", "ba", "--network", "l0", "--cycles", "1500"]
        ) == 0
        out = capsys.readouterr().out
        assert "instructions" in out
        assert "IPC" in out

    def test_run_optimized_fsoi(self, capsys):
        assert main(
            ["run", "--app", "ba", "--cycles", "1500", "--optimized"]
        ) == 0
        assert "meta lane" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--app", "ba", "--cycles", "1500"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "EDP" in out

    def test_thermal(self, capsys):
        assert main(["thermal", "--power", "150"]) == 0
        out = capsys.readouterr().out
        assert "microchannel" in out
        assert "OK" in out


class TestTraceCommand:
    def test_trace_writes_schema_valid_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--app", "ba", "--cycles", "1500",
            "--out", str(out_path),
        ]) == 0
        assert validate_trace_file(out_path) > 0
        stdout = capsys.readouterr().out
        assert "events" in stdout and "fsoi" in stdout

    def test_trace_chrome_and_metrics_exports(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        chrome_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "trace", "--app", "ba", "--cycles", "1500",
            "--out", str(out_path),
            "--chrome", str(chrome_path),
            "--metrics", str(metrics_path),
        ]) == 0
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]
        metrics = json.loads(metrics_path.read_text())
        assert metrics["run"]["cycles"] == 1500

    def test_trace_filters_restrict_output(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        assert main([
            "trace", "--app", "ba", "--cycles", "1500",
            "--out", str(out_path),
            "--categories", "coherence", "--node", "2",
        ]) == 0
        for line in out_path.read_text().splitlines():
            event = json.loads(line)
            assert event["cat"] == "coherence"
            assert event["pid"] == 2

    @pytest.mark.parametrize("node", [99, 16, -1])
    def test_trace_node_out_of_range_is_a_usage_error(
        self, node, capsys, tmp_path
    ):
        out_path = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "--nodes", "16", "--cycles", "100",
                  "--out", str(out_path), "--node", str(node)])
        assert exit_info.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (
            f"repro trace: error: --node {node} out of range [0, 16) "
            "for --nodes 16"
        )
        assert not out_path.exists()

    def test_profile(self, capsys):
        assert main(["profile", "--app", "ba", "--cycles", "1500"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "share" in out
        for phase in ("network", "cores", "calendar"):
            assert phase in out


class TestFaultsCommand:
    def test_faults_run_reports_resilience(self, capsys):
        assert main([
            "faults", "--app", "oc", "--cycles", "2000",
            "--kill", "3:data:0:600",
            "--drop-confirmations", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "dead data lane at node 3" in out
        assert "resilience" in out
        assert "confirmations dropped" in out

    def test_faults_empty_plan_rejected(self):
        with pytest.raises(SystemExit, match="empty plan"):
            main(["faults"])

    def test_faults_bad_kill_spec_rejected(self):
        with pytest.raises(SystemExit, match="NODE:LANE"):
            main(["faults", "--kill", "3"])

    def test_faults_plan_save_and_reload(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        assert main([
            "faults", "--cycles", "1000",
            "--kill", "5:meta:100:400", "--giveup", "8",
            "--fault-seed", "3", "--save-plan", str(plan_path),
        ]) == 0
        first = capsys.readouterr().out
        assert plan_path.exists()
        saved = json.loads(plan_path.read_text())
        assert saved["lane_faults"] == [
            {"node": 5, "lane": "meta", "start": 100, "end": 400}
        ]
        assert main([
            "faults", "--cycles", "1000", "--plan", str(plan_path),
        ]) == 0
        second = capsys.readouterr().out

        def report(text):
            lines = text.splitlines()
            return lines[next(i for i, line in enumerate(lines)
                              if line.startswith("oc on fsoi")):]

        # Same plan, same seed -> the identical run and report (modulo
        # the plan label: the CLI flags build plan 'cli', the reload
        # carries the same label back, so even that matches).
        assert report(first) == report(second)

    def test_faults_metrics_export(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "faults", "--cycles", "1000", "--drop-confirmations", "0.1",
            "--metrics", str(metrics_path),
        ]) == 0
        exported = json.loads(metrics_path.read_text())
        assert exported["fault"]["plan_label"] == "cli"
        assert len(exported["fault"]["plan_hash"]) == 16
        assert exported["confirmation"]["confirmations_dropped"] > 0


class TestMissingInputFiles:
    @pytest.mark.parametrize("command, flag", [
        ("report", "--from"),
        ("top", "--from"),
        ("faults", "--plan"),
        ("sweep", "--spec"),
    ])
    def test_missing_input_file_is_a_usage_error(
        self, command, flag, capsys, tmp_path
    ):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, str(missing)])
        assert exit_info.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro {command}: error: ")
        assert str(missing) in line


class TestBadInputFiles:
    """A spec or plan file holds exactly the keys its ``to_dict`` writes."""

    @pytest.mark.parametrize("command, flag, content, named", [
        ("sweep", "--spec", {"apps": ["ba"], "networks": ["fsoi"], "seed": [1]},
         "'seed'"),
        ("sweep", "--spec", {"networks": ["fsoi"]}, "'apps'"),
        ("sweep", "--spec", ["ba"], "JSON object"),
        ("sweep", "--spec", {"apps": ["ba"], "networks": ["fsoi"],
                             "variants": [{"lable": "x"}]}, "'lable'"),
        ("faults", "--plan", {"kills": []}, "'kills'"),
        ("faults", "--plan", {"lane_faults": [{"nod": 3, "lane": "data"}]},
         "'nod'"),
        ("faults", "--plan", {"lane_faults": [{"lane": "data"}]}, "'node'"),
        ("faults", "--plan", [], "JSON object"),
    ], ids=["spec-seed", "spec-no-apps", "spec-list", "spec-variant-lable",
            "plan-kills", "plan-entry-nod", "plan-entry-no-node", "plan-list"])
    def test_bad_file_is_a_usage_error(
        self, command, flag, content, named, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, str(path), "--cycles", "100"])
        assert exit_info.value.code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro {command}: error: ")
        assert named in line
