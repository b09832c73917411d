"""The ``repro report`` / ``repro sweep --live`` CLI, and the parser
surface of every command.

``tests/data/cli_surface.json`` pins, per command and per option, what
``build_parser`` declares (option strings, dest, default, type name,
choices, nargs, metavar, help).  It was recorded at 47783e6, before the
flag families of ``repro.cli`` were folded into shared parent parsers,
and re-recorded once for the numeric types that now reject
non-positive values::

    PYTHONPATH=src python -m pytest tests/analytics/test_cli.py \\
        -k test_cli_surface_matches_pin --update-golden
"""

import argparse
import json
import re
from pathlib import Path

import pytest

import repro.analytics
import repro.cli
from repro.cli import build_parser, main

SURFACE_PATH = Path(__file__).parents[1] / "data" / "cli_surface.json"

COMMANDS = (
    "link", "config", "run", "compare", "sweep", "report",
    "trace", "profile", "top", "faults", "thermal",
)


def _write_jsonl(report, path):
    with open(path, "w") as handle:
        for index, outcome in enumerate(report.outcomes):
            handle.write(json.dumps(outcome.record(index)) + "\n")
    return path


class TestReportCli:
    def test_from_jsonl_validates_and_writes_html(
        self, small_report, tmp_path, capsys
    ):
        jsonl = _write_jsonl(small_report, tmp_path / "results.jsonl")
        out = tmp_path / "report.html"
        code = main([
            "report", "--from", str(jsonl),
            "--ledger", str(tmp_path / "ledger.sqlite"),
            "--out", str(out),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "paper-figure validation: 5 pass, 0 fail, 2 skipped" in printed
        assert "ledger run" in printed
        assert out.read_text().startswith("<!doctype html>")

    def test_diff_with_empty_ledger_explains_itself(
        self, small_report, tmp_path, capsys
    ):
        jsonl = _write_jsonl(small_report, tmp_path / "results.jsonl")
        code = main([
            "report", "--from", str(jsonl),
            "--ledger", str(tmp_path / "ledger.sqlite"), "--diff",
        ])
        assert code == 0
        assert "no other run" in capsys.readouterr().out

    def test_empty_ledger_flag_skips_ingestion(
        self, small_report, tmp_path, capsys
    ):
        jsonl = _write_jsonl(small_report, tmp_path / "results.jsonl")
        assert main(["report", "--from", str(jsonl), "--ledger", ""]) == 0
        printed = capsys.readouterr().out
        assert "ledger run" not in printed
        assert not list(tmp_path.glob("*.sqlite"))

    def test_fresh_sweep_end_to_end(self, tmp_path, capsys):
        code = main([
            "report", "--cycles", "2500",
            "--cache-dir", str(tmp_path / "cache"),
            "--ledger", str(tmp_path / "ledger.sqlite"),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "FSOI speedup over mesh" in printed
        assert "[PASS] Figure 3" in printed
        assert "[PASS] Figure 4" in printed

    def test_parser_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.networks == "fsoi,mesh"
        assert args.nodes == "16"
        assert args.cycles == 8_000
        assert args.ledger == ".repro-ledger.sqlite"


class TestSweepLive:
    ARGS = ["sweep", "--apps", "ba", "--networks", "fsoi",
            "--cycles", "300", "--no-cache"]

    def test_live_replaces_per_point_lines(self, capsys):
        assert main(self.ARGS + ["--live"]) == 0
        printed = capsys.readouterr().out
        assert "eta" in printed
        assert "\r" in printed
        assert "] ba/fsoi" not in printed  # no per-point lines

    def test_default_lines_carry_cache_and_failure_counts(self, capsys):
        assert main(self.ARGS) == 0
        printed = capsys.readouterr().out
        assert "(cache 0, failed 0)" in printed


def _subcommands():
    (action,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action


def _surface(command):
    """What ``repro <command> --help`` promises, as plain JSON."""
    subcommands = _subcommands()
    (listed,) = (c for c in subcommands._choices_actions if c.dest == command)
    options = {}
    for action in subcommands.choices[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        options[action.option_strings[0]] = {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": action.default,
            "type": getattr(action.type, "__name__", None),
            "choices": None if action.choices is None else list(action.choices),
            "nargs": action.nargs,
            "metavar": action.metavar,
            "help": action.help,
        }
    return {"help": listed.help, "options": options}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_surface_matches_pin(command, request):
    surface = _surface(command)
    pins = json.loads(SURFACE_PATH.read_text()) if SURFACE_PATH.exists() else {}
    if request.config.getoption("--update-golden"):
        pins[command] = surface
        SURFACE_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return
    assert surface == pins[command], (
        f"`repro {command}` no longer declares what {SURFACE_PATH.name} "
        "pins; if the change is intentional, re-record with --update-golden"
    )


def test_bench_command_is_gone(capsys):
    """Schema 1 left no alias behind: perfbench/ is the one benchmark."""
    assert sorted(_subcommands().choices) == sorted(COMMANDS)
    with pytest.raises(SystemExit) as raised:
        main(["bench"])
    assert raised.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    assert not [
        name for name in repro.analytics.__all__
        if "bench" in name.lower() or "snapshot" in name.lower()
    ]


def test_docstring_lists_every_command():
    _, _, commands = repro.cli.__doc__.partition("Commands\n--------\n")
    listed = re.findall(r"^``(\w+)", commands, flags=re.MULTILINE)
    assert sorted(listed) == sorted(_subcommands().choices)


@pytest.mark.parametrize("argv", [
    ["compare", "--nodes", "3"],
    ["run", "--timeline-window", "0", "--timeline", "t.jsonl"],
    ["sweep", "--apps", "zz"],
    ["sweep", "--workers", "0"],
    ["trace", "--buffer", "0"],
    ["faults", "--kill", "99:data"],
    ["run", "--cycles", "-5"],
    ["run", "--nodes", "2", "--cycles", "100"],
    ["thermal", "--power", "-5"],
], ids=" ".join)
def test_bad_arguments_are_usage_errors(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert re.fullmatch(
        rf"repro {argv[0]}: error: .+", captured.err.splitlines()[-1]
    )
    assert not list(tmp_path.iterdir())
