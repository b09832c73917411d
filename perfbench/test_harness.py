"""Checks of the benchmark harness itself: ``pytest perfbench/``.

Not collected by the tier-1 suite (``testpaths = ["tests"]``); the whole
file runs one smoke pass of the suite plus two short contract-mode runs.
"""

import copy
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from run import EXACT, stat
from spans import children_of, malformed, self_seconds

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    done = run("--smoke", "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads(out.read_text())


def test_smoke_emits_every_end_to_end_metric_for_every_workload(smoke):
    _path, result = smoke
    assert list(result["workloads"]) == WORKLOADS
    end_to_end = [m["name"] for m in (*SPEC["end_to_end"], *EXACT)]
    assert sorted(end_to_end) == ["failed_share", "model_err", "peak_rss_mb",
                                  "setup_s", "sim_cycles_per_s", "wall_s"]
    assert list(result["bounds"]) == end_to_end
    for name, summary in result["workloads"].items():
        assert summary["failed"] == 0, summary["failures"]
        assert list(summary["end_to_end"]) == end_to_end
        assert summary["end_to_end"]["failed_share"]["value"] == 0
        assert list(summary["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
        assert "obs.profile_overhead_ratio" in summary["per_layer"], name
        for metric in (*summary["end_to_end"], *summary["per_layer"],
                       *summary["counts"]):
            assert NAME.fullmatch(metric), metric
    for key in ("platform", "cpu", "nproc", "python", "numpy", "workers",
                "git_sha", "code_version", "seed", "repeats"):
        assert key in result["fingerprint"]


def test_layers_a_workload_bypasses_read_nothing(smoke):
    _path, result = smoke
    layers = {name: {metric for metric, entry in summary["per_layer"].items()
                     if entry["value"] is not None}
              for name, summary in result["workloads"].items()}

    def starts(name, *prefixes):
        return {m for m in layers[name] if m.startswith(prefixes)}

    for channel in ("fsoi_uniform", "fsoi_incast", "mesh_channel"):
        assert not starts(channel, "cpu.", "coherence.", "cmp.", "sweep.")
    assert not starts("mesh_channel", "core.")
    assert not starts("fsoi_uniform", "mesh.") and not starts("fsoi_incast", "mesh.")
    assert starts("mesh_channel", "mesh.tick_us") and starts("fsoi_incast", "core.tick_us")
    assert starts("faulted16", "faults.count.") and starts("fig7_grid64", "sweep.pool")


def test_span_trees_are_well_formed(smoke):
    _path, result = smoke
    for name, summary in result["workloads"].items():
        spans = summary["spans"]
        assert spans, name
        assert malformed(spans) == []
        tree = children_of(spans)
        self_total = sum(self_seconds(s, tree.get(s["id"], [])) for s in spans)
        root_total = sum(s["end"] - s["start"] for s in tree[None])
        if name != "fig7_grid64":  # its workers' spans overlap in time
            assert self_total == pytest.approx(root_total, rel=0.05)


def test_compare_passes_a_file_against_itself_and_fails_a_slower_one(smoke, tmp_path):
    path, result = smoke
    assert compare.main([str(path), str(path)]) == 0
    slower = copy.deepcopy(result)
    wall = slower["workloads"]["fsoi_incast"]["end_to_end"]["wall_s"]
    wall["value"] *= 1.3
    wall["runs"] = [run * 1.3 for run in wall["runs"]]
    report = io.StringIO()
    assert compare.compare(result, slower, out=report) == 1
    assert "REGRESSED" in report.getvalue()
    other_host = copy.deepcopy(result)
    other_host["fingerprint"]["nproc"] += 1
    assert compare.compare(result, other_host, out=io.StringIO()) == 2
    # No untraced repetition ended: the host-time metrics are absent.
    crashed = copy.deepcopy(result)
    for metric in SPEC["end_to_end"]:
        del crashed["workloads"]["fsoi_incast"]["end_to_end"][metric["name"]]
    assert compare.compare(result, crashed, out=io.StringIO()) == 1
    wrong = copy.deepcopy(result)
    wrong["workloads"]["fsoi_uniform"]["end_to_end"]["model_err"]["value"] *= 2
    assert compare.compare(result, wrong, out=io.StringIO()) == 1


def test_the_value_is_the_median_and_the_spread_stays_inside_the_runs():
    metric = {"unit": "s"}
    assert stat([1.3], metric)["spread"] == 0
    two = stat([1.0, 1.2], metric)
    assert two["value"] == pytest.approx(1.1)
    assert two["spread"] == pytest.approx(0.1 / 1.1)  # half the range, not 1.5x
    seven = stat([1.05, 1.35, 1.08, 1.33, 1.30, 1.06, 1.34], metric)
    assert seven["value"] == 1.30 and seven["n"] == 7
    assert run("--repeats", 2).returncode == 2


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_contract_mode_prints_one_json_line(trace, section):
    done = run("--workload", "fsoi_uniform", "--seed", 7, "--seconds", 1,
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
    for metric in SPEC[section]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = run("--workload", "fig6_grid16", "--seed", 0, "--seconds", 1,
               "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
