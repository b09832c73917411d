"""perfbench — the repo's benchmark of record.

Two ways in, one measuring procedure::

    # the whole suite: R untraced passes (starting workload rotated), then
    # one traced pass; prints every metric and writes a result file
    python3 perfbench/run.py [--seed S] [--repeats R] [--workloads a,b]
                             [--smoke] [--out FILE]

    # one workload for a time budget (the BENCHMARK.json contract); the last
    # line of stdout is one JSON object
    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Every repetition of a workload runs in a fresh subprocess (own
``ru_maxrss``, import cost visible, no shared module singletons).  The value
of a host-time end-to-end metric is the median of its untraced repetitions
(min, max, spread and every run are kept beside it); per-layer numbers come
from traced repetitions only.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SMOKE_SCALE = 20.0
MIN_REPEATS = 3
REP_TIMEOUT_S = 120
#: The two end-to-end metrics that are simulated, so exact per seed: any
#: worsening is a regression.  BENCHMARK.json's ``end_to_end`` cannot hold
#: them (its metrics are never zero or null and are bounded by their spread
#: across seeds), so the suite declares them here, beside the bounded four.
EXACT = (
    {"name": "model_err", "unit": "ratio", "better": "lower", "bound": 0},
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0},
)


def child_env() -> dict:
    inherited = os.environ.get("PYTHONPATH")
    path = f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
    return dict(os.environ, PYTHONPATH=path)


def warm_import() -> dict:
    """One throwaway import so bytecode and the page cache are warm.

    It also reports what only a process that imported ``repro`` knows, so
    the driver process itself never pays for the import.
    """
    probe = (
        "import json, numpy, repro.analytics\n"
        "from repro.sweep import code_version\n"
        "print(json.dumps({'numpy': numpy.__version__,"
        " 'code_version': code_version()}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), check=True,
        stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S,
    )
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# One repetition (child process)
# ---------------------------------------------------------------------------


def run_rep(args) -> None:
    """Set up, time and check one workload once; print the record."""
    import resource

    from spans import malformed
    from workloads import WORKLOADS, Context, op

    workload = WORKLOADS[args.workload]
    ctx = Context(seed=args.seed, scale=SMOKE_SCALE if args.smoke else 1.0,
                  traced=bool(args.trace), workdir=Path(args.workdir))
    workload.setup(ctx)
    start = time.perf_counter()
    (workload.timed_traced if ctx.traced else workload.timed)(ctx)
    wall = time.perf_counter() - start
    # Sampled before the checks so they cannot raise the high-water mark.
    peak_kib = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    record = workload.post(ctx)
    record |= {"traced": ctx.traced, "setup_s": start - args.spawned_at,
               "wall_s": wall, "peak_rss_mb": peak_kib / 1024}
    if ctx.traced:
        problems = malformed(ctx.log.spans)
        record["ops"].append(op("check:spans", "; ".join(problems[:3]) or None))
        record["spans"] = ctx.log.spans
    print(json.dumps(record))


def launch(workload: str, seed: int, smoke: bool, traced: bool) -> dict:
    """Run one repetition in a fresh process; returns its record."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    command = [
        sys.executable, str(HERE / "run.py"), "--rep", "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)), "--workdir", workdir,
        *(["--smoke"] if smoke else []),
        "--spawned-at", repr(time.perf_counter()),
    ]
    try:
        done = subprocess.run(command, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=REP_TIMEOUT_S)
        if done.returncode == 0:
            return json.loads(done.stdout.splitlines()[-1])
        crash = f"exit code {done.returncode}"
    except subprocess.TimeoutExpired:
        crash = f"timed out after {REP_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"traced": traced, "crashed": crash}


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, so it is always one of the samples."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def stat(values: list[float], metric: dict) -> dict:
    """The median of the repetitions, with what it takes to judge it.

    ``spread`` is the interquartile range as a share of the median; the
    inclusive method keeps the quartiles inside the range of the runs
    however few there are.
    """
    spread = 0.0
    if len(values) > 1:
        low, _mid, high = statistics.quantiles(values, n=4, method="inclusive")
        spread = (high - low) / statistics.median(values)
    return {"value": statistics.median(values), "unit": metric["unit"],
            "spread": spread, "min": min(values), "max": max(values),
            "n": len(values), "runs": values}


def summarise(spec: dict, reps: list[dict]) -> dict:
    """Fold the repetitions of one workload into its metrics."""
    alive = [rep for rep in reps if "crashed" not in rep]
    untraced = [rep for rep in alive if not rep["traced"]]
    traced = [rep for rep in alive if rep["traced"]]

    failures = [f"repetition {rep['crashed']}" for rep in reps if "crashed" in rep]
    attempted = len(failures)
    for rep in alive:
        attempted += len(rep["ops"])
        failures += [f"{o['name']}: {o['why']}" for o in rep["ops"] if not o["ok"]]
    # Same seed, same inputs: every repetition must reproduce the first.
    attempted += 1

    def signature(rep: dict) -> tuple:
        return ([o["digest"] for o in rep["ops"] if o["digest"]],
                rep["counts"], rep["model_err"], rep["sim_cycles"])

    if any(signature(rep) != signature(alive[0]) for rep in alive[1:]):
        failures.append("check:repeatable: digests or counts differ between "
                        "repetitions of one seed")
    first = alive[0] if alive else {}

    # Host-time metrics need an untraced repetition that ended; without one
    # they are absent, and compare.py reads an absent metric as a failure.
    end_to_end = {}
    if untraced:
        runs = {
            "setup_s": [rep["setup_s"] for rep in untraced],
            "wall_s": [rep["wall_s"] for rep in untraced],
            "sim_cycles_per_s": [rep["sim_cycles"] / rep["wall_s"] for rep in untraced],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
        }
        end_to_end = {m["name"]: stat(runs[m["name"]], m)
                      for m in spec["end_to_end"]}
    exact = {"model_err": first.get("model_err"),  # None: unvalidated
             "failed_share": len(failures) / attempted}
    end_to_end |= {m["name"]: {"value": exact[m["name"]], "unit": m["unit"]}
                   for m in EXACT}

    per_layer = {}
    if traced:
        # Counts and simulated values are exact per seed; host times are the
        # median over the traced repetitions, percentiles pool their samples.
        known = {name: {"value": value} for name, value in first["counts"].items()}
        known["model.err"] = {"value": first["model_err"] or 0.0}
        known["model.validated"] = {"value": int(first["model_err"] is not None)}
        if untraced:
            known["obs.profile_overhead_ratio"] = {
                "value": statistics.median(rep["wall_s"] for rep in traced)
                / end_to_end["wall_s"]["value"]
            }
        pooled: dict[str, list[float]] = {}
        for rep in traced:
            for pattern, samples in rep["samples"].items():
                pooled.setdefault(pattern, []).extend(samples)
        for pattern, samples in pooled.items():
            for q in (50, 90) if samples else ():
                known[pattern.format(q=q)] = {
                    "value": percentile(samples, q / 100), "n": len(samples)
                }
        for metric in spec["per_layer"]:
            name = metric["name"]
            timed = [rep["layers"][name] for rep in traced
                     if rep["layers"].get(name) is not None]
            # None: this workload does not enter the layer.
            entry = known.get(name) or {
                "value": statistics.median(timed) if timed else None
            }
            per_layer[name] = entry | {"unit": metric["unit"]}

    return {
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "counts": first.get("counts", {}),
        "digests": {o["name"]: o["digest"] for o in first.get("ops", [])
                    if o["digest"]},
        "spans": traced[0].get("spans", []) if traced else [],
    }


# ---------------------------------------------------------------------------
# The BENCHMARK.json contract: one workload, a time budget, one JSON line
# ---------------------------------------------------------------------------


def run_contract(args, spec: dict) -> int:
    started = time.perf_counter()
    warm_import()
    reps: list[dict] = []
    # Traced runs alternate untraced and traced repetitions: the overhead
    # ratio needs both, under the same conditions.
    floor = 4 if args.trace else 3
    while len(reps) < floor or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(launch(args.workload, args.seed, args.smoke, traced))
        if "crashed" in reps[-1]:
            break  # already incorrect; do not wait for it to crash again
    summary = summarise(spec, reps)
    for line in summary["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        # A layer the workload never enters did no work: zero, not absent.
        m["name"]: {"value": summary[section][m["name"]]["value"] or 0,
                    "unit": m["unit"]}
        for m in spec[section] if m["name"] in summary[section]
    }
    print(json.dumps({
        "correct": summary["failed"] == 0, "attempted": summary["attempted"],
        "failed": summary["failed"], "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# The whole suite
# ---------------------------------------------------------------------------


def fingerprint(args, repeats: int, imported: dict) -> dict:
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    nproc = len(os.sched_getaffinity(0))
    return {
        "platform": platform.platform(), "cpu": cpu, "nproc": nproc,
        "python": platform.python_version(), "workers": min(2, nproc),
        "seed": args.seed, "repeats": repeats,
        "git_sha": git.stdout.strip() if git.returncode == 0 else "nogit",
        **imported,
    }


def render(name: str, summary: dict) -> str:
    lines = [f"== {name}: {summary['attempted']} ops, {summary['failed']} failed"]
    for metric, s in summary["end_to_end"].items():
        if "runs" in s:
            note = (f"median of {s['n']} [{s['min']:.4f} .. {s['max']:.4f}] "
                    f"spread {100 * s['spread']:.1f}%")
        elif metric == "failed_share":
            note = f"{summary['failed']}/{summary['attempted']}"
        else:
            note = ("simulated, exact per seed" if s["value"] is not None
                    else "unvalidated")
        value = "null" if s["value"] is None else f"{s['value']:.4f}"
        lines.append(f"  {metric:<20} {value:>14} {s['unit']:<9} {note}")
    lines += [f"  FAILED {line}" for line in summary["failures"]]
    for metric, s in summary["per_layer"].items():
        if s["value"] is not None:
            pooled = f"  n={s['n']}" if "n" in s else ""
            lines.append(f"    {metric:<38} {s['value']:>14.4f} {s['unit']}{pooled}")
    return "\n".join(lines)


def run_suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        print(f"unknown workloads {unknown}; choose from {names}", file=sys.stderr)
        return 2
    if not args.smoke and args.repeats < MIN_REPEATS:
        print(f"--repeats is at least {MIN_REPEATS} (--smoke makes one pass)",
              file=sys.stderr)
        return 2
    repeats = 1 if args.smoke else args.repeats
    imported = warm_import()
    reps: dict[str, list[dict]] = {name: [] for name in chosen}
    for index in range(repeats):
        shift = index % len(chosen)  # no workload always runs first
        for name in chosen[shift:] + chosen[:shift]:
            reps[name].append(launch(name, args.seed, args.smoke, traced=False))
    for name in chosen:
        reps[name].append(launch(name, args.seed, args.smoke, traced=True))

    result = {
        "schema": "perfbench-1",
        "fingerprint": fingerprint(args, repeats, imported),
        "bounds": {m["name"]: m for m in (*spec["end_to_end"], *EXACT)},
        "workloads": {name: summarise(spec, reps[name]) for name in chosen},
    }
    for name, summary in result["workloads"].items():
        print(render(name, summary))
    out = Path(args.out) if args.out else HERE / "results" / (
        f"run-{result['fingerprint']['git_sha']}-seed{args.seed}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 1 if any(s["failed"] for s in result["workloads"].values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=7,
                        help="untraced passes of the suite (default 7)")
    parser.add_argument("--workloads", help="comma-separated subset of the suite")
    parser.add_argument("--smoke", action="store_true",
                        help="cycles / 20, one untraced pass, traced pass kept")
    parser.add_argument("--out", help="result file of the suite")
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # What launch() passes to the process of one repetition.
    parser.add_argument("--rep", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench measures the simulator under {SRC}, which is not "
              "there", file=sys.stderr)
        return 2
    if args.rep:
        run_rep(args)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        return run_suite(args, spec)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_contract(args, spec)


if __name__ == "__main__":
    sys.exit(main())
