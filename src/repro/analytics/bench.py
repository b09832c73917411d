"""The performance regression gate: pinned suite, snapshots, compare.

``repro bench`` runs a *pinned* micro+macro suite and writes the
measurements to ``BENCH_<git-sha>.json`` at the repo root — the perf
trajectory of the project, one snapshot per commit.  ``repro bench
--compare`` diffs the fresh snapshot against the most recent previous
one and exits non-zero when any metric regressed past the threshold,
so a PR that makes the simulator slower fails loudly instead of
drifting.

The suite measures three layers:

* **micro** — per-subsystem cost of the cycle loop via the existing
  :class:`~repro.obs.PhaseProfiler`: microseconds per simulated cycle
  attributed to each phase (network, cores, memory, ...), plus overall
  cycles/second, for one pinned FSOI run and one pinned mesh run.
* **macro** — end-to-end wall time of a small pinned sweep, run cold
  into a throwaway cache.
* **cache** — the same sweep re-run warm: wall time and cache-hit rate
  (a hit rate below 1.0 means the content-addressed cache broke).

Metric direction is encoded in the name: ``*_seconds`` and
``*_us_per_cycle`` regress upward, ``*_per_sec`` and ``*_rate`` regress
downward.  Wall-clock noise is real, especially on shared CI — the
default threshold (20% relative) is deliberately generous, and the
compare report prints every metric so a human can spot a trend before
it trips the gate.
"""

from __future__ import annotations

import json
import platform
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

__all__ = [
    "BenchComparison",
    "BenchSnapshot",
    "compare_snapshots",
    "git_sha",
    "load_snapshot",
    "previous_snapshot",
    "run_bench",
    "snapshot_path",
]

SCHEMA_VERSION = 1

#: Pinned experiment the micro profiles run (stable across PRs so the
#: trajectory stays comparable; bump SCHEMA_VERSION if it must change).
MICRO_APP = "oc"
MICRO_NODES = 16
MICRO_CYCLES = 2_000

#: Networks the micro profiles cover.  ``l0`` (the ideal single-cycle
#: network) is the coherence-dominated point: with transport reduced to
#: a calendar hop, ``profile.l0.coherence.us_per_cycle`` isolates the
#: protocol-dispatch cost, free of slot/collision bookkeeping noise.
MICRO_NETWORKS = ("fsoi", "mesh", "l0")

#: Pinned macro sweep grid.
MACRO_APPS = ("ba", "lu")
MACRO_NETWORKS = ("fsoi", "mesh")
MACRO_CYCLES = 800


def git_sha(root=None) -> str:
    """The short git revision, or the code-version tag outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    from repro.sweep.cache import code_version

    return f"src-{code_version()}"


@dataclass
class BenchSnapshot:
    """One pinned-suite measurement, serialized as ``BENCH_<sha>.json``."""

    sha: str
    code_version: str
    created_at: str
    python: str
    metrics: dict[str, float] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "sha": self.sha,
            "code_version": self.code_version,
            "created_at": self.created_at,
            "python": self.python,
            "metrics": dict(sorted(self.metrics.items())),
        }

    def write(self, root=".") -> Path:
        path = snapshot_path(root, self.sha)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return path


def snapshot_path(root, sha: str) -> Path:
    return Path(root) / f"BENCH_{sha}.json"


def load_snapshot(path) -> BenchSnapshot:
    with open(path) as handle:
        data = json.load(handle)
    return BenchSnapshot(
        sha=data["sha"],
        code_version=data.get("code_version", ""),
        created_at=data.get("created_at", ""),
        python=data.get("python", ""),
        metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
        schema=int(data.get("schema", 0)),
    )


def previous_snapshot(root=".", exclude_sha: Optional[str] = None
                      ) -> Optional[BenchSnapshot]:
    """The most recent ``BENCH_*.json`` under ``root`` (by created_at)."""
    candidates = []
    for path in Path(root).glob("BENCH_*.json"):
        try:
            snap = load_snapshot(path)
        except (json.JSONDecodeError, KeyError):
            continue
        if exclude_sha is not None and snap.sha == exclude_sha:
            continue
        candidates.append(snap)
    if not candidates:
        return None
    return max(candidates, key=lambda snap: snap.created_at)


# -- the pinned suite -----------------------------------------------------

def _micro_profile(network: str, cycles: int, metrics: dict[str, float]) -> None:
    from repro.cmp import CmpConfig, CmpSystem
    from repro.obs import profiling

    config = CmpConfig(
        num_nodes=MICRO_NODES, app=MICRO_APP, network=network, seed=0
    )
    with profiling() as profiler:
        CmpSystem(config).run(cycles)
    prefix = f"profile.{network}"
    wall = profiler.wall_seconds
    # Per-cycle figures are per *simulated* cycle (executed + skipped):
    # a fast-forward jump covers its cycles at near-zero cost, and that
    # is exactly the speedup the trajectory should show.
    total = profiler.total_cycles
    if wall > 0 and total:
        metrics[f"{prefix}.cycles_per_sec"] = total / wall
    for phase, row in profiler.report().items():
        metrics[f"{prefix}.{phase}.us_per_cycle"] = (
            1e6 * row["seconds"] / max(1, total)
        )
    # "rate" suffix: higher is better under the direction-aware gate.
    metrics[f"{prefix}.skip_rate"] = profiler.skipped / max(1, total)


def _macro_sweep(cycles: int, workers: int, metrics: dict[str, float]) -> None:
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        apps=MACRO_APPS, networks=MACRO_NETWORKS, cycles=cycles
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache:
        begin = time.perf_counter()
        cold = run_sweep(spec, workers=workers, cache_dir=cache)
        metrics["sweep.cold_seconds"] = time.perf_counter() - begin
        metrics["sweep.skip_rate"] = cold.skip_ratio
        begin = time.perf_counter()
        warm = run_sweep(spec, workers=workers, cache_dir=cache)
        metrics["sweep.warm_seconds"] = time.perf_counter() - begin
        total = len(warm.outcomes) or 1
        metrics["sweep.cache_hit_rate"] = warm.from_cache / total
        if cold.failed or warm.failed:
            raise RuntimeError(
                f"pinned macro sweep failed {cold.failed}+{warm.failed} points"
            )


def run_bench(
    *,
    micro_cycles: int = MICRO_CYCLES,
    macro_cycles: int = MACRO_CYCLES,
    workers: int = 1,
    sha: Optional[str] = None,
) -> BenchSnapshot:
    """Run the pinned micro+macro suite; returns the fresh snapshot."""
    metrics: dict[str, float] = {}
    begin = time.perf_counter()
    for network in MICRO_NETWORKS:
        _micro_profile(network, micro_cycles, metrics)
    _macro_sweep(macro_cycles, workers, metrics)
    metrics["suite.total_seconds"] = time.perf_counter() - begin
    return BenchSnapshot(
        sha=sha or git_sha(),
        code_version=_code_version(),
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        python=platform.python_version(),
        metrics=metrics,
    )


def _code_version() -> str:
    from repro.sweep.cache import code_version

    return code_version()


# -- comparison -----------------------------------------------------------

def _lower_is_better(metric: str) -> bool:
    return metric.endswith("seconds") or metric.endswith("us_per_cycle")


#: Absolute deltas below these floors are timer/scheduler jitter, not
#: regressions: a 2 µs/cycle profiling phase or a 1 ms warm-cache replay
#: can move 30% between back-to-back runs of identical code, so the
#: relative threshold alone would make the gate flaky on small metrics.
_NOISE_FLOORS = (
    ("us_per_cycle", 1.0),   # per-phase timer resolution, µs/cycle
    ("seconds", 0.05),       # wall-clock scheduling jitter, s
)


def _noise_floor(metric: str) -> float:
    for suffix, floor in _NOISE_FLOORS:
        if metric.endswith(suffix):
            return floor
    return 0.0


@dataclass(frozen=True)
class CompareRow:
    metric: str
    previous: float
    current: float
    threshold: float

    @property
    def relative(self) -> float:
        """Relative change, signed so that positive = worse."""
        if self.previous == 0:
            return 0.0
        change = (self.current - self.previous) / abs(self.previous)
        return change if _lower_is_better(self.metric) else -change

    @property
    def regressed(self) -> bool:
        if self.relative <= self.threshold:
            return False
        return abs(self.current - self.previous) >= _noise_floor(self.metric)


@dataclass(frozen=True)
class BenchComparison:
    """The diff of two snapshots plus the gate verdict."""

    previous: BenchSnapshot
    current: BenchSnapshot
    rows: tuple[CompareRow, ...]

    @property
    def regressions(self) -> list[CompareRow]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"bench compare: {self.previous.sha} "
            f"({self.previous.created_at}) -> {self.current.sha}"
        ]
        for row in self.rows:
            mark = "REGRESSED" if row.regressed else "ok"
            direction = "worse" if row.relative > 0 else "better"
            lines.append(
                f"  {row.metric:<38} {row.previous:>12.4g} -> "
                f"{row.current:>12.4g}  "
                f"({100 * abs(row.relative):5.1f}% {direction})"
                f"  {mark}"
            )
        missing = sorted(set(self.previous.metrics) - set(self.current.metrics))
        for metric in missing:
            lines.append(f"  {metric:<38} disappeared from the suite")
        verdict = (
            "PASS: no metric regressed past threshold"
            if self.ok else
            f"FAIL: {len(self.regressions)} metric(s) regressed"
        )
        lines.append(verdict)
        return "\n".join(lines)


def compare_snapshots(
    current: BenchSnapshot,
    previous: BenchSnapshot,
    threshold: float = 0.20,
) -> BenchComparison:
    """Gate ``current`` against ``previous`` at a relative threshold.

    Only metrics present in both snapshots are compared (the suite may
    gain metrics over time); a metric moving in the *better* direction
    never regresses, however large the move.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive: {threshold}")
    rows = tuple(
        CompareRow(
            metric=metric,
            previous=previous.metrics[metric],
            current=current.metrics[metric],
            threshold=threshold,
        )
        for metric in sorted(set(current.metrics) & set(previous.metrics))
    )
    return BenchComparison(previous=previous, current=current, rows=rows)
