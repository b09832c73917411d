"""Shared helpers for the benchmark harness.

Each ``bench_*`` module regenerates one of the paper's tables or
figures: it runs the experiment inside a pytest-benchmark measurement
and prints the same rows/series the paper reports, side by side with
the paper's numbers where the paper gives them.

All simulator runs go through the :mod:`repro.sweep` engine's
content-addressed on-disk cache, keyed on the *full* experiment
configuration plus a code-version tag — so results are shared across
processes and across benchmark sessions, and editing any simulator
source invalidates them automatically.  The per-application sweeps
(``bench_fig6``/``fig7``/``fig11``) additionally fan their grids out
over worker processes via :func:`run_bench_sweep`.

Environment knobs (the defaults keep a full ``pytest benchmarks/
--benchmark-only`` run to roughly fifteen minutes cold; cached reruns
take seconds):

* ``REPRO_BENCH_CYCLES`` — simulated cycles per CMP run (default 6000).
* ``REPRO_BENCH_APPS`` — ``subset`` (default) or ``all`` 16 paper
  applications for the per-application sweeps.
* ``REPRO_BENCH_WORKERS`` — worker processes for the sweep-based
  benches (default: up to 4, capped at the available cores).
* ``REPRO_BENCH_CACHE`` — cache directory (default
  ``benchmarks/.cache``); set empty to disable caching.
* ``REPRO_BENCH_PROGRESS`` — set non-empty to draw a live progress
  line (done/cache/failed counters + ETA) on stderr while a benchmark
  sweep runs; off by default so captured benchmark output stays clean.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.cmp import CmpResults
from repro.sweep import ResultCache, SweepSpec, Variant, make_point, run_sweep
from repro.workloads import APPLICATIONS

__all__ = [
    "bench_cycles",
    "bench_apps",
    "bench_workers",
    "bench_cache",
    "run_cached",
    "run_bench_sweep",
    "print_table",
    "ALL_APPS",
]

ALL_APPS = list(APPLICATIONS)
_SUBSET = ["ba", "lu", "oc", "ro", "rx", "ws", "em", "mp"]

#: In-process memo on top of the disk cache: repeated ``run_cached``
#: calls within one benchmark session skip even the JSON reload.
_MEMO: dict[str, CmpResults] = {}
_CACHE: ResultCache | None = None


def bench_cycles(default: int = 6000) -> int:
    return int(os.environ.get("REPRO_BENCH_CYCLES", default))


def bench_apps(limit: int | None = None) -> list[str]:
    """The application list for per-app sweeps."""
    if os.environ.get("REPRO_BENCH_APPS", "subset") == "all":
        apps = ALL_APPS
    else:
        apps = _SUBSET
    return apps[:limit] if limit else apps


def bench_workers() -> int:
    """Worker-process count for the sweep-based benches."""
    value = os.environ.get("REPRO_BENCH_WORKERS")
    if value:
        return max(1, int(value))
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return min(4, cores)


def bench_cache() -> ResultCache | None:
    """The shared on-disk result cache (None when disabled)."""
    global _CACHE
    if _CACHE is None:
        root = os.environ.get(
            "REPRO_BENCH_CACHE", str(Path(__file__).parent / ".cache")
        )
        if not root:
            return None
        _CACHE = ResultCache(root)
    return _CACHE


def run_cached(app: str, network: str, num_nodes: int = 16,
               cycles: int | None = None, seed: int = 0, **kwargs) -> CmpResults:
    """Run one CMP experiment through the sweep cache.

    Keyed on the *full* configuration (every kwarg, the seed, the
    cycle count and the code version), so results persist across
    processes and benchmark sessions — unlike the previous
    ``lru_cache`` memo, which lived and died with one interpreter.
    ``kwargs`` are extra :class:`repro.cmp.CmpConfig` fields
    (``optimizations=...``, ``fsoi_lanes=...``, ``memory_gbps=...``).
    """
    point = make_point(
        app, network, num_nodes=num_nodes, cycles=cycles or bench_cycles(),
        seed=seed, **kwargs,
    )
    cache = bench_cache()
    key = cache.key(point) if cache else repr(point)
    memoized = _MEMO.get(key)
    if memoized is not None:
        return memoized
    [outcome] = run_sweep([point], cache=cache).outcomes
    if not outcome.ok:
        raise RuntimeError(f"{point.label()}: {outcome.error}")
    result = CmpResults.from_dict(outcome.result)
    _MEMO[key] = result
    return result


def run_bench_sweep(
    apps,
    networks,
    num_nodes: int = 16,
    cycles: int | None = None,
    seeds=(0,),
    variants: tuple[Variant, ...] | None = None,
    workers: int | None = None,
) -> dict:
    """Run a benchmark grid in parallel; returns ``{point: results}``.

    The dict is keyed by :class:`repro.sweep.SweepPoint`; use
    ``point.app`` / ``point.network`` / ``point.variant`` to index.
    Shares the on-disk cache with :func:`run_cached`, so a grid point
    computed here is a cache hit there (and vice versa).
    """
    spec = SweepSpec(
        apps=tuple(apps),
        networks=tuple(networks),
        nodes=(num_nodes,),
        seeds=tuple(seeds),
        cycles=cycles or bench_cycles(),
        variants=variants or (Variant(),),
    )
    pool = workers or bench_workers()
    telemetry = None
    if os.environ.get("REPRO_BENCH_PROGRESS"):
        import sys

        from repro.analytics import SweepTelemetry

        telemetry = SweepTelemetry(
            total=len(spec.points()), workers=pool, live=True,
            stream=sys.stderr,
        )
    report = run_sweep(
        spec, workers=pool, cache=bench_cache(),
        progress=telemetry.on_progress if telemetry else None,
        heartbeat=telemetry.on_heartbeat if telemetry else None,
    )
    if telemetry:
        telemetry.close()
        if report.skipped_cycles:
            total = report.skipped_cycles + report.executed_cycles
            print(
                f"fast-forward: skipped {report.skipped_cycles:,} of "
                f"{total:,} simulated cycles "
                f"({100 * report.skip_ratio:.0f}%)",
                file=sys.stderr,
            )
    failed = [o for o in report.outcomes if not o.ok]
    if failed:
        details = "; ".join(
            f"{o.point.label()}: {o.error}" for o in failed[:3]
        )
        raise RuntimeError(f"{len(failed)} sweep point(s) failed: {details}")
    return dict(report.results())


def print_table(title: str, header: list[str], rows: list[list], note: str = "") -> None:
    """Render an aligned text table to stdout."""
    cells = [header] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    line = "  ".join("-" * w for w in widths)
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print(line)
    for row in cells[1:]:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        print(note)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) < 1e-3 or abs(value) >= 1e5:
            return f"{value:.2e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)
