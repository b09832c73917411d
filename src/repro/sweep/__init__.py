"""Parallel experiment sweeps with on-disk result caching.

The substrate behind every figure/table regeneration: declare the grid
once (:class:`SweepSpec`), run it across cores (:func:`run_sweep`),
and let the content-addressed cache (:class:`ResultCache`) skip every
point that was already computed with the current code version.

Quick start::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        apps=("ba", "lu", "oc", "ro"),
        networks=("fsoi", "mesh"),
        seeds=(0, 1),
        cycles=4000,
    )
    report = run_sweep(spec, workers=4, cache_dir=".repro-sweep-cache",
                       jsonl_path="results.jsonl")
    print(report.paired_speedups("fsoi", baseline="mesh"))

See ``docs/sweeps.md`` for the spec format, caching/invalidation
rules, resume semantics and worker-count guidance; the CLI entry point
is ``repro sweep``.
"""

from repro.sweep.cache import ResultCache, code_version, point_key
from repro.sweep.runner import (
    PointOutcome,
    PointTimeout,
    SweepHeartbeat,
    SweepReport,
    SweepSummary,
    execute_point,
    load_jsonl,
    metrics_filename,
    run_sweep,
    timeline_filename,
)
from repro.sweep.spec import (
    SweepPoint,
    SweepSpec,
    Variant,
    canonical_json,
    make_point,
    pair_points,
)

__all__ = [
    "PointOutcome",
    "PointTimeout",
    "ResultCache",
    "SweepHeartbeat",
    "SweepPoint",
    "SweepReport",
    "SweepSpec",
    "SweepSummary",
    "Variant",
    "canonical_json",
    "code_version",
    "execute_point",
    "load_jsonl",
    "make_point",
    "metrics_filename",
    "pair_points",
    "point_key",
    "run_sweep",
    "timeline_filename",
]
