"""Simulation observability: metrics, tracing, profiling, timelines, health.

Five orthogonal facilities, all designed to be **zero-overhead when
disabled** (a tracing site is a single guarded attribute check; the
cycle loop reads the profiler and timeline switches once per run call)
and **non-perturbing when enabled** (they only read simulator state —
no RNG draws, no scheduling changes, and the cycle loop executes and
skips the same cycles — so an observed run produces bit-identical
results to an unobserved one):

* :class:`MetricsRegistry` — a hierarchical, snapshot-able registry
  that unifies the scattered :class:`~repro.util.stats.StatGroup`
  trees (network, per-node L1/directory, memory, sync) behind one
  export surface with canonical JSON and CSV serialization.
  :meth:`repro.cmp.CmpSystem.metrics_registry` builds one for a run.
* :class:`Tracer` / the global :data:`TRACE` — a ring-buffered
  structured event trace with points wired into the FSOI tick loop,
  back-off, confirmation channel, mesh routers and the coherence
  layer.  Events are filterable by node / lane / packet and export as
  JSONL in the ``chrome://tracing`` trace-event format.
* :class:`PhaseProfiler` / the global :data:`PROFILER` — per-phase
  wall-time attribution of the cycle loop (the tick's phase table —
  calendar, overflow, network, cores — plus coherence dispatch
  and the fast-forward horizon), surfaced through ``repro profile``.
* :class:`TimelineCollector` / the global :data:`TIMELINE` — windowed
  time-series telemetry, sampled by the cycle loop between segments:
  per-window deltas of selected registry paths
  in columnar numpy ring buffers, exported as JSONL, chrome://tracing
  counter events and OpenMetrics text, rendered live by ``repro top``.
* :mod:`repro.obs.health` — invariant/anomaly watchdogs over the
  timeline and live system (starvation, backoff storms, the
  transport's own ``audit()``, negative counters) reporting structured
  :class:`HealthEvent` records; ``--strict-health`` fails a run on any.

See ``docs/observability.md`` for the trace format, registry schema,
timeline/health schemas and the profiling workflow.
"""

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    TRACE,
    TraceEvent,
    Tracer,
    tracing,
    validate_event,
    validate_trace_file,
)
from repro.obs.profile import PROFILER, PhaseProfiler, profiling
from repro.obs.timeline import (
    DEFAULT_TIMELINE_PATHS,
    TIMELINE,
    TimelineCollector,
    load_timeline_jsonl,
    timelining,
    validate_openmetrics,
    window_deltas,
)
from repro.obs.health import HealthEvent, check_health, render_health

__all__ = [
    "DEFAULT_TIMELINE_PATHS",
    "HealthEvent",
    "MetricsRegistry",
    "PROFILER",
    "PhaseProfiler",
    "TIMELINE",
    "TRACE",
    "TimelineCollector",
    "TraceEvent",
    "Tracer",
    "check_health",
    "load_timeline_jsonl",
    "profiling",
    "render_health",
    "timelining",
    "tracing",
    "validate_event",
    "validate_openmetrics",
    "validate_trace_file",
    "window_deltas",
]
