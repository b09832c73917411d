"""Windowed time-series telemetry over the metrics registry.

The registry (:mod:`repro.obs.registry`) answers "what happened over
the whole run"; the timeline answers "when".  Every ``window`` cycles
the collector re-reads a configurable set of flattened registry paths
and stores the **per-window deltas** in columnar numpy ring buffers —
trajectories of lane utilization, collision counts, retirements and
sync progress at bounded memory cost, cheap enough to leave on for
multi-hour sweeps.

The design follows the other two ``repro.obs`` facilities exactly:

* **Zero overhead when disabled.**  The only cost is one
  ``TIMELINE.enabled`` read per ``CmpSystem`` run call
  (``tests/obs/test_overhead.py`` pins the budget).
* **Non-perturbing when enabled.**  Sampling only *reads* simulator
  state — no RNG draws, no scheduling changes — so a timelined run is
  bit-identical to a plain one.  Samples are taken when the clock
  reaches a window boundary, before the tick at that cycle (cycle
  ``k*window`` sees state after cycles ``< k*window``; the cores
  settle their lazily charged cycle counters when read, so the sample
  is exact), so the exported JSONL is byte-identical across repeated
  runs of the same seed (``tests/obs/test_timeline.py``).
* **Read by the loop, not hooked into it.**  ``CmpSystem``'s loop ends
  a segment at :attr:`TimelineCollector.next_due` and samples where the
  clock lands, so a fast-forward jump is split at a boundary, never
  shortened into a tick: samples fall on the same cycles whether or
  not the loop fast-forwards, and a timelined run executes and skips
  exactly the cycles a plain one does — its results, ``loop``
  included, equal a plain run's.

Exports: JSONL (one meta line + one line per window, canonical
sorted-key JSON), chrome://tracing counter events (``ph: "C"``) that
merge into existing trace files, and OpenMetrics text exposition
(linted by :func:`validate_openmetrics`).  ``docs/observability.md``
has the schema tables.
"""

from __future__ import annotations

import fnmatch
import json
import re
from contextlib import contextmanager
from typing import Any, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TIMELINE_PATHS",
    "TIMELINE",
    "TimelineCollector",
    "load_timeline_jsonl",
    "timelining",
    "validate_openmetrics",
    "window_deltas",
]

#: Default sampled paths: fnmatch patterns over the *flattened*
#: registry (``MetricsRegistry.flatten`` keys).  The defaults are
#: system-level monotone counters so the column count is independent
#: of node count; per-node series (``l1.*.stalls``,
#: ``directory.*.queued``, ...) opt in via ``timelining(paths=...)``.
#: ``profile.*`` selects per-phase wall-clock seconds when the
#: profiler is live (wall-clock columns are excluded from the
#: byte-identical determinism guarantee, of course).
DEFAULT_TIMELINE_PATHS = (
    "run.cycles",
    "run.instructions",
    "network.packets_sent",
    "network.packets_delivered",
    "network.send_refused",
    "network.bits_sent",
    "network.meta.transmissions",
    "network.meta.collided_transmissions",
    "network.meta.collision_events",
    "network.meta.delivered",
    "network.meta.slots_elapsed",
    "network.data.transmissions",
    "network.data.collided_transmissions",
    "network.data.collision_events",
    "network.data.delivered",
    "network.data.slots_elapsed",
    "network.fault.*",
    "sync.barriers_completed",
    "sync.lock_acquisitions",
    "sync.lock_retries",
    "profile.*",
)

#: Prefix for the synthetic profiler columns ("profile.<phase>.seconds").
_PROFILE_PREFIX = "profile."


def window_deltas(prev: Sequence[float], cur: Sequence[float]) -> np.ndarray:
    """Per-window delta vector ``cur - prev`` (float64).

    The collector's single arithmetic primitive, kept free-standing so
    its algebra is property-testable: for monotone counter series no
    delta is negative, and deltas telescope — the sum over consecutive
    windows equals ``final - base`` exactly (float64 integers are
    exact up to 2**53, far beyond any counter here).
    """
    prev_arr = np.asarray(prev, dtype=np.float64)
    cur_arr = np.asarray(cur, dtype=np.float64)
    if prev_arr.shape != cur_arr.shape:
        raise ValueError(
            f"shape mismatch: prev {prev_arr.shape} vs cur {cur_arr.shape}"
        )
    return cur_arr - prev_arr


def _num(value: float) -> Any:
    """Canonical JSON number: integral floats render as ints."""
    if float(value).is_integer():
        return int(value)
    return float(value)


class TimelineCollector:
    """Columnar per-window delta sampler over a live metrics registry.

    One process-global instance (:data:`TIMELINE`) switched on like
    :data:`~repro.obs.trace.TRACE`.  The collector binds to the first
    :class:`~repro.cmp.CmpSystem` that runs while it is enabled
    (building that system's registry once); runs of any other system
    are not sampled, mirroring the tracer's one-run-at-a-time contract.

    Storage is a ring: ``capacity`` windows of deltas are retained;
    older windows are dropped (counted in :attr:`dropped_windows`) but
    their column sums are folded into :meth:`totals`, so cumulative
    counters and the conservation invariant survive the drop.
    """

    def __init__(
        self,
        window: int = 100,
        paths: Optional[Iterable[str]] = None,
        capacity: int = 4096,
    ):
        self.enabled = False
        self.configure(window=window, paths=paths, capacity=capacity)

    # -- configuration ---------------------------------------------------

    def configure(
        self,
        window: int = 100,
        paths: Optional[Iterable[str]] = None,
        capacity: int = 4096,
    ) -> None:
        """Set window/paths/capacity and drop any previous binding."""
        if window < 1:
            raise ValueError(f"timeline window must be >= 1: {window}")
        if capacity < 1:
            raise ValueError(f"timeline capacity must be >= 1: {capacity}")
        self.window = window
        self.patterns = tuple(paths) if paths else DEFAULT_TIMELINE_PATHS
        self.capacity = capacity
        self.reset()

    def reset(self) -> None:
        """Forget the bound system and every collected window."""
        self._system: Any = None
        self._registry: Any = None
        self._registry_paths: list[str] = []
        self._profile_paths: list[str] = []
        self._columns: Optional[list[str]] = None  # frozen at first sample
        self._prev: Optional[np.ndarray] = None
        self._base: Optional[np.ndarray] = None
        #: The next window boundary: the bound system's loop ends a
        #: segment there and calls :meth:`sample`.
        self.next_due = self.window
        self._last_sample_cycle: Optional[int] = None
        self._cycles = np.zeros(self.capacity, dtype=np.int64)
        self._rows: Optional[np.ndarray] = None
        self._start = 0
        self._count = 0
        self.dropped_windows = 0
        self._dropped_sum: Optional[np.ndarray] = None
        self.meta: dict[str, Any] = {}

    # -- binding and sampling (called from CmpSystem's loop) -------------

    def _matches(self, path: str) -> bool:
        return any(fnmatch.fnmatch(path, pat) for pat in self.patterns)

    def _bind(self, system: Any) -> None:
        self._system = system
        self._registry = system.metrics_registry()
        flat = self._registry.flatten()
        self._registry_paths = [
            key
            for key in sorted(flat)
            if isinstance(flat[key], (int, float))
            and not isinstance(flat[key], bool)
            and self._matches(key)
        ]
        cycle = int(system.cycle)
        self.next_due = (cycle // self.window + 1) * self.window
        config = system.config
        self.meta = {
            "app": system.app_label,
            "network": config.network,
            "num_nodes": config.num_nodes,
            "seed": config.seed,
        }
        # The registry part of the delta baseline; profiler columns join
        # (baseline zero) when the column set freezes at the first
        # sample — the profiler only has phases once the loop has run.
        self._base = np.array(
            [float(flat[key]) for key in self._registry_paths],
            dtype=np.float64,
        )

    def _freeze_columns(self) -> None:
        from repro.obs.profile import PROFILER

        if PROFILER.enabled:
            self._profile_paths = [
                f"{_PROFILE_PREFIX}{phase}.seconds"
                for phase in sorted(PROFILER._seconds)
                if self._matches(f"{_PROFILE_PREFIX}{phase}.seconds")
            ]
        self._columns = [*self._registry_paths, *self._profile_paths]
        ncols = len(self._columns)
        assert self._base is not None
        self._base = np.concatenate(
            [self._base, np.zeros(len(self._profile_paths))]
        )
        self._prev = self._base.copy()
        self._rows = np.zeros((self.capacity, ncols), dtype=np.float64)
        self._dropped_sum = np.zeros(ncols, dtype=np.float64)

    def _read_values(self) -> np.ndarray:
        flat = self._registry.flatten()
        values = [float(flat[key]) for key in self._registry_paths]
        if self._profile_paths:
            from repro.obs.profile import PROFILER

            seconds = PROFILER._seconds
            strip = len(_PROFILE_PREFIX)
            values.extend(
                float(seconds.get(path[strip:-8], 0.0))
                for path in self._profile_paths  # "profile.<phase>.seconds"
            )
        return np.array(values, dtype=np.float64)

    def attach(self, system: Any) -> bool:
        """Bind to ``system`` if nothing is bound yet; True when the
        collector samples ``system`` (the system's loop then ends its
        segments at :attr:`next_due` and calls :meth:`sample` there)."""
        if self._system is None:
            self._bind(system)
        return system is self._system

    def sample(self, cycle: int) -> None:
        """Record the window ending at ``cycle`` — a boundary, or the
        (possibly partial) last window of a run; a repeat is ignored.

        Read-only with respect to the simulation — the registry
        snapshot settles the cores' lazy cycle ledgers, an accounting
        materialization that is exact between ticks.
        """
        if self._columns is None:
            self._freeze_columns()
        while self.next_due <= cycle:
            self.next_due += self.window
        if cycle == self._last_sample_cycle:
            return
        values = self._read_values()
        assert self._prev is not None and self._rows is not None
        deltas = window_deltas(self._prev, values)
        self._prev = values
        self._last_sample_cycle = cycle
        if self._count == self.capacity:
            oldest = self._start
            assert self._dropped_sum is not None
            self._dropped_sum += self._rows[oldest]
            self._start = (oldest + 1) % self.capacity
            self._count -= 1
            self.dropped_windows += 1
        pos = (self._start + self._count) % self.capacity
        self._cycles[pos] = cycle
        self._rows[pos] = deltas
        self._count += 1

    # -- read access -----------------------------------------------------

    @property
    def paths(self) -> list[str]:
        """The sampled column paths, in column order."""
        if self._columns is not None:
            return list(self._columns)
        return list(self._registry_paths)

    def __len__(self) -> int:
        return self._count

    def cycles(self) -> np.ndarray:
        """Window-end cycles of the retained windows, chronological."""
        idx = (self._start + np.arange(self._count)) % self.capacity
        return self._cycles[idx].copy()

    def matrix(self) -> np.ndarray:
        """Retained per-window deltas, shape ``(windows, columns)``."""
        if self._rows is None:
            return np.zeros((0, len(self.paths)), dtype=np.float64)
        idx = (self._start + np.arange(self._count)) % self.capacity
        return self._rows[idx].copy()

    def series(self, path: str) -> np.ndarray:
        """One column's per-window deltas, chronological."""
        try:
            column = self.paths.index(path)
        except ValueError:
            raise KeyError(f"path not sampled: {path!r}") from None
        return self.matrix()[:, column]

    def cumulative(self, path: str) -> np.ndarray:
        """Cumulative value of ``path`` at each retained window end.

        Reconstructs the counter's trajectory: bind-time baseline plus
        dropped-window sums plus the running sum of retained deltas —
        so ``cumulative(p)[-1]`` equals the final registry value.
        """
        try:
            column = self.paths.index(path)
        except ValueError:
            raise KeyError(f"path not sampled: {path!r}") from None
        base = 0.0
        if self._base is not None:
            base = float(self._base[column])
        if self._dropped_sum is not None:
            base += float(self._dropped_sum[column])
        return base + np.cumsum(self.matrix()[:, column])

    def totals(self) -> dict[str, float]:
        """Cumulative per-path deltas since bind (drop-safe).

        ``base + dropped + retained`` — equal to the final registry
        snapshot minus the bind-time baseline, window drops included.
        """
        if self._rows is None:
            return {}
        assert self._dropped_sum is not None
        summed = self._dropped_sum + self.matrix().sum(axis=0)
        return dict(zip(self.paths, (float(v) for v in summed)))

    # -- exports ---------------------------------------------------------

    def meta_record(self) -> dict:
        """The JSONL meta line (also embedded in the OpenMetrics text)."""
        return {
            "type": "meta",
            "version": 1,
            "window": self.window,
            "paths": self.paths,
            "windows": self._count,
            "dropped_windows": self.dropped_windows,
            **self.meta,
        }

    def to_jsonl(self) -> str:
        """Canonical JSONL: one meta line, then one line per window.

        Sorted keys and integral-float normalization make the output
        byte-identical for byte-identical runs — the property the
        determinism suite pins across seeds and engine families.
        """
        lines = [json.dumps(self.meta_record(), sort_keys=True)]
        cycles = self.cycles()
        rows = self.matrix()
        for cycle, row in zip(cycles, rows):
            lines.append(
                json.dumps(
                    {
                        "type": "window",
                        "cycle": int(cycle),
                        "deltas": [_num(v) for v in row],
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns the window count."""
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())
        return self._count

    def counter_events(self) -> list[dict]:
        """chrome://tracing counter events (``ph: "C"``), one per
        window per path, mergeable into a trace-event JSONL/JSON file
        (``repro trace --timeline``).  Counter tracks render as
        stacked area charts under the spans in Perfetto.
        """
        events = []
        cycles = self.cycles()
        rows = self.matrix()
        for cycle, row in zip(cycles, rows):
            for path, value in zip(self.paths, row):
                events.append(
                    {
                        "name": path,
                        "cat": "timeline",
                        "ph": "C",
                        "ts": int(cycle),
                        "pid": 0,
                        "tid": "timeline",
                        "args": {"delta": _num(value)},
                    }
                )
        return events

    def to_openmetrics(self, prefix: str = "repro") -> str:
        """OpenMetrics text exposition of the cumulative totals.

        Counters (the registry's monotone totals since bind) carry the
        mandated ``_total`` suffix; collector state (window size,
        retained/dropped windows) exports as gauges.  Ends with the
        required ``# EOF`` terminator; :func:`validate_openmetrics`
        lints the result.
        """
        lines: list[str] = []
        totals = self.totals()
        for path in self.paths:
            name = f"{prefix}_" + re.sub(r"[^a-zA-Z0-9_]", "_", path)
            lines.append(f"# TYPE {name} counter")
            lines.append(
                f'{name}_total{{path="{path}"}} '
                f"{json.dumps(_num(totals[path]))}"
            )
        for gauge, value in (
            ("timeline_window_cycles", self.window),
            ("timeline_windows", self._count),
            ("timeline_dropped_windows", self.dropped_windows),
        ):
            name = f"{prefix}_{gauge}"
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write_openmetrics(self, path, prefix: str = "repro") -> int:
        """Write :meth:`to_openmetrics`; returns the sample count."""
        text = self.to_openmetrics(prefix=prefix)
        with open(path, "w") as handle:
            handle.write(text)
        return validate_openmetrics(text)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"TimelineCollector({state}, window={self.window}, "
            f"windows={self._count}, paths={len(self.paths)})"
        )


#: The process-global collector ``CmpSystem``'s loop samples into.
TIMELINE = TimelineCollector()


@contextmanager
def timelining(
    window: int = 100,
    paths: Optional[Iterable[str]] = None,
    capacity: int = 4096,
):
    """Enable the global timeline for a block.

    Entry reconfigures and clears :data:`TIMELINE` and switches it on;
    exit restores the previous enabled state and lets go of the sampled
    system and its registry, but keeps the collected windows and meta
    so they can still be exported::

        with timelining(window=100) as tl:
            CmpSystem(config).run(cycles)
        tl.write_jsonl("timeline.jsonl")

    Nested blocks are not supported (the inner block would clear the
    outer block's windows), mirroring :func:`~repro.obs.trace.tracing`.
    """
    previous_enabled = TIMELINE.enabled
    TIMELINE.configure(window=window, paths=paths, capacity=capacity)
    TIMELINE.enabled = True
    try:
        yield TIMELINE
    finally:
        TIMELINE.enabled = previous_enabled
        # The registry mounts every component's stats: holding it would
        # keep the last timelined system alive until the next configure.
        TIMELINE._system = TIMELINE._registry = None


# -- timeline JSONL loading (repro top --from, RunStore ingestion) ---------


def load_timeline_jsonl(path) -> dict:
    """Parse a timeline JSONL file into ``{"meta", "cycles", "deltas"}``.

    ``cycles`` is a list of window-end cycles and ``deltas`` a list of
    per-window value lists aligned with ``meta["paths"]``.  Raises
    ``ValueError`` on malformed files (missing meta line, ragged rows).
    """
    meta: Optional[dict] = None
    cycles: list[int] = []
    deltas: list[list[float]] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            kind = record.get("type")
            if kind == "meta":
                if meta is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate meta line")
                meta = record
            elif kind == "window":
                if meta is None:
                    raise ValueError(f"{path}:{lineno}: window before meta")
                row = record.get("deltas")
                if not isinstance(row, list) or len(row) != len(meta["paths"]):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(meta['paths'])} "
                        f"deltas, got {row!r}"
                    )
                cycles.append(int(record["cycle"]))
                deltas.append([float(v) for v in row])
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    if meta is None:
        raise ValueError(f"{path}: no meta line")
    return {"meta": meta, "cycles": cycles, "deltas": deltas}


# -- OpenMetrics lint ------------------------------------------------------

_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_TYPE_LINE = re.compile(rf"^# TYPE ({_METRIC_NAME}) (counter|gauge|"
                        r"histogram|summary|info|stateset|unknown)$")
_HELP_LINE = re.compile(rf"^# HELP ({_METRIC_NAME}) .*$")
_SAMPLE_LINE = re.compile(
    rf"^({_METRIC_NAME})(\{{[^{{}}]*\}})? (\S+)( \S+)?$"
)
#: Suffixes OpenMetrics allows a sample of a typed family to carry.
_FAMILY_SUFFIXES = ("_total", "_created", "_count", "_sum", "_bucket")


def validate_openmetrics(text: str) -> int:
    """Lint an OpenMetrics exposition; returns the number of samples.

    A deliberately dependency-free subset of the spec, strict about
    everything the exporter promises: a ``# EOF`` terminator with
    nothing after it, well-formed ``# TYPE``/``# HELP`` lines, sample
    names that resolve (with the standard suffixes) to a declared
    family, float-parsable values, and no duplicate TYPE declarations.
    Raises ``ValueError`` with the offending line number.
    """
    families: dict[str, str] = {}
    samples = 0
    seen_eof = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        if seen_eof and line:
            raise ValueError(f"line {lineno}: content after # EOF")
        if not line:
            continue
        if line == "# EOF":
            seen_eof = True
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_LINE.match(line)
            if not match:
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            name = match.group(1)
            if name in families:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            families[name] = match.group(2)
            continue
        if line.startswith("# HELP "):
            if not _HELP_LINE.match(line):
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment: {line!r}")
        match = _SAMPLE_LINE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name, value = match.group(1), match.group(3)
        family = name
        if family not in families:
            for suffix in _FAMILY_SUFFIXES:
                if name.endswith(suffix):
                    family = name[: -len(suffix)]
                    break
        if family not in families:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no TYPE declaration"
            )
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric value {value!r}"
                ) from None
        samples += 1
    if not seen_eof:
        raise ValueError("missing # EOF terminator")
    if samples == 0:
        raise ValueError("no samples")
    return samples
