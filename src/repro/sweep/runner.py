"""The parallel sweep runner.

:func:`run_sweep` fans the points of a :class:`repro.sweep.SweepSpec`
out across worker processes (``ProcessPoolExecutor``), with:

* **caching** — points whose key (config + code version) is already in
  the :class:`repro.sweep.cache.ResultCache` are served from disk
  without touching the simulator; an interrupted sweep therefore
  resumes where it stopped.
* **crash isolation** — a worker that raises marks its point failed; a
  worker that *dies* (segfault, ``os._exit``) breaks the pool and every
  point it held, so each of those is rerun alone in a fresh
  single-worker pool — a point that dies alone twice is marked failed
  without sinking the sweep or its siblings.
* **per-point timeout** — enforced inside the worker via ``SIGALRM``
  so a runaway point fails cleanly and its worker survives.
* **deterministic JSONL streaming** — results are written in point
  order (a reorder buffer holds out-of-order completions), each line
  canonical JSON, so the output file is byte-identical regardless of
  worker count and of whether points came cold or from the cache.

``workers <= 1`` runs points inline in the calling process — same code
path through :func:`_worker`, no subprocesses — which is also what the
determinism tests compare the parallel runs against.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

from repro.cmp.results import CmpResults
from repro.faults.plan import FaultPlan
from repro.sweep.cache import ResultCache, _normalized
from repro.sweep.spec import SweepPoint, SweepSpec, canonical_json, pair_points

__all__ = [
    "PointOutcome",
    "PointTimeout",
    "SweepHeartbeat",
    "SweepReport",
    "SweepSummary",
    "execute_point",
    "load_jsonl",
    "metrics_filename",
    "run_sweep",
    "timeline_filename",
]

#: How often a point may be rerun after its worker process died while
#: running it alone, before it is marked failed.
_MAX_CRASH_RETRIES = 1


class PointTimeout(Exception):
    """A point exceeded the per-point timeout."""


def execute_point(
    point_dict: dict,
    metrics_dir: Optional[str] = None,
    timeline_dir: Optional[str] = None,
    timeline_window: int = 100,
) -> dict:
    """Run one experiment; the default worker payload.

    Takes and returns plain dicts so the call crosses process
    boundaries with no custom pickling.  With ``metrics_dir`` set, the
    run's full metrics-registry snapshot (see
    :meth:`repro.cmp.CmpSystem.metrics_registry`) is archived there as
    ``<label>_<hash>.json`` before the result is returned.  With
    ``timeline_dir`` set, the run executes under the windowed timeline
    collector (:func:`repro.obs.timeline.timelining`, sampling every
    ``timeline_window`` cycles) and the per-window delta archive lands
    there as ``<label>_<hash>.timeline.jsonl``.  Timeline collection is
    non-perturbing — the result, ``loop`` executed/skipped counts
    included, is bit-identical to an untimelined run.
    """
    from repro.cmp.system import CmpSystem

    point = SweepPoint.from_dict(point_dict)
    system = CmpSystem(point.to_config())
    try:
        if timeline_dir is not None:
            from repro.obs.timeline import timelining

            with timelining(window=timeline_window) as timeline:
                result = system.run(point.cycles).to_dict()
            directory = Path(timeline_dir)
            directory.mkdir(parents=True, exist_ok=True)
            timeline.write_jsonl(directory / timeline_filename(point))
        else:
            result = system.run(point.cycles).to_dict()
        if metrics_dir is not None:
            directory = Path(metrics_dir)
            directory.mkdir(parents=True, exist_ok=True)
            system.metrics_registry().write(directory / metrics_filename(point))
    finally:
        # Freed by reference counting when this frame ends, rather than
        # piling up for the cyclic collector (CmpSystem.close).
        system.close()
    return result


def metrics_filename(point: SweepPoint) -> str:
    """Deterministic per-point metrics archive filename.

    The label keeps the file recognisable; the content-hash suffix
    disambiguates points whose labels coincide (e.g. same grid at two
    cycle counts).
    """
    import hashlib

    digest = hashlib.sha256(
        canonical_json(point.to_dict()).encode()
    ).hexdigest()[:10]
    return f"{point.label().replace('/', '_')}_{digest}.json"


def timeline_filename(point: SweepPoint) -> str:
    """Deterministic per-point timeline archive filename.

    Same stem as :func:`metrics_filename` (label + content hash) so a
    point's metrics snapshot and timeline archive sit side by side.
    """
    return metrics_filename(point)[: -len(".json")] + ".timeline.jsonl"


def _worker(
    point_dict: dict,
    timeout: Optional[float],
    execute: Callable[[dict], dict],
) -> dict:
    """Execute one point under an optional SIGALRM deadline.

    Runs in a worker process (or inline for serial sweeps).  The alarm
    fires inside this process only, so a timeout fails the point
    without poisoning the pool.
    """
    use_alarm = (
        timeout is not None
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if use_alarm:
        def _on_alarm(signum, frame):
            raise PointTimeout(f"point exceeded {timeout:g}s timeout")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return _normalized(execute(point_dict))
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class SweepHeartbeat:
    """A periodic liveness pulse from :func:`run_sweep`.

    Emitted between point completions (every ``heartbeat_interval``
    seconds in the pool path; before each point inline), so a live
    display can show progress even while every worker is deep inside a
    long point.  ``in_flight`` holds the labels of the points most
    likely occupying workers right now: the pool executes submissions
    in index order, so the lowest-index unfinished points are the ones
    on CPUs (an approximation — the pool does not expose true
    per-worker assignment).
    """

    elapsed: float
    done: int
    total: int
    in_flight: tuple[str, ...]
    workers: int


@dataclass
class PointOutcome:
    """What happened to one sweep point."""

    point: SweepPoint
    status: str                       # "ok" | "failed"
    key: str
    result: Optional[dict] = None     # CmpResults.to_dict() shape when ok
    error: Optional[str] = None
    cached: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def cmp_results(self) -> CmpResults:
        if self.result is None:
            raise ValueError(f"point {self.point.label()} has no result")
        return CmpResults.from_dict(self.result)

    def record(self, index: int) -> dict:
        """The JSONL record (deterministic fields only — no timings)."""
        return {
            "index": index,
            "key": self.key,
            "point": self.point.to_dict(),
            "status": self.status,
            "result": self.result,
            "error": self.error,
        }


@dataclass(frozen=True)
class SweepSummary:
    """Summary statistics of one scalar metric across sweep points.

    The paper reports single-run numbers; with stochastic workloads it
    is better to run several seeds and report the spread: mean / min /
    max / 95%-confidence half-width, of any scalar metric or of speedups
    paired by seed (:meth:`SweepReport.paired_speedups` — the same seed
    drives the same workload stream through both networks, so pairing
    removes workload variance).
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("summary of no values")

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def stdev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((v - mean) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% confidence half-width of the mean."""
        if len(self.values) < 2:
            return 0.0
        return 1.96 * self.stdev / math.sqrt(len(self.values))

    def __str__(self) -> str:
        return (
            f"{self.mean:.3f} ± {self.ci95_halfwidth:.3f} "
            f"[{self.minimum:.3f}, {self.maximum:.3f}] (n={self.count})"
        )


@dataclass
class SweepReport:
    """Aggregated outcome of one :func:`run_sweep` call."""

    outcomes: list[PointOutcome]
    wall_seconds: float = 0.0
    workers: int = 1
    jsonl_path: Optional[Path] = None

    # -- counters --------------------------------------------------------

    @property
    def ok(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.ok)

    @property
    def from_cache(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def executed(self) -> int:
        """Points that actually ran the simulator (cache misses)."""
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    # -- fast-forward accounting (docs/performance.md) -------------------

    @property
    def executed_cycles(self) -> int:
        """Cycles the successful points actually ticked through."""
        return sum(
            o.result.get("loop", {}).get("executed_cycles", 0)
            for o in self.outcomes
            if o.ok and o.result is not None
        )

    @property
    def skipped_cycles(self) -> int:
        """Cycles the successful points fast-forwarded past."""
        return sum(
            o.result.get("loop", {}).get("skipped_cycles", 0)
            for o in self.outcomes
            if o.ok and o.result is not None
        )

    @property
    def skip_ratio(self) -> float:
        """Fraction of simulated cycles covered by fast-forward jumps.

        Zero both when nothing skipped and when the loop counters are
        absent (results produced before they existed, e.g. replayed
        from an old cache).
        """
        total = self.executed_cycles + self.skipped_cycles
        return self.skipped_cycles / total if total else 0.0

    # -- result access ---------------------------------------------------

    def results(self) -> list[tuple[SweepPoint, CmpResults]]:
        """(point, results) for every successful point, in sweep order."""
        return [(o.point, o.cmp_results()) for o in self.outcomes if o.ok]

    def result_for(self, **match: Any) -> CmpResults:
        """The unique successful result whose point matches ``match``.

        >>> # report.result_for(app="oc", network="fsoi", seed=1)
        """
        found = [
            o for o in self.outcomes
            if o.ok and all(getattr(o.point, k) == v for k, v in match.items())
        ]
        if not found:
            raise KeyError(f"no successful point matching {match}")
        if len(found) > 1:
            raise KeyError(f"{len(found)} points match {match}; be more specific")
        return found[0].cmp_results()

    def summary(
        self, metric: Callable[[CmpResults], float], **match: Any
    ) -> SweepSummary:
        """Summary statistics of ``metric`` over matching points."""
        values = [
            metric(o.cmp_results())
            for o in self.outcomes
            if o.ok and all(getattr(o.point, k) == v for k, v in match.items())
        ]
        return SweepSummary(tuple(values))

    def paired_speedups(
        self,
        network: str,
        baseline: str,
        metric: str = "ipc",
        optimizations: Any = None,
        faults: Optional[FaultPlan] = None,
    ) -> SweepSummary:
        """Speedup of ``network`` over ``baseline``, paired per point.

        ``network``'s points run with ``optimizations`` under ``faults``
        (default: neither) each pair with the baseline point of the same
        workload stream (:func:`repro.sweep.spec.pair_points`), so
        workload randomness cancels.  Raises ``ValueError`` when no
        point pairs.
        """
        pairs = pair_points(
            [(o.point.to_dict(), o) for o in self.outcomes if o.ok],
            network, baseline, optimizations, faults,
        )
        return SweepSummary(tuple(
            getattr(fast.cmp_results(), metric)
            / getattr(base.cmp_results(), metric)
            for fast, base in pairs
        ))


class _OrderedJsonlWriter:
    """Streams records to disk in point order despite o-o-o completion."""

    def __init__(self, path: Optional[Path]):
        self.path = Path(path) if path else None
        self._handle = None
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "w")
        self._buffer: dict[int, dict] = {}
        self._next = 0

    def add(self, index: int, record: dict) -> None:
        if self._handle is None:
            return
        self._buffer[index] = record
        while self._next in self._buffer:
            line = canonical_json(self._buffer.pop(self._next))
            self._handle.write(line + "\n")
            self._next += 1
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load_jsonl(path, *, strict: bool = True) -> list[dict]:
    """Read back a results file written by :func:`run_sweep`.

    With ``strict=True`` (the default) a malformed line raises
    ``ValueError`` naming the line number.  ``strict=False`` skips
    corrupt or truncated lines — an interrupted sweep leaves at most a
    truncated final record behind, and cross-run ingestion (the
    analytics ledger) wants the surviving records rather than nothing.
    """
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{number}: corrupt JSONL record: {exc}"
                    ) from exc
                continue
            records.append(record)
    return records


def run_sweep(
    spec: Union[SweepSpec, Sequence[SweepPoint]],
    *,
    workers: int = 1,
    cache_dir=None,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    jsonl_path=None,
    metrics_path=None,
    timeline_path=None,
    timeline_window: int = 100,
    code_version: Optional[str] = None,
    execute: Callable[[dict], dict] = execute_point,
    progress: Optional[Callable[[int, int, PointOutcome], None]] = None,
    heartbeat: Optional[Callable[[SweepHeartbeat], None]] = None,
    heartbeat_interval: float = 1.0,
) -> SweepReport:
    """Run every point of ``spec``; returns a :class:`SweepReport`.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` or an explicit point list.
    workers:
        Process count; ``<= 1`` runs inline (no subprocesses).
    cache_dir / cache:
        Enable the on-disk result cache (omit both to always compute).
    timeout:
        Per-point wall-clock limit in seconds; a timed-out point is
        marked failed.
    jsonl_path:
        Stream results here as canonical JSONL, in point order.
    metrics_path:
        Directory in which every *executed* point archives its full
        metrics-registry snapshot (one JSON file per point, named by
        :func:`metrics_filename`).  Cache hits skip the simulator and
        therefore do not write snapshots — archive metrics with the
        cache off, or on the cold pass.  A custom ``execute`` callable
        must accept a ``metrics_dir`` keyword to use this.
    timeline_path:
        Directory in which every *executed* point archives its windowed
        timeline (one JSONL file per point, named by
        :func:`timeline_filename`, sampled every ``timeline_window``
        cycles).  Same cache caveat as ``metrics_path``; a custom
        ``execute`` callable must accept ``timeline_dir`` and
        ``timeline_window`` keywords to use this.
    code_version:
        Override the cache's code-version tag (testing/pinning).
    execute:
        The per-point payload ``dict -> dict`` (default: build the
        ``CmpConfig`` and run :class:`repro.cmp.CmpSystem`).  Must be
        picklable (module-level) when ``workers > 1``.
    progress:
        Called as ``progress(done, total, outcome)`` after each point.
    heartbeat:
        Called with a :class:`SweepHeartbeat` between completions —
        every ``heartbeat_interval`` seconds while worker processes are
        busy, and before each point inline — so a live display (the
        CLI's ``--live`` line, :class:`repro.analytics.SweepTelemetry`)
        stays fresh during long points.
    """
    points = spec.points() if isinstance(spec, SweepSpec) else list(spec)
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir, version=code_version)
    if metrics_path is not None:
        # functools.partial of a module-level callable stays picklable
        # for the process-pool path.
        execute = functools.partial(execute, metrics_dir=str(metrics_path))
    if timeline_path is not None:
        execute = functools.partial(
            execute,
            timeline_dir=str(timeline_path),
            timeline_window=timeline_window,
        )
    started = time.perf_counter()
    writer = _OrderedJsonlWriter(jsonl_path)
    outcomes: list[Optional[PointOutcome]] = [None] * len(points)
    done_count = 0

    def finish(index: int, outcome: PointOutcome) -> None:
        nonlocal done_count
        outcomes[index] = outcome
        writer.add(index, outcome.record(index))
        done_count += 1
        if progress is not None:
            progress(done_count, len(points), outcome)

    def beat(in_flight: Sequence[str]) -> None:
        if heartbeat is not None:
            heartbeat(SweepHeartbeat(
                elapsed=time.perf_counter() - started,
                done=done_count,
                total=len(points),
                in_flight=tuple(in_flight),
                workers=max(1, workers),
            ))

    try:
        pending: list[int] = []
        for index, point in enumerate(points):
            key = _key(point, cache, code_version)
            hit = cache.get(point) if cache else None
            if hit is not None:
                finish(index, PointOutcome(
                    point=point, status="ok", key=key, result=hit, cached=True,
                ))
            else:
                pending.append(index)

        if workers <= 1:
            for index in pending:
                beat((points[index].label(),))
                finish(index, _run_inline(points[index], timeout, execute,
                                          cache, code_version))
        else:
            _run_pool(points, pending, workers, timeout, execute, cache,
                      code_version, finish,
                      beat if heartbeat is not None else None,
                      heartbeat_interval)
    finally:
        writer.close()

    assert all(outcome is not None for outcome in outcomes)
    return SweepReport(
        outcomes=list(outcomes),
        wall_seconds=time.perf_counter() - started,
        workers=max(1, workers),
        jsonl_path=Path(jsonl_path) if jsonl_path else None,
    )


def _key(point: SweepPoint, cache, version: Optional[str]) -> str:
    if cache is not None:
        return cache.key(point)
    from repro.sweep.cache import point_key

    return point_key(point, version)


def _outcome_from_result(point, key, result, cache, elapsed) -> PointOutcome:
    if cache is not None:
        cache.put(point, result, elapsed)
    return PointOutcome(
        point=point, status="ok", key=key, result=result, elapsed=elapsed,
    )


def _failure(point, key, error: str, elapsed: float = 0.0) -> PointOutcome:
    return PointOutcome(
        point=point, status="failed", key=key, error=error, elapsed=elapsed,
    )


def _run_inline(point, timeout, execute, cache, code_version) -> PointOutcome:
    key = _key(point, cache, code_version)
    begin = time.perf_counter()
    try:
        result = _worker(point.to_dict(), timeout, execute)
    except Exception as exc:  # noqa: BLE001 - crash isolation by design
        return _failure(point, key, f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - begin)
    return _outcome_from_result(point, key, result, cache,
                                time.perf_counter() - begin)


def _run_pool(
    points, pending, workers, timeout, execute, cache, code_version,
    finish, beat=None, beat_interval: float = 1.0,
) -> None:
    """Fan ``pending`` point indices over a process pool.

    A worker that dies breaks its pool and fails every point the pool
    still held, so a broken batch blames none of them: each is rerun
    alone in a fresh single-worker pool (``workers`` such pools at a
    time), where a death is the point's own; a point that dies alone
    more than ``_MAX_CRASH_RETRIES`` times is marked failed (a pool
    that breaks with several points in flight charges none of them).
    With ``beat`` set, the completion wait wakes up every
    ``beat_interval`` seconds to emit a heartbeat naming the
    lowest-index in-flight points (the ones occupying workers).
    """
    crashes: dict[int, int] = {}
    alone: list[int] = []
    groups, size = [pending], workers  # first, one pool for every point
    while groups:
        begin = time.perf_counter()
        with contextlib.ExitStack() as stack:
            futures = {}
            for group in groups:
                pool = stack.enter_context(
                    ProcessPoolExecutor(max_workers=size)
                )
                for i in group:
                    futures[pool.submit(
                        _worker, points[i].to_dict(), timeout, execute
                    )] = i
            not_done = set(futures)
            while not_done:
                if beat is not None:
                    running = sorted(futures[f] for f in not_done)[:workers]
                    beat([points[i].label() for i in running])
                done, not_done = wait(
                    not_done,
                    timeout=beat_interval if beat is not None else None,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = futures[future]
                    point = points[index]
                    key = _key(point, cache, code_version)
                    elapsed = time.perf_counter() - begin
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        if size == 1:  # it ran alone: the death is its own
                            crashes[index] = crashes.get(index, 0) + 1
                        if crashes.get(index, 0) > _MAX_CRASH_RETRIES:
                            finish(index, _failure(
                                point, key,
                                "BrokenProcessPool: worker process died",
                                elapsed,
                            ))
                        else:
                            alone.append(index)
                        continue
                    except Exception as exc:  # noqa: BLE001
                        finish(index, _failure(
                            point, key, f"{type(exc).__name__}: {exc}", elapsed,
                        ))
                        continue
                    finish(index, _outcome_from_result(
                        point, key, result, cache, elapsed,
                    ))
        alone.sort()
        groups, alone = [[i] for i in alone[:workers]], alone[workers:]
        size = 1
