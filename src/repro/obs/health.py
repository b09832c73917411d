"""Invariant and anomaly watchdogs over the timeline and live system.

Simulation bugs and injected faults share a failure vocabulary:
progress stops, retries spin without deliveries, counters leak, or the
message ledger stops balancing.  The detectors here turn those shapes
into structured :class:`HealthEvent` records:

* **starvation** — zero instruction retirements across ``K``
  consecutive windows (livelock, a dead lane starving the cores, a
  scheduling bug).
* **backoff_storm** — either the measured per-node-slot collision rate
  rises above the Fig-3 closed-form band
  (:func:`repro.core.analytical.collision_probability`, with a margin
  and a minimum-event floor so single-collision noise in quiet windows
  never alarms), or packets sit outstanding across ``K`` consecutive
  zero-delivery windows — retransmission/backoff spinning without
  progress.
* **audit** — the transport's own self-check,
  :meth:`~repro.net.interface.Interconnect.audit`, failed: deliveries
  exceed sends on any network; on FSOI a lane's pending set is not the
  nodes holding packets, or the per-lane transmission fates stop
  balancing (the no-silent-loss law of §4.3.1); on the mesh a router's
  occupancy summaries or VC ownership disagree with its buffers.
* **counter_leak** — a stat counter has gone negative.

The watchdogs are pure readers: they never mutate simulator state, so
checking health cannot perturb a run.  ``repro run --health`` prints
the report, ``--strict-health`` makes the command exit 1 when any
detector fired, and the fault-injection suite cross-checks both
directions — injected faults must trip detectors, clean runs must not
(``tests/obs/test_health.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

__all__ = [
    "HealthEvent",
    "check_health",
    "detect_audit",
    "detect_backoff_storm",
    "detect_counter_leak",
    "detect_starvation",
    "render_health",
]


@dataclass(frozen=True)
class HealthEvent:
    """One watchdog finding.

    ``detector`` names the watchdog, ``severity`` is ``"warning"`` or
    ``"critical"``, ``cycle`` anchors the finding in simulated time
    (the end of the offending window, or the run end for end-state
    invariants), and ``data`` carries the detector-specific evidence.
    """

    detector: str
    severity: str
    cycle: int
    message: str
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "cycle": self.cycle,
            "message": self.message,
            "data": dict(self.data),
        }


# Detector thresholds, tuned on the seeded 16-node apps.

#: Consecutive zero-retirement windows before starvation fires.
STARVATION_WINDOWS = 3
#: Consecutive zero-delivery windows with a positive outstanding
#: backlog before the backoff-storm (retry-stall) facet fires.
STORM_WINDOWS = 3
#: Measured collision rate must exceed the closed form by this factor
#: before the band facet fires.
COLLISION_MARGIN = 3.0
#: ... and the window must hold at least this many collision events
#: (quiet windows produce 1-3 event noise spikes).
MIN_COLLISION_EVENTS = 10
#: Leading windows exempt from the band facet: the cold-start burst
#: (every node injecting its first requests on the same cycle) is
#: *correlated* traffic, legitimately above the independent-Bernoulli
#: closed form.
WARMUP_WINDOWS = 1


# -- timeline access -------------------------------------------------------


def _series(timeline: Any, path: str) -> Optional[np.ndarray]:
    """Per-window deltas for ``path``; None when it was not sampled.

    Accepts a live :class:`~repro.obs.timeline.TimelineCollector` or
    the dict form :func:`~repro.obs.timeline.load_timeline_jsonl`
    returns, so archived timelines get the same watchdogs.
    """
    if isinstance(timeline, dict):
        paths = timeline["meta"]["paths"]
        if path not in paths:
            return None
        column = paths.index(path)
        rows = np.asarray(timeline["deltas"], dtype=np.float64)
        if rows.size == 0:
            return np.zeros(0)
        return rows[:, column]
    try:
        return timeline.series(path)
    except KeyError:
        return None


def _cycles(timeline: Any) -> np.ndarray:
    if isinstance(timeline, dict):
        return np.asarray(timeline["cycles"], dtype=np.int64)
    return timeline.cycles()


def _runs_of(mask: np.ndarray, min_len: int) -> list[tuple[int, int]]:
    """Maximal ``[start, end)`` index runs of True at least min_len long."""
    runs: list[tuple[int, int]] = []
    start: Optional[int] = None
    for index, flag in enumerate(mask):
        if flag and start is None:
            start = index
        elif not flag and start is not None:
            if index - start >= min_len:
                runs.append((start, index))
            start = None
    if start is not None and len(mask) - start >= min_len:
        runs.append((start, len(mask)))
    return runs


# -- windowed detectors ----------------------------------------------------


def detect_starvation(timeline: Any) -> list[HealthEvent]:
    """Livelock/starvation: K consecutive windows of zero progress.

    A starved window retires no instructions *and* delivers no packets.
    Both conditions matter: a straggler core blocked on a long memory
    miss chain parks every other core at a barrier for hundreds of
    cycles — zero retirements — but its miss traffic keeps deliveries
    non-zero, so legitimate sync phases never alarm (measured across
    every app x network x seed in the clean-run suite).  One event per
    maximal starved stretch, anchored at the cycle where it ended.
    """
    instructions = _series(timeline, "run.instructions")
    if instructions is None or len(instructions) == 0:
        return []
    starved = instructions == 0
    delivered = _series(timeline, "network.packets_delivered")
    if delivered is not None:
        starved &= delivered == 0
    cycles = _cycles(timeline)
    events = []
    for start, end in _runs_of(starved, STARVATION_WINDOWS):
        first = int(cycles[start - 1]) if start else None
        events.append(
            HealthEvent(
                detector="starvation",
                severity="critical",
                cycle=int(cycles[end - 1]),
                message=(
                    f"no retirements and no deliveries across {end - start} "
                    f"consecutive windows (cycles "
                    f"{first if first is not None else 'start'}"
                    f"..{int(cycles[end - 1])})"
                ),
                data={"windows": int(end - start), "from_cycle": first},
            )
        )
    return events


def detect_backoff_storm(
    timeline: Any,
    *,
    num_nodes: Optional[int] = None,
    receivers: Any = 2,
) -> list[HealthEvent]:
    """Collision/retry storms, two facets.

    **Band**: a window's measured collisions per node-slot exceed the
    Fig-3 closed form for its measured transmission probability by
    :data:`COLLISION_MARGIN` x (with at least
    :data:`MIN_COLLISION_EVENTS` events, so quiet-window shot noise never alarms).  Correlated
    retries are exactly what pushes a slotted channel above the
    independent-Bernoulli band.

    **Retry stall**: the packet ledger shows an outstanding backlog
    (``sent > delivered + gave_up``) across :data:`STORM_WINDOWS`
    consecutive windows with zero deliveries — packets stuck in
    backoff/retransmission making no progress (a dark lane, a runaway
    backoff window).
    """
    events: list[HealthEvent] = []
    cycles = _cycles(timeline)
    if num_nodes is None:
        meta = timeline["meta"] if isinstance(timeline, dict) else timeline.meta
        num_nodes = int(meta.get("num_nodes", 0)) or None

    # Facet 1: collision rate above the closed-form band (per lane).
    if num_nodes:
        from repro.core.analytical import collision_probability

        for lane in ("meta", "data"):
            lane_receivers = (
                receivers.get(lane, 2)
                if isinstance(receivers, dict)
                else receivers
            )
            tx = _series(timeline, f"network.{lane}.transmissions")
            coll = _series(timeline, f"network.{lane}.collision_events")
            slots = _series(timeline, f"network.{lane}.slots_elapsed")
            if tx is None or coll is None or slots is None:
                continue
            for index in range(WARMUP_WINDOWS, len(cycles)):
                node_slots = slots[index] * num_nodes
                if (
                    node_slots <= 0
                    or coll[index] < MIN_COLLISION_EVENTS
                ):
                    continue
                p = tx[index] / node_slots
                expected = collision_probability(
                    p, num_nodes=num_nodes, receivers=lane_receivers
                )
                measured = coll[index] / node_slots
                if measured > COLLISION_MARGIN * max(expected, 1e-12):
                    events.append(
                        HealthEvent(
                            detector="backoff_storm",
                            severity="warning",
                            cycle=int(cycles[index]),
                            message=(
                                f"{lane} collision rate "
                                f"{measured:.3g}/node-slot exceeds "
                                f"{COLLISION_MARGIN:g}x the Fig-3 "
                                f"band ({expected:.3g} at p={p:.3g})"
                            ),
                            data={
                                "lane": lane,
                                "measured": float(measured),
                                "expected": float(expected),
                                "tx_probability": float(p),
                                "collision_events": int(coll[index]),
                            },
                        )
                    )

    # Facet 2: outstanding packets starved of delivery.
    sent = _series(timeline, "network.packets_sent")
    delivered = _series(timeline, "network.packets_delivered")
    if sent is not None and delivered is not None and len(sent):
        gave_up = _series(timeline, "network.fault.gave_up_lost")
        lost = np.cumsum(gave_up) if gave_up is not None else 0.0
        backlog = np.cumsum(sent) - np.cumsum(delivered) - lost
        stalled = (delivered == 0) & (backlog > 0)
        for start, end in _runs_of(stalled, STORM_WINDOWS):
            events.append(
                HealthEvent(
                    detector="backoff_storm",
                    severity="critical",
                    cycle=int(cycles[end - 1]),
                    message=(
                        f"{int(backlog[end - 1])} packet(s) outstanding "
                        f"with zero deliveries across {end - start} "
                        f"consecutive windows"
                    ),
                    data={
                        "windows": int(end - start),
                        "backlog": int(backlog[end - 1]),
                    },
                )
            )
    return events


# -- end-state invariants --------------------------------------------------


def detect_audit(system: Any) -> list[HealthEvent]:
    """The transport's own self-check, as one critical event.

    Runs ``system.network.audit()``; an ``AssertionError`` becomes an
    ``audit`` event whose message is the exception text, or — for a
    bare ``assert`` — the failing source line.
    """
    try:
        system.network.audit()
    except AssertionError as exc:
        message = str(exc)
        if not message:
            import traceback

            message = traceback.extract_tb(exc.__traceback__)[-1].line
        return [
            HealthEvent(
                detector="audit",
                severity="critical",
                cycle=int(system.cycle),
                message=message,
            )
        ]
    return []


def detect_counter_leak(system: Any) -> list[HealthEvent]:
    """Any negative stat counter in the metrics tree is a leak (a
    decrement without its increment)."""
    events: list[HealthEvent] = []
    cycle = int(system.cycle)
    for path, value in system.metrics_registry().flatten().items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if value < 0:
                events.append(
                    HealthEvent(
                        detector="counter_leak",
                        severity="critical",
                        cycle=cycle,
                        message=f"negative counter {path} = {value}",
                        data={"path": path, "value": value},
                    )
                )
    return events


# -- the monitor entry point ----------------------------------------------


def check_health(system: Any = None, timeline: Any = None) -> list[HealthEvent]:
    """Run every applicable detector; events sorted by (cycle, detector).

    ``system`` enables the end-state invariants, ``timeline`` (a live
    collector or a loaded JSONL dict) the windowed detectors; either
    may be omitted.
    """
    events: list[HealthEvent] = []
    if timeline is not None:
        num_nodes = None
        receivers: Any = 2
        if system is not None:
            num_nodes = system.config.num_nodes
            lanes = getattr(getattr(system.network, "config", None), "lanes", None)
            if lanes is not None:
                receivers = {
                    "meta": lanes.meta_receivers,
                    "data": lanes.data_receivers,
                }
        events.extend(detect_starvation(timeline))
        events.extend(
            detect_backoff_storm(timeline, num_nodes=num_nodes, receivers=receivers)
        )
    if system is not None:
        events.extend(detect_audit(system))
        events.extend(detect_counter_leak(system))
    return sorted(events, key=lambda e: (e.cycle, e.detector, e.message))


def render_health(events: Sequence[HealthEvent]) -> str:
    """Human-readable report (``repro run --health`` / ``repro top``)."""
    if not events:
        return "health: OK (no events)\n"
    lines = [f"health: {len(events)} event(s)"]
    for event in events:
        lines.append(
            f"  [{event.severity:8s}] cycle {event.cycle:>8d} "
            f"{event.detector}: {event.message}"
        )
    return "\n".join(lines) + "\n"
