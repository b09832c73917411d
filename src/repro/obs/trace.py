"""Ring-buffered structured event tracing (chrome://tracing compatible).

The simulator's trace points all follow one pattern::

    from repro.obs.trace import TRACE
    ...
    if TRACE.enabled:
        TRACE.emit("collision", cat="fsoi", cycle=cycle, node=dst,
                   lane=lane.value, senders=[p.src for p in packets])

The ``if TRACE.enabled`` guard is the *entire* disabled-path cost: one
attribute load and a branch.  Tracing is therefore compiled into every
hot loop unconditionally; see ``tests/obs/test_overhead.py`` for the
micro-benchmark that keeps this promise honest.

Events live in a bounded ring (:class:`collections.deque` with
``maxlen``), so a trace of an arbitrarily long run costs bounded
memory; the oldest events are dropped and counted.  Export is JSONL —
one trace-event object per line — in the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and Perfetto: instants carry
``ph: "i"``, spans ``ph: "X"`` with a ``dur``.  Cycle numbers map to
the ``ts`` (microsecond) axis one-to-one.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

__all__ = [
    "CATEGORIES",
    "TRACE",
    "TraceEvent",
    "Tracer",
    "tracing",
    "validate_event",
    "validate_trace_file",
]

#: The categories the simulator's trace points emit; ``repro trace
#: --categories`` accepts these names only.
CATEGORIES = ("backoff", "coherence", "confirmation", "fault", "fsoi", "loop", "mesh")

#: Fields every exported trace event must carry (trace-event format).
#: Note the simulation loop's fast-forward engine stays enabled under
#: tracing: a jump over idle cycles is recorded as one ``fast_forward``
#: span (cat "loop", ph "X", dur = cycles skipped) rather than being
#: inhibited, so traced runs remain cycle-identical to untraced ones.
REQUIRED_KEYS = ("name", "cat", "ph", "ts", "pid", "tid")

#: Phases the exporters produce: instant events, complete spans, and
#: counter tracks ("C" — per-window timeline deltas merged in by
#: ``repro trace --timeline``; see repro.obs.timeline.counter_events).
VALID_PHASES = ("i", "X", "C")


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace event.

    ``cycle`` is the simulated cycle the event refers to (exported as
    the trace timestamp).  ``node`` / ``lane`` / ``packet`` are the
    filterable identity dimensions; whatever else a trace point wants
    to record rides in ``args``.
    """

    name: str
    cat: str
    cycle: int
    node: Optional[int] = None
    lane: Optional[str] = None
    packet: Optional[int] = None
    dur: Optional[int] = None      # span length in cycles (ph "X")
    args: dict = field(default_factory=dict)

    @property
    def ph(self) -> str:
        return "i" if self.dur is None else "X"

    def to_chrome(self) -> dict:
        """The chrome://tracing trace-event object for this event."""
        args: dict[str, Any] = {}
        if self.packet is not None:
            args["packet"] = self.packet
        args.update(self.args)
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat,
            "ph": self.ph,
            "ts": self.cycle,
            "pid": self.node if self.node is not None else 0,
            "tid": self.lane if self.lane is not None else self.cat,
            "args": args,
        }
        if self.dur is not None:
            out["dur"] = self.dur
        else:
            out["s"] = "t"  # instant scope: thread
        return out


class Tracer:
    """A ring buffer of :class:`TraceEvent`, with a global on/off switch.

    Parameters
    ----------
    capacity:
        Maximum retained events; older events are dropped (and counted
        in :attr:`dropped`) once the ring is full.
    categories:
        Optional allow-list of categories; events outside it are
        discarded at emit time (cheaply, before construction of the
        event object's args reaches the ring).
    """

    def __init__(
        self,
        capacity: int = 65536,
        categories: Optional[Iterable[str]] = None,
    ):
        if capacity < 1:
            raise ValueError(f"trace capacity must be >= 1: {capacity}")
        self.enabled = False
        #: Current simulated cycle, maintained by the tick loops so
        #: trace points without direct cycle context (e.g. the back-off
        #: policy's window draws) can still stamp their events.
        self.cycle = 0
        self.capacity = capacity
        self.categories = frozenset(categories) if categories else None
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0

    # -- emission ------------------------------------------------------

    def emit(
        self,
        name: str,
        *,
        cat: str,
        cycle: Optional[int] = None,
        node: Optional[int] = None,
        lane: Optional[str] = None,
        packet: Optional[int] = None,
        dur: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record one event (call only behind an ``enabled`` guard)."""
        if self.categories is not None and cat not in self.categories:
            return
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(
            TraceEvent(
                name=name,
                cat=cat,
                cycle=self.cycle if cycle is None else cycle,
                node=node,
                lane=lane,
                packet=packet,
                dur=dur,
                args=args,
            )
        )
        self.emitted += 1

    def clear(self) -> None:
        self._ring.clear()
        self.emitted = 0
        self.dropped = 0
        self.cycle = 0

    def __len__(self) -> int:
        return len(self._ring)

    # -- filtered access -----------------------------------------------

    def events(
        self,
        *,
        cat: Optional[str] = None,
        name: Optional[str] = None,
        node: Optional[int] = None,
        lane: Optional[str] = None,
        packet: Optional[int] = None,
    ) -> Iterator[TraceEvent]:
        """Retained events matching every given filter dimension."""
        for event in self._ring:
            if cat is not None and event.cat != cat:
                continue
            if name is not None and event.name != name:
                continue
            if node is not None and event.node != node:
                continue
            if lane is not None and event.lane != lane:
                continue
            if packet is not None and event.packet != packet:
                continue
            yield event

    def category_counts(self) -> dict[str, int]:
        """Retained events per category (for trace summaries)."""
        counts: dict[str, int] = {}
        for event in self._ring:
            counts[event.cat] = counts.get(event.cat, 0) + 1
        return dict(sorted(counts.items()))

    # -- export --------------------------------------------------------

    def write_jsonl(
        self, path, *, extra: Optional[Iterable[dict]] = None, **filters: Any
    ) -> int:
        """Write matching events as trace-event JSONL; returns the count.

        One JSON object per line, each a complete, schema-valid
        trace event — the stream format ``repro trace`` emits and
        :func:`validate_trace_file` checks.  ``extra`` appends
        ready-made trace-event dicts (e.g. the timeline's counter
        events) after the ring's events, merging both streams into one
        file chrome://tracing loads directly.
        """
        count = 0
        with open(path, "w") as handle:
            for event in self.events(**filters):
                handle.write(json.dumps(event.to_chrome(), sort_keys=True))
                handle.write("\n")
                count += 1
            for event in extra or ():
                handle.write(json.dumps(event, sort_keys=True))
                handle.write("\n")
                count += 1
        return count

    def write_chrome_json(
        self, path, *, extra: Optional[Iterable[dict]] = None, **filters: Any
    ) -> int:
        """Write a ``{"traceEvents": [...]}`` object (chrome://tracing).

        The JSONL form round-trips into this shape via
        ``{"traceEvents": [json.loads(l) for l in open(p)]}``; this
        helper just saves the step for direct loading.  ``extra``
        merges ready-made trace-event dicts as in :meth:`write_jsonl`.
        """
        events = [event.to_chrome() for event in self.events(**filters)]
        events.extend(extra or ())
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle, sort_keys=True)
            handle.write("\n")
        return len(events)


#: The process-global tracer every instrumentation site guards on.
TRACE = Tracer()


@contextmanager
def tracing(
    capacity: int = 65536, categories: Optional[Iterable[str]] = None
):
    """Enable the global tracer for a block.

    Entry clears the buffer and switches :data:`TRACE` on; exit
    restores the previous enabled state and category filter but keeps
    the collected events, so the yielded tracer can still be queried
    and exported after the block::

        with tracing() as t:
            CmpSystem(config).run(cycles)
        t.write_jsonl("trace.jsonl")

    Nested ``tracing`` blocks are not supported (the inner block would
    clear the outer block's events).
    """
    if capacity < 1:
        raise ValueError(f"trace capacity must be >= 1: {capacity}")
    previous_enabled = TRACE.enabled
    TRACE.enabled = True
    TRACE.cycle = 0
    TRACE.capacity = capacity
    TRACE.categories = frozenset(categories) if categories else None
    TRACE._ring = deque(maxlen=capacity)
    TRACE.emitted = 0
    TRACE.dropped = 0
    try:
        yield TRACE
    finally:
        TRACE.enabled = previous_enabled


# -- schema validation ----------------------------------------------------


def validate_event(event: dict) -> None:
    """Raise ``ValueError`` unless ``event`` is a valid trace event."""
    if not isinstance(event, dict):
        raise ValueError(f"trace event is not an object: {event!r}")
    for key in REQUIRED_KEYS:
        if key not in event:
            raise ValueError(f"trace event missing {key!r}: {event!r}")
    if not isinstance(event["name"], str) or not event["name"]:
        raise ValueError(f"trace event name must be a non-empty string: {event!r}")
    if not isinstance(event["cat"], str) or not event["cat"]:
        raise ValueError(f"trace event cat must be a non-empty string: {event!r}")
    if event["ph"] not in VALID_PHASES:
        raise ValueError(f"unsupported trace phase {event['ph']!r}: {event!r}")
    if not isinstance(event["ts"], (int, float)):
        raise ValueError(f"trace event ts must be numeric: {event!r}")
    if not isinstance(event["pid"], int):
        raise ValueError(f"trace event pid must be an int: {event!r}")
    if event["ph"] == "X":
        if not isinstance(event.get("dur"), (int, float)):
            raise ValueError(f"span event needs a numeric dur: {event!r}")
    if "args" in event and not isinstance(event["args"], dict):
        raise ValueError(f"trace event args must be an object: {event!r}")
    if event["ph"] == "C":
        args = event.get("args")
        if not args:
            raise ValueError(f"counter event needs non-empty args: {event!r}")
        for key, value in args.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"counter series {key!r} must be numeric: {event!r}"
                )


def validate_trace_file(path) -> int:
    """Validate a JSONL trace file; returns the number of events.

    Every line must parse as JSON and pass :func:`validate_event`.
    Raises ``ValueError`` (with the offending line number) otherwise.
    """
    count = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            try:
                validate_event(event)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            count += 1
    if count == 0:
        raise ValueError(f"{path}: empty trace (no events)")
    return count
