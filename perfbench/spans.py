"""Benchmark-side spans: name, start, end, and the span that caused it.

Spans are recorded from the benchmark's own files, around the calls into
each layer of ``repro``; nothing inside the program is instrumented.  They
are kept in memory as plain dicts and written to the result JSON when the
run ends.  Timestamps are ``time.perf_counter()`` readings, which on Linux
is ``CLOCK_MONOTONIC`` and therefore comparable between a sweep's parent
process and its pool workers.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

__all__ = ["SpanLog", "children_of", "malformed", "seconds", "self_seconds"]


class SpanLog:
    """An in-memory list of spans with a stack for the current parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Time a block; the innermost open span becomes its parent."""
        record = self._open(name, perf_counter(), attrs)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = perf_counter()

    def add(self, name: str, start: float, end: float, parent=None, **attrs) -> dict:
        """Record a span timed elsewhere (another process, a hot loop)."""
        record = self._open(name, start, attrs, parent)
        record["end"] = end
        return record

    def _open(self, name, start, attrs, parent=None) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "start": start, "end": None, **attrs}
        self.spans.append(record)
        return record


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


def children_of(spans: list[dict]) -> dict:
    """Map span id (``None`` for roots) to its direct children."""
    out: dict = {}
    for span in spans:
        out.setdefault(span["parent"], []).append(span)
    return out


def self_seconds(span: dict, children: list[dict]) -> float:
    """Duration minus the part of the interval the children cover.

    Children may overlap one another (pool workers run in parallel), so
    the covered part is the measure of the union of their intervals.
    """
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], reach)
        if child["end"] > start:
            covered += child["end"] - start
            reach = child["end"]
    return seconds(span) - covered


def malformed(spans: list[dict]) -> list[str]:
    """Reasons the span list is not a well-formed forest (empty = fine)."""
    problems = []
    by_id = {span["id"]: span for span in spans}
    tree = children_of(spans)
    for span in spans:
        label = f"{span['name']}#{span['id']}"
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"{label}: not closed")
            continue
        parent = by_id.get(span["parent"])
        if span["parent"] is not None and parent is None:
            problems.append(f"{label}: unknown parent {span['parent']}")
        elif parent is not None and not (
            parent["start"] <= span["start"] and span["end"] <= parent["end"]
        ):
            problems.append(f"{label}: outside parent {parent['name']}")
        # A nanosecond of slack for the rounding of the interval sums.
        if self_seconds(span, tree.get(span["id"], [])) < -1e-9:
            problems.append(f"{label}: negative self time")
    return problems
