"""The cycle calendar: ``(cycle, action)`` entries run in cycle order.

The reproduction uses a hybrid simulation style, mirroring the paper's
simulator ("all memory transactions are modeled using an event-driven
framework"): clocked subsystems tick once per processor cycle inside
``CmpSystem``'s loop, and long-latency asynchronous activities — local
completions, delayed sends, FSOI transmission outcomes and
confirmations — are filed on a :class:`CycleCalendar` and run when
their cycle comes up.  Its earliest pending cycle is also what the
fast-forward loop reads to know how far it may jump.

Determinism: actions filed for the same cycle run in insertion order
(a monotone sequence number breaks heap ties), so a run is a pure
function of (config, seed); :meth:`CycleCalendar.schedule_last`
entries run after all of those, in rank order.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["CycleCalendar"]

#: The heap key offset of :meth:`CycleCalendar.schedule_last` entries,
#: above any sequence number a run reaches.
_LAST = 1 << 62


class CycleCalendar:
    """A heap-backed ``(cycle, action)`` calendar for the tick loops.

    The simulator's hot loops used to keep ``dict[int, list]`` calendars
    popped at every cycle; the dict made "earliest pending cycle" an O(n)
    scan, which the fast-forward engine needs at every step.  This class
    is the lean replacement: a binary heap of ``(cycle, seq, action)``
    tuples, where the monotone ``seq`` preserves insertion order within
    a cycle — actions due at the same cycle run exactly as the dict ran
    them.  There are no cancellable handles and no per-event objects;
    the entries are bare tuples.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        # The heap list is created once and only ever mutated in place,
        # so an owner on a per-cycle path may cache a reference to it
        # and guard `run_due` behind `heap and heap[0][0] <= cycle` —
        # the guard is several times cheaper than the call it saves.
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def schedule(self, cycle: int, action: Callable[[], None]) -> None:
        """File ``action`` to run at ``cycle``."""
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, action))

    def schedule_last(self, rank: int, cycle: int, action: Callable[[], None]) -> None:
        """File ``action`` to run at ``cycle`` after every :meth:`schedule`
        entry due then, even one filed during that cycle's sweep; entries
        filed this way for one cycle run in ``rank`` order."""
        heapq.heappush(self._heap, (cycle, _LAST + rank, action))

    def next_cycle(self) -> int | None:
        """Earliest pending cycle, or ``None`` when empty — O(1)."""
        return self._heap[0][0] if self._heap else None

    def run_due(self, cycle: int) -> None:
        """Run every action due at or before ``cycle``, in (cycle, seq)
        order.  Actions scheduled *during* the sweep at a due cycle run
        in the same sweep (the callers all schedule strictly forward)."""
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            heapq.heappop(heap)[2]()

