"""Address-interleaved, bandwidth-limited memory controllers.

Table 3: 200-cycle memory latency, 4 channels in the 16-node system and
8 in the 64-node system; Table 4 studies 8.8 GB/s versus 52.8 GB/s of
channel bandwidth.  Each controller owns one channel: requests queue,
the channel is occupied for ``line_bytes / bytes_per_cycle`` per
transfer, and a read's data returns ``latency`` cycles plus queuing
after arrival.  Controllers are non-blocking (any number of requests may
be queued) — the bound is bandwidth, not concurrency.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.coherence.messages import (
    MEM_ACK,
    MEM_READ,
    MEM_WRITE,
    CoherenceMessage,
    make_message,
)
from repro.util.stats import StatGroup

__all__ = ["MemoryConfig", "MemoryController"]


@dataclass(frozen=True)
class MemoryConfig:
    """One channel's parameters.

    ``bandwidth_bytes_per_cycle`` derives from GB/s at the 3.3 GHz core
    clock: 8.8 GB/s ~ 2.67 B/cycle; 52.8 GB/s ~ 16 B/cycle.
    """

    latency: int = 200
    bandwidth_bytes_per_cycle: float = 8.8 / 3.3
    line_bytes: int = 32

    @classmethod
    def from_gbps(cls, gbytes_per_second: float, core_ghz: float = 3.3,
                  latency: int = 200, line_bytes: int = 32) -> "MemoryConfig":
        """Build from a GB/s figure (Table 4: 8.8 or 52.8).

        >>> MemoryConfig.from_gbps(8.8).occupancy_cycles
        12
        """
        return cls(
            latency=latency,
            bandwidth_bytes_per_cycle=gbytes_per_second / core_ghz,
            line_bytes=line_bytes,
        )

    @property
    def occupancy_cycles(self) -> int:
        """Channel cycles consumed per line transfer."""
        return max(1, math.ceil(self.line_bytes / self.bandwidth_bytes_per_cycle))


class MemoryController:
    """One memory channel attached to a node.

    Driven by :meth:`handle` (MEM_READ / MEM_WRITE messages); replies
    (MEM_ACK) go out through the supplied ``send``.  The channel is a
    deterministic single server, so a transfer's start cycle is known
    when it is queued: ``schedule(cycle, action)`` files it on the
    system calendar, after every other entry due in that cycle.
    """

    __slots__ = (
        "node", "send", "schedule", "config", "_queue", "_busy_until",
        "stats", "reads", "writes", "queue_wait", "_occupancy",
        "_reply_delay",
    )

    def __init__(
        self,
        node: int,
        send: Callable[[CoherenceMessage, int], None],
        schedule: Callable[[int, Callable[[], None]], None],
        config: Optional[MemoryConfig] = None,
        stats: Optional[StatGroup] = None,
    ):
        self.node = node
        self.send = send
        self.schedule = schedule
        self.config = config or MemoryConfig()
        #: Queued requests with their arrival cycles, in arrival order.
        self._queue: deque[tuple[CoherenceMessage, int]] = deque()
        #: The first cycle a new transfer may start: the filed start's
        #: cycle while the queue is non-empty, else the last one's end.
        self._busy_until = 0
        stats = stats or StatGroup(f"mem.{node}")
        self.stats = stats
        self.reads = stats.counter("reads")
        self.writes = stats.counter("writes")
        self.queue_wait = stats.latency("queue_wait")
        self._occupancy = self.config.occupancy_cycles
        self._reply_delay = self.config.latency + self._occupancy

    def handle(self, msg: CoherenceMessage, cycle: int) -> None:
        mtype = msg.mtype
        if mtype is not MEM_READ and mtype is not MEM_WRITE:
            raise ValueError(f"memory controller got {msg}")
        if not self._queue:
            # A request that crossed the network is delivered after this
            # cycle's starts have run; a local one, from the calendar, before.
            self._busy_until = max(cycle + (msg.sender != self.node), self._busy_until)
            self.schedule(self._busy_until, self._start)
        self._queue.append((msg, cycle))

    def _start(self) -> None:
        """Start the queued head's transfer, at ``_busy_until``."""
        cycle = self._busy_until
        msg, arrival = self._queue.popleft()
        self.queue_wait.record(cycle - arrival)
        self._busy_until = cycle + self._occupancy
        if self._queue:
            self.schedule(self._busy_until, self._start)
        if msg.mtype is MEM_WRITE:
            self.writes.add()
            return  # fire-and-forget
        self.reads.add()
        self.send(
            make_message(
                MEM_ACK, msg.line, self.node, msg.sender, msg.requester
            ),
            self._reply_delay,
        )

    @property
    def pending(self) -> int:
        return len(self._queue)

    def quiescent(self, cycle: int) -> bool:
        return not self._queue and self._busy_until <= cycle
