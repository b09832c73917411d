"""The confirmation channel (paper §4.3.2 and §5.1).

Each node dedicates a single-VCSEL lane to *confirmations*: upon
receiving an uncorrupted packet in cycle ``n``, the receiver beams a
confirmation back to the sender in cycle ``n + 2`` (one cycle for
decoding and error checking).  By construction confirmations never
collide: a node sends at most one packet per lane per slot, so it
receives at most one confirmation per lane per cycle.

§5.1 additionally exploits the channel's *mini-cycles*: each CPU cycle
contains 12 communication cycles (40 Gbps vs 3.3 GHz), so the directory
can convey a single bit (a load-linked value, a store-conditional
outcome, a barrier release) positionally in a reserved mini-cycle — no
packet, no collision, minimal latency.  The simulator models such a bit
as a fixed-delay signal (:meth:`ConfirmationChannel.send_signal`, at the
channel's confirmation delay) with no reservation table.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.trace import TRACE
from repro.util.events import CycleCalendar

__all__ = ["ConfirmationChannel"]


class ConfirmationChannel:
    """Schedules confirmation (and piggy-backed hint/bit) deliveries.

    The channel is ideal by construction — no collisions, fixed delay —
    so it is modeled as a calendar of (cycle, callback) deliveries.
    """

    def __init__(self, num_nodes: int, delay: int = 2):
        if delay < 1:
            raise ValueError(f"confirmation delay must be >= 1: {delay}")
        self.num_nodes = num_nodes
        self.delay = delay
        self._calendar = CycleCalendar()
        self.confirmations_sent = 0
        self.signals_sent = 0
        #: Confirmations lost to injected faults (repro.faults); such a
        #: confirmation is never scheduled, so the sender times out.
        self.confirmations_dropped = 0

    def send_confirmation(
        self, cycle_received: int, action: Callable[[], None]
    ) -> int:
        """Queue a confirmation for a packet received at ``cycle_received``.

        ``action`` runs at the sender when the confirmation arrives.
        Returns the arrival cycle (``cycle_received + delay``).
        """
        arrival = cycle_received + self.delay
        self._calendar.schedule(arrival, action)
        self.confirmations_sent += 1
        if TRACE.enabled:
            TRACE.emit(
                "confirm_scheduled", cat="confirmation",
                cycle=cycle_received, arrival=arrival,
            )
        return arrival

    def send_signal(self, now: int, action: Callable[[], None]) -> int:
        """Queue a §5.1 positional one-bit signal (same fixed latency)."""
        arrival = now + self.delay
        self._calendar.schedule(arrival, action)
        self.signals_sent += 1
        if TRACE.enabled:
            TRACE.emit(
                "signal_scheduled", cat="confirmation",
                cycle=now, arrival=arrival,
            )
        return arrival

    def record_dropped(self, cycle_received: int) -> None:
        """Count a confirmation lost to an injected fault.

        The channel is collision-free by construction, so drops only
        happen under a :class:`repro.faults.FaultPlan`; the caller (the
        network) decides the drop and simply never schedules the
        delivery.
        """
        self.confirmations_dropped += 1
        if TRACE.enabled:
            TRACE.emit(
                "confirm_dropped", cat="fault", cycle=cycle_received,
            )

    def tick(self, cycle: int) -> None:
        """Deliver everything due at ``cycle``."""
        self._calendar.run_due(cycle)

    def next_event(self, cycle: int) -> Optional[int]:
        """Fast-forward horizon: the earliest pending arrival, if any.

        Arrivals are scheduled ``delay >= 1`` cycles ahead, so the heap
        top is never in the past relative to the network's tick.
        """
        return self._calendar.next_cycle()

    def pending(self) -> int:
        """Number of queued deliveries (for drain checks)."""
        return len(self._calendar)
