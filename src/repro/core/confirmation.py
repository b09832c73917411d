"""The confirmation channel (paper §4.3.2 and §5.1).

Each node dedicates a single-VCSEL lane to *confirmations*: upon
receiving an uncorrupted packet in cycle ``n``, the receiver beams a
confirmation back to the sender in cycle ``n + 2`` (one cycle for
decoding and error checking).  By construction confirmations never
collide: a node sends at most one packet per lane per slot, so it
receives at most one confirmation per lane per cycle.

Most confirmations are heard by nothing but the sender's transmit
logic, which the network already resolved when it filed the delivery:
only a packet with an ``on_confirmed`` hook (§5.1's confirmation-acked
invalidations) runs code on arrival.  A confirmation nothing hears
still occupies the channel until it arrives — the network is not
quiescent and the fast-forward horizon stops there — so the channel
keeps its arrival cycle, a bare int in a heap beside the calendar.

§5.1 additionally exploits the channel's *mini-cycles*: each CPU cycle
contains 12 communication cycles (40 Gbps vs 3.3 GHz), so the directory
can convey a single bit (a load-linked value, a store-conditional
outcome, a barrier release) positionally in a reserved mini-cycle — no
packet, no collision, minimal latency.  The simulator models such a bit
as a fixed-delay signal (:meth:`ConfirmationChannel.send_signal`, at the
channel's confirmation delay) with no reservation table.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional

from repro.obs.trace import TRACE
from repro.util.events import CycleCalendar

__all__ = ["ConfirmationChannel"]


class ConfirmationChannel:
    """Schedules confirmation (and piggy-backed hint/bit) deliveries.

    The channel is ideal by construction — no collisions, fixed delay —
    so it is modeled as a calendar of ``(cycle, callback)`` deliveries
    for the arrivals something hears, and a heap of bare arrival cycles
    (``_unheard``) for the confirmations nothing hears.  Both count as
    pending until their cycle is ticked, and both bound the horizon.
    """

    def __init__(self, num_nodes: int, delay: int = 2):
        if delay < 1:
            raise ValueError(f"confirmation delay must be >= 1: {delay}")
        self.num_nodes = num_nodes
        self.delay = delay
        self._calendar = CycleCalendar()
        # Arrival cycles of the confirmations nothing hears, a heap.  The
        # list is only ever mutated in place (owners may cache it).
        self._unheard: list[int] = []
        self.confirmations_sent = 0
        self.signals_sent = 0
        #: Confirmations lost to injected faults (repro.faults); such a
        #: confirmation is never scheduled, so the sender times out.
        self.confirmations_dropped = 0

    def send_confirmation(
        self, cycle_received: int, action: Optional[Callable[[], None]]
    ) -> int:
        """Queue a confirmation for a packet received at ``cycle_received``.

        ``action`` runs at the sender when the confirmation arrives;
        ``None`` files only the arrival cycle.  Returns the arrival cycle
        (``cycle_received + delay``).
        """
        arrival = cycle_received + self.delay
        if action is None:
            heappush(self._unheard, arrival)
        else:
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
        unheard = self._unheard
        while unheard and unheard[0] <= cycle:
            heappop(unheard)
        self._calendar.run_due(cycle)

    def next_event(self, cycle: int) -> Optional[int]:
        """Fast-forward horizon: the earliest pending arrival, if any.

        Arrivals are scheduled ``delay >= 1`` cycles ahead, so neither
        heap top is ever in the past relative to the network's tick.
        """
        horizon = self._calendar.next_cycle()
        unheard = self._unheard
        if unheard and (horizon is None or unheard[0] < horizon):
            return unheard[0]
        return horizon

    def pending(self) -> int:
        """Number of queued arrivals, heard or not (for drain checks)."""
        return len(self._calendar) + len(self._unheard)
