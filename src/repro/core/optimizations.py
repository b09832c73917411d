"""The §5 optimizations: switches and receiver-side machinery.

Four mechanisms, each independently switchable so the ablation benches
(Figures 9/10) can isolate their effect:

* **confirmation_ack** (§5.1) — the confirmation of an invalidation's
  delivery doubles as the acknowledgment, eliminating explicit ack
  packets.  Implemented in the coherence layer; the flag lives here.
* **llsc_subscription** (§5.1) — boolean synchronization variables are
  disseminated as single bits over reserved confirmation mini-cycles
  (an update protocol for lock words).  Implemented by the CMP system
  as one-bit release signals over the confirmation lane
  (:meth:`repro.core.network.FsoiNetwork.send_signal`).
* **request_spacing** (§5.2) — a requester predicts the data-lane slot
  its reply will land in and reserves it at its own receiver; if the
  slot is taken it delays issuing the request, trading a small
  scheduling delay for fewer data collisions.
* **resolution_hints** (§5.2) — on a data-lane collision the receiver
  guesses the colliding senders (PID/~PID superset intersected with the
  nodes it expects replies from), beams a next-slot grant to one winner
  over the confirmation channel, and the losers back off from the slot
  after next.
* **split_writeback** (§5.2) — writeback data is announced with a meta
  packet first so the home node can expect (and schedule around) the
  data packet, minimizing *unexpected* data arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OptimizationConfig", "SlotReservations", "ExpectedReplies"]


@dataclass(frozen=True)
class OptimizationConfig:
    """Which of the §5 optimizations are active."""

    confirmation_ack: bool = False
    llsc_subscription: bool = False
    request_spacing: bool = False
    resolution_hints: bool = False
    split_writeback: bool = False

    @classmethod
    def none(cls) -> "OptimizationConfig":
        """The §4 baseline design, no optimizations."""
        return cls()

    @classmethod
    def all(cls) -> "OptimizationConfig":
        """The full §5 design."""
        return cls(
            confirmation_ack=True,
            llsc_subscription=True,
            request_spacing=True,
            resolution_hints=True,
            split_writeback=True,
        )


@dataclass
class SlotReservations:
    """Per-receiver-node reservation table of future data-lane slots.

    Slots are indexed by absolute slot number (cycle // slot_cycles).
    Stale entries are pruned as the clock passes them.
    """

    horizon_slots: int = 64
    _reserved: set[int] = field(default_factory=set)

    def reserve(self, slot_index: int) -> bool:
        """Reserve ``slot_index`` if free; True on success."""
        if slot_index in self._reserved:
            return False
        self._reserved.add(slot_index)
        return True

    def is_reserved(self, slot_index: int) -> bool:
        return slot_index in self._reserved

    def next_free(self, slot_index: int) -> int:
        """First unreserved slot at or after ``slot_index``."""
        candidate = slot_index
        while candidate in self._reserved:
            candidate += 1
        return candidate

    def prune(self, current_slot: int) -> None:
        """Drop reservations older than the horizon behind ``current_slot``."""
        floor = current_slot - self.horizon_slots
        self._reserved = {s for s in self._reserved if s >= floor}

    @property
    def live_count(self) -> int:
        return len(self._reserved)


@dataclass
class ExpectedReplies:
    """Which nodes a given node currently awaits data-packet replies from.

    Used by the resolution hint: when the receiver sees a data collision
    it intersects the PID/~PID candidate superset with this set, making
    the sender guess right ~94% of the time (paper §7.3).
    Counts, not booleans — several replies may be pending from one node.
    """

    _pending: dict[int, int] = field(default_factory=dict)

    def expect(self, src: int) -> None:
        self._pending[src] = self._pending.get(src, 0) + 1

    def fulfil(self, src: int) -> None:
        count = self._pending.get(src, 0)
        if count <= 1:
            self._pending.pop(src, None)
        else:
            self._pending[src] = count - 1

    def expected_nodes(self) -> set[int]:
        return set(self._pending)

    def is_expected(self, src: int) -> bool:
        return src in self._pending
