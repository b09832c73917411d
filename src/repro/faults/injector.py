"""Runtime fault injection for the FSOI network.

The :class:`FaultInjector` answers the network's questions — *is this
transmitter dark right now?  which receivers at the destination still
work?  does this packet get corrupted?  does this confirmation make it
back?* — from a :class:`repro.faults.plan.FaultPlan` schedule plus two
private RNG streams.  It is only constructed when the plan is
non-empty, so a fault-free network pays nothing and draws nothing.

Two design rules keep runs reproducible and comparable:

* **Physics, not knobs.** Thermal droop maps to a bit-error rate
  through the real link chain: scale the VCSEL's emitted OOK levels by
  the droop, push them through the free-space path and photodetector,
  and read the BER off :class:`repro.optics.noise.ReceiverNoise` — the
  same Q-factor model Table 1 is built on.
* **Isolated randomness.** The injector draws from its own named
  streams (``faults.corrupt``, ``faults.confirm``), derived from the
  network hub's ``"faults"`` child and offset by the plan seed, so the
  back-off/error/hint streams of the fault-free simulator are
  untouched (the passivity guarantee golden tests rely on).

The injector also tracks *lane-down detection*: after
``plan.detect_threshold`` consecutive dark sends on a lane the sender
stops lighting it (lane sparing) and its queued traffic fast-fails
into back-off without occupying the medium; the suppression clears at
the first slot boundary at which the schedule has healed the lane
(modelling a probe at every boundary).  That boundary depends on the
schedule alone, so it is fixed when the lane is marked, and a sender
asked only at the boundaries where it has something to send answers
exactly as one probed at every boundary.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan
from repro.net.packet import LaneKind
from repro.util.rng import RngHub

__all__ = ["FaultInjector"]


def _active(cycle: int, start: int, end: Optional[int]) -> bool:
    return start <= cycle and (end is None or cycle < end)


class FaultInjector:
    """Schedule-driven fault decisions for one :class:`FsoiNetwork`."""

    def __init__(
        self,
        plan: FaultPlan,
        num_nodes: int,
        receivers_by_lane: dict[LaneKind, int],
        rng: RngHub,
    ):
        if plan.is_empty():
            raise ValueError("refusing to build an injector for an empty plan")
        plan.validate_for(
            num_nodes,
            {lane.value: count for lane, count in receivers_by_lane.items()},
        )
        self.plan = plan
        self.num_nodes = num_nodes
        self._receivers = dict(receivers_by_lane)
        seed_ns = rng.child(f"plan.{plan.seed}")
        self._corrupt_rng = seed_ns.stream("faults.corrupt")
        self._confirm_rng = seed_ns.stream("faults.confirm")

        # Index the schedule for O(1) per-event queries.
        self._lane_faults: dict[tuple[int, LaneKind], list] = {}
        for entry in plan.lane_faults:
            key = (entry.node, LaneKind(entry.lane))
            self._lane_faults.setdefault(key, []).append(entry)
        self._receiver_faults: dict[tuple[int, LaneKind], list] = {}
        for entry in plan.receiver_faults:
            key = (entry.node, LaneKind(entry.lane))
            self._receiver_faults.setdefault(key, []).append(entry)
        self._bursts = {
            lane: [b for b in plan.bursts if b.lane in (None, lane.value)]
            for lane in (LaneKind.META, LaneKind.DATA)
        }
        self._droops = list(plan.droops)
        self._drops = list(plan.confirmation_drops)

        # Lane-down detection state: each lane's run of dark sends and,
        # for each lane its sender has marked down, the slot boundary at
        # which the sparing probe finds it healed (None: never).
        self._dark_streak: dict[tuple[int, LaneKind], int] = {}
        self._spared: dict[tuple[int, LaneKind], Optional[int]] = {}

        # droop_db -> per-bit error rate via the optical chain, resolved
        # here for every scheduled droop so a run never pays the chain
        # inside a tick.
        self._droop_ber_cache: dict[float, float] = {}
        for droop in self._droops:
            self.droop_ber(droop.droop_db)

    # -- transmit-side faults -------------------------------------------

    def tx_lane_dead(self, node: int, lane: LaneKind, cycle: int) -> bool:
        """Whether ``node``'s transmit array on ``lane`` is dark now."""
        return any(
            _active(cycle, entry.start, entry.end)
            for entry in self._lane_faults.get((node, lane), ())
        )

    def note_dark_send(
        self, node: int, lane: LaneKind, cycle: int, slot_len: int
    ) -> bool:
        """Record an unconfirmed dark send at the slot boundary ``cycle``
        of a lane with ``slot_len``-cycle slots; True when the lane is
        newly declared down (the detection threshold was just crossed)."""
        key = (node, lane)
        streak = self._dark_streak.get(key, 0) + 1
        self._dark_streak[key] = streak
        if streak >= self.plan.detect_threshold and key not in self._spared:
            self._spared[key] = self._healed_at(key, cycle, slot_len)
            return True
        return False

    def _healed_at(
        self, key: tuple[int, LaneKind], cycle: int, slot_len: int
    ) -> Optional[int]:
        """First slot boundary after ``cycle`` at which no fault of lane
        ``key`` is active — where a probe at every boundary first finds
        the lane lit — or None when a fault covering it never ends."""
        boundary = cycle - cycle % slot_len + slot_len
        while True:
            ends = [
                entry.end
                for entry in self._lane_faults.get(key, ())
                if _active(boundary, entry.start, entry.end)
            ]
            if not ends:
                return boundary
            if None in ends:
                return None
            boundary = ((max(ends) + slot_len - 1) // slot_len) * slot_len

    def note_successful_send(self, node: int, lane: LaneKind) -> None:
        """A send produced light: any dark streak is broken."""
        key = (node, lane)
        if self._dark_streak.pop(key, None) is not None:
            self._spared.pop(key, None)

    def lane_suppressed(self, node: int, lane: LaneKind, cycle: int) -> bool:
        """Whether the sender spares its marked-down ``lane`` at the slot
        boundary ``cycle``.

        The sender probes a marked lane at every boundary and resumes
        service at the first one at which the schedule has healed it, so
        a transient fault clears without outside intervention.  That
        boundary was fixed when the lane was marked, so asking at any
        later boundary — only where the node has something to send —
        answers exactly as probing every boundary would have.
        """
        key = (node, lane)
        if key not in self._spared:
            return False
        healed = self._spared[key]
        if healed is None or cycle < healed:
            return True
        del self._spared[key]
        self._dark_streak.pop(key, None)
        return False

    # -- receive-side faults --------------------------------------------

    def receiver_health(
        self, dst: int, lane: LaneKind, cycle: int
    ) -> Optional[tuple[bool, ...]]:
        """Health vector of ``dst``'s receivers, or None when all work."""
        faults = self._receiver_faults.get((dst, lane))
        if not faults:
            return None
        dead = {
            entry.receiver
            for entry in faults
            if _active(cycle, entry.start, entry.end)
        }
        if not dead:
            return None
        return tuple(
            index not in dead for index in range(self._receivers[lane])
        )

    # -- corruption (droop + bursts) ------------------------------------

    def droop_ber(self, droop_db: float) -> float:
        """Per-bit error rate after a ``droop_db`` emitted-power droop.

        Computed through the physical chain (not interpolated): both OOK
        levels of the Table 1 link are attenuated by the droop, pushed
        through the free-space path and photodetector, and scored by the
        receiver's Gaussian Q-factor model.
        """
        ber = self._droop_ber_cache.get(droop_db)
        if ber is None:
            from repro.core.link import OpticalLink
            from repro.util.units import db_to_linear

            link = OpticalLink()
            scale = 1.0 / db_to_linear(droop_db)
            p1, p0 = link.received_powers()
            ber = link.noise.ber(
                link.detector.photocurrent(p1 * scale),
                link.detector.photocurrent(p0 * scale),
            )
            self._droop_ber_cache[droop_db] = ber
        return ber

    def corruption_probability(
        self, src: int, lane: LaneKind, cycle: int, bits: int
    ) -> float:
        """Probability the packet arrives corrupted (bursts + droop)."""
        survive = 1.0
        for burst in self._bursts[lane]:
            if burst.node in (None, src) and _active(
                cycle, burst.start, burst.end
            ):
                survive *= 1.0 - burst.rate
        for droop in self._droops:
            if droop.node in (None, src) and _active(
                cycle, droop.start, droop.end
            ):
                survive *= (1.0 - self.droop_ber(droop.droop_db)) ** bits
        return 1.0 - survive

    def draw_corruption(self, probability: float) -> bool:
        return probability > 0.0 and self._corrupt_rng.random() < probability

    # -- confirmation drops ---------------------------------------------

    def drop_confirmation(self, src: int, cycle: int) -> bool:
        """Whether the confirmation heading back to ``src`` is lost."""
        survive = 1.0
        for drop in self._drops:
            if drop.node in (None, src) and _active(
                cycle, drop.start, drop.end
            ):
                survive *= 1.0 - drop.rate
        probability = 1.0 - survive
        return probability > 0.0 and self._confirm_rng.random() < probability
