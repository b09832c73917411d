"""Lane widths and cycle slotting (paper §4.3.2, Table 3).

A *lane* is a multi-bit optical bus formed by an array of VCSELs.  Each
node has a meta lane (3 VCSELs), a data lane (6 VCSELs) and a 1-VCSEL
confirmation lane.  With 12 bits per CPU cycle per VCSEL (40 Gbps vs
3.3 GHz), a 72-bit meta packet serializes in 2 cycles and a 360-bit data
packet in 5 — those are also the *slot* lengths: in a non-arbitrated
shared medium, constraining packets to start at slot boundaries halves
the window in which two packets can partially overlap (slotted-ALOHA,
paper ref [40]).  Meta and data packets travel on separate lanes so the
two slot lengths never interfere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from repro.net.packet import DATA_PACKET_BITS, META_PACKET_BITS, LaneKind

__all__ = ["LaneConfig", "PHASE_SETUP_CYCLES", "RX_OVERHEAD"]

#: Decode / error-check cycles between a packet's last bit and its
#: delivery (§4.3.2) — shared by the FSOI and corona-style receivers.
RX_OVERHEAD = 1

#: Cycles a phase-array lane spends re-steering its beam to a new
#: destination (§4.1, Table 3).
PHASE_SETUP_CYCLES = 1


@dataclass(frozen=True)
class LaneConfig:
    """Widths, slot lengths and buffering of a node's optical lanes.

    Defaults reproduce Table 3 (16/64-node configuration): lane widths
    6/3/1 bits for data/meta/confirmation, 2 receivers per packet lane,
    8-packet outgoing queues, 12 bits per cycle per VCSEL.
    """

    meta_vcsels: int = 3
    data_vcsels: int = 6
    confirmation_vcsels: int = 1
    bits_per_cycle_per_vcsel: int = 12
    meta_receivers: int = 2
    data_receivers: int = 2
    queue_capacity: int = 8
    confirmation_delay: int = 2  # cycles from reception to confirmation

    def __post_init__(self) -> None:
        for name in ("meta_vcsels", "data_vcsels", "bits_per_cycle_per_vcsel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.meta_receivers < 1 or self.data_receivers < 1:
            raise ValueError("need at least one receiver per lane")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        if self.confirmation_delay < 1:
            raise ValueError("confirmation delay must be >= 1 cycle")

    # -- derived timing -----------------------------------------------------

    def lane_width_bits(self, lane: LaneKind) -> int:
        """Bits serialized per CPU cycle on ``lane``."""
        vcsels = self.meta_vcsels if lane is LaneKind.META else self.data_vcsels
        return vcsels * self.bits_per_cycle_per_vcsel

    @lru_cache(maxsize=None)
    def slot_cycles(self, lane: LaneKind) -> int:
        """Serialization latency = slot length, CPU cycles.

        Cached (the config is frozen, hence hashable) — the network's
        tick and fast-forward horizons ask for it constantly.

        >>> LaneConfig().slot_cycles(LaneKind.META)
        2
        >>> LaneConfig().slot_cycles(LaneKind.DATA)
        5
        """
        bits = META_PACKET_BITS if lane is LaneKind.META else DATA_PACKET_BITS
        return max(1, math.ceil(bits / self.lane_width_bits(lane)))

    def receivers(self, lane: LaneKind) -> int:
        return self.meta_receivers if lane is LaneKind.META else self.data_receivers

    def receiver_for(
        self,
        lane: LaneKind,
        src: int,
        dst: int,
        num_nodes: int,
        healthy: Optional[Sequence[bool]] = None,
    ) -> int:
        """Static sender-to-receiver partition at the destination.

        The ``N - 1`` potential senders to ``dst`` are divided evenly
        among the R receivers (paper §4.3.1): sender rank modulo R.

        ``healthy`` (one flag per receiver, from the fault injector)
        enables *receiver sparing*: a sender whose nominal receiver is
        dead probes linearly to the next healthy one — a deterministic
        remap every sender computes identically, so the partition stays
        collision-consistent.  Returns ``-1`` when every receiver is
        dead.
        """
        if src == dst:
            raise ValueError("no receiver for self-traffic")
        rank = src if src < dst else src - 1  # rank of src among dst's senders
        count = self.receivers(lane)
        nominal = rank % count
        if healthy is None:
            return nominal
        for probe in range(count):
            candidate = (nominal + probe) % count
            if healthy[candidate]:
                return candidate
        return -1

    def total_vcsels_per_node(self, num_nodes: int, dedicated: bool) -> int:
        """Transmit VCSEL count per node.

        Dedicated (small-scale) systems replicate every lane per
        destination — the paper's ``N * (N-1) * k`` total; phase-array
        systems keep one steerable array per lane.
        """
        per_lane_set = self.meta_vcsels + self.data_vcsels + self.confirmation_vcsels
        if dedicated:
            return per_lane_set * (num_nodes - 1)
        return per_lane_set

    def slot_aligned(self, cycle: int, lane: LaneKind) -> bool:
        """Whether ``cycle`` is a slot boundary for ``lane``."""
        return cycle % self.slot_cycles(lane) == 0

    def next_slot_start(self, cycle: int, lane: LaneKind) -> int:
        """First slot boundary at or after ``cycle``."""
        slot = self.slot_cycles(lane)
        return ((cycle + slot - 1) // slot) * slot

    def slots_in_range(self, start: int, end: int, lane: LaneKind) -> int:
        """Number of slot boundaries for ``lane`` in ``[start, end)``.

        This is how a fast-forward skip over ``[start, end)`` accounts
        the ``_start_slot`` calls the naive loop would have made.

        >>> LaneConfig().slots_in_range(0, 10, LaneKind.DATA)
        2
        >>> LaneConfig().slots_in_range(1, 5, LaneKind.META)
        2
        """
        slot = self.slot_cycles(lane)
        first = (start + slot - 1) // slot  # index of first boundary >= start
        past = (end + slot - 1) // slot     # index of first boundary >= end
        return max(0, past - first)
