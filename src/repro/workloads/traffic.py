"""Packet-level synthetic traffic for characterizing raw networks.

A :class:`TrafficPattern` maps a source node to a destination
distribution; :class:`BernoulliTraffic` makes every node offer a packet
with a fixed per-slot probability (the ``p`` of Figure 3); a
:class:`TrafficDriver` pushes any generator into any
:class:`repro.net.Interconnect` and runs the clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.interface import Interconnect
from repro.net.packet import LaneKind, Packet
from repro.util.rng import ReplayRng, RngHub

__all__ = [
    "TrafficPattern",
    "uniform_pattern",
    "hotspot_pattern",
    "transpose_pattern",
    "BernoulliTraffic",
    "TrafficDriver",
]

#: Maps (rng, src, num_nodes) -> destination node (never src).
TrafficPattern = Callable[[ReplayRng, int, int], int]


def uniform_pattern(rng: ReplayRng, src: int, num_nodes: int) -> int:
    """Uniform random destination over all other nodes."""
    dst = int(rng.integers(0, num_nodes - 1))
    return dst if dst < src else dst + 1


def hotspot_pattern(
    hotspot: int = 0, fraction: float = 0.3
) -> TrafficPattern:
    """A fraction of traffic converges on one node; the rest is uniform.

    >>> pattern = hotspot_pattern(hotspot=2, fraction=1.0)
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"hotspot fraction out of [0,1]: {fraction}")

    def pattern(rng: ReplayRng, src: int, num_nodes: int) -> int:
        if src != hotspot and rng.random() < fraction:
            return hotspot
        return uniform_pattern(rng, src, num_nodes)

    return pattern


def transpose_pattern(rng: ReplayRng, src: int, num_nodes: int) -> int:
    """Matrix-transpose permutation traffic (src XOR-reversed)."""
    dst = (num_nodes - 1) - src
    if dst == src:  # middle node of an odd count: fall back to uniform
        return uniform_pattern(rng, src, num_nodes)
    return dst


@dataclass
class BernoulliTraffic:
    """Every node offers a packet with probability ``p`` per *slot*.

    ``slot_cycles`` spaces the offers so ``p`` is per-slot (Figure 3's
    x-axis is per-meta-slot transmission probability).  ``data_fraction``
    of packets are data packets, the rest meta.
    """

    p: float
    slot_cycles: int = 2
    data_fraction: float = 0.0
    pattern: TrafficPattern = uniform_pattern
    expects_reply_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"offer probability out of [0,1]: {self.p}")
        if not 0.0 <= self.data_fraction <= 1.0:
            raise ValueError(f"data fraction out of [0,1]: {self.data_fraction}")

    def offers(
        self, rng: ReplayRng, cycle: int, num_nodes: int
    ) -> list[Packet]:
        """Packets offered network-wide at ``cycle`` (empty off-slot)."""
        if cycle % self.slot_cycles != 0:
            return []
        out = []
        for src in range(num_nodes):
            if rng.random() >= self.p:
                continue
            dst = self.pattern(rng, src, num_nodes)
            lane = (
                LaneKind.DATA
                if rng.random() < self.data_fraction
                else LaneKind.META
            )
            expects = (
                lane is LaneKind.META
                and rng.random() < self.expects_reply_fraction
            )
            out.append(
                Packet(src=src, dst=dst, lane=lane, expects_data_reply=expects)
            )
        return out


class TrafficDriver:
    """Runs a traffic generator against an interconnect.

    Offers that the network refuses (full source queue) are dropped and
    counted — for open-loop characterization that is the right model
    (the offered load is the independent variable).
    """

    def __init__(
        self,
        network: Interconnect,
        traffic: BernoulliTraffic,
        rng: Optional[RngHub] = None,
        seed: int = 0,
    ):
        self.network = network
        self.traffic = traffic
        hub = rng if rng is not None else RngHub(seed)
        self._rng = hub.stream("traffic")
        self.offered = 0
        self.dropped = 0

    def run(self, cycles: int, drain: int = 2000) -> None:
        """Drive for ``cycles`` cycles, then tick up to ``drain`` more to
        let in-flight packets finish."""
        cycle = 0
        for cycle in range(cycles):
            for packet in self.traffic.offers(
                self._rng, cycle, self.network.num_nodes
            ):
                self.offered += 1
                if not self.network.try_send(packet, cycle):
                    self.dropped += 1
            self.network.tick(cycle)
        for extra in range(drain):
            if self.network.quiescent():
                break
            self.network.tick(cycles + extra)
