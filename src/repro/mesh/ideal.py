"""Idealized interconnect reference points (paper §7.1).

Three configurations bound the conventional design space:

* **L0** — transmission latency idealized to zero; a packet only pays
  its serialization delay (1 cycle meta / 5 cycles data) and queuing at
  the source node.  Only throughput is modeled: the source has one
  outgoing channel that serializes one packet at a time.
* **Lr1 / Lr2** — like L0 plus per-hop latency: 1 cycle link traversal
  and 1 (Lr1) or 2 (Lr2) cycles of router processing per hop, with no
  contention or delays inside the network.

These are *loose upper bounds* on what aggressively designed routers
could achieve, as the paper stresses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.mesh.routing import mesh_side
from repro.net.interface import Interconnect
from repro.net.packet import LaneKind, Packet

__all__ = ["IdealConfig", "IdealNetwork"]

#: Link traversal per hop, cycles (§7.1: Lr1/Lr2 add 1 cycle per link).
LINK_CYCLES_PER_HOP = 1


@dataclass(frozen=True)
class IdealConfig:
    """Parameters of an idealized network.

    ``router_cycles_per_hop = None`` gives L0 (no per-hop latency at
    all); 1 gives Lr1; 2 gives Lr2, each on top of
    :data:`LINK_CYCLES_PER_HOP`.  A source serializes one flit per
    cycle: 1 cycle per meta packet, 5 per data packet.
    """

    num_nodes: int = 16
    router_cycles_per_hop: int | None = None
    injection_queue: int = 64

    @classmethod
    def l0(cls, num_nodes: int = 16) -> "IdealConfig":
        return cls(num_nodes=num_nodes, router_cycles_per_hop=None)

    @classmethod
    def lr1(cls, num_nodes: int = 16) -> "IdealConfig":
        return cls(num_nodes=num_nodes, router_cycles_per_hop=1)

    @classmethod
    def lr2(cls, num_nodes: int = 16) -> "IdealConfig":
        return cls(num_nodes=num_nodes, router_cycles_per_hop=2)

    @property
    def label(self) -> str:
        if self.router_cycles_per_hop is None:
            return "L0"
        return f"Lr{self.router_cycles_per_hop}"


class IdealNetwork(Interconnect):
    """Contention-free network with per-source serialization throughput.

    Per cycle the network visits only ``_active``, the nodes with a
    queued packet, in ascending order (a node with nothing queued would
    start nothing).
    """

    def __init__(self, config: IdealConfig):
        super().__init__(config.num_nodes)
        self.config = config
        self.side = mesh_side(config.num_nodes)
        self._queues: list[deque[Packet]] = [deque() for _ in range(config.num_nodes)]
        self._channel_free_at = [0] * config.num_nodes
        self._active: set[int] = set()  # nodes with a non-empty queue
        self._deliveries: dict[int, list[Packet]] = {}
        # Per lane: serialization cycles (one a flit), and bits.
        self._lane_flits = {lane: lane.flits for lane in LaneKind}
        self._lane_bits = {lane: lane.bits for lane in LaneKind}
        hops = config.router_cycles_per_hop
        self._per_hop = 0 if hops is None else LINK_CYCLES_PER_HOP + hops

    def try_send(self, packet: Packet, cycle: int) -> bool:
        src = packet.src
        dst = packet.dst
        n = self.num_nodes
        if src < 0 or src >= n or dst < 0 or dst >= n or src == dst:
            self._check_packet(packet)  # raises; the test above inlines it
        queue = self._queues[src]
        stats = self.stats
        if len(queue) >= self.config.injection_queue:
            stats.refused.value += 1
            return False
        packet.enqueue_cycle = cycle
        packet.scheduled_cycle = cycle
        queue.append(packet)
        self._active.add(src)
        stats.sent.value += 1  # == .add(), minus the call frame
        stats.bits_sent.value += self._lane_bits[packet.lane]
        return True

    def tick(self, cycle: int) -> None:
        deliveries = self._deliveries.pop(cycle, None)
        if deliveries is not None:
            for packet in deliveries:  # arrival order
                self._deliver(packet, cycle)
        if self._active:
            for node in sorted(self._active):
                self._pump(node, cycle)

    def _pump(self, node: int, cycle: int) -> None:
        """Start serializing the next packet of active ``node`` when
        its channel is free."""
        if self._channel_free_at[node] > cycle:
            return
        queue = self._queues[node]
        packet = queue.popleft()
        if not queue:
            self._active.discard(node)
        packet.first_tx_cycle = cycle
        packet.final_tx_cycle = cycle
        serialization = self._lane_flits[packet.lane]
        self._channel_free_at[node] = cycle + serialization
        latency = serialization + self._hop_latency(packet)
        self._deliveries.setdefault(cycle + latency, []).append(packet)

    def _hop_latency(self, packet: Packet) -> int:
        """Manhattan hops (``mesh_hops``, inline) times the per-hop
        cycles; 0 for L0."""
        per_hop = self._per_hop
        if not per_hop:
            return 0
        src, dst, side = packet.src, packet.dst, self.side
        return (abs(src % side - dst % side) + abs(src // side - dst // side)) * per_hop

    def quiescent(self) -> bool:
        return not self._deliveries and not self._active

    def next_event(self, cycle: int) -> int | None:
        """Fast-forward horizon: min over pending deliveries and, per
        queued source, the cycle its serialization channel frees up."""
        horizon = min(self._deliveries) if self._deliveries else None
        if horizon is not None and horizon <= cycle:
            return cycle
        for node in self._active:
            free = self._channel_free_at[node]
            if free <= cycle:
                return cycle
            if horizon is None or free < horizon:
                horizon = free
        return horizon

    def audit(self) -> None:
        """Beyond the base check: ``_active`` is exactly the nodes with a
        queued packet, and each filed delivery is due where its packet's
        serialization and hops put it, after every send still in flight
        (so never at a cycle already ticked)."""
        super().audit()
        queued = {node for node, queue in enumerate(self._queues) if queue}
        if self._active != queued:
            raise AssertionError(f"active {sorted(self._active)}, queued {sorted(queued)}")
        filed = [(cycle, p) for cycle, packets in self._deliveries.items() for p in packets]
        latest = max((p.first_tx_cycle for _, p in filed), default=-1)
        for cycle, p in filed:
            due = p.first_tx_cycle + p.lane.flits + self._hop_latency(p)
            if cycle != due or cycle <= latest:
                raise AssertionError(f"packet {p.uid} filed for {cycle}, due {due}")
