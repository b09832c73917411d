"""The mesh interconnect: routers + network interfaces.

Wires a k-ary 2-mesh of :class:`repro.mesh.router.Router` together and
adapts it to the common :class:`repro.net.Interconnect` interface.  Each
node's network interface holds an injection queue; packets are cut into
72-bit flits (1 for meta, 5 for data) and injected into the local input
port under the same VC-allocation/credit rules as any other hop.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.mesh.router import NEVER, Router, free_vc
from repro.mesh.routing import Port, mesh_hops, mesh_side, neighbor, xy_route
from repro.net.interface import Interconnect
from repro.net.packet import Packet

__all__ = ["MeshConfig", "MeshNetwork"]

_LOCAL = Port.LOCAL  # a local name: enum member lookups are slow


@dataclass(frozen=True)
class MeshConfig:
    """Mesh parameters (Table 3 defaults: 4 VCs, 12-flit buffers,
    4-cycle routers, 1-cycle links).

    ``bandwidth_scale`` models the Figure 11 sensitivity sweep: links
    narrower than the 72-bit flit stretch every packet over
    proportionally more flits (0.5 = half-width links).
    """

    num_nodes: int = 16
    num_vcs: int = 4
    buffer_flits: int = 12
    router_latency: int = 4
    link_latency: int = 1
    injection_queue: int = 64
    bandwidth_scale: float = 1.0

    def __post_init__(self) -> None:
        mesh_side(self.num_nodes)  # validates squareness
        if self.num_vcs < 1 or self.buffer_flits < 1:
            raise ValueError("need at least 1 VC and 1 buffer slot")
        if self.router_latency < 1 or self.link_latency < 0:
            raise ValueError("router latency >= 1, link latency >= 0")
        if self.injection_queue < 1:
            raise ValueError("injection queue must hold at least 1 packet")
        if not 0.1 <= self.bandwidth_scale <= 1.0:
            raise ValueError(f"bandwidth scale out of [0.1, 1]: {self.bandwidth_scale}")

    def flits_for(self, packet_flits: int) -> int:
        """Flit count after link-width scaling."""
        return math.ceil(packet_flits / self.bandwidth_scale)


class MeshNetwork(Interconnect):
    """Cycle-level k-ary 2-mesh with wormhole VC routers.

    Per cycle the network touches only what is due: the nodes in
    ``_active_inject`` (a queued or half-injected packet) and the
    routers whose ``Router._ready_min`` has arrived, both in ascending
    node order.  A router whose heads are all future-ready arbitrates
    nothing and mutates nothing, and nothing a ticked router does can
    make another router due in the same cycle (a forwarded flit becomes
    processable ``router_latency + link_latency >= 1`` cycles later),
    so the sweep equals ticking every router every cycle
    (docs/performance.md).
    """

    def __init__(self, config: MeshConfig):
        super().__init__(config.num_nodes)
        self.config = config
        self.side = mesh_side(config.num_nodes)
        self.routers = [
            Router(
                node=i,
                side=self.side,
                num_vcs=config.num_vcs,
                buffer_flits=config.buffer_flits,
                router_latency=config.router_latency,
                link_latency=config.link_latency,
                deliver=self._on_eject,
            )
            for i in range(config.num_nodes)
        ]
        for i, router in enumerate(self.routers):
            for port in (Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH):
                try:
                    router.connect(port, self.routers[neighbor(i, port, self.side)])
                except ValueError:
                    pass  # mesh edge
        self._inject_queues: list[deque[Packet]] = [
            deque() for _ in range(config.num_nodes)
        ]
        # In-progress injection: (flits of the packet still to push into
        # the local port, its allocated VC).
        self._inject_state: list[tuple[int, int] | None] = [None] * config.num_nodes
        # Nodes with a queued or in-progress injection.
        self._active_inject: set[int] = set()
        self._deliveries: dict[int, list[Packet]] = {}
        self._hops = self.stats.group.latency("hops")

    # -- Interconnect interface ----------------------------------------------

    def try_send(self, packet: Packet, cycle: int) -> bool:
        self._check_packet(packet)
        queue = self._inject_queues[packet.src]
        if len(queue) >= self.config.injection_queue:
            self.stats.refused.add()
            return False
        packet.enqueue_cycle = cycle
        packet.scheduled_cycle = cycle  # mesh has no intentional scheduling
        queue.append(packet)
        self._active_inject.add(packet.src)
        self.stats.sent.add()
        self.stats.bits_sent.add(packet.bits)
        return True

    def tick(self, cycle: int) -> None:
        # Ejections scheduled for this cycle.
        deliveries = self._deliveries.pop(cycle, None)
        if deliveries is not None:
            for packet in deliveries:  # arrival order
                self._deliver(packet, cycle)
        if self._active_inject:
            for node in sorted(self._active_inject):
                self._inject(node, cycle)
        for router in self.routers:
            if router._ready_min <= cycle:
                router.tick(cycle)

    def quiescent(self) -> bool:
        if self._deliveries or self._active_inject:
            return False
        return not any(router._occupied for router in self.routers)

    def next_event(self, cycle: int) -> int | None:
        """Fast-forward horizon: min over pending ejections, per-router
        head-flit readiness, and injection *progress*.

        An injection slot pins the horizon to "now" only when it can
        actually advance this cycle: an in-flight packet with a credit
        on its allocated VC, or a fresh queue head with an allocatable
        VC.  A credit- or VC-blocked injection unblocks only after its
        local router forwards a flit, and any router forward happens no
        earlier than the router readiness horizons already in the min —
        so reporting the future horizon instead of "now" is exact, and
        lets fast-forward engage on mesh runs whose only live work is
        buffered traffic maturing through router/link latencies.
        """
        for node in self._active_inject:
            state = self._inject_state[node]
            local = self.routers[node].inputs[_LOCAL]
            if state is None:
                if free_vc(local) is not None:
                    return cycle
            elif len(local[state[1]].flits) < self.config.buffer_flits:
                return cycle
        horizon = min(self._deliveries) if self._deliveries else NEVER
        for router in self.routers:
            if router._ready_min < horizon:
                horizon = router._ready_min
        if horizon == NEVER:
            return None
        # A ready head pins "now" even when flow-control blocked — a
        # neighbour's forward can free its credit on any cycle.
        return horizon if horizon > cycle else cycle

    # -- injection / ejection -----------------------------------------------

    def _inject(self, node: int, cycle: int) -> None:
        """Push at most one flit per cycle into the local input port."""
        state = self._inject_state[node]
        router = self.routers[node]
        local = router.inputs[_LOCAL]
        queue = self._inject_queues[node]
        if state is None:
            vc = free_vc(local)
            if vc is None:
                return  # all local VCs busy
            packet = queue.popleft()
            packet.first_tx_cycle = cycle
            packet.final_tx_cycle = cycle
            left = self.config.flits_for(packet.flits)
            router.accept_flit(_LOCAL, vc, cycle + 1, packet, left)
        else:
            left, vc = state
            if len(local[vc].flits) >= router.buffer_flits:
                return
            router.accept_flit(_LOCAL, vc, cycle + 1)
        left -= 1
        if left:
            self._inject_state[node] = (left, vc)
        else:
            self._inject_state[node] = None
            if not queue:
                self._active_inject.discard(node)

    def _on_eject(self, packet: Packet, cycle: int) -> None:
        """Router ejection callback; delivery is stamped at ``cycle``."""
        self._hops.record(mesh_hops(packet.src, packet.dst, self.side))
        self._deliveries.setdefault(cycle, []).append(packet)

    def audit(self) -> None:
        """The scheduling state must agree with a recount of the buffers
        and queues it summarises, and each VC with its owner: ``left`` is
        its buffered flits plus what its upstream VC (or injection) holds."""
        super().audit()
        for node, router in enumerate(self.routers):
            ready_min = NEVER
            occupied = set()
            downstream = {output[0]: output[3] for _, output in router._outputs}
            for port, buffers in router.inputs.items():
                for vc, buffer in enumerate(buffers):
                    k = port * router.num_vcs + vc
                    assert router._bufs[k] is buffer
                    assert len(buffer.flits) <= router.buffer_flits
                    owner = buffer.owner
                    if owner is None:  # an unowned VC is empty
                        assert not buffer.flits and buffer.left == 0
                        assert buffer.route_port is buffer.out_vc is None
                        continue
                    total = self.config.flits_for(owner.flits)
                    assert total >= buffer.left >= max(1, len(buffer.flits))
                    assert buffer.route_port is xy_route(node, owner.dst, self.side)
                    if buffer.out_vc is None:  # the head has not left
                        assert buffer.route_port is _LOCAL or buffer.left == total
                    else:  # the rest of the packet, one hop on
                        dbuf = downstream[buffer.route_port][buffer.out_vc]
                        assert dbuf.owner is owner
                        assert dbuf.left == len(dbuf.flits) + buffer.left
                    requesting = k in router._requesters[buffer.route_port]
                    assert requesting == bool(buffer.flits)
                    if buffer.flits:
                        occupied.add(k)
                        ready_min = min(ready_min, buffer.flits[0])
            assert router._occupied == occupied
            assert sum(map(len, router._requesters)) == len(occupied)
            assert router._ready_min == ready_min
            assert router.buffer_writes - router.flits_routed == router.occupancy()
            state = self._inject_state[node]
            if state is not None:  # the rest of its local VC's owner
                left, vc = state
                local = router.inputs[_LOCAL][vc]
                assert left >= 1 and local.owner is not None
                assert local.left == len(local.flits) + left
            busy = state is not None or bool(self._inject_queues[node])
            assert busy == (node in self._active_inject)

    # -- energy accounting -----------------------------------------------------

    def activity(self) -> dict[str, int]:
        """Aggregate switching activity for the Orion-style energy model."""
        flits_routed = sum(r.flits_routed for r in self.routers)
        return {
            "flits_routed": flits_routed,
            "buffer_writes": sum(r.buffer_writes for r in self.routers),
            "buffer_reads": flits_routed,  # one read per routed flit
            "link_flits": sum(r.link_flits for r in self.routers),
        }
