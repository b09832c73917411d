"""The mesh interconnect: routers + network interfaces.

Wires a k-ary 2-mesh of :class:`repro.mesh.router.Router` together and
adapts it to the common :class:`repro.net.Interconnect` interface.  Each
node's network interface holds an injection queue; packets are cut into
72-bit flits (1 for meta, 5 for data) and injected into the local input
port under the same VC-allocation/credit rules as any other hop.

The network keeps the readiness calendar its routers share: every
non-empty VC whose front flit is not yet processable is filed once under
that front's ready cycle, and :meth:`MeshNetwork.tick` moves the entries
due into their routers' ready sets and switches only the routers with a
ready front.  Injection, ejection and delivery run inside ``tick``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.mesh.router import Router
from repro.mesh.routing import Port, mesh_side, neighbor, xy_route
from repro.net.interface import Interconnect
from repro.net.packet import LaneKind, Packet
from repro.obs.trace import TRACE

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

    Per cycle the network touches only what is due: the calendar
    entries filed for the cycle, which join their routers' ready sets
    (``_live`` holds the routers with a ready front), the nodes in
    ``_active_inject`` (a queued or half-injected packet), both in
    ascending node order, and the packets ejected ``router_latency``
    cycles ago.  A router with no ready front arbitrates nothing and
    mutates nothing, and nothing a switched router does can make another
    router live in the same cycle (a forwarded flit becomes processable
    ``router_latency + link_latency >= 1`` cycles later, an injected one
    a cycle later), so the sweep equals ticking every router every cycle
    (docs/performance.md).
    """

    def __init__(self, config: MeshConfig):
        super().__init__(config.num_nodes)
        self.config = config
        self.side = mesh_side(config.num_nodes)
        # The readiness calendar: cycle -> [(ready set, k, node), ...].
        self._filed: dict[int, list[tuple[set[int], int, int]]] = {}
        self._live: set[int] = set()  # nodes whose router has a ready front
        self._now = -1  # the last ticked cycle
        self.routers = [
            Router(
                node=i,
                side=self.side,
                num_vcs=config.num_vcs,
                buffer_flits=config.buffer_flits,
                router_latency=config.router_latency,
                calendar=self._filed,
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
        # Per lane: flits after link-width scaling, and bits.
        self._lane_flits = {lane: config.flits_for(lane.flits) for lane in LaneKind}
        self._lane_bits = {lane: lane.bits for lane in LaneKind}
        self._hop_cycles = config.router_latency + config.link_latency

    # -- Interconnect interface ----------------------------------------------

    def try_send(self, packet: Packet, cycle: int) -> bool:
        src = packet.src
        dst = packet.dst
        n = self.num_nodes
        if src < 0 or src >= n or dst < 0 or dst >= n or src == dst:
            self._check_packet(packet)  # raises; the test above inlines it
        queue = self._inject_queues[src]
        stats = self.stats
        if len(queue) >= self.config.injection_queue:
            stats.refused.value += 1
            return False
        packet.enqueue_cycle = cycle
        packet.scheduled_cycle = cycle  # mesh has no intentional scheduling
        queue.append(packet)
        self._active_inject.add(src)
        stats.sent.value += 1  # == .add(), minus the call frame
        stats.bits_sent.value += self._lane_bits[packet.lane]
        return True

    def tick(self, cycle: int) -> None:
        self._now = cycle
        live = self._live
        routers = self.routers
        # Fronts that become processable this cycle join their ready sets.
        due = self._filed.pop(cycle, None)
        if due is not None:
            for ready, k, node in due:
                ready.add(k)
                live.add(node)
        # Ejections scheduled for this cycle, in arrival order: the tail
        # every transport shares (== Interconnect._deliver, written out;
        # the mesh stamps scheduled = enqueue and final = first).
        deliveries = self._deliveries.pop(cycle, None)
        if deliveries is not None:
            delivered = self.stats.delivered
            joint = self.stats.joint
            traffic = self._traffic
            callbacks = self._callbacks
            n = self.num_nodes
            for packet in deliveries:
                packet.deliver_cycle = cycle
                delivered.value += 1
                first = packet.first_tx_cycle
                key = (first - packet.enqueue_cycle, 0, 0, cycle - first)
                joint[key] = joint.get(key, 0) + 1
                dst = packet.dst
                traffic[packet.src * n + dst] += 1
                callback = callbacks[dst]
                if callback is not None:
                    callback(packet)
        active = self._active_inject
        if active:
            # At most one flit per active node into its local input port,
            # nodes ascending; each flit is ready next cycle.
            queues = self._inject_queues
            states = self._inject_state
            capacity = self.config.buffer_flits
            ready = cycle + 1
            filed = None  # the calendar's list for ``ready``, once needed
            for node in sorted(active):
                state = states[node]
                router = routers[node]
                local = router.inputs[_LOCAL]
                if state is None:
                    for vc, buffer in enumerate(local):
                        if buffer.owner is None:
                            break
                    else:
                        continue  # all local VCs busy
                    packet = queues[node].popleft()
                    packet.first_tx_cycle = cycle
                    packet.final_tx_cycle = cycle
                    buffer.owner = packet
                    buffer.left = left = self._lane_flits[packet.lane]
                    dst = packet.dst
                    buffer.route_port = route = (
                        router._x_route[dst % router.side]
                        or router._y_route[dst // router.side]
                    )
                    if TRACE.enabled:
                        TRACE.emit(
                            "vc_alloc", cat="mesh", cycle=ready, node=node,
                            packet=packet.uid, port=_LOCAL.name, vc=vc,
                            route=route.name,
                        )
                    flits = buffer.flits  # an unowned VC is empty
                else:
                    left, vc = state
                    buffer = local[vc]
                    flits = buffer.flits
                    if len(flits) >= capacity:
                        continue  # no credit
                if not flits:  # a new front (LOCAL is port 0: k == vc)
                    if filed is None:
                        filed = self._filed.setdefault(ready, [])
                    filed.append((router._ready[buffer.route_port], vc, node))
                flits.append(ready)
                router.buffer_writes += 1
                left -= 1
                if left:
                    states[node] = (left, vc)
                else:
                    states[node] = None
                    if not queues[node]:
                        active.discard(node)
        if live:
            # Every flit forwarded this cycle is ready ``hop`` cycles on:
            # one calendar list takes the fronts they start.
            ready = cycle + self._hop_cycles
            arrivals = self._filed.get(ready)
            if arrivals is None:
                arrivals = self._filed[ready] = []
            ejected: list[Packet] = []
            for node in sorted(live):
                if not routers[node].switch(cycle, ready, arrivals, ejected):
                    live.discard(node)
            if not arrivals:
                del self._filed[ready]
            if ejected:
                # Hops are recorded at ejection: a run can end with a
                # packet ejected and not yet delivered.  (== mesh_hops and
                # self._hops.record, written out: an int keys the table.)
                hops = self._hops._counts
                side = self.side
                for packet in ejected:
                    src = packet.src
                    dst = packet.dst
                    h = abs(src % side - dst % side) + abs(src // side - dst // side)
                    hops[h] = hops.get(h, 0) + 1
                self._deliveries[cycle + self.config.router_latency] = ejected

    def quiescent(self) -> bool:
        return not (
            self._deliveries or self._active_inject or self._live or self._filed
        )

    def next_event(self, cycle: int) -> int | None:
        """Fast-forward horizon: "now" when a router has a ready front or
        an injection can progress, else the min over pending ejections
        and filed fronts.

        An injection slot pins the horizon to "now" only when it can
        actually advance this cycle: an in-flight packet with a credit
        on its allocated VC, or a fresh queue head with an allocatable
        VC.  A credit- or VC-blocked injection unblocks only after its
        local router forwards a flit, which needs a ready front — a live
        router, or a filed front no earlier than the calendar's minimum
        — so reporting the future horizon instead of "now" is exact, and
        lets fast-forward engage on mesh runs whose only live work is
        buffered traffic maturing through router/link latencies.  A
        ready front pins "now" even when flow-control blocked: a
        neighbour's forward can free its credit on any cycle.
        """
        if self._live:
            return cycle
        capacity = self.config.buffer_flits
        for node in self._active_inject:
            state = self._inject_state[node]
            local = self.routers[node].inputs[_LOCAL]
            if state is None:
                for buffer in local:
                    if buffer.owner is None:
                        return cycle
            elif len(local[state[1]].flits) < capacity:
                return cycle
        if self._filed:
            horizon = min(self._filed)
            if self._deliveries:
                horizon = min(horizon, min(self._deliveries))
        elif self._deliveries:
            horizon = min(self._deliveries)
        else:
            return None
        return horizon if horizon > cycle else cycle

    def audit(self) -> None:
        """The scheduling state must agree with a recount of the buffers
        and queues it summarises, and each VC with its owner: ``left`` is
        its buffered flits plus what its upstream VC (or injection) holds.

        Every non-empty VC's front is in exactly one place: its router's
        ready set for its route port, with the router live, once the
        front's ready cycle has been ticked; else filed once under that
        cycle, which is later than the last tick.  No ready set holds an
        empty VC, and the live set is the routers with a ready front.
        """
        super().audit()
        filings = {}
        for ready_cycle, entries in self._filed.items():
            assert ready_cycle > self._now, "stale _filed entry"
            for ready, k, node in entries:
                key = (node, k)
                assert key not in filings, "front filed twice in _filed"
                filings[key] = (ready_cycle, ready)
        live = set()
        lane_flits = self._lane_flits
        for node, router in enumerate(self.routers):
            downstream = {output[0]: output[3] for _, output in router._outputs}
            ready_fronts = 0
            for port, buffers in router.inputs.items():
                for vc, buffer in enumerate(buffers):
                    k = port * router.num_vcs + vc
                    assert router._bufs[k] is buffer
                    assert len(buffer.flits) <= router.buffer_flits
                    owner = buffer.owner
                    if owner is None:  # an unowned VC is empty
                        assert not buffer.flits and buffer.left == 0
                        assert buffer.route_port is buffer.out_vc is None
                    else:
                        total = lane_flits[owner.lane]
                        assert total >= buffer.left >= max(1, len(buffer.flits))
                        assert buffer.route_port is xy_route(node, owner.dst, self.side)
                        if buffer.out_vc is None:  # the head has not left
                            assert buffer.route_port is _LOCAL or buffer.left == total
                        else:  # the rest of the packet, one hop on
                            dbuf = downstream[buffer.route_port][buffer.out_vc]
                            assert dbuf.owner is owner
                            assert dbuf.left == len(dbuf.flits) + buffer.left
                    in_ready = [p for p, ready in enumerate(router._ready) if k in ready]
                    filed = filings.pop((node, k), None)
                    if not buffer.flits:
                        assert not in_ready, "empty VC in a _ready set"
                        assert filed is None, "empty VC in _filed"
                        continue
                    front = buffer.flits[0]
                    if front <= self._now:  # processable: ready and live
                        assert in_ready == [buffer.route_port], "front not in _ready"
                        assert filed is None, "ready front in _filed"
                        live.add(node)
                        ready_fronts += 1
                    else:  # filed once under its ready cycle
                        assert not in_ready, "future front in _ready"
                        assert filed is not None and filed[0] == front, (
                            "front not in _filed under its ready cycle"
                        )
                        assert filed[1] is router._ready[buffer.route_port], (
                            "front filed for the wrong _ready set"
                        )
            assert sum(map(len, router._ready)) == ready_fronts, "stray k in _ready"
            assert router.buffer_writes - router.flits_routed == router.occupancy()
            state = self._inject_state[node]
            if state is not None:  # the rest of its local VC's owner
                left, vc = state
                local = router.inputs[_LOCAL][vc]
                assert left >= 1 and local.owner is not None
                assert local.left == len(local.flits) + left
            busy = state is not None or bool(self._inject_queues[node])
            assert busy == (node in self._active_inject)
        assert not filings, "_filed entry for no front"
        assert self._live == live, "_live disagrees with the ready fronts"

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
