"""A canonical 4-stage virtual-channel wormhole router.

Models the baseline router of §6/§7.1: route computation, VC allocation,
switch allocation and switch traversal, abstracted as a fixed
``router_latency`` per traversal with one-flit-per-cycle throughput per
output port, plus credit-based flow control against finite downstream
buffers (4 VCs x 12 flits per input port by default, Table 3).

Timing model: when a flit wins switch allocation it leaves its input
buffer, and appears in the downstream input buffer ``router_latency +
link_latency`` cycles later (it occupies the downstream slot from the
moment it is sent — in-flight flits count against credits, as in a real
credit loop).  Head flits additionally need a free downstream VC
(packet-granularity VC allocation, wormhole body flits follow their
head).

Scheduling: the router keeps ``_ready_min``, the earliest cycle any of
its buffered head flits becomes processable (:data:`NEVER` when empty).
``tick`` returns at once before that cycle, and the mesh network ticks
only routers whose ``_ready_min`` is due (docs/performance.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.mesh.routing import Port, opposite, xy_route
from repro.net.packet import Packet
from repro.obs.trace import TRACE

__all__ = ["NEVER", "Flit", "Router", "free_vc"]

#: "Nothing buffered" value of ``Router._ready_min``: later than any
#: simulated cycle.
NEVER = 1 << 62

_LOCAL = Port.LOCAL
_OPPOSITE = {port: opposite(port) for port in Port if port is not Port.LOCAL}


@dataclass
class Flit:
    """One 72-bit flit of a packet."""

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool


class _VcBuffer:
    """One virtual-channel FIFO at an input port."""

    __slots__ = ("capacity", "flits", "owner", "route_port", "out_vc")

    def __init__(self, capacity: int):
        self.capacity = capacity
        # Entries are (ready_cycle, flit): a flit occupies its slot from
        # the moment the upstream router sends it, becoming processable
        # at ready_cycle.
        self.flits: deque[tuple[int, Flit]] = deque()
        self.owner: Optional[Packet] = None    # packet currently using this VC
        self.route_port: Optional[Port] = None  # RC result for the owner
        self.out_vc: Optional[int] = None       # VA result for the owner


def free_vc(buffers: list[_VcBuffer]) -> Optional[int]:
    """First VC of an input port that a new packet's head flit may
    enter — unallocated (packet-granularity VC allocation) and with a
    credit — or ``None``."""
    for vc, buffer in enumerate(buffers):
        if buffer.owner is None and buffer.capacity > len(buffer.flits):
            return vc
    return None


class Router:
    """One mesh router.

    Parameters
    ----------
    node:
        This router's node id.
    side:
        Mesh side length (for XY routing).
    num_vcs, buffer_flits:
        Virtual channels per input port and flits per VC buffer.
    router_latency, link_latency:
        Cycles per router traversal and per link.
    deliver:
        Callback ``(packet, cycle)`` invoked when a tail flit ejects at
        the local port.
    """

    def __init__(
        self,
        node: int,
        side: int,
        num_vcs: int,
        buffer_flits: int,
        router_latency: int,
        link_latency: int,
        deliver: Callable[[Packet, int], None],
    ):
        if num_vcs < 1 or buffer_flits < 1:
            raise ValueError("need at least 1 VC and 1 buffer slot")
        if router_latency < 1 or link_latency < 0:
            raise ValueError("router latency >= 1, link latency >= 0")
        self.node = node
        self.side = side
        self.num_vcs = num_vcs
        self.router_latency = router_latency
        self.link_latency = link_latency
        self.deliver = deliver
        self.inputs: dict[Port, list[_VcBuffer]] = {
            port: [_VcBuffer(buffer_flits) for _ in range(num_vcs)] for port in Port
        }
        # Wired by the network: downstream router per non-local output.
        self.downstream: dict[Port, "Router"] = {}
        self._arbiter_state: dict[Port, int] = {port: 0 for port in Port}
        self._buffered = 0  # total flits across all input buffers
        self._occupied: set[tuple[Port, int]] = set()  # non-empty (port, vc)
        # The non-empty (in_port, vc) keys grouped by their owner's route
        # port, so arbitration walks exactly the VCs requesting each
        # output.  A non-empty buffer always has a defined route port
        # (VC allocation is packet-granular: a new head cannot enter
        # until the previous owner's tail has left), so membership is
        # stable while the buffer drains.
        self._requesters: dict[Port, set[tuple[Port, int]]] = {
            port: set() for port in Port
        }
        self._req_items = tuple(self._requesters.items())
        self._ready_min = NEVER
        # Counters consumed by the Orion-style energy model.
        self.flits_routed = 0
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.link_flits = 0

    # -- upstream-facing ----------------------------------------------------

    def accept_flit(self, port: Port, vc: int, flit: Flit, ready_cycle: int) -> None:
        """Place ``flit`` into input buffer (slot was reserved by credits)."""
        buffer = self.inputs[port][vc]
        flits = buffer.flits
        if buffer.capacity <= len(flits):
            raise RuntimeError(
                f"credit protocol violated: buffer overflow at node {self.node} "
                f"{port.name}.vc{vc}"
            )
        if flit.is_head:
            if buffer.owner is not None:
                raise RuntimeError(
                    f"VC allocation violated: vc{vc} at node {self.node} "
                    f"{port.name} already owned"
                )
            buffer.owner = flit.packet
            buffer.route_port = xy_route(self.node, flit.packet.dst, self.side)
            buffer.out_vc = None
            if TRACE.enabled:
                TRACE.emit(
                    "vc_alloc", cat="mesh", cycle=ready_cycle,
                    node=self.node, packet=flit.packet.uid,
                    port=port.name, vc=vc,
                    route=buffer.route_port.name,
                )
        if not flits:
            self._occupied.add((port, vc))
            self._requesters[buffer.route_port].add((port, vc))
            if ready_cycle < self._ready_min:
                self._ready_min = ready_cycle
        flits.append((ready_cycle, flit))
        self._buffered += 1
        self.buffer_writes += 1

    # -- per-cycle operation ---------------------------------------------

    def tick(self, cycle: int) -> None:
        """One cycle: each output port forwards at most one flit.

        Round-robin among the (input port, vc) requesters of each
        output whose head flit is ready and passes flow control: the
        winner is the one whose arbitration index ``in_port * num_vcs +
        vc + 1`` is cyclically nearest at or after the arbiter pointer,
        and the pointer then moves just past it.  Indices are distinct,
        so the pick does not depend on set iteration order.
        """
        if self._ready_min > cycle:
            return
        inputs = self.inputs
        num_vcs = self.num_vcs
        arbiter = self._arbiter_state
        for out_port, requesters in self._req_items:
            if not requesters:
                continue
            if out_port is _LOCAL:
                dinputs = None  # ejection is never blocked
            else:
                dinputs = self.downstream[out_port].inputs[_OPPOSITE[out_port]]
            start = arbiter[out_port]
            best_mod = 1000  # exceeds every arbitration index
            best_key = None
            for req_key in requesters:
                in_port, vc = req_key
                buffer = inputs[in_port][vc]
                ready, flit = buffer.flits[0]
                if ready > cycle:
                    continue
                if dinputs is not None:
                    out_vc = buffer.out_vc
                    if flit.is_head and out_vc is None:
                        if free_vc(dinputs) is None:
                            continue
                    else:
                        dbuf = dinputs[out_vc]
                        if dbuf.capacity <= len(dbuf.flits):
                            continue
                mod = (in_port * num_vcs + vc + 1 - start) % 1000
                if mod < best_mod:
                    best_mod = mod
                    best_key = req_key
            if best_key is not None:
                in_port, vc = best_key
                arbiter[out_port] = in_port * num_vcs + vc + 2  # index + 1
                self._forward(out_port, best_key, cycle)

    def _forward(self, out_port: Port, key: tuple[Port, int], cycle: int) -> None:
        """The head flit of input VC ``key`` won ``out_port`` this cycle."""
        buffer = self.inputs[key[0]][key[1]]
        flits = buffer.flits
        flit = flits.popleft()[1]
        self._buffered -= 1
        if not flits:
            self._occupied.discard(key)
            self._requesters[buffer.route_port].discard(key)
        self.buffer_reads += 1
        self.flits_routed += 1

        if out_port is _LOCAL:
            if flit.is_tail:
                if TRACE.enabled:
                    TRACE.emit(
                        "eject", cat="mesh",
                        cycle=cycle + self.router_latency,
                        node=self.node, packet=flit.packet.uid,
                        src=flit.packet.src,
                    )
                self.deliver(flit.packet, cycle + self.router_latency)
        else:
            downstream = self.downstream[out_port]
            in_port = _OPPOSITE[out_port]
            if flit.is_head and buffer.out_vc is None:
                # Arbitration saw a free downstream VC this cycle.
                buffer.out_vc = free_vc(downstream.inputs[in_port])
            self.link_flits += 1
            downstream.accept_flit(
                in_port, buffer.out_vc, flit,
                cycle + self.router_latency + self.link_latency,
            )
        if flit.is_tail:
            buffer.owner = None
            buffer.route_port = None
            buffer.out_vc = None
        # A head left: recompute the earliest remaining head readiness.
        ready_min = NEVER
        inputs = self.inputs
        for port, vc in self._occupied:
            ready = inputs[port][vc].flits[0][0]
            if ready < ready_min:
                ready_min = ready
        self._ready_min = ready_min

    def occupancy(self) -> int:
        """Buffered flits, recounted from the buffers (``audit`` checks
        the ``_buffered`` counter against it)."""
        return sum(
            len(vc.flits) for vcs in self.inputs.values() for vc in vcs
        )
